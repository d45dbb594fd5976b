import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from dpvi.cli import load_config, main


def write_config(tmp_path, payload, name="problem.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return str(path)


def obstacle_config():
    return {
        "schema": 1,
        "mesh": {"dim": 1, "n": 64},
        "exponents": {"p": "2", "q": "3", "mu": "0"},
        "constraint": {"kind": "obstacle", "psi": "-0.5", "c_psi": 0.1},
        "f": {"f1": "8", "f2": "8"},
        "solver": {"tol": 1e-10, "max_iter": 200, "selection": "midpoint", "seed": 0},
    }


def read_solution(path):
    rows = Path(path).read_text().strip().splitlines()[1:]
    return np.array([float(r.split(",")[-1]) for r in rows])


def test_solve_obstacle(tmp_path, capsys):
    cfg = write_config(tmp_path, obstacle_config())
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    vals = read_solution(out / "solution.csv")
    assert vals.min() == pytest.approx(-0.5, abs=1e-6)
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["residual"] <= 1e-9


def test_solve_box(tmp_path):
    payload = obstacle_config()
    payload["mesh"]["n"] = 32
    payload["constraint"] = {"kind": "box", "psi": "-0.2", "psi_upper": "0.2", "c_psi": 0.1}
    payload["f"] = {"f1": "24*(1 - 2*x)", "f2": "24*(1 - 2*x)"}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    vals = read_solution(out / "solution.csv")
    assert vals.min() == -0.2 and vals.max() == 0.2  # feasible, with both bounds active


@pytest.mark.parametrize("constraint, message", [
    ({"kind": "obstacle"}, "constraint kind 'obstacle' needs the key 'psi'"),
    ({"kind": "box", "psi": "-1"}, "constraint kind 'box' needs the key 'psi_upper'"),
    ({"kind": "whole_space", "psi": "-1"},
     "constraint kind 'whole_space' does not take the key 'psi'"),
    ({"c_psi": 0.1}, "constraint kind 'whole_space' does not take the key 'c_psi'"),
    ({"kind": "obstacle", "psi": "-1", "psi_upper": "1"},
     "constraint kind 'obstacle' does not take the key 'psi_upper'"),
], ids=["obstacle_without_psi", "box_without_psi_upper", "whole_space_with_psi",
        "whole_space_with_c_psi", "obstacle_with_psi_upper"])
def test_constraint_block_validated(tmp_path, capsys, constraint, message):
    payload = obstacle_config()
    payload["constraint"] = constraint
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_norm_plastic_number(tmp_path, capsys):
    payload = {
        "schema": 1,
        "mesh": {"dim": 1, "n": 8},
        "exponents": {"p": "2", "q": "3", "mu": "1"},
        "function": {"u": "1"},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["norm", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    text = capsys.readouterr().out
    match = re.search(r"lebesgue_H luxemburg norm: ([0-9.]+)", text)
    assert match, text
    assert float(match.group(1)) == pytest.approx(1.3247180, abs=1e-6)


def test_verify_constructed_pair(tmp_path):
    payload = obstacle_config()
    payload["bounds"] = {"k1": "8", "k2": "8", "margin": 1e-3}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    certs = json.loads((out / "certificates.json").read_text())
    assert certs["lower"]["passed"] and certs["upper"]["passed"]
    assert certs["ordered"] is True


def test_extremal_command(tmp_path):
    payload = {
        "schema": 1,
        "mesh": {"dim": 1, "n": 16},
        "exponents": {"p": "2", "q": "3", "mu": "0"},
        "f": {"f1": "-1", "f2": "1"},
        "bounds": {"k1": "1", "k2": "-1", "margin": 1e-3},
        "solver": {"tol": 1e-10},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["extremal", "--config", cfg, "--out", str(out)]) == 0
    lo = read_solution(out / "u_smallest.csv")
    hi = read_solution(out / "u_greatest.csv")
    assert np.all(lo <= hi + 1e-12)
    history = (out / "history_greatest.csv").read_text().splitlines()
    assert history[0] == "iter,max_update,residual"
    assert len(history) >= 2


def test_probe_coercivity_command(tmp_path, capsys):
    payload = {
        "schema": 1,
        "mesh": {"dim": 1, "n": 8},
        "exponents": {"p": "2", "q": "3", "mu": "0"},
        "f": {"f1": "0", "f2": "0"},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["probe-coercivity", "--config", cfg, "--out", str(out),
                 "--radii", "1,2", "--samples", "3"]) == 0
    text = capsys.readouterr().out
    assert "no violation found" in text
    rows = (out / "coercivity.csv").read_text().splitlines()
    assert rows[0] == "radius,min_pairing,violation_found"
    assert len(rows) == 3


@pytest.mark.parametrize("flags, message", [
    (["--radii", "0"], "coercivity radii must be finite and positive, got 0.0"),
    (["--radii", "1,-1"], "coercivity radii must be finite and positive, got -1.0"),
    (["--radii", "inf"], "coercivity radii must be finite and positive, got inf"),
    (["--radii", "nan"], "coercivity radii must be finite and positive, got nan"),
    (["--radii", ","], "the coercivity probe needs at least one radius"),
    (["--samples", "0"], "samples per radius must be at least 1, got 0"),
], ids=["zero_radius", "negative_radius", "infinite_radius", "nan_radius", "no_radius",
        "no_samples"])
def test_probe_coercivity_inputs_validated(tmp_path, capsys, flags, message):
    cfg = write_config(tmp_path, obstacle_config())
    out = tmp_path / "out"
    assert main(["probe-coercivity", "--config", cfg, "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("solver, flags, message", [
    ({}, ["--tol", "0"], "solver option 'tol' must be finite and positive, got 0.0"),
    ({}, ["--tol", "-1"], "solver option 'tol' must be finite and positive, got -1.0"),
    ({}, ["--tol", "nan"], "solver option 'tol' must be finite and positive, got nan"),
    ({"tol": float("inf")}, [], "solver option 'tol' must be finite and positive, got inf"),
    ({}, ["--max-iter", "0"], "solver option 'max_iter' must be at least 1, got 0"),
    ({"max_iter": -3}, [], "solver option 'max_iter' must be at least 1, got -3"),
    ({"max_iter": [1]}, [], "solver option 'max_iter' must be a number, got [1]"),
    ({"tol": "abc"}, [], "solver option 'tol' must be a number, got 'abc'"),
    ({"seed": "x"}, [], "solver option 'seed' must be a number, got 'x'"),
    ({"max_iter": 2.5}, [], "solver option 'max_iter' must be an integer, got 2.5"),
    ({"seed": 1.7}, [], "solver option 'seed' must be an integer, got 1.7"),
    ({"max_iter": float("inf")}, [], "solver option 'max_iter' must be an integer, got inf"),
    ({"max_iter": True}, [], "solver option 'max_iter' must be a number, got True"),
    ({"seed": False}, [], "solver option 'seed' must be a number, got False"),
    ({"tol": True}, [], "solver option 'tol' must be a number, got True"),
    ({"selection": "best"}, [],
     "solver option 'selection' must be one of ('lower', 'upper', 'midpoint'), got 'best'"),
], ids=["flag_tol_zero", "flag_tol_negative", "flag_tol_nan", "config_tol_inf",
        "flag_max_iter_zero", "config_max_iter_negative", "config_max_iter_list",
        "config_tol_text", "config_seed_text", "config_max_iter_fraction",
        "config_seed_fraction", "config_max_iter_inf", "config_max_iter_bool",
        "config_seed_bool", "config_tol_bool", "config_selection_unknown"])
def test_solver_options_validated(tmp_path, capsys, solver, flags, message):
    payload = obstacle_config()
    payload["solver"].update(solver)
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_selection_rejected_without_reaction(tmp_path, capsys):
    # no reaction reads the rule, so only the validation can catch it
    payload = obstacle_config()
    del payload["f"]
    payload["solver"]["selection"] = "best"
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "solver option 'selection' must be one of" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mesh, message", [
    ({"dim": 1.5}, "mesh option 'dim' must be an integer, got 1.5"),
    ({"n": 2.5}, "mesh option 'n' must be an integer, got 2.5"),
    ({"n": True}, "mesh option 'n' must be a number, got True"),
    ({"dim": "two"}, "mesh option 'dim' must be a number, got 'two'"),
    ({"n": float("inf")}, "mesh option 'n' must be an integer, got inf"),
    ({"dim": 3}, "dim must be 1 or 2"),
    ({"n": 0}, "subdivisions must be >= 1"),
], ids=["dim_fraction", "n_fraction", "n_bool", "dim_text", "n_inf", "dim_three", "n_zero"])
def test_mesh_options_validated(tmp_path, capsys, mesh, message):
    payload = obstacle_config()
    payload["mesh"].update(mesh)
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    payload = obstacle_config()
    payload["exponentz"] = {"p": "2"}
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown top-level keys" in capsys.readouterr().err


def test_missing_schema_rejected(tmp_path, capsys):
    payload = obstacle_config()
    del payload["schema"]
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_bad_expression_rejected(tmp_path, capsys):
    payload = obstacle_config()
    payload["exponents"]["p"] = "2 +"
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "o")]) == 2


def test_nonconvergence_exit_code(tmp_path, capsys):
    payload = obstacle_config()
    payload["solver"] = {"tol": 1e-16, "max_iter": 1}
    cfg = write_config(tmp_path, payload)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--max-iter", "1"])
    assert code == 3


def test_determinism_byte_identical(tmp_path):
    payload = obstacle_config()
    cfg = write_config(tmp_path, payload)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", "--config", cfg, "--out", str(out), "--seed", "42"]) == 0
        outs.append(out)
    for fname in ("solution.csv", "report.json", "report.txt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_flag_overrides_config(tmp_path):
    payload = obstacle_config()
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--selection", "upper", "--tol", "1e-8"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["selection_rule"] == "upper"


CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
EXTREMAL_CONFIGS = sorted(
    p.stem for p in CONFIGS.glob("*.yaml")
    if "bounds" in yaml.safe_load(p.read_text(encoding="utf-8"))
)


def test_extremal_configs_found():
    assert EXTREMAL_CONFIGS == ["interval_extremal", "noncoercive", "obstacle", "robin_step"]


@pytest.mark.parametrize("name", EXTREMAL_CONFIGS)
def test_extremal_on_shipped_config(tmp_path, capsys, name):
    out = tmp_path / "out"
    code = main(["extremal", "--config", str(CONFIGS / f"{name}.yaml"), "--out", str(out)])
    err = capsys.readouterr().err
    if name == "noncoercive":  # known non-convergence of the enclosed solve
        assert code == 3
        assert err.startswith("error: ") and "Traceback" not in err
        assert "the line search found no decrease" in err
        return
    assert code == 0, err
    lo = read_solution(out / "u_smallest.csv")
    hi = read_solution(out / "u_greatest.csv")
    assert np.all(lo <= hi + 1e-12)


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_yaml_loaders_agree_on_shipped_configs(config):
    # load_config parses with libyaml's CSafeLoader where PyYAML has it
    text = config.read_text(encoding="utf-8")
    cfg = load_config(config)
    assert cfg == yaml.load(text, Loader=yaml.SafeLoader)
    if hasattr(yaml, "CSafeLoader"):
        assert cfg == yaml.load(text, Loader=yaml.CSafeLoader)


def test_malformed_yaml_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("schema: 1\nmesh: {dim: 1, n: [4\n", encoding="utf-8")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "configuration is not valid YAML" in capsys.readouterr().err


@pytest.mark.parametrize("command, blocks, config, out, message", [
    ("norm", {"function": {}}, None, "o", "block 'function' needs the key 'u'"),
    ("extremal", {"j": {"j2": "1"}}, None, "o", "block 'j' needs the key 'j1'"),
    ("solve", {"f": {"f1": "-1"}}, None, "o", "block 'f' needs the key 'f2'"),
    ("solve", {}, "", "o", "cannot read configuration file {tmp}: Is a directory"),
    ("solve", {}, "missing.yaml", "o",
     "cannot read configuration file {tmp}/missing.yaml: No such file or directory"),
    ("solve", {}, None, "taken", "output path {tmp}/taken is not a directory"),
    ("solve", {}, None, "taken/o", "output path {tmp}/taken is not a directory"),
], ids=["function_without_u", "j_without_j1", "f_without_f2", "config_is_directory",
        "config_missing", "out_is_file", "out_under_file"])
def test_bad_input_exits_2_naming_the_key_or_path(tmp_path, capsys, command, blocks, config,
                                                  out, message):
    payload = obstacle_config()
    payload.update(blocks)
    cfg = write_config(tmp_path, payload) if config is None else str(tmp_path / config)
    (tmp_path / "taken").write_text("", encoding="utf-8")
    assert main([command, "--config", cfg, "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"


# CLI command -> the config block it needs
COMMAND_BLOCKS = {"solve": None, "extremal": "bounds", "verify": "bounds", "norm": "function",
                  "probe-coercivity": None}


def _artifacts(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())} if out.is_dir() else {}


@pytest.mark.parametrize("command", list(COMMAND_BLOCKS))
@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_every_shipped_config_through_every_command(tmp_path, capsys, config, command):
    # twice in one process: same exit code, byte-identical artifacts, stdout and stderr
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main([command, "--config", str(config), "--out", str(out)])
        runs.append((code, _artifacts(out), capsys.readouterr()))
    (code, files, streams), again = runs
    assert again == runs[0]
    block = COMMAND_BLOCKS[command]
    if block is not None and block not in load_config(config):
        assert code == 2, streams.err
        assert streams.err.startswith("error: ")
    elif (config.stem, command) == ("noncoercive", "extremal"):  # known non-convergence
        assert code == 3, streams.err
        assert streams.err.startswith("error: ")
    else:
        assert code == 0, streams.err
        assert files
