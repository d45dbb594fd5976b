"""Configuration-driven command line interface.

Commands operate on a YAML problem description and write deterministic
artifacts (CSV solutions, JSON reports, iteration histories) to an output
directory:

    dpvi solve            --config problem.yaml --out results/
    dpvi extremal         --config problem.yaml --out results/
    dpvi verify           --config problem.yaml --out results/
    dpvi norm             --config problem.yaml
    dpvi probe-coercivity --config problem.yaml --radii 1,2,4,8 --out results/

Exit codes: 0 success, 2 configuration/validation error, 3 non-convergence.
Identical configuration and seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml

from .expr import ExprError
from .extremal import (
    EnclosureError,
    OrderedInterval,
    construct_obstacle_bounds,
    discontinuous_fixed_point,
    extremal_pair,
    verify_subsolution,
    verify_supersolution,
)
from .mesh import FeFunction, build_mesh, fe_interpolate
from .multifun import SELECTION_RULES, IntervalMultifunction, TwoArgIntervalMultifunction
from .operator import DoublePhaseOperator
from .spaces import ExponentData, ModularKind, luxemburg_norm, modular, validate_exponents
from .visolve import (
    ConstraintSet,
    SolverError,
    SolverOptions,
    VIProblem,
    check_coercivity,
    solve_vi,
)

SCHEMA_VERSION = 1

# libyaml's parser where PyYAML was built with it; both build the same safe documents
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_TOP_LEVEL_KEYS = {
    "schema",
    "mesh",
    "exponents",
    "constraint",
    "f",
    "f_gamma",
    "j",
    "bounds",
    "solver",
    "function",
}

_BLOCK_KEYS = {
    "mesh": {"dim", "n", "gamma_predicate"},
    "exponents": {"p", "q", "mu"},
    "constraint": {"kind", "psi", "psi_upper", "c_psi"},
    "f": {"f1", "f2"},
    "f_gamma": {"f1", "f2"},
    "j": {"j1", "j2"},
    "bounds": {"k1", "k2", "margin", "u_lower", "u_upper"},
    "solver": {"tol", "max_iter", "selection", "seed"},
    "function": {"u"},
}

_COMPLETE_BLOCKS = {"f", "f_gamma", "j", "function"}  # blocks that need every key they allow


# the bound expressions each constraint kind reads, as (lower, upper)
_CONSTRAINT_BOUNDS = {"whole_space": (), "obstacle": ("psi",), "box": ("psi", "psi_upper")}


class ConfigError(ValueError):
    pass


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read configuration file {path}: {exc.strerror}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"configuration is not valid YAML: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("configuration must be a key-value document")
    unknown = set(cfg) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"missing or unsupported schema version (expected {SCHEMA_VERSION})")
    for block, allowed in _BLOCK_KEYS.items():
        if block in cfg:
            if not isinstance(cfg[block], dict):
                raise ConfigError(f"block {block!r} must be a mapping")
            extra = set(cfg[block]) - allowed
            if extra:
                raise ConfigError(f"unknown keys in {block!r}: {sorted(extra)}")
            missing = sorted(allowed - set(cfg[block]))
            if missing and block in _COMPLETE_BLOCKS:
                raise ConfigError(f"block {block!r} needs the key {missing[0]!r}")
    for required in ("mesh", "exponents"):
        if required not in cfg:
            raise ConfigError(f"missing required block {required!r}")
    return cfg


def _require(cfg, block, command):
    if block not in cfg:
        raise ConfigError(f"command {command!r} requires the {block!r} block")
    return cfg[block]


def _number(block, cfg, key, default, flag=None):
    """Option ``key`` of config block ``block`` as a float, unless ``flag`` overrides it."""
    if flag is not None:
        return flag
    value = cfg.get(key, default)
    try:
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{block} option {key!r} must be a number, got {value!r}") from None


def _integer(block, cfg, key, default, flag=None):
    """:func:`_number`, which must be a whole number, as an int."""
    value = _number(block, cfg, key, default, flag)
    if not float(value).is_integer():
        raise ConfigError(f"{block} option {key!r} must be an integer, got {cfg[key]!r}")
    return int(value)


def build_problem(cfg):
    mcfg = cfg["mesh"]
    try:
        mesh = build_mesh(_integer("mesh", mcfg, "dim", 1), _integer("mesh", mcfg, "n", 8),
                          mcfg.get("gamma_predicate"))
        ecfg = cfg["exponents"]
        ed = ExponentData.from_expressions(
            mesh, str(ecfg.get("p", "2")), str(ecfg.get("q", "3")), str(ecfg.get("mu", "0"))
        )
        op = DoublePhaseOperator(mesh, ed)

        ccfg = cfg.get("constraint", {})
        kind = ccfg.get("kind", "whole_space")
        if kind not in _CONSTRAINT_BOUNDS:
            raise ConfigError(f"unknown constraint kind {kind!r}")
        keys = _CONSTRAINT_BOUNDS[kind]
        missing = [key for key in keys if key not in ccfg]
        if missing:
            raise ConfigError(f"constraint kind {kind!r} needs the key {missing[0]!r}")
        # the obstacle ceiling c_psi only applies to a set with bounds
        extra = sorted(set(ccfg) - {"kind", *keys} - ({"c_psi"} if keys else set()))
        if extra:
            raise ConfigError(f"constraint kind {kind!r} does not take the key {extra[0]!r}")
        cs = ConstraintSet(*(fe_interpolate(str(ccfg[key]), mesh) for key in keys))

        f = None
        if "f" in cfg:
            f = IntervalMultifunction(mesh, str(cfg["f"]["f1"]), str(cfg["f"]["f2"]))
        f_gamma = None
        if "f_gamma" in cfg:
            f_gamma = IntervalMultifunction(
                mesh, str(cfg["f_gamma"]["f1"]), str(cfg["f_gamma"]["f2"]), on_boundary=True
            )
        prob = VIProblem(op, cs, f, f_gamma)
    except (ExprError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return prob


def solver_options(cfg, args):
    scfg = cfg.get("solver", {})
    tol = _number("solver", scfg, "tol", 1e-9, args.tol)
    max_iter = _integer("solver", scfg, "max_iter", 200, args.max_iter)
    if not 0 < tol < np.inf:
        raise ConfigError(f"solver option 'tol' must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ConfigError(f"solver option 'max_iter' must be at least 1, got {max_iter}")
    selection = args.selection or scfg.get("selection", "midpoint")
    if selection not in SELECTION_RULES:
        raise ConfigError(f"solver option 'selection' must be one of {SELECTION_RULES}, "
                          f"got {selection!r}")
    seed = _integer("solver", scfg, "seed", 0, args.seed)
    return SolverOptions(tol=tol, max_iter=max_iter, selection=selection, seed=seed)


def make_interval(prob, cfg, opts, command):
    bcfg = _require(cfg, "bounds", command)
    if "u_lower" in bcfg or "u_upper" in bcfg:
        if not ("u_lower" in bcfg and "u_upper" in bcfg):
            raise ConfigError("explicit bounds need both u_lower and u_upper")
        lower = fe_interpolate(str(bcfg["u_lower"]), prob.mesh)
        upper = fe_interpolate(str(bcfg["u_upper"]), prob.mesh)
        return OrderedInterval(
            lower,
            upper,
            verify_subsolution(lower, prob, "lower"),
            verify_supersolution(upper, prob, "upper"),
        )
    if not ("k1" in bcfg and "k2" in bcfg):
        raise ConfigError("bounds block needs k1/k2 or u_lower/u_upper")
    c_psi = cfg.get("constraint", {}).get("c_psi")
    return construct_obstacle_bounds(
        prob,
        str(bcfg["k1"]),
        str(bcfg["k2"]),
        c_psi=float(c_psi) if c_psi is not None else None,
        margin=float(bcfg.get("margin", 1e-3)),
        opts=opts,
    )


# ---------------------------------------------------------------------------
# artifact writers (deterministic byte-for-byte for a fixed config and seed)


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _history_csv(rows):
    lines = ["iter,max_update,residual"]
    for row in rows:
        lines.append(f"{row['iter']},{row['max_update']!r},{row['residual']!r}")
    return "\n".join(lines) + "\n"


def _report_payload(report):
    return {
        "converged": report.converged,
        "newton_iterations": report.newton_iterations,
        "residual": report.residual,
        "selection_rule": report.selection_rule,
        "active_set_history": report.active_set_history,
        "enclosure_status": None,  # a plain solve has no bounds to enclose it
        "message": report.message,
    }


# ---------------------------------------------------------------------------
# commands


def cmd_solve(cfg, args, out):
    prob = build_problem(cfg)
    opts = solver_options(cfg, args)
    u, eta, zeta, report = solve_vi(prob, opts)
    _write(out / "solution.csv", u.to_csv())
    payload = _report_payload(report)
    _write(out / "report.json", _json_text(payload))
    _write(
        out / "report.txt",
        "solve: converged={converged} residual={residual!r} "
        "newton={newton_iterations}\n".format(**payload),
    )
    print(f"solve: residual {report.residual:.3e} after {report.newton_iterations} iterations",
          file=sys.stderr)
    return 0 if report.converged else 3


def cmd_extremal(cfg, args, out):
    prob = build_problem(cfg)
    opts = solver_options(cfg, args)
    oi = make_interval(prob, cfg, opts, "extremal")
    if not oi.certified():
        raise ConfigError("bound certificates failed; cannot run extremal iterations")
    if "j" in cfg:
        j = TwoArgIntervalMultifunction(prob.mesh, str(cfg["j"]["j1"]), str(cfg["j"]["j2"]))
        smallest, greatest, histories = discontinuous_fixed_point(prob, j, oi, opts)
    else:
        if prob.f is None:
            raise ConfigError("command 'extremal' requires an f block (or a j block)")
        smallest, greatest, sset = extremal_pair(prob, oi, opts)
        histories = sset.histories
    _write(out / "u_smallest.csv", smallest.to_csv())
    _write(out / "u_greatest.csv", greatest.to_csv())
    _write(out / "history_smallest.csv", _history_csv(histories["smallest"]))
    _write(out / "history_greatest.csv", _history_csv(histories["greatest"]))
    payload = {
        "ordered": bool(np.all(smallest.coeffs <= greatest.coeffs + 1e-12)),
        "outer_iterations": {k: len(v) for k, v in histories.items()},
        "bounds": {"M": oi.M},
    }
    _write(out / "report.json", _json_text(payload))
    _write(out / "report.txt", f"extremal: ordered={payload['ordered']}\n")
    return 0


def cmd_verify(cfg, args, out):
    prob = build_problem(cfg)
    opts = solver_options(cfg, args)
    oi = make_interval(prob, cfg, opts, "verify")
    payload = {
        "lower": asdict(oi.lower_certificate),
        "upper": asdict(oi.upper_certificate),
        "ordered": bool(np.all(oi.lower.coeffs <= oi.upper.coeffs)),
        "M": oi.M,
    }
    _write(out / "certificates.json", _json_text(payload))
    line = "verify: lower {} (margin {:.3e}), upper {} (margin {:.3e})".format(
        "passed" if payload["lower"]["passed"] else "FAILED",
        payload["lower"]["margin"],
        "passed" if payload["upper"]["passed"] else "FAILED",
        payload["upper"]["margin"],
    )
    _write(out / "certificates.txt", line + "\n")
    print(line)
    return 0 if payload["lower"]["passed"] and payload["upper"]["passed"] else 3


def cmd_norm(cfg, args, out):
    prob = build_problem(cfg)
    fcfg = _require(cfg, "function", "norm")
    u = fe_interpolate(str(fcfg["u"]), prob.mesh)
    ed = prob.exponents
    report = validate_exponents(ed)
    lines = []
    for label, kind in (
        ("lebesgue_H", ModularKind.lebesgue()),
        ("sobolev_H", ModularKind.sobolev()),
    ):
        rho = modular(kind, ed, u)
        lam = luxemburg_norm(kind, ed, u, tol=1e-10)
        lines.append(f"{label} modular: {rho:.10g}")
        lines.append(f"{label} luxemburg norm: {lam:.10g}")
    lines.append(f"exponent hypotheses: {'ok' if report.ok else 'violated'}")
    for v in report.violations:
        lines.append(f"  violated: {v['condition']} at {v['count']} points")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    _write(out / "norm.txt", text)
    return 0


def cmd_probe_coercivity(cfg, args, out):
    prob = build_problem(cfg)
    opts = solver_options(cfg, args)
    radii = [float(tok) for tok in (args.radii or "1,2,4,8").split(",") if tok]
    u0 = FeFunction(prob.mesh, prob.constraint.project(
        np.zeros(prob.mesh.n_nodes), prob.mesh))
    report = check_coercivity(prob, u0, radii, samples_per_radius=args.samples,
                              seed=opts.seed)
    lines = ["radius,min_pairing,violation_found"]
    for row in report["rows"]:
        lines.append(f"{row['radius']!r},{row['min_pairing']!r},{row['violation_found']}")
    csv_text = "\n".join(lines) + "\n"
    _write(out / "coercivity.csv", csv_text)
    _write(out / "coercivity.txt", report["summary"] + "\n")
    sys.stdout.write(report["summary"] + "\n")
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "extremal": cmd_extremal,
    "verify": cmd_verify,
    "norm": cmd_norm,
    "probe-coercivity": cmd_probe_coercivity,
}


@functools.cache
def _parser():
    """The argument parser of :func:`main`, built once per process."""
    parser = argparse.ArgumentParser(
        prog="dpvi",
        description="finite-element solvers for double-phase multi-valued "
        "variational inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML problem description")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--selection", choices=SELECTION_RULES, default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "probe-coercivity":
            p.add_argument("--radii", default="1,2,4,8",
                           help="comma-separated Luxemburg radii")
            p.add_argument("--samples", type=int, default=8)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out = Path(args.out)
    try:
        cfg = load_config(args.config)
        existing = next(path for path in (out, *out.parents) if path.exists())
        if not existing.is_dir():
            raise ConfigError(f"output path {existing} is not a directory")
        return _COMMANDS[args.command](cfg, args, out)
    except (ConfigError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, EnclosureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
