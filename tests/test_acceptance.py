"""Acceptance suite: every criterion at its stated tolerance.

Each criterion is a function returning a JSON-serializable payload with a
``passed`` flag and details; the tests assert and print one pass/fail line.
The determinism criterion re-runs every other criterion with its fixed seed
and demands byte-identical serialized payloads, plus byte-identical files
from a double CLI run.
"""

import json
import time

import numpy as np
import pytest

from dpvi.extremal import (
    construct_obstacle_bounds,
    discontinuous_fixed_point,
    extremal_pair,
    solve_enclosed,
)
from dpvi.mesh import FeFunction, build_mesh
from dpvi.multifun import (
    IntervalMultifunction,
    TruncationData,
    TwoArgIntervalMultifunction,
    assemble_source,
    compensator,
    penalty,
    truncate_multifunction,
)
from dpvi.operator import DoublePhaseOperator
from dpvi.spaces import ExponentData, ModularKind, luxemburg_norm, modular
from dpvi.visolve import ConstraintSet, SolverOptions, VIProblem, solve_vi, vi_residual

_RESULTS = {}


def run_once(name, fn):
    if name not in _RESULTS:
        _RESULTS[name] = fn()
    return _RESULTS[name]


def report_line(name, payload):
    status = "PASS" if payload["passed"] else "FAIL"
    print(f"criterion {name}: {status} ({payload.get('detail', '')})")


def _round(x, nd=12):
    return float(np.format_float_scientific(x, precision=nd))


# -- criterion 1: modular-norm relations --------------------------------------


def criterion_1():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    triples = (("1.5", "2", "0"), ("2", "3", "1"), ("1.8", "2.5", "0.5 + 0.5*x"))
    kind = ModularKind.sobolev()
    worst_unit = 0.0
    worst_slack = np.inf
    checked = 0
    for dim, n in ((1, 16), (2, 8)):
        mesh = build_mesh(dim, n)
        for p, q, mu in triples:
            ed = ExponentData.from_expressions(mesh, p, q, mu)
            for k in range(200):
                u = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
                lam0 = luxemburg_norm(kind, ed, u)
                target = (0.25, 0.5, 2.0, 4.0)[k % 4]
                v = u * (target / lam0)
                lam = luxemburg_norm(kind, ed, v)
                rho_unit = modular(kind, ed, v * (1.0 / lam))
                worst_unit = max(worst_unit, abs(rho_unit - 1.0))
                rho = modular(kind, ed, v)
                # norm-modular trichotomy and the sandwich bounds
                if lam < 1.0:
                    assert rho < 1.0 + 1e-10
                    slacks = (rho - lam**ed.q_plus, lam**ed.p_minus - rho)
                else:
                    assert rho > 1.0 - 1e-10
                    slacks = (rho - lam**ed.p_minus, lam**ed.q_plus - rho)
                worst_slack = min(worst_slack, *slacks)
                checked += 1
    elapsed = time.perf_counter() - start
    passed = worst_unit <= 1e-8 and worst_slack >= -1e-10 and elapsed <= 10.0
    return {
        "passed": bool(passed),
        "checked": checked,
        "worst_unit_ball_gap": _round(worst_unit),
        "worst_sandwich_slack": _round(worst_slack),
        "detail": f"unit-ball gap {worst_unit:.2e}, slack {worst_slack:.2e}",
    }


def test_criterion_1_modular_norm_suite():
    payload = run_once("1", criterion_1)
    report_line("1", payload)
    assert payload["passed"]


# -- criterion 2: plastic-number norm ------------------------------------------


def criterion_2():
    start = time.perf_counter()
    mesh = build_mesh(1, 8)
    ed = ExponentData.from_expressions(mesh, "2", "3", "1")
    lam = luxemburg_norm(ModularKind.lebesgue(), ed, FeFunction.constant(mesh, 1.0))
    # independent oracle: bisection on t^3 + t^2 = 1, norm = 1/t
    lo, hi = 0.5, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid**3 + mid**2 < 1.0:
            lo = mid
        else:
            hi = mid
    oracle = 1.0 / (0.5 * (lo + hi))
    elapsed = time.perf_counter() - start
    err = abs(lam - oracle)
    passed = err <= 1e-6 and abs(lam - 1.3247180) <= 1e-6 and elapsed <= 1.0
    return {
        "passed": bool(passed),
        "norm": _round(lam),
        "oracle": _round(oracle),
        "detail": f"norm {lam:.9f} vs oracle {oracle:.9f}",
    }


def test_criterion_2_plastic_number_norm():
    payload = run_once("2", criterion_2)
    report_line("2", payload)
    assert payload["passed"]


# -- criterion 3: operator gradient check ----------------------------------------


def criterion_3():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    triples = (("3", "4", "0"), ("2", "3", "1"), ("2.5", "3.5", "0.5 + 0.5*x"))
    worst_rel = 0.0
    worst_decay = np.inf
    for dim, n in ((1, 16), (2, 8)):
        mesh = build_mesh(dim, n)
        for p, q, mu in triples:
            ed = ExponentData.from_expressions(mesh, p, q, mu)
            op = DoublePhaseOperator(mesh, ed)
            for _ in range(50):
                u = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
                h = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
                pairing = float(op.apply(u) @ h.coeffs)
                scale = max(1.0, abs(pairing))
                errs = {}
                for delta in (1e-3, 1e-5):
                    fd = (op.energy(u + h * delta) - op.energy(u - h * delta)) / (2 * delta)
                    errs[delta] = abs(fd - pairing) / scale
                worst_rel = max(worst_rel, errs[1e-5])
                if errs[1e-5] > 1e-14:
                    worst_decay = min(worst_decay, errs[1e-3] / errs[1e-5])
    elapsed = time.perf_counter() - start
    passed = worst_rel <= 1e-6 and worst_decay >= 50.0 and elapsed <= 10.0
    return {
        "passed": bool(passed),
        "worst_relative_error": _round(worst_rel),
        "worst_decay_factor": _round(worst_decay),
        "detail": f"rel err {worst_rel:.2e}, decay {worst_decay:.0f}x",
    }


def test_criterion_3_gradient_check():
    payload = run_once("3", criterion_3)
    report_line("3", payload)
    assert payload["passed"]


# -- criterion 4: monotonicity -----------------------------------------------------


def criterion_4():
    rng = np.random.default_rng(404)
    triples = (("3", "4", "0"), ("2", "3", "1"), ("2.5", "3.5", "0.5 + 0.5*x"))
    worst_gap = np.inf
    worst_strict = np.inf
    for dim, n in ((1, 16), (2, 8)):
        mesh = build_mesh(dim, n)
        for p, q, mu in triples:
            ed = ExponentData.from_expressions(mesh, p, q, mu)
            op = DoublePhaseOperator(mesh, ed)
            for _ in range(100):
                u = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
                v = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
                gap = op.monotonicity_gap(u, v)
                worst_gap = min(worst_gap, gap)
                d = u - v
                grad_norm = float(
                    np.sqrt(np.sum(mesh.element_measure *
                                   np.sum(d.gradient_at_elements() ** 2, axis=1)))
                )
                if grad_norm >= 0.1:
                    worst_strict = min(worst_strict, gap)
    passed = worst_gap >= -1e-12 and worst_strict >= 1e-10
    return {
        "passed": bool(passed),
        "worst_gap": _round(worst_gap),
        "worst_strict_gap": _round(worst_strict),
        "detail": f"min gap {worst_gap:.2e}, min strict gap {worst_strict:.2e}",
    }


def test_criterion_4_monotonicity():
    payload = run_once("4", criterion_4)
    report_line("4", payload)
    assert payload["passed"]


# -- criterion 5: obstacle oracle equivalence ---------------------------------------


def _hand_stiffness_1d(n):
    h = 1.0 / n
    K = np.zeros((n + 1, n + 1))
    for e in range(n):
        K[e, e] += 1 / h
        K[e + 1, e + 1] += 1 / h
        K[e, e + 1] -= 1 / h
        K[e + 1, e] -= 1 / h
    return K


def _hand_load_1d(n, g):
    h = 1.0 / n
    M = np.zeros((n + 1, n + 1))
    for e in range(n):
        M[e, e] += h / 3
        M[e + 1, e + 1] += h / 3
        M[e, e + 1] += h / 6
        M[e + 1, e] += h / 6
    return M @ g


def _projected_sor(K, rhs, lo, free, omega=1.8, iters=60000, tol=1e-14):
    u = np.maximum(lo, 0.0)
    u[~free] = 0.0
    idx = np.flatnonzero(free)
    for _ in range(iters):
        u_prev = u.copy()
        for i in idx:
            resid = rhs[i] - K[i] @ u + K[i, i] * u[i]
            u[i] = max(lo[i], (1 - omega) * u[i] + omega * resid / K[i, i])
        if np.max(np.abs(u - u_prev)) < tol:
            break
    return u


def _obstacle_instance(n):
    mesh = build_mesh(1, n)
    ed = ExponentData.from_expressions(mesh, "2", "3", "0")
    op = DoublePhaseOperator(mesh, ed)
    psi = FeFunction.constant(mesh, -0.5)
    f = IntervalMultifunction(mesh, "8", "8")
    return VIProblem(op, ConstraintSet.obstacle(psi), f), mesh


def criterion_5():
    start = time.perf_counter()
    n = 64
    prob, mesh = _obstacle_instance(n)
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-10, seed=5))
    K = _hand_stiffness_1d(n)
    rhs = -_hand_load_1d(n, np.full(n + 1, 8.0))
    oracle = _projected_sor(K, rhs, np.full(n + 1, -0.5), mesh.free_node_mask)
    err = float(np.max(np.abs(u.coeffs - oracle)))
    active = np.flatnonzero(np.isclose(u.coeffs, -0.5, atol=1e-9))
    fb = float(mesh.nodes[active[0], 0]) if len(active) else np.inf
    fb_err = abs(fb - 1.0 / (2.0 * np.sqrt(2.0)))
    elapsed = time.perf_counter() - start
    passed = rep.converged and err <= 1e-8 and fb_err <= 1.0 / n and elapsed <= 5.0
    return {
        "passed": bool(passed),
        "max_nodal_error": _round(err),
        "free_boundary": _round(fb),
        "free_boundary_err": _round(fb_err),
        "detail": f"oracle err {err:.2e}, free boundary off by {fb_err:.4f} "
                  f"(h = {1.0 / n})",
    }


def test_criterion_5_obstacle_oracle():
    payload = run_once("5", criterion_5)
    report_line("5", payload)
    assert payload["passed"]


# -- criterion 6: bound construction + enclosure pipeline -----------------------------


def criterion_6():
    start = time.perf_counter()
    out = {}
    # coercive instance: the criterion-5 problem through the full pipeline
    prob, mesh = _obstacle_instance(64)
    oi = construct_obstacle_bounds(prob, k1="8", k2="8", c_psi=0.1, margin=1e-3,
                                   opts=SolverOptions(tol=1e-10))
    u, rep = solve_enclosed(prob, oi, SolverOptions(tol=1e-10))
    out["coercive"] = {
        "lower_margin": _round(oi.lower_certificate.margin),
        "upper_margin": _round(oi.upper_certificate.margin),
        "below": _round(rep.enclosure_status["below_lower"]),
        "above": _round(rep.enclosure_status["above_upper"]),
        "residual": _round(rep.residual),
    }
    ok_coercive = (
        oi.lower_certificate.margin >= -1e-9
        and oi.upper_certificate.margin >= -1e-9
        and rep.enclosure_status["below_lower"] <= 1e-9
        and rep.enclosure_status["above_upper"] <= 1e-9
        and rep.residual <= 1e-8
    )

    # noncoercive instance: strong drift, one-sided envelopes independent of s
    mesh2 = build_mesh(1, 32)
    ed2 = ExponentData.from_expressions(mesh2, "1.2", "2", "0")
    op2 = DoublePhaseOperator(mesh2, ed2)
    prob2 = VIProblem(
        op2,
        ConstraintSet.obstacle(FeFunction.constant(mesh2, -0.5)),
        IntervalMultifunction(mesh2, "-100*s - 1", "-100*s + 1"),
    )
    oi2 = construct_obstacle_bounds(prob2, k1="1", k2="-1", c_psi=0.01, margin=1e-3,
                                    opts=SolverOptions(tol=1e-10))
    u2, rep2 = solve_enclosed(prob2, oi2, SolverOptions(tol=1e-10))
    out["noncoercive"] = {
        "lower_margin": _round(oi2.lower_certificate.margin),
        "upper_margin": _round(oi2.upper_certificate.margin),
        "below": _round(rep2.enclosure_status["below_lower"]),
        "above": _round(rep2.enclosure_status["above_upper"]),
        "residual": _round(rep2.residual),
    }
    ok_noncoercive = (
        oi2.lower_certificate.margin >= -1e-9
        and oi2.upper_certificate.margin >= -1e-9
        and rep2.enclosure_status["below_lower"] <= 1e-9
        and rep2.enclosure_status["above_upper"] <= 1e-9
        and rep2.residual <= 1e-8
    )
    elapsed = time.perf_counter() - start
    passed = ok_coercive and ok_noncoercive and elapsed <= 30.0
    out.update(
        passed=bool(passed),
        detail=f"coercive residual {rep.residual:.1e}, "
               f"noncoercive residual {rep2.residual:.1e}",
    )
    return out


def test_criterion_6_enclosure_pipeline():
    payload = run_once("6", criterion_6)
    report_line("6", payload)
    assert payload["passed"]


# -- criterion 7: truncation idempotence ----------------------------------------------


def criterion_7():
    rng = np.random.default_rng(707)
    mesh = build_mesh(1, 16)
    ed = ExponentData.from_expressions(mesh, "2", "3", "0")
    f = IntervalMultifunction(mesh, "s - 1", "s + 1")
    lower = FeFunction.constant(mesh, -1.0)
    upper = FeFunction.constant(mesh, 1.0)
    td = TruncationData(lower, upper)
    f0 = truncate_multifunction(f, td)
    eta_lower, eta_upper = f0.frozen
    # a second, strictly lower bound member with a different frozen selection
    member_bound = FeFunction.constant(mesh, -1.5)
    member_sel = eta_lower + 0.25
    upper_member_bound = FeFunction.constant(mesh, 1.5)
    upper_member_sel = eta_upper - 0.25
    shape = mesh.quad_weights.shape
    exact = True
    for _ in range(100):
        u = FeFunction(mesh, rng.uniform(-1.0, 1.0, size=mesh.n_nodes))
        s = u.values_at_quad()
        lo0, hi0 = f0.eval_interval(mesh.quad_points, s)
        lo, hi = f.eval_interval(mesh.quad_points, s)
        exact &= bool(np.array_equal(lo0, lo) and np.array_equal(hi0, hi))
        exact &= bool(np.all(penalty(td, ed.q, s) == 0.0))
        t_low = compensator(
            "lower", member_sel, eta_lower,
            member_bound.values_at_quad(), lower.values_at_quad(), s,
        )
        t_up = compensator(
            "upper", upper_member_sel, eta_upper,
            upper_member_bound.values_at_quad(), upper.values_at_quad(), s,
        )
        exact &= bool(np.all(t_low == 0.0) and np.all(t_up == 0.0))
    return {
        "passed": bool(exact),
        "samples": 100,
        "detail": "truncation, penalty and compensators vanish exactly inside the bounds",
    }


def test_criterion_7_truncation_idempotence():
    payload = run_once("7", criterion_7)
    report_line("7", payload)
    assert payload["passed"]


# -- criterion 8: extremal ordering under selection enumeration -------------------------


def criterion_8():
    start = time.perf_counter()
    n = 8
    mesh = build_mesh(1, n)
    ed = ExponentData.from_expressions(mesh, "2", "3", "0")
    op = DoublePhaseOperator(mesh, ed)
    f = IntervalMultifunction(mesh, "-1", "1")
    prob = VIProblem(op, ConstraintSet.whole_space(), f)
    oi = construct_obstacle_bounds(prob, k1="1", k2="-1", margin=1e-3,
                                   opts=SolverOptions(tol=1e-10))
    smallest, greatest, sset = extremal_pair(prob, oi, SolverOptions(tol=1e-10))

    # enumerate the endpoint-selection lattice: one endpoint per free node,
    # interpolated to quadrature points (valid selections of the interval)
    K = op.jacobian(FeFunction.zero(mesh), eps=0.0).toarray()
    free = np.flatnonzero(mesh.free_node_mask)
    inside = True
    worst_excess = 0.0
    n_enum = 0
    for bits in range(2 ** len(free)):
        sel_nodes = np.zeros(mesh.n_nodes)
        for j, node in enumerate(free):
            sel_nodes[node] = 1.0 if (bits >> j) & 1 else -1.0
        eta = FeFunction(mesh, sel_nodes).values_at_quad()
        rhs = -assemble_source(eta, mesh)
        u = np.zeros(mesh.n_nodes)
        u[free] = np.linalg.solve(K[np.ix_(free, free)], rhs[free])
        res = vi_residual(prob, FeFunction(mesh, u), eta, None)
        assert res <= 1e-10
        lo_exc = float(np.max(smallest.coeffs - u))
        hi_exc = float(np.max(u - greatest.coeffs))
        worst_excess = max(worst_excess, lo_exc, hi_exc)
        inside &= lo_exc <= 1e-8 and hi_exc <= 1e-8
        n_enum += 1
    monotone = all(
        row["residual"] <= 1e-8 for hist in sset.histories.values() for row in hist
    )
    elapsed = time.perf_counter() - start
    passed = inside and monotone and elapsed <= 60.0
    return {
        "passed": bool(passed),
        "enumerated": n_enum,
        "worst_excess": _round(worst_excess),
        "detail": f"{n_enum} selections enclosed, worst excess {worst_excess:.2e}",
    }


def test_criterion_8_extremal_ordering():
    payload = run_once("8", criterion_8)
    report_line("8", payload)
    assert payload["passed"]


# -- criterion 9: frozen-variable reduction and monotone outer iterates ------------------


def criterion_9():
    start = time.perf_counter()
    n = 16
    mesh = build_mesh(1, n)
    ed = ExponentData.from_expressions(mesh, "2", "3", "0")
    op = DoublePhaseOperator(mesh, ed)

    # (a) no dependence on the frozen variable: fixed point == extremal pair
    f = IntervalMultifunction(mesh, "-1", "1")
    prob = VIProblem(op, ConstraintSet.whole_space(), f)
    oi = construct_obstacle_bounds(prob, k1="1", k2="-1", margin=1e-3,
                                   opts=SolverOptions(tol=1e-10))
    lo_ref, hi_ref, _ = extremal_pair(prob, oi, SolverOptions(tol=1e-10))
    j_const = TwoArgIntervalMultifunction(mesh, "-1", "1")
    lo_fp, hi_fp, _ = discontinuous_fixed_point(prob, j_const, oi, SolverOptions(tol=1e-10))
    reduction_err = max(
        float(np.max(np.abs(lo_fp.coeffs - lo_ref.coeffs))),
        float(np.max(np.abs(hi_fp.coeffs - hi_ref.coeffs))),
    )

    # (b) a steep step in the frozen variable, both endpoints nonincreasing
    step = "min(1, max(0, 1000000*(r - 0.05)))"
    j_step = TwoArgIntervalMultifunction(mesh, f"-1 - 0.5*{step}", f"1 - 0.5*{step}")
    f_env = IntervalMultifunction(mesh, "-1.5", "1")
    prob_env = VIProblem(op, ConstraintSet.whole_space(), f_env)
    oi2 = construct_obstacle_bounds(prob_env, k1="1", k2="-1.5", margin=1e-3,
                                    opts=SolverOptions(tol=1e-10))
    lo2, hi2, hist = discontinuous_fixed_point(prob_env, j_step, oi2,
                                               SolverOptions(tol=1e-9))
    outer_counts = {side: len(rows) for side, rows in hist.items()}
    elapsed = time.perf_counter() - start
    passed = (
        reduction_err <= 1e-8
        and np.all(lo2.coeffs <= hi2.coeffs + 1e-12)
        and all(c <= 20 for c in outer_counts.values())
        and elapsed <= 60.0
    )
    return {
        "passed": bool(passed),
        "reduction_error": _round(reduction_err),
        "outer_iterations": outer_counts,
        "detail": f"reduction err {reduction_err:.2e}, outer iterations "
                  f"{outer_counts}",
    }


def test_criterion_9_frozen_variable_scheme():
    payload = run_once("9", criterion_9)
    report_line("9", payload)
    assert payload["passed"]


# -- criterion 10: determinism ---------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    criteria = {
        "1": criterion_1,
        "2": criterion_2,
        "3": criterion_3,
        "4": criterion_4,
        "5": criterion_5,
        "6": criterion_6,
        "7": criterion_7,
        "8": criterion_8,
        "9": criterion_9,
    }
    mismatches = []
    for name, fn in criteria.items():
        first = json.dumps(run_once(name, fn), sort_keys=True).encode()
        second = json.dumps(fn(), sort_keys=True).encode()
        if first != second:
            mismatches.append(name)

    # file-level determinism through the batch interface
    import yaml

    from dpvi.cli import main

    cfg = tmp_path / "problem.yaml"
    cfg.write_text(yaml.safe_dump({
        "schema": 1,
        "mesh": {"dim": 1, "n": 64},
        "exponents": {"p": "2", "q": "3", "mu": "0"},
        "constraint": {"kind": "obstacle", "psi": "-0.5", "c_psi": 0.1},
        "f": {"f1": "8", "f2": "8"},
        "solver": {"tol": 1e-10, "seed": 7},
    }), encoding="utf-8")
    for cmd_args, files in (
        (["solve"], ("solution.csv", "report.json", "report.txt")),
        (["probe-coercivity", "--radii", "1,2", "--samples", "3"],
         ("coercivity.csv", "coercivity.txt")),
    ):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / (cmd_args[0] + run)
            code = main(cmd_args + ["--config", str(cfg), "--out", str(out), "--seed", "7"])
            assert code == 0
            outs.append(out)
        for fname in files:
            if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                mismatches.append(f"{cmd_args[0]}:{fname}")

    payload = {
        "passed": not mismatches,
        "mismatches": mismatches,
        "detail": "byte-identical payloads and artifacts" if not mismatches
        else f"mismatches: {mismatches}",
    }
    report_line("10", payload)
    assert payload["passed"]
