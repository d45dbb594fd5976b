import argparse
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dpvi import extremal
from dpvi.cli import build_problem, load_config, main, make_interval, solver_options
from dpvi.extremal import (
    EnclosureError,
    OrderedInterval,
    construct_obstacle_bounds,
    discontinuous_fixed_point,
    extremal_pair,
    solve_enclosed,
    verify_subsolution,
    verify_supersolution,
)
from dpvi.expr import parse_expression
from dpvi.mesh import FeFunction, build_mesh, fe_interpolate
from dpvi.multifun import IntervalMultifunction, TruncationData, TwoArgIntervalMultifunction
from dpvi.operator import DoublePhaseOperator
from dpvi.spaces import ExponentData
from dpvi.visolve import (
    ConstraintSet,
    SolverError,
    SolverOptions,
    VIProblem,
    build_auxiliary,
    solve_vi,
    vi_residual,
)


CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def make_problem(dim=1, n=8, p="2", q="3", mu="0", constraint=None, f=None):
    mesh = build_mesh(dim, n)
    ed = ExponentData.from_expressions(mesh, p, q, mu)
    op = DoublePhaseOperator(mesh, ed)
    cs = constraint(mesh) if callable(constraint) else (constraint or ConstraintSet.whole_space())
    fm = IntervalMultifunction(mesh, *f) if f else None
    return VIProblem(op, cs, fm), mesh


# -- certificates --------------------------------------------------------------


def test_exact_solution_is_sub_and_supersolution():
    prob, mesh = make_problem(1, 16, f=("3", "3"))
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-11))
    sub = verify_subsolution(u, prob)
    sup = verify_supersolution(u, prob)
    assert sub.passed and sup.passed
    assert abs(sub.margin) <= 1e-9 and abs(sup.margin) <= 1e-9


def test_obstacle_solution_is_sub_and_supersolution():
    prob, mesh = make_problem(
        1, 32, constraint=lambda m: ConstraintSet.obstacle(FeFunction.constant(m, -0.5)),
        f=("8", "8"),
    )
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-11))
    assert rep.converged
    # at contact nodes the subsolution test has no admissible direction
    sub = verify_subsolution(u, prob)
    sup = verify_supersolution(u, prob)
    assert sub.passed and sup.passed
    assert sub.tested_nodes < np.count_nonzero(mesh.free_node_mask)


def test_one_sided_construction_verifies():
    # reaction below k1 = 0 gives the zero lower bound
    prob, mesh = make_problem(1, 16, f=("-1", "1"))
    oi = construct_obstacle_bounds(prob, k1="1", k2="-1")
    assert oi.lower_certificate.passed and oi.upper_certificate.passed
    assert oi.lower_certificate.margin >= -1e-9
    assert oi.upper_certificate.margin >= -1e-9
    assert np.all(oi.lower.coeffs <= oi.upper.coeffs)


def test_failed_supersolution_reports_node():
    prob, mesh = make_problem(1, 8, f=("5", "5"))
    bad = fe_interpolate("0", mesh)  # residual entries are +5*h > 0 ... so a
    # supersolution with reaction +5 it IS; a subsolution it is not
    sub = verify_subsolution(bad, prob)
    sup = verify_supersolution(bad, prob)
    assert sup.passed
    assert not sub.passed
    assert sub.worst_node is not None


@pytest.mark.parametrize("side", ["subsolution", "supersolution"])
def test_worst_node_of_tied_margins_ignores_their_last_bits(monkeypatch, side):
    # u = 0 with f = 5 on a uniform mesh: every margin is 5 h up to rounding.  Moving
    # any one of them 2 ulp down does not move the worst node
    prob, mesh = make_problem(1, 8, f=("5", "5"))
    u = fe_interpolate("0", mesh)
    verify = verify_subsolution if side == "subsolution" else verify_supersolution
    cert = verify(u, prob)
    assert cert.worst_node == 1 and cert.tested_nodes == 7
    residual = extremal._residual_vector
    for node in range(1, 8):
        def moved(*args, node=node):
            r = residual(*args).copy()
            away = np.inf if side == "subsolution" else -np.inf  # the margin is -r or r
            r[node] = np.nextafter(np.nextafter(r[node], away), away)
            return r

        monkeypatch.setattr(extremal, "_residual_vector", moved)
        moved_cert = verify(u, prob)
        assert moved_cert.worst_node == 1 and moved_cert.margin <= cert.margin


def test_subsolution_above_box_fails_lattice():
    # join(u, K) leaves the box where u exceeds the upper bound 0.1
    prob, mesh = make_problem(
        1, 8, constraint=lambda m: ConstraintSet.box(FeFunction.constant(m, -1.0),
                                                     FeFunction.constant(m, 0.1)),
        f=("0", "0"),
    )
    sub = verify_subsolution(fe_interpolate("x*(1 - x)", mesh), prob)
    assert not sub.lattice_ok and not sub.passed
    assert sub.lattice_note == "join with the set exceeds the upper bound"


def test_k1_zero_gives_zero_lower_bound():
    prob, mesh = make_problem(1, 8, f=("-1", "0"))
    oi = construct_obstacle_bounds(prob, k1="0", k2="-1")
    np.testing.assert_allclose(oi.lower.coeffs, 0.0, atol=1e-9)


def test_poisson_upper_bound_closed_form():
    # k2 = -1: the upper-bound core solves the linear problem with solution
    # x(1-x)/2, maximum 1/8
    prob, mesh = make_problem(1, 64, f=("-1", "-1"))
    oi = construct_obstacle_bounds(prob, k1="-1", k2="-1")
    x = mesh.nodes[:, 0]
    core = oi.upper.coeffs - oi.M
    np.testing.assert_allclose(core, x * (1 - x) / 2, atol=1e-9)
    assert core.max() == pytest.approx(0.125, abs=1e-9)


def test_m_formula_with_obstacle_ceiling():
    prob, mesh = make_problem(
        1, 32, constraint=lambda m: ConstraintSet.obstacle(FeFunction.constant(m, -0.5)),
        f=("0", "0"),
    )
    margin = 1e-3
    oi = construct_obstacle_bounds(prob, k1="0", k2="-1", c_psi=0.1, margin=margin)
    # u1 = 0, u2 = x(1-x)/2 with min 0: M = max(0, 0.1 - 0, 0) + margin
    assert oi.M == pytest.approx(0.1 + margin, abs=1e-9)
    assert np.all(oi.upper.coeffs >= 0.1 - 1e-12)


def test_envelope_sampling_violation_raises():
    prob, mesh = make_problem(1, 8, f=("10", "10"))
    with pytest.raises(ValueError, match="one-sided bound violated"):
        construct_obstacle_bounds(prob, k1="1", k2="-1")


def _eval_calls_in_envelope_check(monkeypatch):
    """Counts of ``prob.f.eval_interval`` calls made by each envelope check."""
    counts, check = [], extremal._check_one_sided_envelopes

    def spy(prob, *args):
        calls, evaluate = [], prob.f.eval_interval
        monkeypatch.setattr(prob.f, "eval_interval", lambda *a: calls.append(a) or evaluate(*a))
        check(prob, *args)
        counts.append(len(calls))

    monkeypatch.setattr(extremal, "_check_one_sided_envelopes", spy)
    return counts


@pytest.mark.parametrize("config, samples", [("obstacle", 1), ("noncoercive", 33)])
def test_envelope_check_samples_s_only_when_the_reaction_reads_it(monkeypatch, config,
                                                                  samples):
    # obstacle.yaml's reaction ignores s, so one sample says what 33 would;
    # noncoercive.yaml's -100 s +- 1 reads it
    cfg = load_config(CONFIGS / f"{config}.yaml")
    prob = build_problem(cfg)
    assert prob.f.reads_s == (samples > 1)
    counts = _eval_calls_in_envelope_check(monkeypatch)
    bounds = cfg["bounds"]
    oi = construct_obstacle_bounds(prob, bounds["k1"], bounds["k2"],
                                   c_psi=cfg["constraint"]["c_psi"], margin=bounds["margin"])
    assert counts == [samples] and oi.certified()


@pytest.mark.parametrize("f, k1, k2, text", [
    ("10", "1", "-20", "f1(x,-0.25) exceeds k1 by 9.000e+00"),
    ("-10", "20", "-1", "f2(x,-0.25) drops below k2 by 9.000e+00"),
])
def test_violated_s_free_envelope_names_the_lowest_state(monkeypatch, f, k1, k2, text):
    # the one sample is s_lo, the first of the 33 the check took before, so the
    # message is the one those gave
    prob, mesh = make_problem(1, 8, f=(f, f))
    assert not prob.f.reads_s
    calls = []
    evaluate = prob.f.eval_interval
    monkeypatch.setattr(prob.f, "eval_interval", lambda *a: calls.append(a) or evaluate(*a))
    fields = (mesh.sample(parse_expression(k, ("x",))) for k in (k1, k2))
    with pytest.raises(ValueError) as err:
        extremal._check_one_sided_envelopes(prob, *fields, -0.25, 0.75)
    assert str(err.value) == f"one-sided bound violated: {text}" and len(calls) == 1


# -- enclosure solve -----------------------------------------------------------


def test_enclosure_pipeline_obstacle():
    prob, mesh = make_problem(
        1, 64, constraint=lambda m: ConstraintSet.obstacle(FeFunction.constant(m, -0.5)),
        f=("8", "8"),
    )
    oi = construct_obstacle_bounds(prob, k1="8", k2="8", c_psi=0.1)
    assert oi.certified()
    u, rep = solve_enclosed(prob, oi, SolverOptions(tol=1e-10))
    # same solution as the direct solve
    u_direct, *_ = solve_vi(prob, SolverOptions(tol=1e-10))
    assert np.max(np.abs(u.coeffs - u_direct.coeffs)) <= 1e-8
    assert np.all(u.coeffs >= oi.lower.coeffs - 1e-9)
    assert np.all(u.coeffs <= oi.upper.coeffs + 1e-9)
    # only the distances: a report that is returned is always enclosed
    assert set(rep.enclosure_status) == {"below_lower", "above_upper"}


def test_enclosure_degenerate_interval():
    prob, mesh = make_problem(1, 16, f=("2", "2"))
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-11))
    oi = OrderedInterval(u, u, verify_subsolution(u, prob), verify_supersolution(u, prob))
    v, rep2 = solve_enclosed(prob, oi, SolverOptions(tol=1e-9))
    np.testing.assert_allclose(v.coeffs, u.coeffs, atol=1e-8)


def test_enclosure_requires_certificates():
    prob, mesh = make_problem(1, 8, f=("1", "1"))
    bad = OrderedInterval(fe_interpolate("0", mesh), fe_interpolate("1", mesh))
    with pytest.raises(ValueError, match="certificates"):
        solve_enclosed(prob, bad)


def test_interval_is_a_checked_bound_pair():
    # the interval is its own truncation bound pair, with that pair's checks
    a, b = build_mesh(1, 8), build_mesh(1, 8)
    with pytest.raises(ValueError, match="bounds live on different meshes"):
        OrderedInterval(FeFunction.zero(a), FeFunction.zero(b))
    with pytest.raises(ValueError, match="bounds out of order"):
        OrderedInterval(FeFunction.constant(a, 1.0), FeFunction.zero(a))
    assert isinstance(OrderedInterval(FeFunction.zero(a), FeFunction.zero(a)), TruncationData)


def test_noncoercive_drift_encloses():
    # drift -100 s with p = 1.2: the unconstrained reaction is noncoercive,
    # but the one-sided envelopes are state independent and the bound
    # construction stays small enough for the certificates to pass
    mesh = build_mesh(1, 32)
    ed = ExponentData.from_expressions(mesh, "1.2", "2", "0")
    op = DoublePhaseOperator(mesh, ed)
    psi = FeFunction.constant(mesh, -0.5)
    f = IntervalMultifunction(mesh, "-100*s - 1", "-100*s + 1")
    prob = VIProblem(op, ConstraintSet.obstacle(psi), f)
    oi = construct_obstacle_bounds(prob, k1="1", k2="-1", c_psi=0.01, margin=1e-3)
    assert oi.lower_certificate.passed, oi.lower_certificate
    assert oi.upper_certificate.passed, oi.upper_certificate
    u, rep = solve_enclosed(prob, oi, SolverOptions(tol=1e-9))
    assert np.all(u.coeffs >= oi.lower.coeffs - 1e-9)
    assert np.all(u.coeffs <= oi.upper.coeffs + 1e-9)
    assert rep.residual <= 1e-8


# -- extremal iterations ---------------------------------------------------------


def test_extremal_pair_single_valued_collapses():
    prob, mesh = make_problem(1, 16, f=("1", "1"))
    oi = construct_obstacle_bounds(prob, k1="1", k2="1")
    lo, hi, sset = extremal_pair(prob, oi, SolverOptions(tol=1e-10))
    assert np.max(np.abs(lo.coeffs - hi.coeffs)) <= 1e-8


def test_extremal_pair_interval_reaction():
    prob, mesh = make_problem(1, 16, f=("-1", "1"))
    oi = construct_obstacle_bounds(prob, k1="1", k2="-1")
    lo, hi, sset = extremal_pair(prob, oi, SolverOptions(tol=1e-10))
    assert np.all(lo.coeffs <= hi.coeffs + 1e-12)
    assert hi.coeffs.max() - lo.coeffs.max() > 0.1  # strict gap somewhere
    x = mesh.nodes[:, 0]
    np.testing.assert_allclose(hi.coeffs, x * (1 - x) / 2, atol=1e-8)
    np.testing.assert_allclose(lo.coeffs, -x * (1 - x) / 2, atol=1e-8)
    for u in sset.members:
        assert np.all(u.coeffs >= lo.coeffs - 1e-8)
        assert np.all(u.coeffs <= hi.coeffs + 1e-8)


def test_extremal_iterations_monotone():
    prob, mesh = make_problem(1, 16, f=("-1 + 0.5*s", "1 + 0.5*s"))
    oi = construct_obstacle_bounds(prob, k1="2", k2="-2")
    lo, hi, sset = extremal_pair(prob, oi, SolverOptions(tol=1e-10))
    assert np.all(lo.coeffs <= hi.coeffs + 1e-12)
    for hist in sset.histories.values():
        assert all(row["residual"] <= 1e-8 for row in hist)


def _obstacle_minus_half(m):
    return ConstraintSet.obstacle(FeFunction.constant(m, -0.5))


@pytest.mark.parametrize("single_valued, problem, bounds, n_solves", [
    (True, dict(n=64, constraint=_obstacle_minus_half, f=("8", "8")),
     dict(k1="8", k2="8", c_psi=0.1), (2, 2)),
    # the lower bound is already the smallest solution: one smallest-side solve
    (False, dict(n=16, f=("-1", "1")), dict(k1="1", k2="-1"), (2, 1)),
    (False, dict(n=16, f=("-1 + 0.5*s", "1 + 0.5*s")), dict(k1="2", k2="-2"), (2, 2)),
])
def test_extremal_iterations_are_warm_started(monkeypatch, single_valued, problem, bounds,
                                              n_solves):
    prob, mesh = make_problem(1, **problem)
    oi = construct_obstacle_bounds(prob, **bounds)
    solves = {"lower": [], "upper": []}  # greatest side selects 'lower', smallest 'upper'
    inner = extremal.solve_vi

    def recording(prob, opts=None):
        out = inner(prob, opts)
        solves[opts.selection].append((opts.initial is not None, out[3].newton_iterations))
        return out

    monkeypatch.setattr(extremal, "solve_vi", recording)
    extremal_pair(prob, oi, SolverOptions(tol=1e-10))
    greatest, smallest = solves["lower"], solves["upper"]
    assert (len(greatest), len(smallest)) == n_solves
    assert all(started for started, _ in greatest + smallest)
    # from k = 2 on, each solve starts from a solution of its own problem
    assert all(steps == 0 for _, steps in greatest[1:] + smallest[1:])
    if single_valued:
        # the greatest candidate of the same interval already solves it
        assert smallest[0][1] == 0


def test_smallest_solution_that_is_the_subsolution(monkeypatch):
    # f in [-1, 1] over u >= -0.5: the lower bound u1 (reaction k1 = 1 = f2) already
    # solves the smallest side's problem, and Newton from above it stalls at the
    # jump of the truncated reaction there
    prob, mesh = make_problem(2, 16, "1.8", "2.6", "max(0, x - 0.5)",
                              constraint=_obstacle_minus_half, f=("-1", "1"))
    opts = SolverOptions(tol=1e-10, max_iter=200, selection="midpoint")
    oi = construct_obstacle_bounds(prob, k1="1", k2="-1", c_psi=0.1, margin=1e-3, opts=opts)
    assert oi.certified()
    steps = {"lower": [], "upper": []}  # greatest side selects 'lower', smallest 'upper'
    inner = extremal.solve_vi

    def recording(prob, opts=None):
        out = inner(prob, opts)
        steps[opts.selection].append(out[3].newton_iterations)
        return out

    monkeypatch.setattr(extremal, "solve_vi", recording)
    smallest, greatest, sset = extremal_pair(prob, oi, opts)
    assert steps["upper"] == [0]
    np.testing.assert_array_equal(smallest.coeffs, oi.lower.coeffs)
    assert np.all(smallest.coeffs <= greatest.coeffs)
    assert np.all(greatest.coeffs <= oi.upper.coeffs)
    for u, rule in [(smallest, "upper"), (greatest, "lower")]:
        eta = prob.f.select(u, rule)
        assert vi_residual(prob, u, eta) <= 1e-10


def test_full_newton_steps_accepted_on_the_euclidean_residual(monkeypatch):
    # extremal_2d's n = 32 obstacle case: the greatest side's first enclosed solve
    # takes full steps that cut the l2 residual while its max norm rises
    prob, mesh = make_problem(2, 32, "1.8", "2.6", "max(0, x - 0.5)",
                              constraint=_obstacle_minus_half, f=("8", "8"))
    opts = SolverOptions(tol=1e-10, max_iter=200, selection="midpoint")
    oi = construct_obstacle_bounds(prob, k1="8", k2="8", c_psi=0.1, margin=1e-3, opts=opts)
    reports = {"lower": [], "upper": []}  # greatest side selects 'lower', smallest 'upper'
    inner = extremal.solve_vi

    def recording(prob, opts=None):
        out = inner(prob, opts)
        reports[opts.selection].append(out[3])
        return out

    monkeypatch.setattr(extremal, "solve_vi", recording)
    extremal_pair(prob, oi, opts)
    first = reports["lower"][0]
    assert first.converged and 0 < first.newton_iterations <= 13
    history = first.residual_history
    assert any(b > a for a, b in zip(history, history[1:]))


def test_candidate_start_outside_the_interval_is_rejected():
    # u1 solves the smallest side's problem, but a first step may only start
    # from it where it lies in the step's interval
    prob, mesh = make_problem(2, 16, "1.8", "2.6", "max(0, x - 0.5)",
                              constraint=_obstacle_minus_half, f=("-1", "1"))
    opts = SolverOptions(tol=1e-10, max_iter=200, selection="upper")
    oi = construct_obstacle_bounds(prob, k1="1", k2="-1", c_psi=0.1, margin=1e-3, opts=opts)
    assert vi_residual(prob, oi.lower, prob.f.select(oi.lower, "upper")) <= opts.tol
    assert extremal._solves_enclosed(prob, oi, oi.lower, opts)
    raised = OrderedInterval(oi.lower + 1e-3, oi.upper + 1e-3)
    assert not extremal._solves_enclosed(prob, raised, oi.lower, opts)


def test_one_auxiliary_problem_per_enclosed_solve(monkeypatch):
    # the first step checks its candidate starts on the problem it then solves
    prob, mesh = make_problem(2, 16, "1.8", "2.6", "max(0, x - 0.5)",
                              constraint=_obstacle_minus_half, f=("-1", "1"))
    opts = SolverOptions(tol=1e-10, max_iter=200, selection="midpoint")
    oi = construct_obstacle_bounds(prob, k1="1", k2="-1", c_psi=0.1, margin=1e-3, opts=opts)
    built, solves = [], []
    build, enclosed = extremal.build_auxiliary, extremal.solve_enclosed
    monkeypatch.setattr(extremal, "build_auxiliary",
                        lambda *args: built.append(1) or build(*args))
    monkeypatch.setattr(extremal, "solve_enclosed",
                        lambda *args: solves.append(1) or enclosed(*args))
    extremal_pair(prob, oi, opts)
    assert len(solves) >= 2 and len(built) == len(solves)


# -- discontinuous fixed point ----------------------------------------------------


def test_fixed_point_reduces_without_frozen_dependence():
    prob, mesh = make_problem(1, 16, f=("-1", "1"))
    oi = construct_obstacle_bounds(prob, k1="1", k2="-1")
    j = TwoArgIntervalMultifunction(mesh, "-1", "1")
    lo_fp, hi_fp, hist = discontinuous_fixed_point(dataclasses.replace(prob, f=None), j, oi,
                                                   SolverOptions(tol=1e-10))
    lo, hi, _ = extremal_pair(prob, oi, SolverOptions(tol=1e-10))
    assert np.max(np.abs(lo_fp.coeffs - lo.coeffs)) <= 1e-8
    assert np.max(np.abs(hi_fp.coeffs - hi.coeffs)) <= 1e-8


def test_fixed_point_step_reaction_monotone_iterates():
    # steep-ramp step in the frozen variable, both endpoints nonincreasing
    prob0, mesh = make_problem(1, 16)
    step = "min(1, max(0, 1000000*(r - 0.05)))"
    j = TwoArgIntervalMultifunction(mesh, f"-1 - 0.5*{step}", f"1 - 0.5*{step}")
    # bounds from the r-independent envelopes: j1 >= -1.5, j2 <= 1
    f_env = IntervalMultifunction(mesh, "-1.5", "1")
    prob = dataclasses.replace(prob0, f=f_env)
    oi = construct_obstacle_bounds(prob, k1="1", k2="-1.5")
    lo, hi, hist = discontinuous_fixed_point(prob, j, oi, SolverOptions(tol=1e-9))
    assert np.all(lo.coeffs <= hi.coeffs + 1e-12)
    assert len(hist["greatest"]) <= 20 and len(hist["smallest"]) <= 20
    ups = [row["max_update"] for row in hist["greatest"]]
    assert ups[-1] <= 1e-9


def test_fixed_point_history_selects_the_boundary_reaction_by_side():
    # the history residual of each side uses that side's rule on gamma too, so a
    # multi-valued f_gamma does not show a residual the extremals do not have
    mesh = build_mesh(1, 16, "x - 0.5")
    op = DoublePhaseOperator(mesh, ExponentData.from_expressions(mesh, "2", "3", "0"))
    f_gamma = IntervalMultifunction(mesh, "-0.5", "0.5", on_boundary=True)
    prob = VIProblem(op, ConstraintSet.whole_space(), None, f_gamma)
    step = "min(1, max(0, 1000000*(r - 0.05)))"
    j = TwoArgIntervalMultifunction(mesh, f"-1 - 0.5*{step}", f"1 - 0.5*{step}")
    lower, upper = fe_interpolate("-5*x", mesh), fe_interpolate("5*x", mesh)
    oi = OrderedInterval(lower, upper, verify_subsolution(lower, prob),
                         verify_supersolution(upper, prob))
    lo, hi, hist = discontinuous_fixed_point(prob, j, oi, SolverOptions(tol=1e-9))
    for side, u, rule in (("smallest", lo, "upper"), ("greatest", hi, "lower")):
        probv = VIProblem(op, prob.constraint, j.freeze(u), f_gamma)
        assert vi_residual(probv, u, probv.f.select(u, rule), f_gamma.select(u, rule)) <= 1e-9
        assert all(row["residual"] <= 1e-9 for row in hist[side])


def test_fixed_point_rejects_bad_monotonicity():
    prob, mesh = make_problem(1, 8, f=("-1", "1"))
    oi = construct_obstacle_bounds(prob, k1="1", k2="-1")
    j = TwoArgIntervalMultifunction(mesh, "r - 1", "r + 1")  # increasing in r
    with pytest.raises(ValueError, match="monotonicity"):
        discontinuous_fixed_point(prob, j, oi, SolverOptions(tol=1e-9))


# -- guards of the shared monotone loop ---------------------------------------------


def _interval_problem():
    # the greatest side takes two steps here (see the warm-start test above)
    prob, mesh = make_problem(1, 16, f=("-1", "1"))
    return prob, mesh, construct_obstacle_bounds(prob, k1="1", k2="-1")


def _altered_on_call(inner, call, shift):
    """Wrap ``inner`` so that its ``call``-th result is changed by ``shift``."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        out = inner(*args, **kwargs)
        return shift(out) if len(calls) == call else out

    return wrapped


def _up(u):
    return FeFunction(u.mesh, u.coeffs + 1e-3 * u.mesh.free_node_mask)


def test_extremal_iteration_not_monotone_raises(monkeypatch):
    prob, mesh, oi = _interval_problem()
    monkeypatch.setattr(extremal, "solve_enclosed", _altered_on_call(
        extremal.solve_enclosed, 2, lambda out: (_up(out[0]), out[1])))
    with pytest.raises(EnclosureError, match="extremal iteration not monotone at step 2"):
        extremal_pair(prob, oi, SolverOptions(tol=1e-10))


def test_fixed_point_outer_iterates_not_monotone_raises(monkeypatch):
    prob, mesh, oi = _interval_problem()
    j = TwoArgIntervalMultifunction(mesh, "-1", "1")
    monkeypatch.setattr(extremal, "_extremal_iterate", _altered_on_call(
        extremal._extremal_iterate, 2, lambda out: (_up(out[0]), *out[1:])))
    with pytest.raises(EnclosureError, match="outer iterates not monotone at step 2"):
        discontinuous_fixed_point(dataclasses.replace(prob, f=None), j, oi, SolverOptions(tol=1e-10))


@pytest.mark.parametrize("side, shift", [("greatest", -1e-3), ("smallest", 1e-3)])
def test_fixed_point_member_beyond_its_candidate_raises(monkeypatch, side, shift):
    # the first extremal iteration of the side returns a candidate moved into
    # the interval, so its collected solutions lie beyond it.  (A moved member
    # would start the next enclosed solve on the moving bound, which fails.)
    prob, mesh, oi = _interval_problem()
    j = TwoArgIntervalMultifunction(mesh, "-1", "1")
    iterate, moved = extremal._monotone_iteration, []

    def monotone(side_, start, opts, step, what):
        u, history = iterate(side_, start, opts, step, what)
        if what == "extremal iteration" and side_ == side and not moved:
            moved.append(u)
            u = FeFunction(mesh, u.coeffs + shift * mesh.free_node_mask)
        return u, history

    monkeypatch.setattr(extremal, "_monotone_iteration", monotone)
    with pytest.raises(EnclosureError, match=f"a collected solution escapes the {side} candidate"):
        discontinuous_fixed_point(dataclasses.replace(prob, f=None), j, oi, SolverOptions(tol=1e-10))
    assert moved


def test_fixed_point_runs_one_side_per_outer_step(monkeypatch):
    # robin_step.yaml's problem: 2 bound solves, then 4 enclosed solves, each
    # outer step solving only for the extremal of its own side
    cfg = load_config(CONFIGS / "robin_step.yaml")
    prob = build_problem(cfg)
    opts = solver_options(cfg, argparse.Namespace(tol=None, max_iter=None, selection=None,
                                                  seed=None))
    calls = _counting_solves(monkeypatch)

    def other_side(*args):
        raise AssertionError("the fixed point computed both extremals")

    monkeypatch.setattr(extremal, "extremal_pair", other_side)
    oi = make_interval(prob, cfg, opts, "extremal")
    j = TwoArgIntervalMultifunction(prob.mesh, cfg["j"]["j1"], cfg["j"]["j2"])
    smallest, greatest, _ = discontinuous_fixed_point(prob, j, oi, opts)
    assert np.all(smallest.coeffs <= greatest.coeffs)
    assert len(calls) == 6


def test_enclosed_solve_without_progress_stops_early():
    # the greatest solution moved up 5e-9 at the free nodes is still a certified
    # supersolution; from it, the auxiliary solve on [lower, moved] takes one step
    # of length 2^-18 after another, which once spent all 200 Newton steps
    prob, mesh, oi = _interval_problem()
    opts = SolverOptions(tol=1e-10)
    greatest = extremal_pair(prob, oi, opts)[1]
    moved = FeFunction(mesh, greatest.coeffs + 5e-9 * mesh.free_node_mask)
    cert = verify_supersolution(moved, prob)
    assert cert.passed
    iv = OrderedInterval(oi.lower, moved, oi.lower_certificate, cert)
    start = dataclasses.replace(opts, selection="lower", initial=moved)
    u, eta, zeta, rep = solve_vi(build_auxiliary(prob, iv), start)
    assert not rep.converged and rep.newton_iterations <= 30
    assert rep.message.endswith("; no progress: 20 steps in a row shorter than 0.0001")
    with pytest.raises(SolverError, match="auxiliary solve failed: .*; no progress"):
        solve_enclosed(prob, iv, start)


def test_failed_certificate_names_the_iterate(monkeypatch):
    prob, mesh, oi = _interval_problem()
    failed = {"passed": False, "margin": -1.0, "worst_node": 3}
    # iterate 1 takes its certificate from oi, so the first call is iterate 2's
    monkeypatch.setattr(extremal, "verify_supersolution", _altered_on_call(
        extremal.verify_supersolution, 1, lambda cert: dataclasses.replace(cert, **failed)))
    with pytest.raises(EnclosureError, match=r"^iterate 2 failed its supersolution "
                       r"certificate \(margin -1\.000e\+00 at node 3\)$"):
        extremal_pair(prob, oi, SolverOptions(tol=1e-10))


def test_first_steps_take_their_certificates_from_the_interval(monkeypatch):
    # the 2D obstacle case of the benchmark at n = 32: each side's first step
    # starts on a bound the interval certifies, so only the second steps certify
    prob, mesh = make_problem(2, 32, "1.8", "2.6", "max(0, x - 0.5)",
                              constraint=_obstacle_minus_half, f=("8", "8"))
    opts = SolverOptions(tol=1e-10, max_iter=200, selection="midpoint")
    oi = construct_obstacle_bounds(prob, "8", "8", c_psi=0.1, margin=1e-3, opts=opts)
    calls = []
    for name in ("verify_subsolution", "verify_supersolution"):
        certify = getattr(extremal, name)
        monkeypatch.setattr(extremal, name, lambda *args, certify=certify, name=name:
                            calls.append(name) or certify(*args))
    smallest, greatest, sset = extremal_pair(prob, oi, opts)
    assert [len(sset.histories[side]) for side in ("greatest", "smallest")] == [2, 2]
    assert sorted(calls) == ["verify_subsolution", "verify_supersolution"]  # 4 before


def _counting_solves(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_vi(*args, **kwargs)

    monkeypatch.setattr(extremal, "solve_vi", counted)
    return calls


def test_equal_envelopes_share_one_bound_solve(monkeypatch):
    # k1 and k2 parse to the same AST ("8" equals "8.0"): one solve serves both;
    # "8 + 0" is another AST with the same values, so it is solved again, identically
    margin = 1e-3

    def bounds(k1, k2):
        prob, mesh = make_problem(
            1, 16, p="1.8", q="2.6", mu="max(0, x - 0.5)",
            constraint=lambda m: ConstraintSet.obstacle(FeFunction.constant(m, -0.5)),
            f=("8", "8"),
        )
        calls = _counting_solves(monkeypatch)
        oi = construct_obstacle_bounds(prob, k1, k2, c_psi=0.1, margin=margin)
        return oi, len(calls)

    shared, n_shared = bounds("8", "8.0")
    twice, n_twice = bounds("8", "8 + 0")
    assert (n_shared, n_twice) == (1, 2)
    # the upper bound is the shared solve shifted by M
    np.testing.assert_array_equal(shared.upper.coeffs, shared.lower.coeffs + shared.M)
    for name in ("lower", "upper"):
        np.testing.assert_array_equal(getattr(shared, name).coeffs, getattr(twice, name).coeffs)
    assert shared.M == twice.M
    assert shared.certified() and twice.certified()


# -- the greatest side's nested start -----------------------------------------------


def _obstacle_case(n):
    """bench.cases.ExtremalCase's 2D obstacle problem (f = 8) and its options."""
    prob, mesh = make_problem(2, n, "1.8", "2.6", "max(0, x - 0.5)",
                              constraint=_obstacle_minus_half, f=("8", "8"))
    return prob, SolverOptions(tol=1e-10, max_iter=200, selection="midpoint")


def _recording(monkeypatch, inner=None):
    """Record (mesh, selection, initial, report) of every solve_vi call of extremal."""
    calls, inner = [], inner or extremal.solve_vi

    def recording(prob, opts=None):
        out = inner(prob, opts)
        calls.append((prob.mesh, opts.selection, opts.initial, out[3]))
        return out

    monkeypatch.setattr(extremal, "solve_vi", recording)
    return calls


def _cold(monkeypatch):
    """The greatest side starts from the lower bound, as without nesting."""
    monkeypatch.setattr(extremal, "_nested_start", lambda prob, oi, opts: oi.lower)


def _pipeline(prob, opts, k="8"):
    oi = construct_obstacle_bounds(prob, k, k, c_psi=0.1, margin=1e-3, opts=opts)
    return oi, extremal_pair(prob, oi, opts)


def test_nested_start_finishes_the_cold_pair_in_few_fine_steps(monkeypatch):
    prob, opts = _obstacle_case(64)
    runs = {}
    for nested in (False, True):
        with monkeypatch.context() as m:
            if not nested:
                _cold(m)
            calls = _recording(m)
            runs[nested] = _pipeline(prob, opts), calls
    (oi, (smallest, greatest, _)), calls = runs[True]
    (_, (smallest0, greatest0, _)), calls0 = runs[False]
    for u, u0 in ((smallest, smallest0), (greatest, greatest0)):
        assert np.max(np.abs(u.coeffs - u0.coeffs)) <= 10 * opts.tol
    # the bound solve, the coarse (n = 32) solve, then the greatest side's first solve
    assert [mesh.subdivisions for mesh, *_ in calls[:3]] == [64, 32, 64]
    assert all(mesh is prob.mesh for mesh, *_ in calls[2:])
    _, selection, initial, first = calls[2]
    assert selection == "lower" and initial is not oi.lower
    assert first.converged and first.newton_iterations <= 12
    steps = sum(report.newton_iterations for *_, report in calls)
    cold_steps = sum(report.newton_iterations for *_, report in calls0)
    assert cold_steps == 29 and steps <= cold_steps


def _steps(calls):
    return [(mesh.n_nodes, report.newton_iterations) for mesh, *_, report in calls]


def test_small_grids_take_no_coarse_solve(monkeypatch):
    # 2D n = 32: the coarse grid n = 16 has 289 < _NEST_MIN_NODES nodes
    prob, opts = _obstacle_case(32)
    with monkeypatch.context() as m:
        _cold(m)
        cold = _recording(m)
        _pipeline(prob, opts)
    calls = _recording(monkeypatch)
    _pipeline(prob, opts)
    assert all(mesh is prob.mesh for mesh, *_ in calls)
    assert _steps(calls) == _steps(cold)


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.yaml")))
def test_shipped_configs_take_no_coarse_solve(monkeypatch, tmp_path, config):
    argv = ["extremal", "--config", str(CONFIGS / config)]
    with monkeypatch.context() as m:
        _cold(m)
        cold = _recording(m)
        code = main(argv + ["--out", str(tmp_path / "cold")])
    calls = _recording(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "nested")]) == code
    n_nodes = build_problem(load_config(CONFIGS / config)).mesh.n_nodes
    assert all(mesh.n_nodes == n_nodes for mesh, *_ in calls)
    assert _steps(calls) == _steps(cold)


@pytest.mark.parametrize("failure", ["not converged", "singular"])
def test_failed_coarse_solve_falls_back_to_the_lower_bound(monkeypatch, failure):
    prob, opts = _obstacle_case(64)
    with monkeypatch.context() as m:
        _cold(m)
        _, (smallest0, greatest0, _) = _pipeline(prob, opts)
    inner = extremal.solve_vi

    def failing(p, o=None):
        if p.mesh is prob.mesh:
            return inner(p, o)
        if failure == "singular":
            raise SolverError("Newton system singular after smoothing retries")
        u, eta, zeta, report = inner(p, o)
        return u, eta, zeta, dataclasses.replace(report, converged=False)

    calls = _recording(monkeypatch, failing)
    oi, (smallest, greatest, sset) = _pipeline(prob, opts)
    fine = [(selection, initial) for mesh, selection, initial, _ in calls if mesh is prob.mesh]
    assert fine[1][0] == "lower" and fine[1][1] is oi.lower
    # the cold pipeline, with every check passed
    np.testing.assert_array_equal(smallest.coeffs, smallest0.coeffs)
    np.testing.assert_array_equal(greatest.coeffs, greatest0.coeffs)
    for u, rule in ((smallest, "upper"), (greatest, "lower")):
        assert vi_residual(prob, u, prob.f.select(u, rule)) <= opts.tol
    assert verify_supersolution(greatest, prob).passed


def test_problems_that_cannot_be_rebuilt_take_no_coarse_solve(monkeypatch):
    prob, opts = _obstacle_case(64)
    mesh, ed = prob.mesh, prob.exponents
    # exponent data given as arrays
    raw = VIProblem(DoublePhaseOperator(mesh, ExponentData(mesh, ed.p, ed.q, ed.mu)),
                    prob.constraint, prob.f)
    calls = _recording(monkeypatch)
    oi, _ = _pipeline(raw, opts)
    assert calls and all(m is mesh for m, *_ in calls)
    # a two-argument reaction, frozen as the fixed point freezes it
    del calls[:]
    j = TwoArgIntervalMultifunction(mesh, "8 - 0*r", "8 - 0*r")
    frozen = VIProblem(prob.operator, prob.constraint, j.freeze(oi.lower))
    assert extremal._nested_start(frozen, oi, opts) is oi.lower
    assert not calls
