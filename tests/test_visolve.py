import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from dpvi import visolve
from dpvi.cli import build_problem, load_config
from dpvi.mesh import FeFunction, Mesh, build_mesh, fe_interpolate
from dpvi.multifun import (
    IntervalMultifunction,
    TruncationData,
    TwoArgIntervalMultifunction,
    pick_endpoint,
)
from dpvi.operator import DoublePhaseOperator
from dpvi.spaces import ExponentData, ModularKind, luxemburg_norm
from dpvi.visolve import (
    ConstraintSet,
    SolverOptions,
    VIProblem,
    build_auxiliary,
    check_coercivity,
    solve_vi,
    vi_residual,
)

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def make_problem(dim=1, n=8, p="2", q="3", mu="0", constraint=None, f=None, f_gamma=None,
                 gamma_predicate=None):
    mesh = build_mesh(dim, n, gamma_predicate)
    ed = ExponentData.from_expressions(mesh, p, q, mu)
    op = DoublePhaseOperator(mesh, ed)
    cs = constraint(mesh) if callable(constraint) else (constraint or ConstraintSet.whole_space())
    fm = IntervalMultifunction(mesh, *f) if f else None
    fg = IntervalMultifunction(mesh, *f_gamma, on_boundary=True) if f_gamma else None
    return VIProblem(op, cs, fm, fg), mesh


def hand_stiffness_1d(n):
    h = 1.0 / n
    K = np.zeros((n + 1, n + 1))
    for e in range(n):
        K[e, e] += 1 / h
        K[e + 1, e + 1] += 1 / h
        K[e, e + 1] -= 1 / h
        K[e + 1, e] -= 1 / h
    return K


def hand_load_1d(n, g):
    # trapezoid-free: exact load for P1 hats with nodal g via mass matrix
    h = 1.0 / n
    M = np.zeros((n + 1, n + 1))
    for e in range(n):
        M[e, e] += h / 3
        M[e + 1, e + 1] += h / 3
        M[e, e + 1] += h / 6
        M[e + 1, e] += h / 6
    return M @ g


def projected_sor(K, rhs, lo, free, omega=1.8, iters=30000, tol=1e-13, hi=None):
    """Independent obstacle-QP oracle: projected SOR on K u = rhs, lo <= u (<= hi)."""
    hi = np.full(len(lo), np.inf) if hi is None else hi
    u = np.minimum(np.maximum(lo, 0.0), hi)
    u[~free] = 0.0
    idx = np.flatnonzero(free)
    for _ in range(iters):
        u_old = u.copy()
        for i in idx:
            resid = rhs[i] - K[i] @ u + K[i, i] * u[i]
            u[i] = min(hi[i], max(lo[i], (1 - omega) * u[i] + omega * resid / K[i, i]))
        if np.max(np.abs(u - u_old)) < tol:
            break
    return u


def test_zero_data_gives_zero():
    prob, mesh = make_problem(1, 8, f=("0", "0"))
    u, eta, zeta, rep = solve_vi(prob)
    assert rep.converged
    np.testing.assert_allclose(u.coeffs, 0.0, atol=1e-12)


def test_poisson_equivalence_1d():
    # f = {-g}: the VI solution equals the linear FE solution of the
    # Poisson problem with source g (hand-assembled oracle)
    n = 16
    prob, mesh = make_problem(1, n, f=("-(1 + x)", "-(1 + x)"))
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-11))
    assert rep.converged
    K = hand_stiffness_1d(n)
    g = 1.0 + mesh.nodes[:, 0]
    rhs = hand_load_1d(n, g)
    free = mesh.free_node_mask
    expected = np.zeros(n + 1)
    expected[free] = np.linalg.solve(K[np.ix_(free, free)], rhs[free])
    np.testing.assert_allclose(u.coeffs, expected, atol=5e-9)


def test_obstacle_oracle_and_free_boundary():
    # lower obstacle -0.5, constant reaction 8: contact region in the middle,
    # free boundary at 1/(2 sqrt 2)
    n = 64
    prob, mesh = make_problem(
        1, n, constraint=lambda m: ConstraintSet.obstacle(FeFunction.constant(m, -0.5)),
        f=("8", "8"),
    )
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-10))
    assert rep.converged
    # independent oracle: projected SOR on the hand-assembled QP
    K = hand_stiffness_1d(n)
    rhs = -hand_load_1d(n, np.full(n + 1, 8.0))
    lo = np.full(n + 1, -0.5)
    oracle = projected_sor(K, rhs, lo, mesh.free_node_mask)
    assert np.max(np.abs(u.coeffs - oracle)) <= 1e-8
    assert u.coeffs.min() == pytest.approx(-0.5, abs=1e-12)
    active = np.flatnonzero(np.isclose(u.coeffs, -0.5, atol=1e-9))
    x_first = mesh.nodes[active[0], 0]
    assert abs(x_first - 1 / (2 * np.sqrt(2))) <= 1.0 / n
    assert np.all(u.coeffs >= -0.5 - 1e-15)


def test_box_oracle_1d():
    # reaction 24(1 - 2x): the unconstrained solution -4x(2x - 1)(x - 1) reaches
    # -0.375 and 0.375, so the box [-0.2, 0.2] is active on both sides
    n = 32

    def box(m):
        return ConstraintSet.box(FeFunction.constant(m, -0.2), FeFunction.constant(m, 0.2))

    prob, mesh = make_problem(1, n, constraint=box, f=("24*(1 - 2*x)", "24*(1 - 2*x)"))
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-10))
    assert rep.converged
    K = hand_stiffness_1d(n)
    rhs = -hand_load_1d(n, 24.0 * (1.0 - 2.0 * mesh.nodes[:, 0]))
    oracle = projected_sor(K, rhs, np.full(n + 1, -0.2), mesh.free_node_mask,
                           hi=np.full(n + 1, 0.2))
    assert np.max(np.abs(u.coeffs - oracle)) <= 1e-8
    assert u.coeffs.min() == -0.2 and u.coeffs.max() == 0.2


@pytest.mark.parametrize("constraint", [
    lambda m: ConstraintSet.obstacle(FeFunction.constant(m, 0.5)),
    lambda m: ConstraintSet.box(FeFunction.constant(m, -2.0), FeFunction.constant(m, -1.0)),
], ids=["obstacle_above_zero", "box_below_zero"])
def test_empty_constraint_set_rejected(constraint):
    # every function of the working subspace vanishes on the essential
    # boundary, so a set whose bounds exclude 0 there is empty
    with pytest.raises(ValueError, match="essential-boundary node"):
        make_problem(1, 8, constraint=constraint, f=("1", "1"))


def _problem_parts(mesh):
    """The optional parts of a VIProblem, keyed by their name in its errors, on ``mesh``."""
    return {
        "constraint lower bound": FeFunction.constant(mesh, -1.0),
        "constraint upper bound": FeFunction.constant(mesh, 1.0),
        "f": IntervalMultifunction(mesh, "-1", "1"),
        "f_gamma": IntervalMultifunction(mesh, "0", "0", on_boundary=True),
        "aux": TruncationData(FeFunction.constant(mesh, -1.0), FeFunction.constant(mesh, 1.0)),
    }


def _vi_problem(op, parts):
    lower, upper = parts.pop("constraint lower bound"), parts.pop("constraint upper bound")
    return VIProblem(op, ConstraintSet(lower, upper), **parts)


@pytest.mark.parametrize("other_n", [8, 16], ids=["same_n", "other_n"])
@pytest.mark.parametrize("part", list(_problem_parts(build_mesh(1, 1))))
def test_part_on_another_mesh_rejected(part, other_n):
    # a part built on a second mesh is named, also when that mesh has as many nodes
    # (at n = 16 it would end in an IndexError, at n = 8 it would be used silently)
    mesh = build_mesh(1, 8, "x - 0.5")
    op = DoublePhaseOperator(mesh, ExponentData.from_expressions(mesh, "2", "3", "0"))
    _vi_problem(op, _problem_parts(mesh))  # every part on the operator's mesh
    parts = _problem_parts(mesh)
    parts[part] = _problem_parts(build_mesh(1, other_n, "x - 0.5"))[part]
    if part.startswith("constraint"):  # a bound under test comes alone: no box of two sizes
        other = "constraint upper bound" if "lower" in part else "constraint lower bound"
        parts[other] = None
    with pytest.raises(ValueError, match=f"^{part} lives on a different mesh than the operator$"):
        _vi_problem(op, parts)


@pytest.mark.parametrize("other_n", [8, 16], ids=["same_n", "other_n"])
def test_box_bounds_on_different_meshes_rejected(other_n):
    # at n = 16 the comparison of the bounds would fail to broadcast, at n = 8 the
    # box would be accepted
    lower = FeFunction.constant(build_mesh(1, 8), -1.0)
    upper = FeFunction.constant(build_mesh(1, other_n), 1.0)
    for make in (ConstraintSet, ConstraintSet.box):
        with pytest.raises(ValueError, match="^box bounds live on different meshes$"):
            make(lower, upper)


def test_vi_residual_zero_iterate_matches_load():
    n = 8
    prob, mesh = make_problem(1, n, f=("2", "2"))
    u = FeFunction.zero(mesh)
    eta = prob.f.select(u, "midpoint")
    res = vi_residual(prob, u, eta, None)
    load = hand_load_1d(n, np.full(n + 1, 2.0))
    assert res == pytest.approx(np.max(np.abs(load[mesh.free_node_mask])), abs=1e-13)


def test_vi_residual_perturbation_scaling():
    prob, mesh = make_problem(1, 16, f=("4", "4"))
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-11))
    base = vi_residual(prob, u, eta, zeta)
    i = 7  # inactive interior node
    for delta in (1e-4, 1e-5):
        c = u.coeffs.copy()
        c[i] += delta
        res = vi_residual(prob, FeFunction(mesh, c), eta, zeta)
        assert res > base
        assert res == pytest.approx(delta * 2 * 16, rel=0.2)  # ~ K_ii * delta


def test_vi_residual_rejects_infeasible():
    prob, mesh = make_problem(
        1, 8, constraint=lambda m: ConstraintSet.obstacle(FeFunction.constant(m, 0.0)),
        f=("1", "1"),
    )
    bad = FeFunction(mesh, np.full(mesh.n_nodes, -1.0))
    with pytest.raises(ValueError):
        vi_residual(prob, bad, prob.f.select(bad, "lower"), None)


def test_nonlinear_p_operator_solve():
    # p = 3, mu = 0, reaction f = {-2}: strong form -(|u'| u')' = 2, so
    # |u'| u' = 1 - 2x by symmetry and u(x) = (1 - |1-2x|^(3/2)) / 3
    n = 64
    prob, mesh = make_problem(1, n, p="3", q="3.5", f=("-2", "-2"))
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-10))
    assert rep.converged
    x = mesh.nodes[:, 0]
    exact = (1.0 - np.abs(1.0 - 2.0 * x) ** 1.5) / 3.0
    assert np.max(np.abs(u.coeffs - exact)) <= 5e-3  # discretization error only


def test_degenerate_small_p_solve():
    # p < 2 exercises the degenerate flux branch and the warm start
    n = 32
    prob, mesh = make_problem(1, n, p="1.2", q="2", f=("1", "1"))
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-9))
    assert rep.converged
    assert u.coeffs.min() < 0  # reaction +1 pushes down
    assert vi_residual(prob, u, eta, zeta) <= 1e-9


def test_double_phase_solve_2d():
    prob, mesh = make_problem(2, 4, p="1.8", q="2.6", mu="0.5 + 0.5*x", f=("-1", "-1"))
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-9))
    assert rep.converged
    assert u.coeffs.max() > 0  # source +1 pushes up
    assert vi_residual(prob, u, eta, zeta) <= 1e-9


def test_obstacle_2d_against_sor():
    n = 6
    mesh = build_mesh(2, n)
    ed = ExponentData.from_expressions(mesh, "2", "3", "0")
    op = DoublePhaseOperator(mesh, ed)
    psi = FeFunction.constant(mesh, -0.05)
    prob = VIProblem(op, ConstraintSet.obstacle(psi), IntervalMultifunction(mesh, "4", "4"))
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-11))
    assert rep.converged
    K = op.jacobian(FeFunction.zero(mesh), eps=0.0).toarray()
    from dpvi.multifun import assemble_source

    rhs = -assemble_source(np.full(mesh.quad_weights.shape, 4.0), mesh)
    oracle = projected_sor(K, rhs, psi.coeffs, mesh.free_node_mask)
    assert np.max(np.abs(u.coeffs - oracle)) <= 1e-8


def test_robin_boundary_terms_1d():
    # natural boundary multifunction f_gamma = {b*s} on both endpoints with
    # interior f = {a}: strong form -u'' + a = 0, flux + b*u = 0 at endpoints
    a, b = 1.0, 2.0
    prob, mesh = make_problem(
        1, 32, f=(f"{a}", f"{a}"), f_gamma=(f"{b}*s", f"{b}*s"), gamma_predicate="1"
    )
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-11))
    assert rep.converged
    # strong form u'' = a with u'(0) = b u(0) and u'(1) = -b u(1):
    # u = a x^2/2 + c1 x + c2, c2 = -a/(2b), c1 = b c2; the discrete solution
    # is nodally exact (piecewise-linear Green's function)
    c2 = -a / (2 * b)
    c1 = b * c2
    x = mesh.nodes[:, 0]
    exact = a * x**2 / 2 + c1 * x + c2
    assert np.max(np.abs(u.coeffs - exact)) <= 1e-10


def test_selection_consistency_multivalued():
    prob, mesh = make_problem(1, 16, f=("s - 1", "s + 1"))
    for rule in ("lower", "upper", "midpoint"):
        u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-10, selection=rule))
        assert rep.converged
        lo, hi = prob.f.eval_interval(mesh.quad_points, u.values_at_quad())
        assert np.all(eta >= lo - 1e-10) and np.all(eta <= hi + 1e-10)


def test_multivalued_endpoints_order_solutions():
    # stronger reaction (upper endpoint) pushes the solution down
    prob, mesh = make_problem(1, 16, f=("-1", "1"))
    u_up, *_ = solve_vi(prob, SolverOptions(selection="upper"))
    u_lo, *_ = solve_vi(prob, SolverOptions(selection="lower"))
    assert np.all(u_up.coeffs <= u_lo.coeffs + 1e-12)
    assert u_lo.coeffs.max() > u_up.coeffs.max()


def test_build_auxiliary_single_pair():
    prob, mesh = make_problem(1, 16, f=("-1", "1"))
    lower = fe_interpolate("-x*(1-x)/2 - 0.001", mesh)
    upper = fe_interpolate("x*(1-x)/2 + 0.001", mesh)
    aux_prob = build_auxiliary(prob, TruncationData(lower, upper))
    assert aux_prob.aux is not None
    u, eta, zeta, rep = solve_vi(aux_prob, SolverOptions(tol=1e-10, selection="upper"))
    assert rep.converged
    assert np.all(lower.coeffs - u.coeffs <= 1e-9) and np.all(u.coeffs - upper.coeffs <= 1e-9)
    # inside the bounds the auxiliary residual is the original residual
    assert vi_residual(prob, u, eta, zeta) <= 1e-9


def test_auxiliary_degenerate_interval_keeps_solution():
    prob, mesh = make_problem(1, 8, f=("2", "2"))
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-11))
    td = TruncationData(u, u)
    aux_prob = build_auxiliary(prob, td)
    u2, eta2, zeta2, rep2 = solve_vi(aux_prob, SolverOptions(tol=1e-9))
    assert rep2.converged
    np.testing.assert_allclose(u2.coeffs, u.coeffs, atol=1e-8)


def test_coercivity_probe_base_point_must_lie_in_k():
    # a whole-space problem has no bounds, but K still vanishes on Gamma0
    prob, mesh = make_problem(1, 16, f=("0", "0"))
    with pytest.raises(ValueError, match="base point does not vanish on the essential boundary"):
        check_coercivity(prob, FeFunction.constant(mesh, 0.5), radii=(1.0,))
    prob, mesh = make_problem(1, 16, constraint=lambda m: ConstraintSet.obstacle(
        FeFunction.constant(m, -0.5)))
    with pytest.raises(ValueError, match="base point is infeasible for the constraint set"):
        check_coercivity(prob, FeFunction.constant(mesh, -1.0), radii=(1.0,))


def test_coercivity_probe_monotone_quadratic():
    prob, mesh = make_problem(1, 16, f=("0", "0"))
    rep = check_coercivity(prob, FeFunction.zero(mesh), radii=(1.0, 2.0, 4.0, 8.0),
                           samples_per_radius=4, seed=1)
    mins = [row["min_pairing"] for row in rep["rows"]]
    assert all(m > 0 for m in mins)
    assert mins == sorted(mins)
    assert rep["summary"] == "no violation found at sampled radii"


def test_coercivity_probe_drift_thresholds():
    # eigenvalue oracle: drift below the discrete principal eigenvalue can
    # never violate; drift beyond the largest eigenvalue violates in every
    # direction, so nodal-Gaussian sampling is guaranteed to find it
    import scipy.linalg

    n = 16
    mesh = build_mesh(1, n)
    ed = ExponentData.from_expressions(mesh, "2", "3", "0")
    op = DoublePhaseOperator(mesh, ed)
    K = hand_stiffness_1d(n)
    free = mesh.free_node_mask
    h = 1.0 / n
    M = np.zeros((n + 1, n + 1))
    for e in range(n):
        M[e, e] += h / 3
        M[e + 1, e + 1] += h / 3
        M[e, e + 1] += h / 6
        M[e + 1, e] += h / 6
    spectrum = scipy.linalg.eigh(
        K[np.ix_(free, free)], M[np.ix_(free, free)], eigvals_only=True
    )
    lam_small, lam_big = 0.5 * spectrum[0], 1.5 * spectrum[-1]

    coercive = VIProblem(
        op, ConstraintSet.whole_space(),
        IntervalMultifunction(mesh, f"-{lam_small}*s", f"-{lam_small}*s"),
    )
    rep = check_coercivity(coercive, FeFunction.zero(mesh), radii=(1.0, 4.0),
                           samples_per_radius=6, seed=3)
    assert rep["summary"] == "no violation found at sampled radii"

    noncoercive = VIProblem(
        op, ConstraintSet.whole_space(),
        IntervalMultifunction(mesh, f"-{lam_big}*s", f"-{lam_big}*s"),
    )
    rep = check_coercivity(noncoercive, FeFunction.zero(mesh), radii=(1.0, 4.0),
                           samples_per_radius=6, seed=3)
    assert all(row["violation_found"] for row in rep["rows"])
    assert rep["summary"] == "violation found at sampled radii"


@pytest.mark.parametrize("constraint", [
    None,
    lambda m: ConstraintSet.obstacle(FeFunction.constant(m, -0.5)),
    lambda m: ConstraintSet.box(FeFunction.constant(m, -0.2), FeFunction.constant(m, 0.2)),
], ids=["whole_space", "obstacle", "box"])
def test_sphere_samples_have_the_radius(constraint):
    prob, mesh = make_problem(1, 32, constraint=constraint, f=("0", "0"))
    kind = ModularKind.sobolev()
    lo, hi = prob.constraint.bounds(mesh)
    rng = np.random.default_rng(4)
    for R in (0.5, 1.0, 2.0, 4.0, 8.0):
        u = visolve._sample_on_sphere(prob, rng, R, kind)
        assert abs(luxemburg_norm(kind, prob.exponents, u) - R) <= 1e-6
        assert np.all((lo <= u.coeffs) & (u.coeffs <= hi))
        assert np.all(u.coeffs[mesh.gamma0_node_mask] == 0.0)


def test_coercivity_probe_norm_budget(monkeypatch):
    # default probe: 4 radii x 8 samples; homogeneity makes a whole-space
    # sample cost two norms, a clipped one a few more
    calls = []
    original = visolve.luxemburg_norm

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(visolve, "luxemburg_norm", counted)
    prob, mesh = make_problem(1, 32, p="1.2", q="2", f=("-100*s", "-100*s"))
    check_coercivity(prob, FeFunction.zero(mesh), radii=(1.0, 2.0, 4.0, 8.0))
    assert len(calls) <= 64
    calls.clear()
    prob = build_problem(load_config(CONFIGS / "noncoercive.yaml"))
    mesh = prob.mesh
    u0 = FeFunction(mesh, prob.constraint.project(np.zeros(mesh.n_nodes), mesh))
    check_coercivity(prob, u0, radii=(1.0, 2.0, 4.0, 8.0))
    assert len(calls) <= 160


def test_max_iter_exhaustion_flagged():
    prob, mesh = make_problem(1, 32, p="1.5", q="2.5", f=("5", "5"))
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-13, max_iter=1))
    assert not rep.converged
    assert "not converged" in rep.message


def obstacle_yaml_problem():
    return build_problem(load_config(CONFIGS / "obstacle.yaml"))


def test_failed_line_search_ends_the_solve():
    # no iterate reaches tol = 1e-16: the first failed line search ends the solve
    u, eta, zeta, rep = solve_vi(obstacle_yaml_problem(), SolverOptions(tol=1e-16))
    assert not rep.converged
    assert rep.message.startswith("not converged: residual")
    assert rep.message.endswith("; the line search found no decrease")
    history = rep.residual_history
    assert len(history) == rep.newton_iterations  # the failed step records no residual
    assert all(a != b for a, b in zip(history, history[1:]))


def test_max_iter_bounds_the_whole_solve():
    prob = obstacle_yaml_problem()
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-13, max_iter=1))
    assert rep.newton_iterations == 1
    assert not rep.converged
    assert rep.message.endswith("; 1 Newton steps spent")


def _spy_singular_solves(monkeypatch, n_singular):
    """Make the first ``n_singular`` linear solves return NaN; record Jacobian eps values."""
    solves, eps_seen = [], []
    factor_solve, jacobian = visolve._factor_solve, DoublePhaseOperator.jacobian

    def nan_solve(J, rows, b, mesh, floor, plan):
        solves.append(len(b))
        if len(solves) <= n_singular:
            return np.full(len(b), np.nan)
        return factor_solve(J, rows, b, mesh, floor, plan)

    def spy_jacobian(self, u, eps=None):
        eps_seen.append(eps)
        return jacobian(self, u, eps)

    monkeypatch.setattr(visolve, "_factor_solve", nan_solve)
    monkeypatch.setattr(DoublePhaseOperator, "jacobian", spy_jacobian)
    return eps_seen


def test_singular_newton_system_retried_with_larger_smoothing(monkeypatch):
    prob, mesh = make_problem(1, 8, f=("1", "1"))
    eps_seen = _spy_singular_solves(monkeypatch, 1)
    u, eta, zeta, rep = solve_vi(prob)
    assert rep.converged
    assert eps_seen[:2] == [pytest.approx(1e-8), pytest.approx(1e-6)]


def test_newton_system_singular_after_every_retry_raises(monkeypatch):
    prob, mesh = make_problem(1, 8, f=("1", "1"))
    eps_seen = _spy_singular_solves(monkeypatch, np.inf)
    with pytest.raises(visolve.SolverError, match="singular after smoothing retries"):
        solve_vi(prob)
    assert eps_seen == [pytest.approx(1e-8), pytest.approx(1e-6), pytest.approx(1e-4)]


def test_report_fields():
    prob, mesh = make_problem(1, 8, f=("1", "1"))
    u, eta, zeta, rep = solve_vi(prob)
    assert rep.converged
    assert rep.selection_rule == "midpoint"
    assert len(rep.residual_history) >= 1


def test_residual_history_nonincreasing_in_final_inner_solve():
    prob, mesh = make_problem(1, 16, p="2.5", q="3", mu="x", f=("s - 2", "s + 2"))
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-10))
    assert rep.converged
    history = rep.residual_history
    assert len(history) >= 1
    assert all(a >= b - 1e-15 for a, b in zip(history, history[1:]))


def test_immutability_of_functions_and_meshes():
    mesh = build_mesh(1, 4)
    u = fe_interpolate("x", mesh)
    with pytest.raises(ValueError):
        u.coeffs[0] = 1.0
    with pytest.raises(ValueError):
        mesh.nodes[0, 0] = 0.5


# -- the factorisations of the Newton systems ------------------------------------


def test_elimination_order_cuts_lu_fill(monkeypatch):
    # SuperLU's minimum-degree order on K cut in node-index order.  The last system
    # at 2D n = 144 (p = 2.5, u != 0) keeps all seven points per row.  It is positive
    # definite, so multigrid solves it and only the coarsest grid's matrices reach
    # splu: the LU fallback is driven on it directly, against SuperLU's default COLAMD
    prob, mesh = make_problem(2, 144, p="2.5", f=("1", "1"))
    assert mesh.elimination_band is None
    systems = _spy(monkeypatch, "_multigrid_solve")
    lus = []
    splu = visolve.spla.splu

    def spy(*args, **kwargs):
        lus.append((args[0], splu(*args, **kwargs)))
        return lus[-1][1]

    monkeypatch.setattr(visolve.spla, "splu", spy)
    u, eta, zeta, rep = solve_vi(prob)
    assert rep.converged and len(systems) >= 2
    assert all(A.shape[0] <= 8 * 8 for A, _ in lus)  # the n = 9 grid's interior
    K, rows, rhs, *_ = systems[-1]
    assert K.shape == (143 * 143,) * 2 and K.nnz > 6.5 * 143 * 143
    assert np.all(np.diff(rows) > 0)
    lus.clear()
    visolve._lu_solve(K.copy(), rhs)  # K's pattern is the plan's, read-only
    (K, lu), = lus
    default = splu(K)
    assert lu.L.nnz + lu.U.nnz <= 0.8 * (default.L.nnz + default.U.nnz)
    # an indefinite K (p = 2, -100 s + 1) on a band mesh, where Cholesky rejects it,
    # against SuperLU kept in that node-index order
    prob, mesh = make_problem(2, 64, f=("-100*s + 1", "-100*s + 1"))
    assert mesh.elimination_band is not None
    lus.clear()
    u, eta, zeta, rep = solve_vi(prob)
    assert rep.converged and lus
    K, lu = lus[0]
    natural = splu(K, permc_spec="NATURAL", options={"SymmetricMode": True})
    assert lu.L.nnz + lu.U.nnz <= 0.5 * (natural.L.nnz + natural.U.nnz)


@pytest.mark.parametrize("dim, n, gamma, relabel", [
    (1, 64, None, False), (2, 16, None, False), (2, 16, "x - 0.5", False),
    (2, 12, "y - x", True),
], ids=["1d", "2d", "2d_gamma_facets", "2d_relabelled"])
def test_band_gather_is_the_lower_band_of_the_cut_matrix(dim, n, gamma, relabel):
    # J + M at a random iterate, and the p = 2 stiffness with its exact zeros, against
    # the band of J[rows, rows] cut out of J
    rng = np.random.default_rng(n)
    mesh = build_mesh(dim, n, gamma)
    if relabel:
        mesh = _not_built(mesh, reverse=True)
    band = mesh.elimination_band
    assert band is not None
    u = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
    jac, stiffness = (DoublePhaseOperator(mesh, ExponentData.from_expressions(mesh, *e)).jacobian(u)
                      for e in (("1.8", "2.6", "x"), ("2", "3", "0")))
    jac.data += mesh.layout("interior").mass_data(np.abs(u.values_at_quad()))
    free = mesh.free_nodes
    for J, share in itertools.product((jac, stiffness), (1.0, 0.7, 0.3, 0.05)):
        rows = free[rng.random(len(free)) < share]
        K = J[np.ix_(rows, rows)]
        K.eliminate_zeros()
        K = K.tocoo()
        lower = K.row >= K.col
        ref = np.zeros((band + 1, len(rows)), order="F")
        ref[(K.row - K.col)[lower], K.col[lower]] = K.data[lower]
        ab = visolve._band_gather(J, rows, mesh)
        assert ab.shape == ref.shape and ab.flags.f_contiguous
        assert ab.tobytes(order="F") == ref.tobytes(order="F")


def _whole_space_2d():
    return make_problem(2, 16, p="1.8", q="3", mu="x", f=("s - 1", "s + 3"))[0]


def _obstacle_2d():
    return make_problem(
        2, 16, p="2.5", q="3", f=("8", "8"),
        constraint=lambda m: ConstraintSet.obstacle(FeFunction.constant(m, -0.02)),
    )[0]


def _noncoercive():
    return build_problem(load_config(CONFIGS / "noncoercive.yaml"))


def _tridiagonal_1d():
    return make_problem(1, 64, p="3", q="4", mu="x", f=("-1", "-1"))[0]


def _multigrid_2d():
    # above the band crossover; p = 2 needs one Newton step from the flat start
    return make_problem(2, 144, p="2", f=("1", "1"))[0]


@pytest.mark.parametrize("build", [_whole_space_2d, _obstacle_2d, _noncoercive,
                                   _tridiagonal_1d, _multigrid_2d],
                         ids=["whole_space", "obstacle", "noncoercive", "tridiagonal_1d",
                              "multigrid"])
def test_newton_solutions_match_spsolve(monkeypatch, build):
    prob = build()
    seen, infos, mgs, lus = [], [], [], []
    factor_solve, dpbtrf = visolve._factor_solve, visolve.lapack.dpbtrf
    multigrid_solve, lu_solve = visolve._multigrid_solve, visolve._lu_solve

    def spy(J, rows, rhs, mesh, floor, plan):
        tried = len(infos), len(mgs), len(lus)
        sol = factor_solve(J, rows, rhs, mesh, floor, plan)
        K = J[np.ix_(rows, rows)]
        seen.append((K, rows, rhs, floor, mesh.elimination_band, sol, infos[tried[0]:],
                     mgs[tried[1]:], len(lus) > tried[2]))
        return sol

    def spy_dpbtrf(*args, **kwargs):
        out = dpbtrf(*args, **kwargs)
        infos.append(out[1])
        return out

    def spy_multigrid(*args):
        out = multigrid_solve(*args)
        mgs.append(out is not None)
        return out

    def spy_lu(*args):
        lus.append(args[0])
        return lu_solve(*args)

    monkeypatch.setattr(visolve, "_factor_solve", spy)
    monkeypatch.setattr(visolve.lapack, "dpbtrf", spy_dpbtrf)
    monkeypatch.setattr(visolve, "_multigrid_solve", spy_multigrid)
    monkeypatch.setattr(visolve, "_lu_solve", spy_lu)
    # the upper selection -100 s + 1 has a source, so u = 0 does not solve noncoercive
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(max_iter=20, selection="upper"))
    assert seen
    for K, rows, rhs, floor, band, sol, tried, mg, lu in seen:
        ref = spla.spsolve(K.tocsc(), rhs)
        assert np.linalg.norm(sol - ref) <= 1e-10 * np.linalg.norm(ref)
        if mg and mg[0]:  # CG's own stop, and the exact stop against spsolve
            _assert_multigrid_exact(K, rows, rhs, sol, floor, prob.mesh)
        assert band == prob.mesh.elimination_band
        # Cholesky when the mesh has a band, multigrid when it has none, LU when the
        # one tried failed
        assert len(tried) == (band is not None) and len(mg) == (band is None)
        assert lu == (tried[0] != 0 if tried else not mg[0])
    paths = {"lu" if lu else "band" if tried else "multigrid" for *_, tried, mg, lu in seen}
    if build in (_whole_space_2d, _obstacle_2d, _tridiagonal_1d):
        assert paths == {"band"}
        assert prob.mesh.elimination_band == (1 if build is _tridiagonal_1d else 16)
    if build is _obstacle_2d:
        assert rep.converged and max(rep.active_set_history) > 0
    if build is _noncoercive:
        # negative selection slopes: some Newton matrix has a negative eigenvalue,
        # which Cholesky rejects
        indefinite = [np.linalg.eigvalsh(K.toarray()).min() < 0 for K, *_ in seen]
        assert any(indefinite)
        assert all(lu for (*_, lu), neg in zip(seen, indefinite) if neg)
    if build is _multigrid_2d:
        assert rep.converged and paths == {"multigrid"} and prob.mesh.elimination_band is None


# -- multigrid-preconditioned CG on meshes without a band ---------------------------


def _spy_multigrid(monkeypatch):
    """Record (K, rows, rhs, solution or None, floor) of every multigrid solve."""
    calls, original = [], visolve._multigrid_solve

    def spy(K, rows, rhs, mesh, floor=0.0, plan=None):
        calls.append((K, rows, rhs, original(K, rows, rhs, mesh, floor, plan), floor))
        return calls[-1][3]

    monkeypatch.setattr(visolve, "_multigrid_solve", spy)
    return calls


_MULTIGRID_SOLVE = visolve._multigrid_solve  # unpatched, for re-runs inside a spied solve


def _assert_multigrid_exact(K, rows, rhs, sol, floor, mesh):
    """``sol`` meets its CG stop, max(_PCG_TOL |rhs|, floor) on |rhs - K sol|, and
    the same system solved to the relative residual _PCG_TOL alone (floor 0)
    matches spsolve to 1e-10."""
    residual = np.linalg.norm(rhs - K @ sol)
    assert residual <= max(visolve._PCG_TOL * np.linalg.norm(rhs), floor)
    exact = _MULTIGRID_SOLVE(K, rows, rhs, mesh)
    ref = spla.spsolve(K.tocsc(), rhs)
    assert np.linalg.norm(exact - ref) <= 1e-10 * np.linalg.norm(ref)


def test_indefinite_newton_matrix_without_a_band_falls_back_to_lu(monkeypatch):
    # noncoercive's drift -100 s on 2D n = 144: K = stiffness - 100 mass has negative
    # eigenvalues, since the smallest of the Dirichlet Laplacian is about 2 pi^2
    prob = make_problem(2, 144, f=("-100*s + 1", "-100*s + 1"))[0]
    assert prob.mesh.elimination_band is None
    calls = _spy_multigrid(monkeypatch)
    lus = _spy(monkeypatch, "_lu_solve")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, eta, zeta, rep = solve_vi(prob)
    assert rep.converged and rep.newton_iterations == 1
    (K, rows, rhs, sol, _), = calls
    assert sol is None and len(lus) == 1
    x, y = prob.mesh.nodes[rows].T
    v = np.sin(np.pi * x) * np.sin(np.pi * y)  # about (2 pi^2 - 100) |v|^2 in the mass norm
    assert v @ (K @ v) < 0


def test_multigrid_drops_coarse_nodes_whose_children_are_all_active(monkeypatch):
    # the obstacle holds most of the square at n = 144, so whole coarse patches are
    # active: their coarse nodes would give zero rows, whose 1 / diag would warn
    prob = make_problem(
        2, 144, p="2.5", f=("8", "8"),
        constraint=lambda m: ConstraintSet.obstacle(FeFunction.constant(m, -0.02)),
    )[0]
    mesh, grid = prob.mesh, prob.mesh.coarse_grid
    calls = _spy_multigrid(monkeypatch)
    factorised = _spy(monkeypatch, "_factor_solve")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, eta, zeta, rep = solve_vi(prob)
    assert rep.converged and max(rep.active_set_history) > mesh.n_nodes // 2
    assert len(calls) == len(factorised) and all(sol is not None for _, _, _, sol, _ in calls)
    # free coarse nodes none of whose fine children (the fine nodes that have them
    # as a parent) is a row
    lo, hi = grid._parents
    dropped = 0
    for _, rows, *_ in calls:
        inside = np.zeros(mesh.n_nodes, dtype=bool)
        inside[rows] = True
        has_row = np.zeros(grid.mesh.n_nodes, dtype=bool)
        has_row[lo[inside]] = has_row[hi[inside]] = True
        dropped += np.count_nonzero(~has_row[grid.mesh.free_node_mask])
    assert dropped > 0
    for K, rows, rhs, sol, floor in calls:
        _assert_multigrid_exact(K, rows, rhs, sol, floor, mesh)


def test_multigrid_matches_spsolve_on_the_solve_2d_n256_system(monkeypatch):
    cfg = load_config(CONFIGS / "double_phase_2d.yaml")
    cfg["mesh"]["n"] = 256
    prob = build_problem(cfg)
    calls = _spy_multigrid(monkeypatch)
    coarsest = []
    splu = visolve.spla.splu

    def spy_splu(A, *args, **kwargs):
        coarsest.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(visolve.spla, "splu", spy_splu)
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-9))
    assert rep.converged and len(calls) == rep.newton_iterations == 4
    # no row is active, so every step has the same rows: the coarse levels are built
    # once, and the coarsest level is the n = 16 grid's interior
    assert all(np.array_equal(rows, calls[0][1]) for _, rows, *_ in calls)
    assert coarsest == [(15 * 15,) * 2]
    K, rows, rhs, sol, floor = calls[-1]
    assert K.shape == (255 * 255,) * 2
    _assert_multigrid_exact(K, rows, rhs, sol, floor, prob.mesh)


def test_multigrid_cg_stops_at_a_tenth_of_the_newton_tolerance(monkeypatch):
    # CG stops once |rhs - K x| <= tol / 10, which leaves the solve_2d problem at
    # n = 256 its four Newton steps.  Each CG iteration applies one V-cycle: the four
    # Newton matrices took 56 in all at the relative residual _PCG_TOL alone
    cfg = load_config(CONFIGS / "double_phase_2d.yaml")
    cfg["mesh"]["n"] = 256
    prob = build_problem(cfg)
    calls = _spy_multigrid(monkeypatch)
    cycles, v_cycle = [], visolve._v_cycle

    def spy_v_cycle(levels, lu, b, k=0):
        cycles.append(k)
        return v_cycle(levels, lu, b, k)

    monkeypatch.setattr(visolve, "_v_cycle", spy_v_cycle)
    tol = 1e-9
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=tol))
    assert rep.converged and rep.newton_iterations == 4 and len(calls) == 4
    assert cycles.count(0) <= 30
    for K, _, rhs, sol, floor in calls:
        assert floor == visolve._PCG_NEWTON_SHARE * tol
        assert np.linalg.norm(rhs - K @ sol) <= max(visolve._PCG_TOL * np.linalg.norm(rhs), floor)


def test_multigrid_returns_zero_for_a_zero_rhs_without_lu(monkeypatch):
    # with a positive floor, rhs = 0 must not reach CG: its r^T z = 0 would read as
    # a direction of non-positive curvature and send the system to sparse LU
    prob, mesh = make_problem(2, 144, p="2.5", f=("1", "1"))
    systems = _spy(monkeypatch, "_factor_solve")
    u, eta, zeta, rep = solve_vi(prob)
    J, rows, _, _, floor, _ = systems[-1]
    assert rep.converged and mesh.elimination_band is None and floor > 0
    lus = _spy(monkeypatch, "_lu_solve")
    cycles = _spy(monkeypatch, "_v_cycle")
    plan = visolve._MultigridPlan(rows, mesh)
    sol = visolve._factor_solve(J, rows, np.zeros(len(rows)), mesh, floor, plan)
    assert not lus and not cycles
    np.testing.assert_array_equal(sol, np.zeros(len(rows)))


def test_multigrid_plan_gathers_the_cut_matrix_and_is_rebuilt_when_the_rows_change(monkeypatch):
    # the n = 144 obstacle solve, whose active set moves: on every Newton step the
    # plan's K is J[rows, rows] bitwise, explicit zeros included, and a step gets a new
    # plan exactly when its rows differ from the step before
    prob = make_problem(
        2, 144, p="2.5", f=("8", "8"),
        constraint=lambda m: ConstraintSet.obstacle(FeFunction.constant(m, -0.02)),
    )[0]
    mesh = prob.mesh
    systems = _spy(monkeypatch, "_factor_solve")
    levels = _spy(monkeypatch, "_multigrid_levels")
    u, eta, zeta, rep = solve_vi(prob)
    assert rep.converged and mesh.elimination_band is None
    zeros = 0
    for J, rows, _, _, _, plan in systems:
        cut, K = J[np.ix_(rows, rows)], plan.matrix(J)
        assert plan.rows is rows or np.array_equal(plan.rows, rows)
        for a in ("indptr", "indices", "data"):
            assert getattr(K, a).dtype == getattr(cut, a).dtype
            assert getattr(K, a).tobytes() == getattr(cut, a).tobytes()
        zeros += np.count_nonzero(K.data == 0)
    assert zeros > 0
    # the Newton loop's own steps, after the warm start's: its first step plans anew
    steps = systems[-rep.newton_iterations:]
    assert steps[0][5] is not systems[-rep.newton_iterations - 1][5]
    same = [np.array_equal(a[1], b[1]) for a, b in zip(steps, steps[1:])]
    assert any(same) and not all(same)
    assert all((b[5] is a[5]) == kept for a, b, kept in zip(steps, steps[1:], same))
    # the coarse levels are built once per plan, on its first solve
    assert len(levels) == len({id(plan) for *_, plan in systems})


def test_lagged_coarse_levels_that_fail_cg_are_rebuilt_from_the_current_matrix(monkeypatch):
    # coarse levels built from 1e-8 K make the V-cycle's coarse correction 1e8 times
    # too large, and CG on them fails; the solve rebuilds them from K and takes no LU
    prob, mesh = make_problem(2, 144, p="2.5", f=("1", "1"))
    systems = _spy(monkeypatch, "_factor_solve")
    u, eta, zeta, rep = solve_vi(prob)
    J, rows, rhs, _, floor, _ = systems[-1]
    plan = visolve._MultigridPlan(rows, mesh)
    K = plan.matrix(J)
    assert plan.hierarchy(1e-8 * K) is not None and plan.lagged
    lus = _spy(monkeypatch, "_lu_solve")
    levels = _spy(monkeypatch, "_multigrid_levels")
    runs, pcg = [], visolve._pcg

    def spy_pcg(*args):
        runs.append(pcg(*args))
        return runs[-1]

    monkeypatch.setattr(visolve, "_pcg", spy_pcg)
    sol = visolve._multigrid_solve(K, rows, rhs, mesh, floor, plan)
    assert not lus and [x is None for x in runs] == [True, False]
    (rebuilt, _), = levels
    assert rebuilt is K and plan.lagged
    _assert_multigrid_exact(K, rows, rhs, sol, floor, mesh)


# -- sparse LU only as the fallback ---------------------------------------------------


def test_positive_definite_solve_without_a_band_builds_no_nested_dissection(monkeypatch):
    # multigrid takes the rows in node-index order and never falls back to LU
    prob, mesh = make_problem(2, 144, p="2.5", f=("1", "1"))
    assert mesh.elimination_band is None
    calls = _spy_multigrid(monkeypatch)
    lus = _spy(monkeypatch, "_lu_solve")
    u, eta, zeta, rep = solve_vi(prob)
    assert rep.converged and calls and not lus
    assert all(sol is not None and np.all(np.diff(rows) > 0) for _, rows, _, sol, _ in calls)


@pytest.mark.parametrize("n, f", [(144, "-100*s + 1"), (145, "1"), (145, "-100*s + 1")],
                         ids=["indefinite_n144", "odd_n145", "odd_indefinite_n145"])
def test_lu_fallback_without_a_band_takes_nested_dissection_order(monkeypatch, n, f):
    # the indefinite n = 144 system fails multigrid; the odd n = 145 grid has no coarse
    # grid.  Either LU gets K cut in node-index order and the caller's rhs, and leaves
    # the ordering to SuperLU
    prob, mesh = make_problem(2, n, f=(f, f))
    assert mesh.elimination_band is None and (mesh.coarse_grid is None) == (n % 2 == 1)
    seen, factor_solve = [], visolve._factor_solve

    def spy(J, rows, rhs, mesh, floor, plan):
        seen.append((J, rows, rhs, factor_solve(J, rows, rhs, mesh, floor, plan)))
        return seen[-1][3]

    monkeypatch.setattr(visolve, "_factor_solve", spy)
    lus = _spy(monkeypatch, "_lu_solve")
    u, eta, zeta, rep = solve_vi(prob)
    assert rep.converged and len(lus) == len(seen) > 0
    for (J, rows, rhs, sol), (K_lu, rhs_lu) in zip(seen, lus):
        assert np.all(np.diff(rows) > 0)
        K = J[np.ix_(rows, rows)]
        assert (K_lu != K).nnz == 0
        assert rhs_lu.dtype == rhs.dtype and rhs_lu.tobytes() == rhs.tobytes()
        ref = spla.spsolve(K.tocsc(), rhs)
        assert np.linalg.norm(sol - ref) <= 1e-10 * np.linalg.norm(ref)


# -- the p = 2 warm start by sine transform --------------------------------------


def _problem_on(mesh, p, q, mu, f, constraint=None):
    ed = ExponentData.from_expressions(mesh, p, q, mu)
    return VIProblem(DoublePhaseOperator(mesh, ed), constraint or ConstraintSet.whole_space(),
                     IntervalMultifunction(mesh, *f))


def _not_built(mesh, reverse=False):
    """The same mesh made by the constructor, not by build_mesh, maybe with its
    nodes numbered backwards."""
    new = np.arange(mesh.n_nodes)[::-1] if reverse else np.arange(mesh.n_nodes)  # old -> new
    facets = [(tuple(new[list(f)]), tag) for f, tag in mesh.boundary_facets]
    return Mesh(mesh.dim, mesh.nodes[np.argsort(new)], new[mesh.elements], facets)


def _spy(monkeypatch, name):
    calls, original = [], getattr(visolve, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(visolve, name, spy)
    return calls


@pytest.mark.parametrize("dim, n, p, q, mu, f", [
    (1, 1024, "3", "4", "x", ("-1", "-1")),
    (2, 64, "1.8", "2.6", "max(0, x - 0.5)", ("s - 1", "s + 3")),
    (1, 1, "3", "4", "x", ("-1", "-1")),
    (1, 2, "3", "4", "x", ("-1", "-1")),
    (2, 1, "1.8", "2.6", "x", ("s - 1", "s + 3")),
    (2, 2, "1.8", "2.6", "x", ("s - 1", "s + 3")),
], ids=["1d_n1024", "2d_n64", "1d_n1", "1d_n2", "2d_n1", "2d_n2"])
def test_transform_start_matches_the_lu_start(monkeypatch, dim, n, p, q, mu, f):
    # the same grid without build_mesh's record takes the LU start
    transforms = _spy(monkeypatch, "_grid_laplace_solve")
    mesh = build_mesh(dim, n)
    start = visolve._warm_start(_problem_on(mesh, p, q, mu, f), SolverOptions())
    assert len(transforms) == 1
    ref = visolve._warm_start(_problem_on(_not_built(mesh), p, q, mu, f), SolverOptions())
    assert len(transforms) == 1
    assert np.max(np.abs(start - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert not np.signbit(start[start == 0]).any()  # no -0.0 to print


@pytest.mark.parametrize("dim, n", [(1, 1024), (2, 32)])
def test_cold_whole_space_solve_factorises_only_its_newton_steps(monkeypatch, dim, n):
    lus = _spy(monkeypatch, "_factor_solve")
    prob = make_problem(dim, n, p="3" if dim == 1 else "1.8", q="4" if dim == 1 else "2.6",
                        mu="x" if dim == 1 else "max(0, x - 0.5)", f=("s - 1", "s + 3"))[0]
    u, eta, zeta, rep = solve_vi(prob)
    assert rep.converged and rep.newton_iterations > 0
    assert len(lus) == rep.newton_iterations


@pytest.mark.parametrize("case", ["renumbered", "gamma_facets", "obstacle", "auxiliary"])
def test_other_problems_keep_the_lu_start(monkeypatch, case):
    lus = _spy(monkeypatch, "_factor_solve")
    transforms = _spy(monkeypatch, "_grid_laplace_solve")
    mesh = build_mesh(2, 8, "x - 0.5" if case == "gamma_facets" else None)
    if case == "renumbered":
        mesh = _not_built(mesh, reverse=True)
    obstacle = ConstraintSet.obstacle(FeFunction.constant(mesh, -0.02))
    prob = _problem_on(mesh, "1.8", "2.6", "x", ("-1", "-1"),
                       obstacle if case == "obstacle" else None)
    if case == "auxiliary":
        prob = build_auxiliary(prob, TruncationData(FeFunction.constant(mesh, -1.0),
                                                    FeFunction.constant(mesh, 1.0)))
    u, eta, zeta, rep = solve_vi(prob)
    assert rep.converged
    assert not transforms
    assert len(lus) > rep.newton_iterations  # the warm start factorised too


def test_saturated_sphere_search_ends_early(monkeypatch):
    # a box [-0.2, 0.2] caps the norm below R = 16: every direction clips
    # all its nodes and the probe must give up, without 200 doublings each
    calls = []
    original = visolve.luxemburg_norm

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(visolve, "luxemburg_norm", counted)
    prob, mesh = make_problem(1, 32, constraint=lambda m: ConstraintSet.box(
        FeFunction.constant(m, -0.2), FeFunction.constant(m, 0.2)))
    with pytest.raises(ValueError, match="no feasible sample found at radius 16"):
        check_coercivity(prob, FeFunction.zero(mesh), radii=(16.0,), samples_per_radius=1)
    assert len(calls) <= 161  # 1616 with 200 doublings per direction


def _fd_selection_slope(mf, u, rule):
    # the finite-difference slope, evaluated unconditionally
    points, s = mf.layout.points, mf.layout.values(u.coeffs)
    ds = 1e-6 * (1.0 + np.abs(s))
    lo_p, hi_p = mf.eval_interval(points, s + ds)
    lo_m, hi_m = mf.eval_interval(points, s - ds)
    slope = (pick_endpoint(rule, lo_p, hi_p) - pick_endpoint(rule, lo_m, hi_m)) / (2.0 * ds)
    return np.clip(slope, -1e10, 1e10)


@pytest.mark.parametrize("on_boundary", [False, True])
def test_selection_slope_of_state_free_reaction_is_zero(on_boundary, monkeypatch):
    mesh = build_mesh(2, 4, "x - 0.5")
    u = FeFunction(mesh, np.random.default_rng(47).normal(size=mesh.n_nodes))
    mf = IntervalMultifunction(mesh, "-1 - x", "sin(y)", on_boundary=on_boundary)
    expected = _fd_selection_slope(mf, u, "midpoint")
    assert not expected.any()

    def no_eval(*args):
        raise AssertionError("an s-free reaction was evaluated for its slope")

    monkeypatch.setattr(IntervalMultifunction, "eval_interval", no_eval)
    slope = visolve._selection_slope(mf, u, "midpoint")
    np.testing.assert_array_equal(slope, expected)
    assert slope.shape == mf.layout.weights.shape


@pytest.mark.parametrize("rule", ["lower", "upper", "midpoint"])
def test_selection_slope_of_state_dependent_reaction_unchanged(rule):
    mesh = build_mesh(2, 4)
    u = FeFunction(mesh, np.random.default_rng(53).normal(size=mesh.n_nodes))
    for f1, f2 in (("s - 1", "s*s + 1"), ("x*s - 1", "x*s"), ("min(s, 0)", "max(s, 0)")):
        mf = IntervalMultifunction(mesh, f1, f2)
        expected = _fd_selection_slope(mf, u, rule)
        assert expected.any()
        np.testing.assert_array_equal(visolve._selection_slope(mf, u, rule), expected)


@pytest.mark.parametrize("f, constraint", [
    (("-1", "-1"), None),
    (("s + 1", "s + 3"), lambda m: ConstraintSet.obstacle(FeFunction.constant(m, -0.05))),
])
def test_reported_residual_is_the_last_merit(f, constraint, monkeypatch):
    # solve_vi reports the residual and selections of the Newton loop's last
    # accepted merit: bitwise what vi_residual gives at the returned iterate,
    # with no operator apply after the loop
    prob, mesh = make_problem(2, 8, p="1.8", q="2.6", f=f, constraint=constraint)
    opts = SolverOptions(tol=1e-10, initial=FeFunction.zero(mesh))  # no warm start
    applies, in_loop = [], []
    apply = DoublePhaseOperator.apply
    monkeypatch.setattr(DoublePhaseOperator, "apply",
                        lambda self, u: applies.append(1) or apply(self, u))
    inner = visolve._inner_solve

    def recording(*args, **kwargs):
        out = inner(*args, **kwargs)
        in_loop.append(len(applies))
        return out

    monkeypatch.setattr(visolve, "_inner_solve", recording)
    u, eta, zeta, rep = solve_vi(prob, opts)
    assert rep.converged and rep.newton_iterations > 0
    assert len(in_loop) == 1 and len(applies) == in_loop[0]
    monkeypatch.undo()
    assert rep.residual == vi_residual(prob, u, eta, zeta) == rep.residual_history[-1]
    np.testing.assert_array_equal(eta, prob.f.select(u, "midpoint"))
    assert zeta is None



def test_state_free_selections_frozen_once_per_solve(monkeypatch):
    # no reaction reads s: the Newton loop selects each reaction and assembles
    # its source once, then reuses both at every merit
    prob, mesh = make_problem(2, 8, p="1.8", q="2.6", f=("8 - x", "8 - x"),
                              f_gamma=("1", "1"), gamma_predicate="x - 0.5")
    selects, sources = [], []
    select, assemble = IntervalMultifunction.select, visolve.assemble_source
    monkeypatch.setattr(IntervalMultifunction, "select",
                        lambda self, u, rule: selects.append(1) or select(self, u, rule))
    monkeypatch.setattr(visolve, "assemble_source",
                        lambda *args: sources.append(1) or assemble(*args))
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(tol=1e-10, initial=FeFunction.zero(mesh)))
    assert rep.converged and rep.newton_iterations > 1
    assert len(selects) == len(sources) == 2
    monkeypatch.undo()
    assert rep.residual == vi_residual(prob, u, eta, zeta)


# -- the problem on the coarse grid -----------------------------------------------


def test_coarse_problem_is_the_problem_sampled_on_the_coarse_grid():
    prob, mesh = make_problem(2, 8, "1.8", "2.6", "max(0, x - 0.5)",
                              constraint=lambda m: ConstraintSet.obstacle(
                                  fe_interpolate("-0.5 + 0.1*x*y", m)),
                              f=("-1 + s", "1 + s"), f_gamma=("x", "x + 1"),
                              gamma_predicate="x - 0.5")
    grid = mesh.coarse_grid
    coarse = visolve._coarse_problem(prob, grid)
    ref, ref_mesh = make_problem(2, 4, "1.8", "2.6", "max(0, x - 0.5)",
                                 constraint=lambda m: ConstraintSet.obstacle(
                                     fe_interpolate("-0.5 + 0.1*x*y", m)),
                                 f=("-1 + s", "1 + s"), f_gamma=("x", "x + 1"),
                                 gamma_predicate="x - 0.5")
    assert coarse.mesh is grid.mesh and coarse.mesh.boundary_facets == ref_mesh.boundary_facets
    for name in ("p", "q", "mu"):
        np.testing.assert_array_equal(getattr(coarse.exponents, name),
                                      getattr(ref.exponents, name))
    np.testing.assert_array_equal(coarse.constraint.lower.coeffs, ref.constraint.lower.coeffs)
    assert coarse.constraint.upper is None and coarse.aux is None
    for mf, ref_mf in ((coarse.f, ref.f), (coarse.f_gamma, ref.f_gamma)):
        assert type(mf) is IntervalMultifunction and mf.mesh is grid.mesh
        assert (mf.lower, mf.upper, mf.layout.where) == (ref_mf.lower, ref_mf.upper,
                                                         ref_mf.layout.where)
    u = FeFunction(grid.mesh, np.random.default_rng(0).normal(size=grid.mesh.n_nodes))
    np.testing.assert_array_equal(coarse.operator.apply(u),
                                  ref.operator.apply(FeFunction(ref_mesh, u.coeffs)))


def test_coarse_problem_is_none_where_a_part_cannot_be_rebuilt():
    prob, mesh = make_problem(2, 8, "1.8", "2.6", "0", f=("-1", "1"))
    grid = mesh.coarse_grid
    assert visolve._coarse_problem(prob, grid) is not None
    ed = prob.exponents
    raw = VIProblem(DoublePhaseOperator(mesh, ExponentData(mesh, ed.p, ed.q, ed.mu)),
                    prob.constraint, prob.f)
    assert raw.exponents.expressions is None
    assert visolve._coarse_problem(raw, grid) is None
    j = TwoArgIntervalMultifunction(mesh, "-1 - r", "1 - r")
    frozen = VIProblem(prob.operator, prob.constraint, j.freeze(FeFunction.zero(mesh)))
    assert visolve._coarse_problem(frozen, grid) is None
    td = TruncationData(FeFunction.constant(mesh, -1.0), FeFunction.constant(mesh, 1.0))
    assert visolve._coarse_problem(build_auxiliary(prob, td), grid) is None


def test_coarse_problem_is_none_where_it_is_not_admissible():
    # y in (0.18, 0.32) is Gamma on the left and right edges: the fine facets there
    # (midpoints y = 3/16, 5/16) are Gamma, so node y = 1/4 is free, while the
    # coarse facets (midpoints y = 1/8, 3/8) are Gamma0
    predicate = "0.07 - abs(y - 0.25)"
    obstacle = lambda m: ConstraintSet.obstacle(fe_interpolate("0.5 - 8*abs(y - 0.25)", m))
    prob, mesh = make_problem(2, 8, constraint=obstacle, gamma_predicate=predicate)
    assert visolve._coarse_problem(prob, mesh.coarse_grid) is None  # lower bound 0.5 on Gamma0
    prob, mesh = make_problem(2, 8, f_gamma=("-1", "1"), gamma_predicate=predicate)
    assert not len(mesh.coarse_grid.mesh.layout("boundary_gamma").conn)
    assert visolve._coarse_problem(prob, mesh.coarse_grid) is None  # no coarse Gamma facet
