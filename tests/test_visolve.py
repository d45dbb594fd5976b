from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from dpvi import visolve
from dpvi.cli import build_problem, load_config
from dpvi.mesh import FeFunction, build_mesh, fe_interpolate
from dpvi.multifun import IntervalMultifunction, TruncationData, pick_endpoint
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

    def nan_solve(A, b):
        solves.append(len(b))
        return np.full(len(b), np.nan) if len(solves) <= n_singular else factor_solve(A, b)

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


# -- Newton systems factorised in the mesh's elimination order -------------------


def test_elimination_order_cuts_lu_fill(monkeypatch):
    # the first system (warm start, p = 2) is the P1 Laplacian, whose entries on
    # the right triangles' hypotenuses cancel; the last (p = 2.5, u != 0) keeps
    # all seven points per row
    prob, mesh = make_problem(2, 64, p="2.5", f=("1", "1"))
    lus = []
    splu = visolve.spla.splu

    def spy(*args, **kwargs):
        lus.append((args[0], splu(*args, **kwargs)))
        return lus[-1][1]

    monkeypatch.setattr(visolve.spla, "splu", spy)
    u, eta, zeta, rep = solve_vi(prob)
    assert rep.converged and len(lus) >= 2
    K, lu = lus[-1]
    assert K.shape == (63 * 63,) * 2 and K.nnz > 6.5 * 63 * 63
    default = splu(K)
    assert lu.L.nnz + lu.U.nnz <= 0.8 * (default.L.nnz + default.U.nnz)


def _whole_space_2d():
    return make_problem(2, 16, p="1.8", q="3", mu="x", f=("s - 1", "s + 3"))[0]


def _obstacle_2d():
    return make_problem(
        2, 16, p="2.5", q="3", f=("8", "8"),
        constraint=lambda m: ConstraintSet.obstacle(FeFunction.constant(m, -0.02)),
    )[0]


def _noncoercive():
    return build_problem(load_config(CONFIGS / "noncoercive.yaml"))


@pytest.mark.parametrize("build", [_whole_space_2d, _obstacle_2d, _noncoercive],
                         ids=["whole_space", "obstacle", "noncoercive"])
def test_newton_solutions_match_spsolve(monkeypatch, build):
    prob = build()
    seen, factor_solve = [], visolve._factor_solve

    def spy(K, rhs):
        seen.append((K, rhs, factor_solve(K, rhs)))
        return seen[-1][2]

    monkeypatch.setattr(visolve, "_factor_solve", spy)
    # the upper selection -100 s + 1 has a source, so u = 0 does not solve noncoercive
    u, eta, zeta, rep = solve_vi(prob, SolverOptions(max_iter=20, selection="upper"))
    assert seen
    for K, rhs, sol in seen:
        ref = spla.spsolve(K.tocsc(), rhs)
        assert np.linalg.norm(sol - ref) <= 1e-10 * np.linalg.norm(ref)
    if build is _obstacle_2d:
        assert rep.converged and max(rep.active_set_history) > 0
    if build is _noncoercive:
        # negative selection slopes: some Newton matrix has a negative eigenvalue
        assert any(np.linalg.eigvalsh(K.toarray()).min() < 0 for K, _, _ in seen)


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
