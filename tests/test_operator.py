import numpy as np
import pytest
import scipy.sparse as sp

from dpvi.mesh import FeFunction, build_mesh, fe_interpolate
from dpvi.operator import DoublePhaseOperator
from dpvi.spaces import ExponentData


def make_op(dim=1, n=8, p="2", q="3", mu="0", eps=1e-8):
    mesh = build_mesh(dim, n)
    ed = ExponentData.from_expressions(mesh, p, q, mu)
    return DoublePhaseOperator(mesh, ed, eps=eps), mesh


def test_constant_function_maps_to_zero():
    op, mesh = make_op(2, 3, "1.5", "2.5", "x")
    u = FeFunction.constant(mesh, 4.2)
    np.testing.assert_allclose(op.apply(u), 0.0, atol=1e-15)
    assert op.energy(u) == 0.0


def test_hat_stiffness_pairing():
    # hat on n=2: |u'| = 2 on both halves, so <Au, u> = 4
    op, mesh = make_op(1, 2)
    u = FeFunction(mesh, [0.0, 1.0, 0.0])
    assert op.apply(u) @ u.coeffs == pytest.approx(4.0, abs=1e-13)


def test_p_laplacian_reduction_mu_zero():
    # independent p-Laplacian assembly: per element c = |u'|^(p-2) u' against
    # hat slopes +-1/h in one dimension
    mesh = build_mesh(1, 6)
    p_expr = "1.8"
    ed = ExponentData.from_expressions(mesh, p_expr, "3", "0")
    op = DoublePhaseOperator(mesh, ed)
    rng = np.random.default_rng(0)
    u = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
    h = np.diff(mesh.nodes[:, 0])
    slopes = np.diff(u.coeffs) / h
    flux = np.sign(slopes) * np.abs(slopes) ** (1.8 - 1.0)
    expected = np.zeros(mesh.n_nodes)
    for e in range(mesh.n_elements):
        expected[e] -= flux[e]
        expected[e + 1] += flux[e]
    np.testing.assert_allclose(op.apply(u), expected, atol=1e-12)


def test_linear_stiffness_reduction():
    # p = 2, mu = 0: apply is the linear stiffness product
    op, mesh = make_op(2, 4)
    K = op.jacobian(FeFunction.zero(mesh), eps=0.0)
    rng = np.random.default_rng(1)
    u = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
    np.testing.assert_allclose(op.apply(u), K @ u.coeffs, atol=1e-12)


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
def test_apply_is_homogeneous_at_extreme_scales(dim, n):
    # A(s u) = s^(p-1) A(u) for mu = 0; |grad u| is taken without squaring, which
    # would underflow at 1e-300 (apply returning 0) and overflow at 1e200
    op, mesh = make_op(dim, n, "1.5", "3", "0")
    g = FeFunction(mesh, np.random.default_rng(31).normal(size=mesh.n_nodes))
    base = op.apply(g)
    for s in (1e-300, 1e200):
        scaled = op.apply(g * s) / s**0.5
        assert abs(scaled - base).max() <= 1e-12 * abs(base).max()


def test_energy_linear_function():
    op, mesh = make_op(1, 4)
    u = fe_interpolate("x", mesh)
    assert op.energy(u) == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize("dim,p,q,mu", [(1, "2", "3", "1"), (2, "2", "2.5", "0.5 + 0.5*x")])
def test_energy_gradient_consistency(dim, p, q, mu):
    op, mesh = make_op(dim, 4 if dim == 2 else 8, p, q, mu)
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
        hgg = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
        pairing = op.apply(u) @ hgg.coeffs
        errs = []
        for delta in (1e-3, 1e-5):
            fd = (op.energy(u + hgg * delta) - op.energy(u - hgg * delta)) / (2 * delta)
            errs.append(abs(fd - pairing) / max(1.0, abs(pairing)))
        assert errs[1] <= 1e-6
        if errs[1] > 1e-14:
            assert errs[0] / errs[1] >= 50.0


def test_jacobian_symmetry_and_fd_columns():
    op, mesh = make_op(1, 6, "2.4", "3.1", "0.5 + 0.5*x", eps=1e-8)
    rng = np.random.default_rng(3)
    u = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
    J = op.jacobian(u)
    assert abs(J - J.T).max() <= 1e-12
    delta = 1e-6
    base = op.apply(u)
    for i in (2, 4):
        e = np.zeros(mesh.n_nodes)
        e[i] = delta
        col = (op.apply(u.with_coeffs(u.coeffs + e)) - base) / delta
        np.testing.assert_allclose(col, J @ (e / delta), atol=5e-5)


def test_jacobian_constant_for_quadratic_energy():
    op, mesh = make_op(2, 3)
    rng = np.random.default_rng(4)
    u = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
    J0 = op.jacobian(FeFunction.zero(mesh))
    J1 = op.jacobian(u)
    assert abs(J1 - J0).max() <= 1e-8


def test_jacobian_positive_definite_on_free_nodes():
    op, mesh = make_op(1, 8, "1.5", "2.5", "1")
    rng = np.random.default_rng(5)
    u = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
    J = op.jacobian(u).toarray()
    free = mesh.free_node_mask
    eigs = np.linalg.eigvalsh(J[np.ix_(free, free)])
    assert eigs.min() > 0


def test_monotonicity_gap():
    op, mesh = make_op(1, 8, "1.7", "2.3", "x")
    rng = np.random.default_rng(6)
    u = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
    v = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
    assert op.monotonicity_gap(u, u) == 0.0
    gap = op.monotonicity_gap(u, v)
    assert gap == pytest.approx(op.monotonicity_gap(v, u))
    assert gap >= 1e-12


def test_monotonicity_randomized():
    op, mesh = make_op(2, 3, "1.5", "2.2", "0.3 + 0.7*y")
    rng = np.random.default_rng(7)
    for _ in range(25):
        u = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
        v = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
        assert op.monotonicity_gap(u, v) >= -1e-12


def test_energy_convex_along_segments():
    op, mesh = make_op(1, 8, "1.6", "2.4", "x")
    rng = np.random.default_rng(8)
    for _ in range(10):
        u = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
        v = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
        mid = FeFunction(mesh, 0.5 * (u.coeffs + v.coeffs))
        assert op.energy(mid) <= 0.5 * (op.energy(u) + op.energy(v)) + 1e-10


def test_mesh_mismatch_rejected():
    op, _ = make_op(1, 4)
    other = build_mesh(1, 4)
    with pytest.raises(ValueError):
        op.apply(FeFunction.zero(other))
