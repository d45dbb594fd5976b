import numpy as np
import pytest
import scipy.sparse as sp

from dpvi.expr import parse_expression
from dpvi.mesh import FeFunction, Mesh, build_mesh, fe_interpolate, join, lattice_op, meet, trace
from dpvi.multifun import assemble_source
from dpvi.operator import DoublePhaseOperator
from dpvi.spaces import ExponentData


def test_interval_mesh_basic():
    m = build_mesh(1, 2)
    np.testing.assert_allclose(m.nodes[:, 0], [0.0, 0.5, 1.0])
    assert m.n_elements == 2
    assert len(m.boundary_facets) == 2


def test_square_mesh_basic():
    m = build_mesh(2, 2)
    assert m.n_nodes == 9
    assert m.n_elements == 8


def test_gamma_predicate_all_gamma():
    # predicate identically positive: whole boundary is natural, gamma0 empty
    m = build_mesh(1, 4, "1")
    tags = {tag for _, tag in m.boundary_facets}
    assert tags == {"gamma"}
    assert m.boundary("gamma0") is None
    assert m.free_node_mask.all()


def test_gamma_partition_2d():
    # left edge natural (facet midpoints there have x = 0), rest essential
    m = build_mesh(2, 2, "0.1 - x")
    tags = [tag for _, tag in m.boundary_facets]
    assert tags.count("gamma") == 2
    assert tags.count("gamma0") == 6


def test_measure_partition_of_unity():
    for dim, n in ((1, 7), (2, 5)):
        m = build_mesh(dim, n)
        assert abs(m.element_measure.sum() - 1.0) < 1e-12
        assert abs(m.quad_weights.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (2, 1), (3, 1), (2, 2), (4, 0), (0, 4)])
def test_quadrature_exactness_2d(a, b):
    m = build_mesh(2, 3)
    vals = m.quad_points[:, :, 0] ** a * m.quad_points[:, :, 1] ** b
    integral = np.sum(m.quad_weights * vals)
    exact = 1.0 / (a + 1) / (b + 1)
    assert abs(integral - exact) < 1e-12


@pytest.mark.parametrize("a", [0, 1, 2, 3, 4, 5])
def test_quadrature_exactness_1d(a):
    m = build_mesh(1, 4)
    integral = np.sum(m.quad_weights * m.quad_points[:, :, 0] ** a)
    assert abs(integral - 1.0 / (a + 1)) < 1e-12


def test_interpolate_zero_and_linear():
    m = build_mesh(1, 2)
    z = fe_interpolate("0", m)
    np.testing.assert_array_equal(z.coeffs, [0.0, 0.0, 0.0])
    u = fe_interpolate("x", m)
    np.testing.assert_allclose(u.coeffs, [0.0, 0.5, 1.0])
    v = fe_interpolate("x*(1-x)", m)
    np.testing.assert_allclose(v.coeffs, [0.0, 0.25, 0.0])


def test_interpolate_rejects_nonspatial():
    m = build_mesh(1, 2)
    ast = parse_expression("x + s", ("x", "s"))
    with pytest.raises(ValueError):
        fe_interpolate(ast, m)


def test_lattice_ops():
    m = build_mesh(1, 2)
    u = FeFunction(m, [0.0, 1.0, 0.0])
    v = FeFunction(m, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(meet(u, u).coeffs, u.coeffs)
    np.testing.assert_array_equal(join(u, v).coeffs, [1.0, 1.0, 0.0])
    np.testing.assert_array_equal(
        (meet(u, v) + join(u, v)).coeffs, (u + v).coeffs
    )


def test_lattice_ordering_random():
    m = build_mesh(2, 3)
    rng = np.random.default_rng(7)
    u = FeFunction(m, rng.normal(size=m.n_nodes))
    v = FeFunction(m, rng.normal(size=m.n_nodes))
    lo, hi = meet(u, v), join(u, v)
    assert np.all(lo.coeffs <= u.coeffs) and np.all(lo.coeffs <= v.coeffs)
    assert np.all(hi.coeffs >= u.coeffs) and np.all(hi.coeffs >= v.coeffs)


def test_lattice_mesh_mismatch():
    u = FeFunction(build_mesh(1, 2), np.zeros(3))
    v = FeFunction(build_mesh(1, 2), np.zeros(3))
    with pytest.raises(ValueError):
        lattice_op(u, v, "meet")


def test_trace_zero_on_gamma0():
    m = build_mesh(1, 4)  # all boundary gamma0
    u = fe_interpolate("x*(1-x)", m)
    np.testing.assert_allclose(trace(u, "gamma0"), 0.0, atol=1e-15)


def test_trace_endpoint_value():
    m = build_mesh(1, 4, "x - 0.5")  # right endpoint natural
    u = fe_interpolate("x", m)
    np.testing.assert_allclose(trace(u, "gamma"), 1.0)


def test_trace_constant():
    m = build_mesh(2, 2, "1")
    u = FeFunction.constant(m, 3.25)
    np.testing.assert_allclose(trace(u, "gamma"), 3.25)


def test_trace_empty_tag_errors():
    m = build_mesh(1, 2, "1")
    u = FeFunction.zero(m)
    with pytest.raises(ValueError):
        trace(u, "gamma0")


def test_csv_layout():
    m = build_mesh(1, 2)
    u = fe_interpolate("x", m)
    text = u.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "node_index,x,value"
    assert lines[1].startswith("0,0.0,")
    m2 = build_mesh(2, 1)
    assert FeFunction.zero(m2).to_csv().splitlines()[0] == "node_index,x,y,value"


def test_coefficient_length_checked():
    m = build_mesh(1, 2)
    with pytest.raises(ValueError):
        FeFunction(m, np.zeros(5))


def test_values_at_quad_reproduces_linear():
    m = build_mesh(2, 3)
    u = fe_interpolate("2*x - 3*y + 1", m)
    expected = 2 * m.quad_points[:, :, 0] - 3 * m.quad_points[:, :, 1] + 1
    np.testing.assert_allclose(u.values_at_quad(), expected, atol=1e-13)
    grads = u.gradient_at_elements()
    np.testing.assert_allclose(grads[:, 0], 2.0, atol=1e-13)
    np.testing.assert_allclose(grads[:, 1], -3.0, atol=1e-13)


# -- layout assembly against the np.add.at / COO construction ------------------------


def _ref_dual(mesh, conn, weights, basis, field):
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, conn, (weights * field) @ basis)
    return out


def _ref_matrix(mesh, conn, local):
    nloc = conn.shape[1]
    rows = np.repeat(conn, nloc, axis=1).ravel()
    cols = np.tile(conn, (1, nloc)).ravel()
    shape = (mesh.n_nodes, mesh.n_nodes)
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape).tocsr()


def _ref_mass(mesh, conn, weights, basis, field):
    return _ref_matrix(mesh, conn, np.einsum("eq,qi,qj->eij", weights * field, basis, basis))


def _ref_jacobian(op, u, eps):
    mesh, ed = op.mesh, op.exponents
    grad = u.gradient_at_elements()
    ge = np.maximum(np.sqrt(np.sum(grad**2, axis=1) + eps**2), 1e-12)
    geq = np.broadcast_to(ge[:, None], mesh.quad_weights.shape)
    h = geq ** (ed.p - 2.0) + ed.mu * geq ** (ed.q - 2.0)
    hp = (ed.p - 2.0) * geq ** (ed.p - 3.0) + ed.mu * (ed.q - 2.0) * geq ** (ed.q - 3.0)
    a_iso = np.sum(mesh.quad_weights * h, axis=1)
    a_rank1 = np.sum(mesh.quad_weights * hp, axis=1) / ge
    gb = mesh.grad_basis
    gg = np.einsum("eid,ejd->eij", gb, gb)
    gu = np.einsum("ed,eid->ei", grad, gb)
    elem = a_iso[:, None, None] * gg + a_rank1[:, None, None] * (gu[:, :, None] * gu[:, None, :])
    return _ref_matrix(mesh, mesh.elements, elem)


def _assert_close(new, ref):
    scale = max(abs(ref).max(), 1e-300)
    assert abs(new - ref).max() <= 1e-14 * scale


def _ref_apply(op, u):
    # the flux coefficient from powers on the nonzero gradients, zero elsewhere
    mesh, ed = op.mesh, op.exponents
    grad = u.gradient_at_elements()
    wq = np.broadcast_to(np.linalg.norm(grad, axis=1)[:, None], mesh.quad_weights.shape)
    coeff = np.zeros_like(wq)
    pos = wq > 0.0
    wp = wq[pos]
    coeff[pos] = wp ** (ed.p[pos] - 2.0) + ed.mu[pos] * wp ** (ed.q[pos] - 2.0)
    cw = np.sum(mesh.quad_weights * coeff, axis=1)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, mesh.elements, cw[:, None] * np.einsum("ed,eid->ei", grad, mesh.grad_basis))
    return out


@pytest.mark.parametrize("dim,n,q,mu", [(1, 9, "2.5 + x*x", "max(0, x - 0.4)"),
                                        (2, 6, "2.5 + y", "max(0, y - 0.4)")])
def test_apply_matches_reference(dim, n, q, mu):
    # exponents vary per quadrature point, mu vanishes on part of the domain, and u is
    # constant left of x = 0.35, so some elements have grad u = 0 at p < 2
    m = build_mesh(dim, n)
    ed = ExponentData.from_expressions(m, "1.5 + 0.4*x", q, mu)
    assert np.ptp(ed.p, axis=1).min() > 0 and (ed.mu == 0).any() and (ed.mu > 0).any()
    coeffs = np.random.default_rng(37).normal(size=m.n_nodes)
    coeffs[m.nodes[:, 0] < 0.35] = 0.7
    u = FeFunction(m, coeffs)
    flat = np.all(u.gradient_at_elements() == 0.0, axis=1)
    assert flat.any() and not flat.all()
    op = DoublePhaseOperator(m, ed)
    _assert_close(op.apply(u), _ref_apply(op, u))


@pytest.mark.parametrize("dim,n,gamma", [(1, 7, None), (1, 7, "x - 0.5"),
                                         (2, 5, None), (2, 5, "0.3 - y")])
def test_layout_assembly_matches_reference(dim, n, gamma):
    m = build_mesh(dim, n, gamma)
    rng = np.random.default_rng(23)
    cells, gam = m.layout("interior"), m.layout("boundary_gamma")
    u = FeFunction(m, rng.normal(size=m.n_nodes))

    # values and dual vectors: same arithmetic in the same order, so bitwise equal
    np.testing.assert_array_equal(u.values_at_quad(), u.coeffs[m.elements] @ m.basis.T)
    w = rng.normal(size=m.quad_weights.shape)
    np.testing.assert_array_equal(
        assemble_source(w, m), _ref_dual(m, m.elements, m.quad_weights, m.basis, w)
    )
    bd = m.boundary("gamma")
    wg = rng.normal(size=gam.weights.shape)
    if bd is None:
        assert gam.weights.shape[0] == 0
        np.testing.assert_array_equal(assemble_source(wg, m, "boundary_gamma"), 0.0)
    else:
        facets, bw, bbasis = bd["facets"], bd["quad_weights"], bd["basis"]
        np.testing.assert_array_equal(u.boundary_values("gamma"), u.coeffs[facets] @ bbasis.T)
        np.testing.assert_array_equal(
            assemble_source(wg, m, "boundary_gamma"), _ref_dual(m, facets, bw, bbasis, wg)
        )

    # matrices: duplicates sum in another order, so equal to rounding, same pattern
    ed = ExponentData.from_expressions(m, "1.8", "2.6", "x")
    op = DoublePhaseOperator(m, ed)
    J, J_ref = op.jacobian(u, eps=1e-3), _ref_jacobian(op, u, 1e-3)
    M, M_ref = m.csr(cells.mass_data(w)), _ref_mass(m, m.elements, m.quad_weights, m.basis, w)
    nloc = m.elements.shape[1]
    local = rng.normal(size=(m.n_elements, nloc, nloc))  # unsymmetric: catches transposes
    A, A_ref = m.csr(cells.matrix_data(local)), _ref_matrix(m, m.elements, local)
    for new, ref in ((J, J_ref), (M, M_ref), (A, A_ref)):
        np.testing.assert_array_equal(new.indptr, ref.indptr)
        np.testing.assert_array_equal(new.indices, ref.indices)
        _assert_close(new.toarray(), ref.toarray())
    J.indices[:] = 0  # every matrix owns its index arrays; the shared pattern is untouched
    np.testing.assert_array_equal(op.jacobian(u, eps=1e-3).indices, J_ref.indices)
    G = m.csr(gam.mass_data(wg))
    G_ref = sp.csr_matrix(M.shape)
    if bd is not None:
        G_ref = _ref_mass(m, facets, bw, bbasis, wg)
        # the gamma mass lives on the shared pattern: its nonzeros are the facets' entries
        assert set(zip(*G.nonzero())) == set(zip(*G_ref.nonzero()))
    _assert_close(G.toarray(), G_ref.toarray())

    # the Newton matrix: one data array on the shared pattern, one matrix
    newton = op.jacobian(u, eps=1e-3)
    newton.data += cells.mass_data(w) + gam.mass_data(wg)
    _assert_close(newton.toarray(), (J_ref + (M_ref + G_ref)).toarray())


# -- nested-dissection elimination order ------------------------------------------


def _relabelled(mesh, seed):
    """The same mesh with its nodes numbered in a random order."""
    perm = np.random.default_rng(seed).permutation(mesh.n_nodes)  # new -> old
    old_to_new = np.argsort(perm)
    facets = [(tuple(old_to_new[list(f)]), tag) for f, tag in mesh.boundary_facets]
    return Mesh(mesh.dim, mesh.nodes[perm], old_to_new[mesh.elements], facets)


@pytest.mark.parametrize("dim,n", [(1, 1), (1, 40), (2, 1), (2, 3), (2, 17), (2, 64)])
def test_elimination_rank_is_a_read_only_permutation(dim, n):
    for m in (build_mesh(dim, n), _relabelled(build_mesh(dim, n), n)):
        rank = m.elimination_rank
        np.testing.assert_array_equal(np.sort(rank), np.arange(m.n_nodes))
        assert m.elimination_rank is rank  # built once per mesh
        with pytest.raises(ValueError):
            rank[0] = 1


def test_elimination_rank_is_natural_in_1d():
    np.testing.assert_array_equal(build_mesh(1, 40).elimination_rank, np.arange(41))
    m = _relabelled(build_mesh(1, 40), 3)  # any 1D mesh is ranked along the line
    np.testing.assert_array_equal(m.nodes[np.argsort(m.elimination_rank), 0],
                                  np.linspace(0.0, 1.0, 41))


def test_elimination_rank_orders_separators_last():
    # on the 2D grid the first split takes the middle column x = 1/2 last
    m = build_mesh(2, 16)
    last = np.argsort(m.elimination_rank)[-17:]
    np.testing.assert_array_equal(m.nodes[last, 0], 0.5)
