import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from dpvi import operator as operator_module
from dpvi.expr import eval_expression, parse_expression
from dpvi.mesh import (
    _BAND_WORK, _LU_BAND_WORK, _TRI_BARY, CoarseGrid, FeFunction, Layout, Mesh, build_mesh,
    fe_interpolate,
)
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
    assert len(m.layout("boundary_gamma0").conn) == 0
    assert m.free_node_mask.all()


def test_gamma_partition_2d():
    # left edge natural (facet midpoints there have x = 0), rest essential
    m = build_mesh(2, 2, "0.1 - x")
    tags = [tag for _, tag in m.boundary_facets]
    assert tags.count("gamma") == 2
    assert tags.count("gamma0") == 6


def test_whole_float_dim_builds_the_same_mesh():
    m, m_float = build_mesh(2, 2, "0.1 - x"), build_mesh(2.0, 2, "0.1 - x")
    assert m_float.dim == 2 and m_float.boundary_facets == m.boundary_facets
    np.testing.assert_array_equal(m_float.nodes, m.nodes)


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


def test_trace_zero_on_gamma0():
    m = build_mesh(1, 4)  # all boundary gamma0
    u = fe_interpolate("x*(1-x)", m)
    np.testing.assert_allclose(m.layout("boundary_gamma0").values(u.coeffs), 0.0, atol=1e-15)


def test_trace_endpoint_value():
    m = build_mesh(1, 4, "x - 0.5")  # right endpoint natural
    u = fe_interpolate("x", m)
    np.testing.assert_allclose(m.layout("boundary_gamma").values(u.coeffs), 1.0)


def test_trace_constant():
    m = build_mesh(2, 2, "1")
    u = FeFunction.constant(m, 3.25)
    np.testing.assert_allclose(m.layout("boundary_gamma").values(u.coeffs), 3.25)


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


def test_quad_values_and_gradients_computed_once():
    m = build_mesh(2, 3)
    u = fe_interpolate("x*y - y", m)
    vals, grads = u.values_at_quad(), u.gradient_at_elements()
    assert u.values_at_quad() is vals and u.gradient_at_elements() is grads
    assert not vals.flags.writeable and not grads.flags.writeable
    np.testing.assert_array_equal(vals, m.layout("interior").values(u.coeffs))
    np.testing.assert_array_equal(
        grads, np.einsum("ei,eid->ed", u.coeffs[m.elements], m.grad_basis))


@pytest.mark.parametrize("dim", [1, 2])
def test_gradient_magnitudes_and_basis_products_computed_once(dim):
    m = build_mesh(dim, 4)
    u = FeFunction(m, np.random.default_rng(dim).normal(size=m.n_nodes))
    norm, products = u.gradient_magnitude(), u.gradient_dot_basis()
    assert u.gradient_magnitude() is norm and u.gradient_dot_basis() is products
    assert not norm.flags.writeable and not products.flags.writeable
    grads = u.gradient_at_elements()
    # abs in 1D and hypot in 2D, so the magnitude never squares the gradient
    np.testing.assert_array_equal(
        norm, np.abs(grads[:, 0]) if dim == 1 else np.hypot(grads[:, 0], grads[:, 1]))
    np.testing.assert_allclose(products, np.einsum("ed,eid->ei", grads, m.grad_basis),
                               rtol=1e-14, atol=1e-14)


# -- layout assembly against the np.add.at / COO construction ------------------------


def _ref_dual(mesh, conn, weights, basis, field):
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, conn, (weights * field) @ basis)
    return out


def _relabelled(mesh, seed):
    """The same mesh with its nodes numbered in a random order."""
    perm = np.random.default_rng(seed).permutation(mesh.n_nodes)  # new -> old
    old_to_new = np.argsort(perm)
    facets = [(tuple(old_to_new[list(f)]), tag) for f, tag in mesh.boundary_facets]
    return Mesh(mesh.dim, mesh.nodes[perm], old_to_new[mesh.elements], facets)


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


def _flat_left_function(mesh, seed):
    # random, but constant left of x = 0.35: some elements have grad u = 0
    coeffs = np.random.default_rng(seed).normal(size=mesh.n_nodes)
    coeffs[mesh.nodes[:, 0] < 0.35] = 0.7
    u = FeFunction(mesh, coeffs)
    flat = np.all(u.gradient_at_elements() == 0.0, axis=1)
    assert flat.any() and not flat.all()
    return u


@pytest.mark.parametrize("dim,n,q,mu", [(1, 9, "2.5 + x*x", "max(0, x - 0.4)"),
                                        (2, 6, "2.5 + y", "max(0, y - 0.4)")])
def test_apply_matches_reference(dim, n, q, mu):
    # exponents vary per quadrature point, mu vanishes on part of the domain, and u is
    # constant left of x = 0.35, so some elements have grad u = 0 at p < 2
    m = build_mesh(dim, n)
    ed = ExponentData.from_expressions(m, "1.5 + 0.4*x", q, mu)
    assert np.ptp(ed.p, axis=1).min() > 0 and (ed.mu == 0).any() and (ed.mu > 0).any()
    u = _flat_left_function(m, 37)
    op = DoublePhaseOperator(m, ed)
    _assert_close(op.apply(u), _ref_apply(op, u))


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 6)])
@pytest.mark.parametrize("p", ["1.5 + 0.4*x", "1.8"])
@pytest.mark.parametrize("eps", [0.0, 1e-8])
def test_edge_jacobian_matches_element_matrices(dim, n, p, eps):
    # p varying inside elements or constant per element, mu vanishing left of x = 0.4,
    # flat elements at p < 2, with and without smoothing
    m = build_mesh(dim, n)
    ed = ExponentData.from_expressions(m, p, "2.5 + x*x", "max(0, x - 0.4)")
    assert (ed.mu == 0).any() and (ed.mu > 0).any()
    op = DoublePhaseOperator(m, ed)
    u = _flat_left_function(m, 41)
    J = op.jacobian(u, eps=eps)
    dense, ref = J.toarray(), _ref_jacobian(op, u, eps).toarray()
    assert abs(dense - ref).max() <= 1e-13 * abs(ref).max()
    np.testing.assert_array_equal(dense, dense.T)  # bitwise symmetric
    row_sums = np.asarray(J.sum(axis=1)).ravel()
    assert np.all(abs(row_sums) <= 1e-14 * abs(dense).sum(axis=1))


@pytest.mark.parametrize("dim,n,mu", [(1, 9, "max(0, x - 0.4)"), (2, 6, "max(0, y - 0.4)")])
def test_per_element_exponents_match_full_fields(dim, n, mu, monkeypatch):
    # exponents constant per element are held as one column; the quadrature sums
    # must agree with the same fields kept at every quadrature point
    m = build_mesh(dim, n)
    ed = ExponentData.from_expressions(m, "1.6", "2.7", mu)
    op = DoublePhaseOperator(m, ed)
    assert op._pm2.shape == op._qm2.shape == (m.n_elements, 1)
    monkeypatch.setattr(operator_module, "_per_element", lambda field: field)
    full = DoublePhaseOperator(m, ed)
    assert full._pm2.shape == m.quad_weights.shape
    u = _flat_left_function(m, 43)
    a, b = op.apply(u), full.apply(u)
    assert abs(a - b).max() <= 1e-14 * abs(b).max()
    Ja, Jb = op.jacobian(u).toarray(), full.jacobian(u).toarray()
    assert abs(Ja - Jb).max() <= 1e-14 * abs(Jb).max()


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
    wg = rng.normal(size=gam.weights.shape)
    if len(gam.conn) == 0:
        np.testing.assert_array_equal(assemble_source(wg, m, "boundary_gamma"), 0.0)
    else:
        np.testing.assert_array_equal(gam.values(u.coeffs), u.coeffs[gam.conn] @ gam.basis.T)
        np.testing.assert_array_equal(
            assemble_source(wg, m, "boundary_gamma"),
            _ref_dual(m, gam.conn, gam.weights, gam.basis, wg),
        )

    # matrices: duplicates sum in another order, so equal to rounding, same pattern
    ed = ExponentData.from_expressions(m, "1.8", "2.6", "x")
    op = DoublePhaseOperator(m, ed)
    J, J_ref = op.jacobian(u, eps=1e-3), _ref_jacobian(op, u, 1e-3)
    M, M_ref = m.csr(cells.mass_data(w)), _ref_mass(m, m.elements, m.quad_weights, m.basis, w)
    for new, ref in ((J, J_ref), (M, M_ref)):
        np.testing.assert_array_equal(new.indptr, ref.indptr)
        np.testing.assert_array_equal(new.indices, ref.indices)
        _assert_close(new.toarray(), ref.toarray())
    J.indices[:] = 0  # every matrix owns its index arrays; the shared pattern is untouched
    np.testing.assert_array_equal(op.jacobian(u, eps=1e-3).indices, J_ref.indices)
    G = m.csr(gam.mass_data(wg))
    G_ref = sp.csr_matrix(M.shape)
    if len(gam.conn):
        G_ref = _ref_mass(m, gam.conn, gam.weights, gam.basis, wg)
        # the gamma mass lives on the shared pattern: its nonzeros are the facets' entries
        assert set(zip(*G.nonzero())) == set(zip(*G_ref.nonzero()))
    _assert_close(G.toarray(), G_ref.toarray())

    # the Newton matrix: one data array on the shared pattern, one matrix
    newton = op.jacobian(u, eps=1e-3)
    newton.data += cells.mass_data(w) + gam.mass_data(wg)
    _assert_close(newton.toarray(), (J_ref + (M_ref + G_ref)).toarray())


def _ref_symmetric(mesh, conn, local, zero_row_sums=False):
    """Dense sum of the full element matrices ``local`` (n, nloc, nloc), scattered
    with ``np.add.at`` in element order.  With ``zero_row_sums`` their diagonals
    are ignored, and each diagonal entry is minus the one-segment ``reduceat`` sum
    of its row over the diagonal (still zero) and the element edges, in column
    order: the order in which a CSR row is summed."""
    index = (conn[:, :, None], conn[:, None, :])
    if zero_row_sums:
        local = local * (1.0 - np.eye(conn.shape[1]))
    dense = np.zeros((mesh.n_nodes,) * 2)
    np.add.at(dense, index, local)
    if zero_row_sums:
        pattern = np.eye(mesh.n_nodes, dtype=bool)
        pattern[index] = True
        for row, cols in enumerate(pattern):
            dense[row, row] = -np.add.reduceat(dense[row, cols], [0])[0]
    return dense


@pytest.mark.parametrize("relabel", [False, True], ids=["built", "relabelled"])
@pytest.mark.parametrize("dim,n,gamma", [(1, 7, None), (1, 7, "x - 0.5"),
                                         (2, 5, None), (2, 5, "0.3 - y")])
def test_symmetric_assembly_is_bitwise_the_element_scatter(dim, n, gamma, relabel, monkeypatch):
    # relabelled nodes give edges whose first local node has the larger index, so the
    # entries below the diagonal are the copied mirrors of those above
    m = build_mesh(dim, n, gamma)
    if relabel:
        m = _relabelled(m, n)
    rng = np.random.default_rng(29)
    u = FeFunction(m, rng.normal(size=m.n_nodes))
    ed = ExponentData.from_expressions(m, "1.8", "2.6", "x")
    op = DoublePhaseOperator(m, ed)
    edges = []  # the Jacobian's element edge values, as assembled
    assemble = Layout.matrix_data

    def recorded(lay, edge, diag=None):
        edges.append(edge)
        return assemble(lay, edge, diag)

    monkeypatch.setattr(Layout, "matrix_data", recorded)
    J = op.jacobian(u, eps=1e-3).toarray()
    i, j = m.local_edges
    local = np.zeros((m.n_elements,) + (m.dim + 1,) * 2)
    local[:, i, j] = local[:, j, i] = edges[0]
    np.testing.assert_array_equal(J, _ref_symmetric(m, m.elements, local, zero_row_sums=True))
    np.testing.assert_array_equal(J, J.T)

    for where in ("interior", "boundary_gamma"):
        lay = m.layout(where)
        w = rng.normal(size=lay.weights.shape)
        b, nloc = lay.basis, lay.conn.shape[1]
        full = (lay.weights * w) @ (b[:, :, None] * b[:, None, :]).reshape(len(b), -1)
        ref = _ref_symmetric(m, lay.conn, full.reshape(-1, nloc, nloc))
        np.testing.assert_array_equal(m.csr(lay.mass_data(w)).toarray(), ref)


def _ref_assembly_plan(mesh):
    """The plan from one np.unique over every directed edge key and every diagonal key:
    each key's rank among them is its CSR slot."""
    n, layouts = mesh.n_nodes, mesh._layouts.values()
    heads = np.concatenate([lay.conn[:, lay.edges[0]].ravel() for lay in layouts])
    tails = np.concatenate([lay.conn[:, lay.edges[1]].ravel() for lay in layouts])
    lo, hi = np.minimum(heads, tails), np.maximum(heads, tails)
    keys = np.concatenate([lo * n + hi, hi * n + lo, np.arange(n) * (n + 1)])
    flat, inverse = np.unique(keys, return_inverse=True)
    idx = np.int32 if len(flat) < 2**31 else np.intp
    rows, cols = np.divmod(flat, n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    upper, lower, diagonal = np.split(inverse.astype(idx), [len(lo), 2 * len(lo)])
    ends = np.cumsum([len(lay.conn) * len(lay.edges[0]) for lay in layouts])[:-1]
    edges = {where: (u, l) for where, u, l in
             zip(mesh._layouts, np.split(upper, ends), np.split(lower, ends))}
    return indptr.astype(idx), cols.astype(idx), diagonal, edges


def _reversed(mesh):
    """The same mesh made by the constructor with its nodes numbered backwards."""
    new = np.arange(mesh.n_nodes)[::-1]  # old -> new
    facets = [(tuple(new[list(f)]), tag) for f, tag in mesh.boundary_facets]
    return Mesh(mesh.dim, mesh.nodes[::-1], new[mesh.elements], facets)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim,n,gamma,renumber", [
    (1, 8, "x - 0.5", None), (2, 1, None, None), (2, 16, "x - 0.5", None),
    (2, 64, "y - x", None), (2, 12, "y - x", _reversed),
    (2, 9, "x - 0.5", lambda m: _relabelled(m, 9)),
], ids=["1d_gamma", "2d_n1", "2d_gamma", "2d_diagonal_gamma", "2d_reversed", "2d_relabelled"])
def test_assembly_plan_is_the_sort_of_every_directed_key(dim, n, gamma, renumber):
    # built from the unique undirected edges, the plan has the bits and dtypes of
    # the sort over both directions of every edge and over the diagonal
    m = build_mesh(dim, n, gamma)
    if renumber is not None:
        m = renumber(m)
    plan, ref = m._assembly_plan, _ref_assembly_plan(m)
    for a, b in zip(plan[:3], ref[:3]):
        assert _same_bits(a, b)
    assert plan[3].keys() == ref[3].keys()
    for where in ref[3]:
        (upper, lower), (ref_upper, ref_lower) = plan[3][where], ref[3][where]
        assert _same_bits(upper, ref_upper) and _same_bits(lower, ref_lower)
    assert all(not a.flags.writeable for a in (*plan[:3], *itertools.chain(*plan[3].values())))


def test_free_nodes():
    # in node-index order on every mesh, with a band or without one
    small, wide = build_mesh(2, 9, "x - 0.5"), build_mesh(2, 144, "x - 0.5")
    assert small.elimination_band is not None and wide.elimination_band is None
    for m in (small, wide):
        free = m.free_nodes
        np.testing.assert_array_equal(free, np.flatnonzero(m.free_node_mask))
        assert m.free_nodes is free  # built once per mesh
        with pytest.raises(ValueError):
            free[0] = 0


@pytest.mark.parametrize("dim,n,gamma,relabel", [
    (1, 1, None, False), (1, 40, "x - 0.5", False), (1, 40, None, True), (2, 1, None, False),
    (2, 16, "x - 0.5", False), (2, 16, "y - x", True), (2, 112, None, False),
    (2, 128, None, False), (2, 131, None, False), (2, 144, None, False),
])
def test_elimination_band_is_the_band_of_the_free_rows(dim, n, gamma, relabel):
    # the half-bandwidth of the assembled pattern's free rows in node-index order,
    # kept while m (b + 1)^2 is at most the crossover: multigrid's on a grid with a
    # coarse grid, sparse LU's on any other mesh
    m = build_mesh(dim, n, gamma)
    if relabel:
        m = _relabelled(m, n)
    free = np.flatnonzero(m.free_node_mask)
    pattern = m.csr(np.ones(len(m._assembly_plan[1])))[free][:, free].tocoo()
    b = int(np.max(np.abs(pattern.row - pattern.col), initial=0))
    limit = _BAND_WORK if m.coarse_grid is not None else _LU_BAND_WORK
    assert m.elimination_band == (b if len(free) * (b + 1) ** 2 <= limit else None)


def test_elimination_band_on_grids():
    # node (i, j) and (i + 1, j + 1) are n free rows apart when the whole boundary is Gamma0
    assert build_mesh(1, 4096).elimination_band == 1
    assert build_mesh(2, 16).elimination_band == 16
    assert build_mesh(2, 100).elimination_band == 100  # the widest even grid on the band
    assert build_mesh(2, 102).elimination_band is None
    assert build_mesh(2, 128).elimination_band is None  # multigrid from here on the ladder
    assert build_mesh(2, 256).elimination_band is None
    # without a coarse grid the band's alternative is sparse LU, which it beats for longer
    assert build_mesh(2, 131).elimination_band == 131
    assert build_mesh(2, 133).elimination_band is None
    grid = build_mesh(2, 128)
    assert Mesh(2, grid.nodes, grid.elements, grid.boundary_facets).elimination_band == 128


# -- build_mesh against its cell-by-cell construction ----------------------------------


def _loop_build_mesh(dim, n, gamma_predicate=None):
    if isinstance(gamma_predicate, str):
        gamma_predicate = parse_expression(gamma_predicate, ("x",) if dim == 1 else ("x", "y"))
    if dim == 1:
        nodes = np.linspace(0.0, 1.0, n + 1)[:, None]
        elements = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
        raw_facets = [(0,), (n,)]
    else:
        xs = np.linspace(0.0, 1.0, n + 1)
        xv, yv = np.meshgrid(xs, xs, indexing="xy")
        nodes = np.stack([xv.ravel(), yv.ravel()], axis=1)

        def nid(i, j):
            return j * (n + 1) + i

        elements = []
        for j in range(n):
            for i in range(n):
                a, b, c, d = nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)
                elements += [(a, b, c), (a, c, d)]
        raw_facets = []
        for i in range(n):
            raw_facets.append((nid(i, 0), nid(i + 1, 0)))  # bottom
            raw_facets.append((nid(i, n), nid(i + 1, n)))  # top
            raw_facets.append((nid(0, i), nid(0, i + 1)))  # left
            raw_facets.append((nid(n, i), nid(n, i + 1)))  # right
    facets = []
    for facet in raw_facets:
        mid = np.mean([nodes[i] for i in facet], axis=0)
        tag = "gamma0"
        if gamma_predicate is not None:
            bindings = {"x": mid[0], "y": mid[1]} if dim == 2 else {"x": mid[0]}
            if float(eval_expression(gamma_predicate, bindings)) > 0:
                tag = "gamma"
        facets.append((facet, tag))
    return Mesh(dim, nodes, elements, facets)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("dim,gamma", [(1, None), (1, "x - 0.5"), (1, "sin(3*x) - 0.4"),
                                       (2, None), (2, "0.3 - y"), (2, "sin(3*x) - y"),
                                       (2, "x - 0.5")])
def test_build_mesh_matches_cell_loop(dim, n, gamma):
    new, ref = build_mesh(dim, n, gamma), _loop_build_mesh(dim, n, gamma)
    assert new.boundary_facets == ref.boundary_facets
    for name in ("nodes", "elements", "element_measure", "quad_points", "quad_weights",
                 "basis", "grad_basis", "gamma0_node_mask", "free_node_mask"):
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    for where in ("interior", "boundary_gamma", "boundary_gamma0"):
        for name in ("conn", "points", "weights", "basis"):
            np.testing.assert_array_equal(getattr(new.layout(where), name),
                                          getattr(ref.layout(where), name))


def _broadcast_quad_points(mesh):
    """The 2D quadrature points formed by broadcasting the barycentric weights
    against the (n_elements, dim) vertex coordinates, vertex by vertex."""
    coords = mesh.nodes[mesh.elements]
    v0, v1, v2 = coords[:, 0], coords[:, 1], coords[:, 2]
    lam = _TRI_BARY
    return (
        lam[None, :, 0, None] * v0[:, None, :]
        + lam[None, :, 1, None] * v1[:, None, :]
        + lam[None, :, 2, None] * v2[:, None, :]
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_quad_points_are_bitwise_the_vertex_broadcast(n):
    for m in (build_mesh(2, n), _relabelled(build_mesh(2, n), n)):
        ref = _broadcast_quad_points(m)
        assert m.quad_points.dtype == ref.dtype and m.quad_points.flags.c_contiguous
        np.testing.assert_array_equal(m.quad_points, ref)


# -- the coarse grid: injection and prolongation ------------------------------------

_NESTED = [(1, 8, None), (1, 10, "x - 0.5"), (2, 8, None), (2, 6, "x - 0.4"),
           (2, 8, "sin(3*x) - y")]


def _p1_at(mesh, coeffs, points):
    """Values at ``points`` (k, dim) of the P1 function ``coeffs`` on ``mesh``, each
    point located by its barycentric coordinates in every element."""
    verts = mesh.nodes[mesh.elements]  # (ne, dim + 1, dim)
    # lambda_i(x) = delta_i0 + grad(hat_i) . (x - v0) on each element
    lam = np.einsum("eid,ked->kei", mesh.grad_basis, points[:, None, :] - verts[None, :, 0])
    lam[:, :, 0] += 1.0
    inside = np.all(lam >= -1e-12, axis=2)
    assert inside.any(axis=1).all()
    e = np.argmax(inside, axis=1)
    k = np.arange(len(points))
    return np.sum(lam[k, e] * coeffs[mesh.elements[e]], axis=1)


@pytest.mark.parametrize("dim,n,gamma", _NESTED)
def test_coarse_grid_is_build_mesh_at_half_the_subdivisions(dim, n, gamma):
    fine = build_mesh(dim, n, gamma)
    grid = fine.coarse_grid
    assert fine.coarse_grid is grid and isinstance(grid, CoarseGrid)
    ref = build_mesh(dim, n // 2, gamma)
    assert grid.mesh.subdivisions == n // 2 and grid.mesh.dim == dim
    assert grid.mesh.boundary_facets == ref.boundary_facets  # the same Gamma/Gamma0 partition
    np.testing.assert_array_equal(grid.mesh.gamma0_node_mask, ref.gamma0_node_mask)
    np.testing.assert_array_equal(grid.mesh.nodes, ref.nodes)
    # coarse node i (1D) or (i, j) (2D) is fine node 2i or (2i, 2j)
    np.testing.assert_array_equal(grid.inject(fine.nodes[:, 0]), ref.nodes[:, 0])
    np.testing.assert_array_equal(grid.inject(fine.nodes[:, -1]), ref.nodes[:, -1])


def test_coarse_grid_needs_an_even_build_mesh_grid():
    assert build_mesh(2, 7).coarse_grid is None
    assert build_mesh(1, 1).coarse_grid is None
    assert _relabelled(build_mesh(2, 8), 0).coarse_grid is None  # not from build_mesh
    with pytest.raises(ValueError, match="even"):
        CoarseGrid(2, 7)


@pytest.mark.parametrize("dim,n,gamma", _NESTED)
def test_prolongation_matrix_is_prolong_on_the_rows(dim, n, gamma):
    # two thirds of the fine nodes, shuffled; the kept coarse nodes are those whose
    # own fine node is a row, and P times their values is prolong's, bitwise
    fine = build_mesh(dim, n, gamma)
    grid = fine.coarse_grid
    rng = np.random.default_rng(n)
    rows = rng.permutation(fine.n_nodes)[:2 * fine.n_nodes // 3]
    P, keep = grid.prolongation(rows)
    own = grid.inject(np.arange(fine.n_nodes)).astype(np.intp)
    np.testing.assert_array_equal(keep, np.flatnonzero(np.isin(own, rows)))
    assert 0 < len(keep) < grid.mesh.n_nodes and P.shape == (len(rows), len(keep))
    c = np.zeros(grid.mesh.n_nodes)
    c[keep] = rng.normal(size=len(keep))
    np.testing.assert_array_equal(P @ c[keep], grid.prolong(c)[rows])


@pytest.mark.parametrize("dim,n,gamma", _NESTED)
def test_injection_undoes_prolongation(dim, n, gamma):
    grid = build_mesh(dim, n, gamma).coarse_grid
    c = np.random.default_rng(n).normal(size=grid.mesh.n_nodes)
    fine = grid.prolong(c)
    assert fine.shape == ((n + 1) ** dim,)
    np.testing.assert_array_equal(grid.inject(fine), c)


@pytest.mark.parametrize("dim,n,gamma", _NESTED)
def test_prolonged_affine_function_is_its_fine_interpolant(dim, n, gamma):
    fine = build_mesh(dim, n, gamma)
    grid = fine.coarse_grid
    expr = "0.3 - 2*x" if dim == 1 else "0.3 - 2*x + 5*y"
    prolonged = grid.prolong(fe_interpolate(expr, grid.mesh).coeffs)
    np.testing.assert_allclose(prolonged, fe_interpolate(expr, fine).coeffs,
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("dim,n,gamma", _NESTED)
def test_prolongation_is_the_coarse_function_on_the_fine_grid(dim, n, gamma):
    fine = build_mesh(dim, n, gamma)
    grid = fine.coarse_grid
    c = np.random.default_rng(n + dim).normal(size=grid.mesh.n_nodes)
    on_fine = FeFunction(fine, grid.prolong(c)).values_at_quad()
    points = fine.quad_points.reshape(-1, dim)
    expected = _p1_at(grid.mesh, c, points).reshape(on_fine.shape)
    np.testing.assert_allclose(on_fine, expected, rtol=0, atol=1e-13)
