"""Meshes, P1 Lagrange functions, quadrature and the boundary partition.

Reference domains are the unit interval (0,1) and the unit square (0,1)^2.
The 2D mesh is a structured triangulation (two right triangles per cell).
Boundary facets carry exactly one of two tags, ``gamma`` or ``gamma0``:
functions in the working subspace vanish at every node of a gamma0-tagged
facet, while gamma facets carry natural (multifunction) boundary terms.

Quadrature is fixed per mesh: 3-point Gauss on segments (degree 5) and a
6-point rule on triangles (degree 4), high enough that modular errors stay
below solver tolerances for the variable powers that appear in integrands.

Pointwise fields sampled at quadrature points ("quadrature fields") are
plain float arrays of shape ``(n_elements, n_qp)``, or ``(n_facets, n_qp)``
for boundary fields.

All P1 assembly lives here, in one :class:`Layout` per quadrature layout
(cells, gamma facets, gamma0 facets): values at quadrature points, dual
vectors, and CSR data on one pattern per mesh shared by all its layouts.
Other modules assemble only through a layout or the mesh, and read boundary
data (facets, quadrature, traces) only from the ``boundary_gamma`` and
``boundary_gamma0`` layouts.  Every matrix assembled here (the operator's
Jacobian and the weighted masses) is a sum of symmetric element matrices,
so it is assembled from their entries on the element edges and, unless the
rows sum to zero, on the diagonal (:meth:`Layout.matrix_data`).  One plan per mesh, built on
first use with one sort over the undirected element edges, gives the
pattern (the diagonal plus the element edges) and the CSR slots of every
element edge above and below the diagonal and of every node's diagonal.
The Newton matrices take the free nodes in node-index order on every mesh
(:attr:`Mesh.free_nodes`).  Each mesh decides, once, whether banded Cholesky
in that order is cheap (:attr:`Mesh.elimination_band`).
A mesh with a band also keeps, once, where each entry of that band sits in
the CSR data (:attr:`Mesh.band_entries`), so the band of any Newton matrix is
gathered straight from the data of the full matrix.

A :func:`build_mesh` grid records its subdivisions and Gamma predicate, so the
grid with half its subdivisions can be built again (:attr:`Mesh.coarse_grid`).
A coarse grid's P1 functions are P1 functions on the fine grid too: one
:class:`CoarseGrid` injects fine nodal values onto the coarse nodes and
prolongs coarse functions exactly onto the fine grid, by index arithmetic, in
1D and 2D alike; it also gives that prolongation as a sparse matrix, cut down
to a set of fine rows, for the multigrid hierarchy of a Newton matrix.
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .expr import ExprAst, eval_expression, parse_expression, variables_of

__all__ = [
    "Mesh",
    "Layout",
    "FeFunction",
    "CoarseGrid",
    "build_mesh",
    "fe_interpolate",
]

# 3-point Gauss-Legendre on [0,1]: exact through degree 5
_SEG_QP = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_SEG_QW = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])

# 6-point rule on the reference triangle: exact through degree 4,
# barycentric point pairs with weights summing to one
_TRI_A1, _TRI_B1, _TRI_W1 = 0.108103018168070, 0.445948490915965, 0.223381589678011
_TRI_A2, _TRI_B2, _TRI_W2 = 0.816847572980459, 0.091576213509771, 0.109951743655322
_TRI_BARY = np.array(
    [
        [_TRI_A1, _TRI_B1, _TRI_B1],
        [_TRI_B1, _TRI_A1, _TRI_B1],
        [_TRI_B1, _TRI_B1, _TRI_A1],
        [_TRI_A2, _TRI_B2, _TRI_B2],
        [_TRI_B2, _TRI_A2, _TRI_B2],
        [_TRI_B2, _TRI_B2, _TRI_A2],
    ]
)
_TRI_QW = np.array([_TRI_W1, _TRI_W1, _TRI_W1, _TRI_W2, _TRI_W2, _TRI_W2])

# largest work m (b + 1)^2 (m free rows, half-bandwidth b) of a banded Cholesky in
# node-index order, on a mesh without a coarse grid.  Factorise-and-solve time (ms)
# of one 2D whole-space Newton matrix on a 2-vCPU AMD EPYC, one BLAS thread, the
# median of three processes:
#
#   2D n            96     112    128    144    160    176    192
#   m (b + 1)^2     8.5e7  1.6e8  2.7e8  4.3e8  6.6e8  9.6e8  1.4e9
#   SuperLU, MMD    20.0   30.7   41.8   56.0   68.9   88.0   116.5
#   band Cholesky   6.3    10.1   15.8   23.9   33.2   47.0   64.2
#   band array, MB  7.0    11.1   16.6   23.7   32.6   43.4   56.3
#
# The band beat SuperLU in its own minimum-degree order at every size, but its array
# grows as m (b + 1): the constant takes an odd grid up to n = 131 and stops there
_LU_BAND_WORK = 3e8
# the same limit on a grid with a coarse grid, where the band's alternative is
# multigrid-preconditioned CG with its set-up built once per inactive set.  Time
# (ms) of a whole solve_vi on the same machine, the median over 2-3 processes of
# repeated solves: the solve_2d problem (whole space, 4 Newton steps) and two
# obstacle problems with f = 8, whose inactive rows change at nearly every step
# (p = 2.5 and psi = -0.02, 6 steps; the extremal_2d exponents and psi = -0.5,
# 23-31 steps):
#
#   2D n                 64     80     96     112    128
#   m (b + 1)^2          1.7e7  4.1e7  8.5e7  1.6e8  2.7e8
#   whole space, band    9.0    12.8   20.4   31.7   49.0
#   whole space, MG      8.6    11.8   15.2   20.4   26.7
#   psi = -0.02, band    10.8   21.4   37.9   61.5   107
#   psi = -0.02, MG      17.5   33.5   51.0   71.1   107
#   psi = -0.5, band                   480    909    1446
#   psi = -0.5, MG                     530    919    1249
#
# Multigrid gains on the whole space grow with n; the obstacle problems rebuild
# its set-up at most steps and break even only at n = 112-128.  The constant takes
# even grids up to n = 100 and stops there, so n = 112 and up go to multigrid
_BAND_WORK = 1e8


_SPATIAL_VARS = ("x", "y")  # an expression's spatial variables are _SPATIAL_VARS[:dim]


def _spatial_bindings(points, dim):
    """Expression bindings of the spatial variables to the coordinates of ``points``."""
    pts = np.asarray(points, dtype=float)
    return {name: pts[..., i] for i, name in enumerate(_SPATIAL_VARS[:dim])}


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class Mesh:
    """Conforming 1D segment or 2D structured triangle mesh with quadrature.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    nodes : (n_nodes, dim) array
        Node coordinates.
    elements : (n_elements, dim+1) int array
        Node indices per segment / triangle.
    element_measure : (n_elements,) array
        Lengths or areas, strictly positive.
    quad_points : (n_elements, n_qp, dim) array
        Physical quadrature points.
    quad_weights : (n_elements, n_qp) array
        Physical quadrature weights (measure included).
    basis : (n_qp, dim+1) array
        P1 basis values at the reference quadrature points.
    grad_basis : (n_elements, dim+1, dim) array
        Constant per-element basis gradients.
    boundary_facets : list of (node_tuple, tag)
        All boundary facets with their gamma / gamma0 tag.
    subdivisions : int or None
        n for the uniform grid of ``build_mesh(dim, n)``, with its node and
        element numbering; None for any other mesh.
    gamma_predicate : ExprAst or None
        The Gamma predicate ``build_mesh`` tagged the facets with; None for
        no predicate or any other mesh.
    coarse_grid : CoarseGrid or None
        The grid with half the subdivisions and its transfers, built on first
        use (see the property).
    elimination_band : int or None
        Half-bandwidth of the free rows in node-index order when the Newton
        matrices are factorised in that order, else None (see the property).
    band_entries : three read-only int arrays or None
        The CSR slots and node pairs of that band, built on first use (see
        the property).
    free_nodes : int array
        The free nodes in node-index order, the Newton matrices' row order on
        every mesh; built on first use.
    local_edges : two int arrays
        Local node pairs (i, j), i < j, of an element's edges.
    edge_gram : (n_elements, n_edges) array
        grad(hat_i).grad(hat_j) over the element edges (i, j) of
        ``local_edges``, built on first use.

    One assembly plan (the CSR pattern and its edge and diagonal slots) is
    built on first matrix assembly and serves every layout.
    """

    def __init__(self, dim, nodes, elements, boundary_facets):
        self.dim = int(dim)
        self.nodes = _freeze(np.asarray(nodes, dtype=float).reshape(len(nodes), dim))
        self.elements = _freeze(np.asarray(elements, dtype=np.intp))
        self.boundary_facets = tuple(
            (tuple(int(i) for i in facet), tag) for facet, tag in boundary_facets
        )
        for facet, tag in self.boundary_facets:
            if tag not in ("gamma", "gamma0"):
                raise ValueError(f"facet {facet} has invalid tag {tag!r}")
        self.subdivisions = self.gamma_predicate = None  # build_mesh records its grid
        self._build_interior()
        self._build_boundary()

    # -- construction -----------------------------------------------------

    def _build_interior(self):
        coords = self.nodes[self.elements]  # (ne, nloc, dim)
        ne = len(self.elements)
        if self.dim == 1:
            x0, x1 = coords[:, 0, 0], coords[:, 1, 0]
            h = x1 - x0
            if np.any(h <= 0):
                raise ValueError("element lengths must be strictly positive")
            self.element_measure = _freeze(h)
            qp = x0[:, None] + h[:, None] * _SEG_QP[None, :]
            self.quad_points = _freeze(qp[:, :, None])
            self.quad_weights = _freeze(h[:, None] * _SEG_QW[None, :])
            self.basis = _freeze(np.stack([1.0 - _SEG_QP, _SEG_QP], axis=1))
            gb = np.empty((ne, 2, 1))
            gb[:, 0, 0] = -1.0 / h
            gb[:, 1, 0] = 1.0 / h
            self.grad_basis = _freeze(gb)
        else:
            v0, v1, v2 = coords[:, 0], coords[:, 1], coords[:, 2]
            e1, e2 = v1 - v0, v2 - v0
            det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
            if np.any(det <= 0):
                raise ValueError("triangle areas must be strictly positive")
            self.element_measure = _freeze(0.5 * det)
            lam = _TRI_BARY  # (nq, 3)
            # coordinate axis first: contiguous (dim, ne) vertex rows times (nq,) weights
            xy = np.ascontiguousarray(coords.transpose(1, 2, 0))[..., None]  # (3, dim, ne, 1)
            qp = xy[0] * lam[:, 0] + xy[1] * lam[:, 1] + xy[2] * lam[:, 2]  # (dim, ne, nq)
            self.quad_points = _freeze(qp.transpose(1, 2, 0))
            self.quad_weights = _freeze(self.element_measure[:, None] * _TRI_QW[None, :])
            self.basis = _freeze(lam.copy())
            # gradients of barycentric coordinates
            gb = np.empty((ne, 3, 2))
            gb[:, 1, 0] = e2[:, 1] / det
            gb[:, 1, 1] = -e2[:, 0] / det
            gb[:, 2, 0] = -e1[:, 1] / det
            gb[:, 2, 1] = e1[:, 0] / det
            gb[:, 0, :] = -gb[:, 1, :] - gb[:, 2, :]
            self.grad_basis = _freeze(gb)
        cells = (self.elements, self.quad_points, self.quad_weights, self.basis)
        self._layouts = {"interior": Layout(self, "interior", *cells)}

    def _build_boundary(self):
        for tag in ("gamma", "gamma0"):
            facets = [f for f, t in self.boundary_facets if t == tag]
            fnodes = np.asarray(facets, dtype=np.intp).reshape(len(facets), self.dim)
            if self.dim == 1:
                bq = self.nodes[fnodes[:, 0]][:, None, :]  # (nf, 1, 1)
                bw = np.ones((len(facets), 1))  # counting measure at endpoints
                bbasis = np.ones((1, 1))
            else:
                a = self.nodes[fnodes[:, 0]]
                b = self.nodes[fnodes[:, 1]]
                length = np.linalg.norm(b - a, axis=1)
                bq = a[:, None, :] + _SEG_QP[None, :, None] * (b - a)[:, None, :]
                bw = length[:, None] * _SEG_QW[None, :]
                bbasis = np.stack([1.0 - _SEG_QP, _SEG_QP], axis=1)
            where = "boundary_" + tag
            self._layouts[where] = Layout(
                self, where, _freeze(fnodes), _freeze(bq), _freeze(bw), _freeze(bbasis)
            )
        mask = np.zeros(len(self.nodes), dtype=bool)
        mask[self._layouts["boundary_gamma0"].conn.ravel()] = True
        self.gamma0_node_mask = _freeze(mask)
        self.free_node_mask = _freeze(~mask)

    @cached_property
    def _assembly_plan(self):
        """``(indptr, indices, diagonal, edges)``: the CSR pattern shared by all
        layouts, the slot in ``indices`` of each node's diagonal entry and, per
        layout, the slots ``(upper, lower)`` of its element edges above and below
        the diagonal (element-major, local node pairs i < j).  The pattern is the
        diagonal plus the element edges, built on first matrix assembly from
        one sort of the undirected edge keys; meshes never change.

        With the unique edges (lo, hi), lo < hi, sorted by (lo, hi), row r holds
        its edges with hi = r (by lo), its diagonal, then its edges with lo = r
        (by hi).  So an edge's upper slot is its position in that sort plus the
        edges ending at or before lo and lo + 1 diagonals; its lower slot is its
        position in the stable sort by hi plus the edges starting before hi and
        hi diagonals.
        """
        n, layouts = self.n_nodes, self._layouts.values()
        heads = np.concatenate([lay.conn[:, lay.edges[0]].ravel() for lay in layouts])
        tails = np.concatenate([lay.conn[:, lay.edges[1]].ravel() for lay in layouts])
        keys, inverse = np.unique(np.minimum(heads, tails) * n + np.maximum(heads, tails),
                                  return_inverse=True)
        lo, hi = np.divmod(keys, n)
        n_upper, n_lower = np.bincount(lo, minlength=n), np.bincount(hi, minlength=n)
        nodes, position, nnz = np.arange(n), np.arange(len(keys)), n + 2 * len(keys)
        idx = np.int32 if nnz < 2**31 else np.intp  # the index type scipy keeps
        indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(n_lower + n_upper + 1, out=indptr[1:])
        diagonal = indptr[1:] - n_upper.astype(idx) - 1
        upper = (position + (np.cumsum(n_lower) + nodes + 1)[lo]).astype(idx)
        by_hi = np.argsort(hi, kind="stable")
        lower = np.empty(len(keys), dtype=idx)
        lower[by_hi] = position + (np.cumsum(n_upper) - n_upper + nodes)[hi[by_hi]]
        indices = np.empty(nnz, dtype=idx)
        indices[upper], indices[lower], indices[diagonal] = hi, lo, nodes
        upper, lower, edges, end = upper[inverse], lower[inverse], {}, 0
        for where, lay in self._layouts.items():  # element-major, layout after layout
            start, end = end, end + lay.conn.shape[0] * len(lay.edges[0])
            edges[where] = _freeze(upper[start:end]), _freeze(lower[start:end])
        return _freeze(indptr), _freeze(indices), _freeze(diagonal), edges

    @cached_property
    def coarse_grid(self):
        """The :class:`CoarseGrid` of ``build_mesh(dim, n // 2, gamma_predicate)``
        for a :func:`build_mesh` grid with an even number n of subdivisions, else
        None.  Built on first use."""
        n = self.subdivisions
        if n is None or n % 2:
            return None
        return CoarseGrid(self.dim, n, self.gamma_predicate)

    @property
    def local_edges(self):
        """Local node pairs (i, j), i < j, of an element's edges, as two index arrays."""
        return self._layouts["interior"].edges

    @cached_property
    def edge_gram(self):
        """Read-only (n_elements, n_edges) products grad(hat_i).grad(hat_j) over the
        element edges (i, j) of :attr:`local_edges`.  Built on first use."""
        i, j = self.local_edges
        return _freeze(_dot(self.grad_basis[:, i], self.grad_basis[:, j]))

    @cached_property
    def free_nodes(self):
        """Read-only indices of the free (non-gamma0) nodes in node-index order, the
        order of the Newton matrices' rows on every mesh.  Built on first use."""
        return _freeze(np.flatnonzero(self.free_node_mask))

    @cached_property
    def elimination_band(self):
        """Half-bandwidth b of the free rows in node-index order, or None when that
        order is too wide to factorise in.

        b is the largest distance, counted in free rows, between the free ends
        of an element edge.  A banded Cholesky of m free rows costs about
        m (b + 1)^2; while that is at most ``_BAND_WORK`` the Newton matrices
        are factorised on that band, otherwise by multigrid-preconditioned CG
        or, failing that, by sparse LU in SuperLU's own minimum-degree order.
        A mesh without a :attr:`coarse_grid`, which multigrid needs, keeps the
        band up to the larger work ``_LU_BAND_WORK``.  On a :func:`build_mesh`
        grid node-index order is the natural order and b is 1 in 1D and n in 2D
        when the whole boundary is Gamma0; even 2D grids up to n = 100 and odd
        ones up to n = 131 stay below their constant.  A subset of the free
        rows has no wider band in the order it inherits, so one order serves
        every active set.  Built on first use.
        """
        free = self.free_node_mask
        row = np.cumsum(free) - 1  # position of each free node among the free rows
        i, j = self.local_edges
        heads, tails = self.elements[:, i].ravel(), self.elements[:, j].ravel()
        both = free[heads] & free[tails]
        b = int(np.max(np.abs(row[heads] - row[tails])[both], initial=0))
        coarsens = self.subdivisions is not None and self.subdivisions % 2 == 0  # as coarse_grid
        limit = _BAND_WORK if coarsens else _LU_BAND_WORK
        return b if np.count_nonzero(free) * (b + 1) ** 2 <= limit else None

    @cached_property
    def band_entries(self):
        """Read-only ``(slots, rows, cols)`` of the band a Newton matrix is gathered
        from when :attr:`elimination_band` is set, else None.

        For every entry (i, j), i >= j, of the shared CSR pattern between two
        free nodes: its slot in the matrix data and its node indices i and j,
        ordered by j, then i.  That is the column-major order of LAPACK's lower
        band storage ``ab[i - j, j]``, and it stays so for the rows of any
        subset, which keep their node-index order.  Built on first use.
        """
        if self.elimination_band is None:
            return None
        indptr, indices, _, _ = self._assembly_plan
        rows = np.repeat(np.arange(self.n_nodes), np.diff(indptr))
        free = self.free_node_mask
        slots = np.flatnonzero((indices <= rows) & free[rows] & free[indices])
        slots = slots[np.lexsort((rows[slots], indices[slots]))]
        return _freeze(slots), _freeze(rows[slots]), _freeze(indices[slots].astype(np.intp))

    # -- queries -----------------------------------------------------------

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_elements(self):
        return len(self.elements)

    def layout(self, where="interior"):
        """Layout (holding the mesh weakly) of the cells (``'interior'``) or of the
        gamma / gamma0 facets (``'boundary_gamma'``, ``'boundary_gamma0'``, maybe empty)."""
        if where not in self._layouts:
            raise ValueError(f"where must be one of {sorted(self._layouts)}, got {where!r}")
        return self._layouts[where]

    def csr(self, data):
        """Matrix with ``data`` on the shared pattern (see :meth:`Layout.matrix_data`);
        it owns copies of the index arrays, so in-place sparse operations are safe."""
        indptr, indices, _, _ = self._assembly_plan
        return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(self.n_nodes,) * 2)

    def sample(self, ast: ExprAst):
        """Evaluate a spatial expression at all interior quadrature points."""
        pts = self.quad_points
        values = eval_expression(ast, _spatial_bindings(pts, self.dim))
        return np.broadcast_to(np.asarray(values, dtype=float), pts.shape[:-1]).copy()


class Layout:
    """P1 assembly on the cells of a mesh or on its facets of one tag.

    ``conn`` (n, nloc) lists the nodes of each cell or facet; ``points``
    (n, nq, dim), ``weights`` (n, nq) and ``basis`` (nq, nloc) are its
    quadrature, and ``edges`` the local node pairs (i, j), i < j, of each
    element's edges.  Every quadrature sum is one matrix product with the
    basis table, over all elements at once.  Vectors and matrix entries sum
    with ``bincount`` in element order, as ``np.add.at`` does; :meth:`Mesh.csr`
    turns matrix data into a matrix.
    """

    def __init__(self, mesh, where, conn, points, weights, basis):
        # weak: a mesh that held layouts holding it would wait for the cycle collector
        self.mesh = weakref.proxy(mesh)
        self.where = where
        self.conn = conn
        self.points = points
        self.weights = weights
        self.basis = basis
        self.edges = np.triu_indices(conn.shape[1], 1)

    def values(self, coeffs):
        """Values of the P1 function with nodal ``coeffs`` at the quadrature points."""
        return coeffs[self.conn] @ self.basis.T

    def scatter(self, local):
        """Nodal vector summing the per-element entries ``local`` (n, nloc)."""
        out = np.bincount(self.conn.ravel(), weights=np.ravel(local), minlength=self.mesh.n_nodes)
        return out.astype(float, copy=False)  # bincount counts in int64 when conn is empty

    def dual(self, field):
        """Dual vector of a quadrature field: entries integral(field * hat_i).

        The local vectors are one product (weights * field) @ basis.
        """
        field = np.asarray(field, dtype=float)
        if field.shape != self.weights.shape:
            raise ValueError(
                f"{self.where} field shape {field.shape} does not match {self.weights.shape}"
            )
        return self.scatter((self.weights * field) @ self.basis)

    def matrix_data(self, edge, diag=None):
        """CSR data of the sum of symmetric element matrices given by their entries
        ``edge`` (n, n_edges) on the element edges (local pairs i < j of
        ``edges``) and ``diag`` (n, nloc) on the diagonal; without ``diag`` the
        element matrices have zero row sums.  Data of all layouts of one mesh add
        entrywise.

        Each entry above the diagonal sums its edge's values in element order
        and is copied to its mirror below, so the matrix is exactly symmetric.
        Each diagonal entry sums ``diag`` in element order or, without it, is
        minus its row's off-diagonal sum.
        """
        indptr, indices, diagonal, edges = self.mesh._assembly_plan
        upper, lower = edges[self.where]
        data = np.bincount(upper, weights=np.ravel(edge), minlength=len(indices))
        data = data.astype(float, copy=False)  # bincount counts in int64 when upper is empty
        data[lower] = data[upper]
        if diag is None:
            data[diagonal] = -np.add.reduceat(data, indptr[:-1])
        else:
            data[diagonal] = self.scatter(diag)
        return data

    def mass_data(self, field):
        """CSR data of the weighted mass matrix integral(field * hat_i * hat_j).

        The local matrices, flattened, are one product of the weighted field
        with the (nq, nloc * nloc) table of basis products; their entries on
        the element edges and the diagonal are assembled.
        """
        b = self.basis
        nloc = b.shape[1]
        bb = (b[:, :, None] * b[:, None, :]).reshape(len(b), -1)
        local = (self.weights * field) @ bb
        i, j = self.edges
        return self.matrix_data(local[:, i * nloc + j], local[:, :: nloc + 1])


class FeFunction:
    """Continuous piecewise-linear function given by one coefficient per node.

    The coefficients are frozen, so the quadrature values, the element
    gradients, their magnitudes and their products with the basis gradients
    are computed on first use and then returned, read-only, to every later
    caller: the operator's residual and its Jacobian at one iterate share them.
    """

    def __init__(self, mesh: Mesh, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (mesh.n_nodes,):
            raise ValueError(
                f"coefficient vector has length {coeffs.shape}, expected ({mesh.n_nodes},)"
            )
        self.mesh = mesh
        self.coeffs = _freeze(coeffs.copy())
        self._quad = self._grad = self._grad_norm = self._grad_basis = None

    @classmethod
    def zero(cls, mesh):
        return cls(mesh, np.zeros(mesh.n_nodes))

    @classmethod
    def constant(cls, mesh, value):
        return cls(mesh, np.full(mesh.n_nodes, float(value)))

    def values_at_quad(self):
        """Values at interior quadrature points, shape (n_elements, n_qp), read-only."""
        if self._quad is None:
            self._quad = _freeze(self.mesh.layout("interior").values(self.coeffs))
        return self._quad

    def gradient_at_elements(self):
        """Constant per-element gradient, shape (n_elements, dim), read-only."""
        if self._grad is None:
            local = self.coeffs[self.mesh.elements]
            self._grad = _freeze(np.einsum("ei,eid->ed", local, self.mesh.grad_basis))
        return self._grad

    def gradient_magnitude(self):
        """|grad u| per element, shape (n_elements,), read-only; taken without
        squaring (``abs`` in 1D, ``hypot`` in 2D), which would underflow or
        overflow far from unit scale."""
        if self._grad_norm is None:
            g = self.gradient_at_elements()
            self._grad_norm = _freeze(np.abs(g[:, 0]) if self.mesh.dim == 1
                                      else np.hypot(g[:, 0], g[:, 1]))
        return self._grad_norm

    def gradient_dot_basis(self):
        """grad(u).grad(hat_i) per element and local node i, shape (n_elements,
        dim + 1), read-only."""
        if self._grad_basis is None:
            g = self.gradient_at_elements()
            self._grad_basis = _freeze(_dot(g[:, None], self.mesh.grad_basis))
        return self._grad_basis

    def __add__(self, other):
        if isinstance(other, FeFunction):
            self._check_mesh(other)
            return FeFunction(self.mesh, self.coeffs + other.coeffs)
        return FeFunction(self.mesh, self.coeffs + float(other))

    def __sub__(self, other):
        if isinstance(other, FeFunction):
            self._check_mesh(other)
            return FeFunction(self.mesh, self.coeffs - other.coeffs)
        return FeFunction(self.mesh, self.coeffs - float(other))

    def __mul__(self, scalar):
        return FeFunction(self.mesh, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _check_mesh(self, other):
        if other.mesh is not self.mesh:
            raise ValueError("functions live on different meshes")

    def to_csv(self):
        """Serialize to CSV with header ``node_index,x[,y],value``."""
        lines = []
        if self.mesh.dim == 1:
            lines.append("node_index,x,value")
            for i, (xy, v) in enumerate(zip(self.mesh.nodes, self.coeffs)):
                lines.append(f"{i},{float(xy[0])!r},{float(v)!r}")
        else:
            lines.append("node_index,x,y,value")
            for i, (xy, v) in enumerate(zip(self.mesh.nodes, self.coeffs)):
                lines.append(f"{i},{float(xy[0])!r},{float(xy[1])!r},{float(v)!r}")
        return "\n".join(lines) + "\n"


def _dot(a, b):
    """Dot product over the last (dimension) axis, with the others broadcast."""
    out = a[..., 0] * b[..., 0]
    for d in range(1, a.shape[-1]):
        out += a[..., d] * b[..., d]
    return out


def build_mesh(dim, subdivisions, gamma_predicate=None):
    """Build a uniform mesh of (0,1) or (0,1)^2.

    Boundary facets whose midpoint satisfies ``gamma_predicate > 0`` are
    tagged ``gamma`` (natural boundary), all others ``gamma0`` (essential).
    ``gamma_predicate`` may be an AST, an expression string in the spatial
    variables, or None, which tags the whole boundary gamma0.  Node (i, j)
    of the 2D grid, at (i/n, j/n), has index j (n+1) + i, and the mesh
    records n as :attr:`Mesh.subdivisions` and the predicate's AST as
    :attr:`Mesh.gamma_predicate`.
    """
    n = int(subdivisions)
    if n < 1:
        raise ValueError("subdivisions must be >= 1")
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    dim = int(dim)  # 2.0 builds the 2D mesh
    if isinstance(gamma_predicate, str):
        gamma_predicate = parse_expression(gamma_predicate, _SPATIAL_VARS[:dim])

    if dim == 1:
        nodes = np.linspace(0.0, 1.0, n + 1)[:, None]
        elements = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
        facets = np.array([[0], [n]])
    else:
        xs = np.linspace(0.0, 1.0, n + 1)
        xv, yv = np.meshgrid(xs, xs, indexing="xy")
        nodes = np.stack([xv.ravel(), yv.ravel()], axis=1)
        # cell (i, j) has corners a = (i, j), b = (i+1, j), c = (i+1, j+1), d = (i, j+1)
        # and triangles (a, b, c), (a, c, d); cells run i fastest, then j
        a = (np.arange(n)[None, :] + (n + 1) * np.arange(n)[:, None]).ravel()
        b, c, d = a + 1, a + n + 2, a + n + 1
        elements = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
        # per i: bottom, top, left, right, each from its lower-index end
        i = np.arange(n)
        starts = np.stack([i, n * (n + 1) + i, (n + 1) * i, (n + 1) * i + n], axis=1).ravel()
        steps = np.tile([1, 1, n + 1, n + 1], n)
        facets = np.stack([starts, starts + steps], axis=1)

    mid = nodes[facets].sum(axis=1) / facets.shape[1]
    if gamma_predicate is None:
        gamma = np.zeros(len(facets), dtype=bool)
    else:
        value = eval_expression(gamma_predicate, _spatial_bindings(mid, dim))
        gamma = np.broadcast_to(np.asarray(value, dtype=float), (len(facets),)) > 0
    tags = np.where(gamma, "gamma", "gamma0")
    facets = [(tuple(f), str(t)) for f, t in zip(facets.tolist(), tags)]
    mesh = Mesh(dim, nodes, elements, facets)
    mesh.subdivisions, mesh.gamma_predicate = n, gamma_predicate
    return mesh


class CoarseGrid:
    """The :func:`build_mesh` grid with half the subdivisions of a finer one, and
    the two transfers of nodal values between them.

    ``mesh`` is ``build_mesh(dim, n // 2, gamma_predicate)`` for the fine
    grid's dimension, even n and Gamma predicate, so its Gamma/Gamma0
    partition is the one that call gives.  Coarse node i (1D) or (i, j) (2D)
    is fine node 2i or (2i, 2j).  Every coarse triangle is the union of four
    fine ones, since the fine cells split along the same a-c diagonal, so each
    coarse P1 function is a fine one.  The transfers are index arithmetic:

    * :meth:`inject` reads fine nodal values at the coarse nodes;
    * :meth:`prolong` is that exact embedding.  Each fine node averages its
      two parents, the coarse nodes at half its grid index rounded down and
      rounded up along every axis: a coarse node is its own parent twice, an
      edge midpoint averages the edge's ends (in 1D this is linear
      interpolation) and a cell midpoint the ends of the cell's a-c diagonal,
      on which it lies.  ``inject(prolong(c))`` is ``c`` bitwise;
    * :meth:`prolongation` is that embedding as a sparse matrix, restricted to
      a set of fine rows and to the coarse nodes at one of them.

    The fine grid is not referenced, so a grid may cache its coarse grid.
    """

    def __init__(self, dim, n, gamma_predicate=None):
        if n % 2:
            raise ValueError("a coarse grid needs an even number of subdivisions")
        self.mesh = build_mesh(dim, n // 2, gamma_predicate)
        axis = np.arange(n + 1)

        def flat(index, size):  # grid index along each axis -> node index
            return index if dim == 1 else (size * index[:, None] + index[None, :]).ravel()

        self._nodes = flat(axis[::2], n + 1)
        self._parents = (flat(axis // 2, n // 2 + 1), flat((axis + 1) // 2, n // 2 + 1))

    def inject(self, coeffs):
        """Values of the fine nodal ``coeffs`` at the coarse nodes."""
        return np.asarray(coeffs, dtype=float)[self._nodes]

    def prolong(self, coeffs):
        """Fine nodal values of the coarse P1 function with nodal ``coeffs``."""
        c = np.asarray(coeffs, dtype=float)
        lo, hi = self._parents
        return 0.5 * (c[lo] + c[hi])

    @cached_property
    def _matrix(self):
        """:meth:`prolong` as a CSR matrix, fine nodes by coarse nodes; built once."""
        lo, hi = self._parents
        fine = np.arange(len(lo))
        ij = np.concatenate([fine, fine]), np.concatenate([lo, hi])
        # a coarse node's own fine node has it as both parents: the duplicates sum to 1
        return sp.coo_matrix((np.full(2 * len(lo), 0.5), ij),
                             shape=(len(lo), self.mesh.n_nodes)).tocsr()

    def prolongation(self, rows):
        """:meth:`prolong` as a sparse matrix from the coarse nodes whose own fine
        node is one of the fine ``rows`` (node indices, in any order) to those
        rows, and those coarse nodes in increasing order.

        Each column has a 1 in its own fine node's row, where every other
        column has a 0, so the columns are linearly independent.
        """
        inside = np.zeros(len(self._parents[0]), dtype=bool)
        inside[rows] = True
        keep = np.flatnonzero(inside[self._nodes])
        return self._matrix[rows][:, keep], keep


def fe_interpolate(expr, mesh: Mesh):
    """Nodal interpolant of a spatial expression (AST or string)."""
    spatial = _SPATIAL_VARS[:mesh.dim]
    if isinstance(expr, str):
        expr = parse_expression(expr, spatial)
    extra = variables_of(expr) - set(spatial)
    if extra:
        raise ValueError(f"interpolated expression uses non-spatial variables {sorted(extra)}")
    values = eval_expression(expr, _spatial_bindings(mesh.nodes, mesh.dim))
    return FeFunction(mesh, np.broadcast_to(np.asarray(values, dtype=float), (mesh.n_nodes,)))

