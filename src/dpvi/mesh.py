"""Meshes, P1 Lagrange functions, quadrature, boundary partition and traces.

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
Other modules assemble only through a layout or the mesh; none scatters by
itself.  Every matrix assembled here (the operator's Jacobian and the
weighted masses) is a sum of symmetric element matrices, so it is assembled
from their entries on the element edges and, unless the rows sum to zero,
on the diagonal (:meth:`Layout.matrix_data`).  One plan per mesh, built on
first use with one sort over the element edges and the nodes, gives the
pattern (the diagonal plus the element edges) and the CSR slots of every
element edge above and below the diagonal and of every node's diagonal.
Each mesh also ranks its nodes in a nested-dissection order, in which the
Newton matrices are factorised, and keeps its free nodes in that order.
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
    "build_mesh",
    "fe_interpolate",
    "lattice_op",
    "meet",
    "join",
    "trace",
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

# parts of at most this many nodes end the nested dissection
_ND_LEAF = 16


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
    elimination_rank : (n_nodes,) int array
        Position of each node in a nested-dissection order for sparse LU,
        built on first use (see the property).
    free_nodes_by_rank : int array
        The free nodes in that order, built on first use.
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
        diagonal plus the element edges, found with one sort on first matrix
        assembly; meshes never change.
        """
        n, layouts = self.n_nodes, self._layouts.values()
        heads = np.concatenate([lay.conn[:, lay.edges[0]].ravel() for lay in layouts])
        tails = np.concatenate([lay.conn[:, lay.edges[1]].ravel() for lay in layouts])
        lo, hi = np.minimum(heads, tails), np.maximum(heads, tails)
        keys = np.concatenate([lo * n + hi, hi * n + lo, np.arange(n) * (n + 1)])
        flat, inverse = np.unique(keys, return_inverse=True)
        idx = np.int32 if len(flat) < 2**31 else np.intp  # the index type scipy keeps
        rows, cols = np.divmod(flat, n)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        upper, lower, diagonal = np.split(inverse.astype(idx), [len(lo), 2 * len(lo)])
        ends = np.cumsum([len(lay.conn) * len(lay.edges[0]) for lay in layouts])[:-1]
        edges = {where: (_freeze(u), _freeze(l)) for where, u, l in
                 zip(self._layouts, np.split(upper, ends), np.split(lower, ends))}
        return _freeze(indptr.astype(idx)), _freeze(cols.astype(idx)), _freeze(diagonal), edges

    @property
    def local_edges(self):
        """Local node pairs (i, j), i < j, of an element's edges, as two index arrays."""
        return self._layouts["interior"].edges

    @cached_property
    def edge_gram(self):
        """Read-only (n_elements, n_edges) products grad(hat_i).grad(hat_j) over the
        element edges (i, j) of :attr:`local_edges`.  Built on first use."""
        i, j = self.local_edges
        gi, gj = self.grad_basis[:, i], self.grad_basis[:, j]
        gram = gi[..., 0] * gj[..., 0]
        for d in range(1, self.dim):
            gram += gi[..., d] * gj[..., d]
        return _freeze(gram)

    @cached_property
    def free_nodes_by_rank(self):
        """Read-only indices of the free (non-gamma0) nodes, in elimination order
        (increasing :attr:`elimination_rank`).  Built on first use."""
        free = np.flatnonzero(self.free_node_mask)
        return _freeze(free[np.argsort(self.elimination_rank[free])])

    @cached_property
    def elimination_rank(self):
        """Read-only position of each node in a nested-dissection elimination order.

        Recursive coordinate bisection over the CSR pattern: a part splits at
        the median of its longest coordinate extent, the nodes on the right
        that touch the left form its separator, and the separator is ordered
        after both halves.  Parts of at most ``_ND_LEAF`` nodes are not split.
        All parts of one level split together.  In 1D the nodes are
        ranked along the line (the natural order of :func:`build_mesh`): the
        matrix is then tridiagonal and its LU has no fill.  The order induced
        on any subset of the nodes has no more fill than the whole-mesh order,
        because a fill path in a subgraph is one in the whole graph, so one
        order serves every active set.  Built on first use.
        """
        n = self.n_nodes
        rank = np.empty(n, dtype=np.intp)
        if self.dim == 1:
            rank[np.argsort(self.nodes[:, 0], kind="stable")] = np.arange(n)
            return _freeze(rank)
        indptr, indices, _, _ = self._assembly_plan
        row = np.repeat(np.arange(n), np.diff(indptr))
        col = indices.astype(np.intp)
        nodes = np.arange(n)  # unranked nodes, grouped by part
        part = np.zeros(n, dtype=np.intp)  # their part, 0 .. len(start) - 1
        start = np.zeros(1, dtype=np.intp)  # first rank of each part
        label = np.empty(n, dtype=np.intp)  # part of each unranked node, -1 once ranked
        while True:
            size = np.bincount(part, minlength=len(start))
            offset = np.arange(len(nodes)) - (np.cumsum(size) - size)[part]
            leaf = size[part] <= _ND_LEAF
            rank[nodes[leaf]] = start[part[leaf]] + offset[leaf]
            split = size > _ND_LEAF
            if not split.any():
                return _freeze(rank)
            nodes, offset = nodes[~leaf], offset[~leaf]
            part = (np.cumsum(split) - 1)[part[~leaf]]
            start, size = start[split], size[split]
            label.fill(-1)
            label[nodes] = part
            inner = (label[row] == label[col]) & (label[row] >= 0)
            row, col = row[inner], col[inner]
            first = np.cumsum(size) - size
            xy = self.nodes[nodes]
            extent = np.maximum.reduceat(xy, first) - np.minimum.reduceat(xy, first)
            c = xy[np.arange(len(nodes)), np.argmax(extent, axis=1)[part]]
            order = np.lexsort((c, part))  # part is sorted, so offset still holds
            nodes, c = nodes[order], c[order]
            # left of the median; ties go left only if nothing else would,
            # and a part with every coordinate equal splits by position
            med = c[first + size // 2][part]
            left = c < med
            left |= (np.bincount(part, left, len(size)) == 0)[part] & (c <= med)
            full = np.bincount(part, left, len(size)) == size
            left = np.where(full[part], offset < (size // 2)[part], left)
            on_left = np.zeros(n, dtype=bool)
            on_left[nodes] = left
            sep = np.zeros(n, dtype=bool)
            sep[row[~on_left[row] & on_left[col]]] = True
            sep = sep[nodes]
            n_sep = np.bincount(part[sep], minlength=len(size))
            n_left = np.bincount(part[left], minlength=len(size))
            sep_offset = np.cumsum(sep) - 1 - (np.cumsum(n_sep) - n_sep)[part]
            rank[nodes[sep]] = (start + size - n_sep)[part[sep]] + sep_offset[sep]
            start = np.stack([start, start + n_left], axis=1).ravel()
            nodes, part = nodes[~sep], (2 * part + ~left)[~sep]

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

    def boundary(self, tag):
        """Boundary data dict for ``tag`` or None if no facet carries it."""
        lay = self._layouts["boundary_" + tag]
        if len(lay.conn) == 0:
            return None
        return {
            "facets": lay.conn,
            "quad_points": lay.points,
            "quad_weights": lay.weights,
            "basis": lay.basis,
        }

    def sample(self, ast: ExprAst):
        """Evaluate a spatial expression at all interior quadrature points."""
        pts = self.quad_points
        bindings = {"x": pts[..., 0]}
        if self.dim == 2:
            bindings["y"] = pts[..., 1]
        return np.broadcast_to(
            np.asarray(eval_expression(ast, bindings), dtype=float), pts.shape[:-1]
        ).copy()


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
    """Continuous piecewise-linear function given by one coefficient per node."""

    def __init__(self, mesh: Mesh, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (mesh.n_nodes,):
            raise ValueError(
                f"coefficient vector has length {coeffs.shape}, expected ({mesh.n_nodes},)"
            )
        self.mesh = mesh
        self.coeffs = _freeze(coeffs.copy())

    @classmethod
    def zero(cls, mesh):
        return cls(mesh, np.zeros(mesh.n_nodes))

    @classmethod
    def constant(cls, mesh, value):
        return cls(mesh, np.full(mesh.n_nodes, float(value)))

    def with_coeffs(self, coeffs):
        return FeFunction(self.mesh, coeffs)

    def values_at_quad(self):
        """Values at interior quadrature points, shape (n_elements, n_qp)."""
        return self.mesh.layout("interior").values(self.coeffs)

    def gradient_at_elements(self):
        """Constant per-element gradient, shape (n_elements, dim)."""
        local = self.coeffs[self.mesh.elements]
        return np.einsum("ei,eid->ed", local, self.mesh.grad_basis)

    def boundary_values(self, tag):
        """Values at boundary quadrature points of ``tag`` facets, (nf, nbq)."""
        lay = self.mesh.layout("boundary_" + tag)
        if len(lay.conn) == 0:
            raise ValueError(f"no boundary facets tagged {tag!r}")
        return lay.values(self.coeffs)

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


def build_mesh(dim, subdivisions, gamma_predicate=None):
    """Build a uniform mesh of (0,1) or (0,1)^2.

    Boundary facets whose midpoint satisfies ``gamma_predicate > 0`` are
    tagged ``gamma`` (natural boundary), all others ``gamma0`` (essential).
    ``gamma_predicate`` may be an AST, an expression string in the spatial
    variables, or None, which tags the whole boundary gamma0.
    """
    n = int(subdivisions)
    if n < 1:
        raise ValueError("subdivisions must be >= 1")
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if isinstance(gamma_predicate, str):
        allowed = ("x",) if dim == 1 else ("x", "y")
        gamma_predicate = parse_expression(gamma_predicate, allowed)

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
        bindings = {"x": mid[:, 0]}
        if dim == 2:
            bindings["y"] = mid[:, 1]
        value = eval_expression(gamma_predicate, bindings)
        gamma = np.broadcast_to(np.asarray(value, dtype=float), (len(facets),)) > 0
    tags = np.where(gamma, "gamma", "gamma0")
    facets = [(tuple(f), str(t)) for f, t in zip(facets.tolist(), tags)]
    return Mesh(dim, nodes, elements, facets)


def fe_interpolate(expr, mesh: Mesh):
    """Nodal interpolant of a spatial expression (AST or string)."""
    if isinstance(expr, str):
        allowed = ("x",) if mesh.dim == 1 else ("x", "y")
        expr = parse_expression(expr, allowed)
    spatial = {"x", "y"} if mesh.dim == 2 else {"x"}
    extra = variables_of(expr) - spatial
    if extra:
        raise ValueError(f"interpolated expression uses non-spatial variables {sorted(extra)}")
    bindings = {"x": mesh.nodes[:, 0]}
    if mesh.dim == 2:
        bindings["y"] = mesh.nodes[:, 1]
    values = np.broadcast_to(
        np.asarray(eval_expression(expr, bindings), dtype=float), (mesh.n_nodes,)
    )
    return FeFunction(mesh, values)


def lattice_op(u: FeFunction, v: FeFunction, kind):
    """Nodal lattice operation: ``meet`` = pointwise min, ``join`` = max."""
    if u.mesh is not v.mesh:
        raise ValueError("lattice operands live on different meshes")
    if kind == "meet":
        return FeFunction(u.mesh, np.minimum(u.coeffs, v.coeffs))
    if kind == "join":
        return FeFunction(u.mesh, np.maximum(u.coeffs, v.coeffs))
    raise ValueError(f"kind must be 'meet' or 'join', got {kind!r}")


def meet(u, v):
    return lattice_op(u, v, "meet")


def join(u, v):
    return lattice_op(u, v, "join")


def trace(u: FeFunction, tag):
    """Values of ``u`` at the boundary quadrature points of ``tag`` facets."""
    return u.boundary_values(tag)
