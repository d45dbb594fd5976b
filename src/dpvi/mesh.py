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
Other modules assemble only through a layout; none scatters by itself.
Each mesh also ranks its nodes in a nested-dissection order, in which the
Newton matrices are factorised.
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
            qp = (
                lam[None, :, 0, None] * v0[:, None, :]
                + lam[None, :, 1, None] * v1[:, None, :]
                + lam[None, :, 2, None] * v2[:, None, :]
            )
            self.quad_points = _freeze(qp)
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
    def _csr_pattern(self):
        """``(indptr, indices, slots)``: the CSR pattern shared by all layouts and,
        per layout, the position in ``indices`` of each raveled element-matrix
        entry.  Built with one sort on first matrix assembly; meshes never change.
        """
        n, layouts = self.n_nodes, self._layouts.values()
        keys = [(lay.conn[:, :, None] * n + lay.conn[:, None, :]).ravel() for lay in layouts]
        flat = np.concatenate(keys)
        idx = np.int32 if len(flat) < 2**31 else np.intp  # the index type scipy keeps
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        first = np.concatenate([[True], flat[1:] != flat[:-1]])
        inverse = np.empty(len(flat), dtype=idx)
        inverse[order] = np.cumsum(first) - 1
        rows, cols = np.divmod(flat[first], n)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        ends = np.cumsum([k.size for k in keys])[:-1]
        slots = dict(zip(self._layouts, np.split(inverse, ends)))
        return _freeze(indptr.astype(idx)), _freeze(cols.astype(idx)), slots

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
        indptr, indices, _ = self._csr_pattern
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
        indptr, indices, _ = self._csr_pattern
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
    quadrature.  Every quadrature sum is one matrix product with the basis
    table, over all elements at once.  Vectors sum with ``bincount`` in
    element order, as ``np.add.at`` does; :meth:`Mesh.csr` turns matrix
    data into a matrix.
    """

    def __init__(self, mesh, where, conn, points, weights, basis):
        # weak: a mesh that held layouts holding it would wait for the cycle collector
        self.mesh = weakref.proxy(mesh)
        self.where = where
        self.conn = conn
        self.points = points
        self.weights = weights
        self.basis = basis

    def values(self, coeffs):
        """Values of the P1 function with nodal ``coeffs`` at the quadrature points."""
        return coeffs[self.conn] @ self.basis.T

    def scatter(self, local):
        """Nodal vector summing the per-element entries ``local`` (n, nloc)."""
        return np.bincount(
            self.conn.ravel(), weights=np.ravel(local), minlength=self.mesh.n_nodes
        )

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

    def matrix_data(self, local):
        """CSR data of the sum of the element matrices ``local`` (n, nloc, nloc);
        data of all layouts of one mesh add entrywise."""
        _, indices, slots = self.mesh._csr_pattern
        return np.bincount(slots[self.where], weights=np.ravel(local), minlength=len(indices))

    def mass_data(self, field):
        """CSR data of the weighted mass matrix integral(field * hat_i * hat_j).

        The local matrices, flattened, are one product of the weighted field
        with the (nq, nloc * nloc) table of basis products.
        """
        b = self.basis
        bb = (b[:, :, None] * b[:, None, :]).reshape(len(b), -1)
        return self.matrix_data((self.weights * field) @ bb)


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
                a, b = nid(i, j), nid(i + 1, j)
                c, d = nid(i + 1, j + 1), nid(i, j + 1)
                elements.append((a, b, c))
                elements.append((a, c, d))
        raw_facets = []
        for i in range(n):
            raw_facets.append((nid(i, 0), nid(i + 1, 0)))  # bottom
            raw_facets.append((nid(i, n), nid(i + 1, n)))  # top
            raw_facets.append((nid(0, i), nid(0, i + 1)))  # left
            raw_facets.append((nid(n, i), nid(n, i + 1)))  # right

    facets = []
    for facet in raw_facets:
        mid = np.mean([nodes[i] for i in facet], axis=0)
        if gamma_predicate is None:
            tag = "gamma0"
        else:
            bindings = {"x": mid[0]}
            if dim == 2:
                bindings["y"] = mid[1]
            tag = "gamma" if float(eval_expression(gamma_predicate, bindings)) > 0 else "gamma0"
        facets.append((facet, tag))
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
