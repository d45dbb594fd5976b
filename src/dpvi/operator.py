"""Discrete double-phase operator, its energy potential and Jacobian.

The operator pairs a function u with test functions through the flux

    (|grad u|^(p(x)-2) + mu(x) |grad u|^(q(x)-2)) grad u,

which reduces to the p(x)-Laplacian flux for mu = 0.  At points where the
gradient vanishes and an exponent is below 2 the flux extends continuously
by zero, so residual assembly never smooths.  Only the Newton linearization
uses a regularized gradient magnitude sqrt(|g|^2 + eps^2) inside the power
weights, standard practice for p-Laplacian-type problems.

The gradient of a P1 function is constant per element, and |grad u| is
taken without squaring it (``abs`` in 1D, ``hypot`` in 2D), so the operator
stays homogeneous far from unit scale.  The magnitudes and the products
grad(u).grad(hat_i) come from the :class:`FeFunction`, which computes them
once, so the residual and the Jacobian at one iterate share them.  Each power law then costs one
``log`` per element and one ``exp`` per exponent and element: an exponent
constant over each element's quadrature points (a constant exponent, and
every shipped configuration) is held as one column, with its quadrature
weights (times mu for q) summed per element, and only an exponent that
varies inside elements keeps one power per quadrature point.  The products
with the basis gradients are broadcast over the dimension.

The P1 element matrices of the Jacobian are symmetric with zero row sums,
so each is fixed by its values on the element's edges (one in 1D, three in
2D): the Jacobian is assembled from those alone, through the mesh's one
assembly plan (:meth:`Layout.matrix_data` of the cells), and no (elements,
nodes, nodes) array is formed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import FeFunction, Mesh
from .spaces import ExponentData

__all__ = ["DoublePhaseOperator"]


def _per_element(field):
    """``field`` (n_elements, n_qp) as an (n_elements, 1) column when it is constant
    over each element's quadrature points, else unchanged."""
    return field[:, :1].copy() if np.all(field == field[:, :1]) else field


class DoublePhaseOperator:
    """Assembled weak form of the double-phase operator on one mesh.

    Parameters
    ----------
    mesh : Mesh
    exponents : ExponentData
        p, q, mu sampled on ``mesh``.
    """

    eps = 1e-8  # gradient-magnitude smoothing of :meth:`jacobian` unless given one

    def __init__(self, mesh: Mesh, exponents: ExponentData):
        if exponents.mesh is not mesh:
            raise ValueError("exponent data sampled on a different mesh")
        self.mesh = mesh
        self.exponents = exponents
        # p - 2 and q - 2 as one column where constant per element, with the quadrature
        # weights (times mu for q) summed to match, so sum(w * g^(p-2), axis=1) is the
        # quadrature sum for either shape
        w = mesh.quad_weights
        self._pm2 = _per_element(exponents.p) - 2.0
        self._qm2 = _per_element(exponents.q) - 2.0
        wmu = w * exponents.mu
        self._wp = w.sum(axis=1, keepdims=True) if self._pm2.shape[1] == 1 else w
        self._wq = wmu.sum(axis=1, keepdims=True) if self._qm2.shape[1] == 1 else wmu

    def _weighted_powers(self, lg):
        """Quadrature-weighted g^(p-2) and mu g^(q-2) from lg = log g, (n_elements, 1)."""
        return self._wp * np.exp(self._pm2 * lg), self._wq * np.exp(self._qm2 * lg)

    # -- residual ----------------------------------------------------------

    def apply(self, u: FeFunction) -> np.ndarray:
        """Dual vector of the operator at ``u``: entries against every nodal hat.

        Entries at essential-boundary nodes are assembled like any other and
        are ignored by solvers, which restrict to free nodes.
        """
        self._check(u)
        w = u.gradient_magnitude()
        # log w = 0 where w = 0 keeps the coefficient finite, and grad u = 0 there
        # makes the flux exactly zero: the continuous extension
        lw = np.log(w, out=np.zeros_like(w), where=w > 0.0)[:, None]
        gp, gq = self._weighted_powers(lw)
        cw = np.sum(gp, axis=1) + np.sum(gq, axis=1)  # quadrature sum of h(w), (ne,)
        # flux . grad(hat_i) summed over quadrature, gradient constant per element
        contrib = cw[:, None] * u.gradient_dot_basis()
        return self.mesh.layout("interior").scatter(contrib)

    def energy(self, u: FeFunction) -> float:
        """The convex potential: integral of |grad u|^p / p + mu |grad u|^q / q."""
        self._check(u)
        mesh, ed = self.mesh, self.exponents
        w = u.gradient_magnitude()
        wq = np.broadcast_to(w[:, None], mesh.quad_weights.shape)
        dens = wq**ed.p / ed.p + ed.mu * wq**ed.q / ed.q
        return float(np.sum(mesh.quad_weights * dens))

    def monotonicity_gap(self, u: FeFunction, v: FeFunction) -> float:
        """<Au - Av, u - v>, nonnegative by strict monotonicity of the flux."""
        self._check(u)
        self._check(v)
        d = u.coeffs - v.coeffs
        return float((self.apply(u) - self.apply(v)) @ d)

    # -- linearization -------------------------------------------------------

    def jacobian(self, u: FeFunction, eps=None) -> sp.csr_matrix:
        """Symmetric Newton matrix of :meth:`apply` at ``u``.

        Uses the smoothed magnitude g_eps = sqrt(|grad u|^2 + eps^2)
        in the power weights; positive definite on free nodes for eps > 0.
        Each element matrix a_iso (grad hat_i . grad hat_j) + a_rank1 (grad u .
        grad hat_i)(grad u . grad hat_j) has zero row sums, since the basis
        gradients of an element sum to zero, so it is assembled from its values
        on the element edges alone (:meth:`Layout.matrix_data` of the cells,
        without diagonal values): exactly symmetric, with each diagonal entry
        minus its row's off-diagonal sum.  Its pattern is the mesh's shared
        one: the masses' layout CSR data add to ``.data``.
        """
        self._check(u)
        if eps is None:
            eps = self.eps
        mesh = self.mesh
        # tiny floor keeps the power weights finite when eps = 0 at grad u = 0
        ge = np.maximum(np.hypot(u.gradient_magnitude(), eps), 1e-12)  # (ne,)
        gp, gq = self._weighted_powers(np.log(ge)[:, None])
        # quadrature-summed isotropic weight h and rank-one weight h'(ge)/ge per element,
        # with ge h'(ge) = (p-2) ge^(p-2) + mu (q-2) ge^(q-2)
        a_iso = np.sum(gp, axis=1) + np.sum(gq, axis=1)  # (ne,)
        a_rank1 = (np.sum(self._pm2 * gp, axis=1) + np.sum(self._qm2 * gq, axis=1)) / ge / ge

        i, j = mesh.local_edges
        gu = u.gradient_dot_basis()  # grad(u).grad(hat_i), (ne, nloc)
        edge = a_iso[:, None] * mesh.edge_gram + (a_rank1[:, None] * gu[:, i]) * gu[:, j]
        return mesh.csr(mesh.layout("interior").matrix_data(edge))

    def _check(self, u: FeFunction):
        if u.mesh is not self.mesh:
            raise ValueError("function lives on a different mesh")
