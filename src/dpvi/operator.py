"""Discrete double-phase operator, its energy potential and Jacobian.

The operator pairs a function u with test functions through the flux

    (|grad u|^(p(x)-2) + mu(x) |grad u|^(q(x)-2)) grad u,

which reduces to the p(x)-Laplacian flux for mu = 0.  At points where the
gradient vanishes and an exponent is below 2 the flux extends continuously
by zero, so residual assembly never smooths.  Only the Newton linearization
uses a regularized gradient magnitude sqrt(|g|^2 + eps^2) inside the power
weights, standard practice for p-Laplacian-type problems.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import FeFunction, Mesh
from .spaces import ExponentData

__all__ = ["DoublePhaseOperator"]


def _flux_coefficient(w, p, q, mu):
    """h(w) = w^(p-2) + mu w^(q-2) with the continuous extension h(0)*0 = 0.

    Returned as the coefficient multiplying grad u; zero where w = 0.
    """
    out = np.zeros_like(w)
    pos = w > 0.0
    if np.any(pos):
        wp = w[pos]
        out[pos] = wp ** (p[pos] - 2.0) + mu[pos] * wp ** (q[pos] - 2.0)
    return out


class DoublePhaseOperator:
    """Assembled weak form of the double-phase operator on one mesh.

    Parameters
    ----------
    mesh : Mesh
    exponents : ExponentData
        p, q, mu sampled on ``mesh``.
    eps : float
        Gradient-magnitude smoothing used by :meth:`jacobian` only;
        must be nonnegative.
    """

    def __init__(self, mesh: Mesh, exponents: ExponentData, eps=1e-8):
        if exponents.mesh is not mesh:
            raise ValueError("exponent data sampled on a different mesh")
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        self.mesh = mesh
        self.exponents = exponents
        self.eps = float(eps)

    # -- residual ----------------------------------------------------------

    def apply(self, u: FeFunction) -> np.ndarray:
        """Dual vector of the operator at ``u``: entries against every nodal hat.

        Entries at essential-boundary nodes are assembled like any other and
        are ignored by solvers, which restrict to free nodes.
        """
        self._check(u)
        mesh, ed = self.mesh, self.exponents
        grad = u.gradient_at_elements()  # (ne, dim)
        w = np.linalg.norm(grad, axis=1)  # (ne,)
        wq = np.broadcast_to(w[:, None], mesh.quad_weights.shape)
        coeff = _flux_coefficient(wq, ed.p, ed.q, ed.mu)  # (ne, nq)
        cw = np.sum(mesh.quad_weights * coeff, axis=1)  # (ne,)
        # flux . grad(hat_i) summed over quadrature, gradient constant per element
        contrib = cw[:, None] * np.einsum("ed,eid->ei", grad, mesh.grad_basis)
        return mesh.layout("interior").scatter(contrib)

    def energy(self, u: FeFunction) -> float:
        """The convex potential: integral of |grad u|^p / p + mu |grad u|^q / q."""
        self._check(u)
        mesh, ed = self.mesh, self.exponents
        w = np.linalg.norm(u.gradient_at_elements(), axis=1)
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
        Its pattern is the mesh's shared one: layout CSR data adds to ``.data``.
        """
        self._check(u)
        if eps is None:
            eps = self.eps
        mesh, ed = self.mesh, self.exponents
        grad = u.gradient_at_elements()  # (ne, dim)
        w2 = np.sum(grad**2, axis=1)
        # tiny floor keeps the power weights finite when eps = 0 at grad u = 0
        ge = np.maximum(np.sqrt(w2 + eps**2), 1e-12)  # (ne,)
        geq = np.broadcast_to(ge[:, None], mesh.quad_weights.shape)
        h = geq ** (ed.p - 2.0) + ed.mu * geq ** (ed.q - 2.0)
        hp = (ed.p - 2.0) * geq ** (ed.p - 3.0) + ed.mu * (ed.q - 2.0) * geq ** (ed.q - 3.0)
        # quadrature-summed isotropic and rank-one weights per element
        a_iso = np.sum(mesh.quad_weights * h, axis=1)  # (ne,)
        a_rank1 = np.sum(mesh.quad_weights * hp, axis=1) / ge  # (ne,)

        gb = mesh.grad_basis  # (ne, nloc, dim)
        gg = np.einsum("eid,ejd->eij", gb, gb)  # grad(hat_i).grad(hat_j)
        gu = np.einsum("ed,eid->ei", grad, gb)  # grad(u).grad(hat_i)
        elem = a_iso[:, None, None] * gg + a_rank1[:, None, None] * (
            gu[:, :, None] * gu[:, None, :]
        )

        return mesh.csr(mesh.layout("interior").matrix_data(elem))

    def _check(self, u: FeFunction):
        if u.mesh is not self.mesh:
            raise ValueError("function lives on a different mesh")
