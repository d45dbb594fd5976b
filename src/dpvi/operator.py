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
stays homogeneous far from unit scale.  Each power law then costs one
``log`` per element and one ``exp`` per exponent and quadrature point, and
the products with the basis gradients are broadcast over the dimension.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import FeFunction, Mesh
from .spaces import ExponentData

__all__ = ["DoublePhaseOperator"]


def _grad_magnitude(grad):
    """|grad u| per element from its (n_elements, dim) gradient, without squaring,
    which would underflow or overflow far from unit scale."""
    return np.abs(grad[:, 0]) if grad.shape[1] == 1 else np.hypot(grad[:, 0], grad[:, 1])


def _dot(a, b):
    """Dot product over the last (dimension) axis, with the others broadcast."""
    out = a[..., 0] * b[..., 0]
    for d in range(1, a.shape[-1]):
        out += a[..., d] * b[..., d]
    return out


def _flux_coefficient(w, p, q, mu):
    """h(w) = w^(p-2) + mu w^(q-2) at the quadrature points, for one magnitude w
    per element, with the continuous extension h(0)*0 = 0.

    Returned as the coefficient multiplying grad u; zero where w = 0.
    """
    pos = w > 0.0
    lw = np.log(w, out=np.zeros_like(w), where=pos)[:, None]
    h = np.exp((p - 2.0) * lw) + mu * np.exp((q - 2.0) * lw)
    h[~pos] = 0.0
    return h


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
        coeff = _flux_coefficient(_grad_magnitude(grad), ed.p, ed.q, ed.mu)  # (ne, nq)
        cw = np.sum(mesh.quad_weights * coeff, axis=1)  # (ne,)
        # flux . grad(hat_i) summed over quadrature, gradient constant per element
        contrib = cw[:, None] * _dot(grad[:, None], mesh.grad_basis)
        return mesh.layout("interior").scatter(contrib)

    def energy(self, u: FeFunction) -> float:
        """The convex potential: integral of |grad u|^p / p + mu |grad u|^q / q."""
        self._check(u)
        mesh, ed = self.mesh, self.exponents
        w = _grad_magnitude(u.gradient_at_elements())
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
        # tiny floor keeps the power weights finite when eps = 0 at grad u = 0
        ge = np.maximum(np.hypot(_grad_magnitude(grad), eps), 1e-12)  # (ne,)
        lg = np.log(ge)[:, None]
        pm2, qm2 = ed.p - 2.0, ed.q - 2.0
        gp = np.exp(pm2 * lg)  # ge^(p-2)
        gq = ed.mu * np.exp(qm2 * lg)  # mu ge^(q-2)
        # quadrature-summed isotropic weight h and rank-one weight h'(ge)/ge per element,
        # with ge h'(ge) = (p-2) ge^(p-2) + mu (q-2) ge^(q-2)
        a_iso = np.sum(mesh.quad_weights * (gp + gq), axis=1)  # (ne,)
        a_rank1 = np.sum(mesh.quad_weights * (pm2 * gp + qm2 * gq), axis=1) / ge / ge

        gb = mesh.grad_basis  # (ne, nloc, dim)
        gu = _dot(grad[:, None], gb)  # grad(u).grad(hat_i)
        elem = a_iso[:, None, None] * _dot(gb[:, :, None], gb[:, None])  # grad(hat_i).grad(hat_j)
        elem += (a_rank1[:, None] * gu)[:, :, None] * gu[:, None, :]

        return mesh.csr(mesh.layout("interior").matrix_data(elem))

    def _check(self, u: FeFunction):
        if u.mesh is not self.mesh:
            raise ValueError("function lives on a different mesh")
