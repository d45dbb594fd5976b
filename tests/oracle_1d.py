"""Discrete-exact oracle for 1D whole-space double-phase problems.

For A u + f = 0 on ``build_mesh(1, n)``, Gamma0 at both ends and f constant,
the P1 equations integrate once.  Let s_k be the slope of u on element k and
g_k the mean over the element's 3-point Gauss rule of the flux
a(x, s_k) = |s_k|^(p-2) s_k + mu |s_k|^(q-2) s_k.  Node i's equation reads
g_(i-1) - g_i + f h = 0, so g_k = g_0 + f h k; each s_k solves one scalar
monotone equation, and g_0 is fixed by sum_k h s_k = u(1) - u(0) = 0.  None of
this uses dpvi's operator, quadrature or source assembly.
"""

import numpy as np
from scipy.optimize import brentq

_XI, _OMEGA = np.polynomial.legendre.leggauss(3)
_WEIGHTS = 0.5 * _OMEGA  # the rule on [0, 1]


class _Elements:
    """The exponents sampled at each element's Gauss points, and the inverse
    of each element's mean flux."""

    def __init__(self, n, p, q, mu):
        x = (np.arange(n)[:, None] + 0.5 * (1.0 + _XI)) / n
        self.p, self.q, self.mu = (np.broadcast_to(np.asarray(c(x), float), x.shape)
                                   for c in (p, q, mu))
        if np.any(self.mu < 0) or np.any(self.p <= 1) or np.any(self.q <= 1):
            raise ValueError("the oracle needs mu >= 0 and p, q > 1")

    def _flux(self, t):
        """Mean flux and its slope at slopes t >= 0, one per element."""
        t = t[:, None]
        flux = t ** (self.p - 1) + self.mu * t ** (self.q - 1)
        slope = (self.p - 1) * t ** (self.p - 2) + self.mu * (self.q - 1) * t ** (self.q - 2)
        return flux @ _WEIGHTS, slope @ _WEIGHTS

    def slopes(self, g):
        """The slope of each element whose mean flux is g: Newton steps kept
        inside a bisection bracket, which they shrink, to the last bit."""
        target = np.abs(g)
        # the flux is at least t^(min p - 1) for t >= 1, so hi brackets the root
        lo = np.zeros_like(target)
        hi = np.maximum(1.0, target) ** (1.0 / (self.p.min(axis=1) - 1.0))
        t = 0.5 * hi
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(100):
                flux, slope = self._flux(t)
                lo = np.where(flux <= target, t, lo)
                hi = np.where(flux >= target, t, hi)
                newton = t - (flux - target) / slope
                nxt = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
                if np.array_equal(nxt, t):
                    break
                t = nxt
        return np.copysign(t, g)


def discrete_solution(n, p, q, mu, f, flux_error=0.0):
    """Nodal values of the P1 solution of A u + f = 0 on ``build_mesh(1, n)``.

    ``p``, ``q`` and ``mu`` map an array of x to their values there; ``f`` is
    a nonzero constant.  Returns ``(u, bound)``: ``bound`` is the largest
    nodal distance from u of any P1 function, zero at both ends, whose
    element fluxes each lie within ``flux_error`` of u's (0 when
    ``flux_error`` is 0).
    """
    h, cells = 1.0 / n, _Elements(n, p, q, mu)
    k = np.arange(n)
    # some slope is >= 0 and some <= 0, so g_0 lies between 0 and -f h (n - 1)
    a, b = sorted((0.0, -f * h * (n - 1)))
    g0 = brentq(lambda g0: np.sum(cells.slopes(g0 + f * h * k)), a, b,
                xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=200)
    g = g0 + f * h * k
    s = cells.slopes(g)
    u = np.concatenate(([0.0], np.cumsum(h * s)))
    bound = 0.0
    if flux_error > 0:
        spread = np.maximum(cells.slopes(g + flux_error) - s, s - cells.slopes(g - flux_error))
        bound = float(h * np.sum(spread))
    return u, bound
