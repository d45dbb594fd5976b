"""Variable-exponent data, modulars and Luxemburg norms.

The governing integrand is H(x,t) = t^p(x) + mu(x) t^q(x).  Four modulars
are provided:

* ``lebesgue_H``   : integral of |u|^p + mu |u|^q (values only)
* ``sobolev_H``    : the same integrand applied to both |grad u| and |u|
* ``variable_lp``  : integral of |u|^r(x) for a supplied exponent field
* ``weighted_lq``  : integral of mu |u|^q (a seminorm modular: it vanishes
  on nonzero functions wherever mu does, so no definiteness is claimed)

A Luxemburg norm is the scaling lambda with modular(u/lambda) = 1.  Each
modular is a positive sum of terms c_i lambda^(-r_i), so its logarithm is
convex and increasing in log(1/lambda), and Newton's method on that
logarithm reaches the root in a few steps from any start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import parse_expression
from .mesh import _SPATIAL_VARS, FeFunction, Mesh, _grad_magnitude

__all__ = [
    "ExponentData",
    "ModularKind",
    "ExponentReport",
    "validate_exponents",
    "modular",
    "luxemburg_norm",
]


class ExponentData:
    """Exponents p, q and weight mu sampled at interior quadrature points.

    Carries the scalar bounds p_minus/p_plus/q_minus/q_plus (extrema over the
    sampled points) and the critical exponent field

        p_star(x) = N p(x) / (N - p(x)),

    with the convention p_star = +inf where p(x) >= N, and everywhere in one
    dimension (finite-dimensional desk problems are solved regardless; the
    validator reports the dimension bound honestly for N = 2).
    """

    def __init__(self, mesh: Mesh, p, q, mu):
        shape = mesh.quad_weights.shape
        for name, field in (("p", p), ("q", q), ("mu", mu)):
            if np.asarray(field).shape != shape:
                raise ValueError(f"{name} field must have quadrature shape {shape}")
        self.mesh = mesh
        self.p = np.asarray(p, dtype=float)
        self.q = np.asarray(q, dtype=float)
        self.mu = np.asarray(mu, dtype=float)
        self.N = mesh.dim
        self.p_minus = float(np.min(self.p))
        self.p_plus = float(np.max(self.p))
        self.q_minus = float(np.min(self.q))
        self.q_plus = float(np.max(self.q))
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = self.N - self.p
            self.p_star = np.where(denom > 0, self.N * self.p / denom, np.inf)
        if self.N == 1:
            self.p_star = np.full_like(self.p, np.inf)

    @classmethod
    def from_expressions(cls, mesh: Mesh, p_expr, q_expr, mu_expr):
        """Sample expression strings or ASTs for p, q, mu on ``mesh``."""
        def field(e):
            if isinstance(e, str):
                e = parse_expression(e, _SPATIAL_VARS[:mesh.dim])
            return mesh.sample(e)

        return cls(mesh, field(p_expr), field(q_expr), field(mu_expr))


@dataclass(frozen=True)
class ModularKind:
    """Which modular to evaluate; ``variable_lp`` carries its exponent field."""

    kind: str  # 'lebesgue_H' | 'sobolev_H' | 'variable_lp' | 'weighted_lq'
    r: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("lebesgue_H", "sobolev_H", "variable_lp", "weighted_lq"):
            raise ValueError(f"unknown modular kind {self.kind!r}")
        if self.kind == "variable_lp":
            if self.r is None:
                raise ValueError("variable_lp requires an exponent field r")
            if np.any(np.asarray(self.r) <= 1):
                raise ValueError("variable_lp requires r(x) > 1 everywhere")

    @classmethod
    def lebesgue(cls):
        return cls("lebesgue_H")

    @classmethod
    def sobolev(cls):
        return cls("sobolev_H")

    @classmethod
    def variable_lp(cls, r):
        return cls("variable_lp", r=np.asarray(r, dtype=float))

    @classmethod
    def weighted_lq(cls):
        return cls("weighted_lq")


@dataclass
class ExponentReport:
    """Pointwise hypothesis violations; empty ``violations`` means all hold."""

    violations: list
    notes: list

    @property
    def ok(self):
        return not self.violations


def validate_exponents(ed: ExponentData) -> ExponentReport:
    """Check 1 < p(x) < N, p(x) < q(x) < p*(x) and mu(x) >= 0 pointwise.

    Every violated inequality is reported with its worst offending location.
    In one dimension the bound p(x) < N is not applicable (p* = +inf by
    convention) and is recorded as a note instead.
    """
    violations = []
    notes = []
    mesh = ed.mesh
    pts = mesh.quad_points.reshape(-1, mesh.dim)

    def flag(mask, description, margin):
        flat = mask.ravel()
        if np.any(flat):
            worst = int(np.argmax(np.where(flat, margin.ravel(), -np.inf)))
            where = pts[worst]
            violations.append(
                {
                    "condition": description,
                    "count": int(np.count_nonzero(flat)),
                    "worst_point": tuple(float(c) for c in where),
                    "worst_margin": float(margin.ravel()[worst]),
                }
            )

    flag(ed.p <= 1.0, "p(x) > 1", 1.0 - ed.p)
    if ed.N >= 2:
        flag(ed.p >= ed.N, "p(x) < N", ed.p - ed.N)
    else:
        notes.append("N = 1: dimension bound p(x) < N not applicable, p* = +inf")
    flag(ed.q <= ed.p, "p(x) < q(x)", ed.p - ed.q)
    finite = np.isfinite(ed.p_star)
    flag(finite & (ed.q >= ed.p_star), "q(x) < p*(x)", np.where(finite, ed.q - ed.p_star, -np.inf))
    flag(ed.mu < 0.0, "mu(x) >= 0", -ed.mu)
    return ExponentReport(violations=violations, notes=notes)


# Newton steps per norm; 2-7 are typical, so the cap only stops a broken modular
_NORM_MAX_NEWTON = 50


def _check_function(ed, u):
    if u.mesh is not ed.mesh:
        raise ValueError("function and exponent data live on different meshes")


def _integrand_terms(kind: ModularKind, ed: ExponentData, u: FeFunction):
    """(weight, magnitude, exponent) triples sampled at the quadrature points.

    modular(u/lam) = sum over the triples of sum(weight * (magnitude/lam)**exponent).
    """
    _check_function(ed, u)
    w = ed.mesh.quad_weights
    a = np.abs(u.values_at_quad())
    if kind.kind == "variable_lp":
        return [(w, a, kind.r)]
    if kind.kind == "weighted_lq":
        return [(w * ed.mu, a, ed.q)]
    terms = [(w, a, ed.p), (w * ed.mu, a, ed.q)]
    if kind.kind == "sobolev_H":
        g = np.broadcast_to(_grad_magnitude(u.gradient_at_elements())[:, None], w.shape)
        terms += [(w, g, ed.p), (w * ed.mu, g, ed.q)]
    return terms


def _modular_from_samples(terms, scale=1.0):
    """Quadrature sum of the modular integrand, with the function scaled by ``scale``."""
    return float(sum(np.sum(c * (a * scale) ** r) for c, a, r in terms))


def modular(kind: ModularKind, ed: ExponentData, u: FeFunction) -> float:
    """Quadrature approximation of the requested modular of ``u``."""
    return _modular_from_samples(_integrand_terms(kind, ed, u))


def _log_terms(terms):
    """Log-weights and exponents of the positive terms.

    modular(u/lam) = sum_i exp(logc_i + r_i * tau) with tau = log(1/lam).
    """
    logc, r = [], []
    for coef, mag, expo in terms:
        if not (np.all(np.isfinite(coef)) and np.all(np.isfinite(mag))):
            raise ValueError("modular is not finite; cannot compute the norm")
        if np.any((coef < 0) & (mag > 0)):
            raise ValueError("the modular has a negative weight mu(x) < 0; no norm exists")
        keep = (coef > 0) & (mag > 0)
        logc.append(np.log(coef[keep]) + expo[keep] * np.log(mag[keep]))
        r.append(expo[keep])
    return np.concatenate(logc), np.concatenate(r)


def _log_modular(logc, r, tau):
    """log modular(u/lam) at tau = log(1/lam), and its slope in tau."""
    e = logc + r * tau
    top = np.max(e)
    t = np.exp(e - top)
    total = np.sum(t)
    return top + np.log(total), float(r @ t) / total


def luxemburg_norm(kind: ModularKind, ed: ExponentData, u: FeFunction, tol=1e-10) -> float:
    """The scaling lambda with modular(u/lambda) = 1, to |modular - 1| <= tol.

    The modular of u/lambda is a positive sum of terms c_i exp(r_i tau) in
    tau = log(1/lambda), so g(tau) = log modular is convex and increasing with
    slope between min r and max r.  Newton on g from lambda = 1 overshoots the
    root at most once and then decreases monotonically onto it, in a handful
    of steps.  The result is checked against the modular evaluated directly.

    Returns 0 for the zero function, and 0 when the modular vanishes
    identically under scaling (the weighted seminorm case with mu = 0 on the
    support of u).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    terms = _integrand_terms(kind, ed, u)
    logc, r = _log_terms(terms)
    if logc.size == 0:
        # the zero function, or a degenerate direction of a seminorm
        return 0.0
    tau = 0.0
    for _ in range(_NORM_MAX_NEWTON):
        value, slope = _log_modular(logc, r, tau)
        step = value / slope
        tau -= step
        if abs(step) <= 1e-12 * (1.0 + abs(tau)):
            break
    else:
        raise ValueError("Newton iteration for the norm did not converge")
    lam = float(np.exp(-tau))
    rho = _modular_from_samples(terms, scale=1.0 / lam)
    if not abs(rho - 1.0) <= tol:
        raise ValueError(f"the norm misses the modular tolerance: modular {rho!r} at the root")
    return lam
