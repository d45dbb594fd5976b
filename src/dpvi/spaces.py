"""Variable-exponent data, modulars and Luxemburg norms.

The governing integrand is H(x,t) = t^p(x) + mu(x) t^q(x).  Two modulars
are provided:

* ``lebesgue_H``   : integral of |u|^p + mu |u|^q (values only)
* ``sobolev_H``    : the same integrand applied to both |grad u| and |u|

A Luxemburg norm is the scaling lambda with modular(u/lambda) = 1.  Each
modular is a positive sum of terms c_i lambda^(-r_i), so its logarithm is
convex and increasing in log(1/lambda), and Newton's method on that
logarithm reaches the root in a few steps from any start.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .expr import parse_expression
from .mesh import _SPATIAL_VARS, FeFunction, Mesh

__all__ = [
    "ExponentData",
    "ModularKind",
    "ExponentReport",
    "validate_exponents",
    "modular",
    "luxemburg_norm",
]


class _Phase(NamedTuple):
    """One phase of the modular integrand, weight * t**exponent, at the quadrature
    points, with the facts about its weight that every norm reads."""

    weight: np.ndarray
    exponent: np.ndarray
    finite: bool  # every weight is finite
    negative: np.ndarray  # weight < 0
    positive: np.ndarray  # weight > 0
    log_weight: np.ndarray  # log(weight) where it is positive, 0 elsewhere


class ExponentData:
    """Exponents p, q and weight mu sampled at interior quadrature points.

    Carries the scalar bounds p_minus/p_plus/q_minus/q_plus (extrema over the
    sampled points); :func:`validate_exponents` derives the critical exponent
    p* from p.  ``expressions`` holds the ASTs of p, q and mu when the data
    were sampled from them (:meth:`from_expressions`), so the same exponents
    can be sampled on another mesh, and None for data given as arrays.  The
    fields are never changed after construction.
    """

    expressions = None  # (p, q, mu) ASTs, set by from_expressions

    def __init__(self, mesh: Mesh, p, q, mu):
        shape = mesh.quad_weights.shape
        for name, field in (("p", p), ("q", q), ("mu", mu)):
            if np.asarray(field).shape != shape:
                raise ValueError(f"{name} field must have quadrature shape {shape}")
        self.mesh = mesh
        self.p = np.asarray(p, dtype=float)
        self.q = np.asarray(q, dtype=float)
        self.mu = np.asarray(mu, dtype=float)
        self.p_minus = float(np.min(self.p))
        self.p_plus = float(np.max(self.p))
        self.q_minus = float(np.min(self.q))
        self.q_plus = float(np.max(self.q))

    @classmethod
    def from_expressions(cls, mesh: Mesh, p_expr, q_expr, mu_expr):
        """Sample expression strings or ASTs for p, q, mu on ``mesh``, keeping
        their ASTs as :attr:`expressions`."""
        spatial = _SPATIAL_VARS[:mesh.dim]
        asts = tuple(parse_expression(e, spatial) if isinstance(e, str) else e
                     for e in (p_expr, q_expr, mu_expr))
        ed = cls(mesh, *(mesh.sample(e) for e in asts))
        ed.expressions = asts
        return ed

    @cached_property
    def _phases(self):
        """The two phases of the modular integrand H(x, t) = t^p + mu t^q at the
        quadrature points: weight w (the quadrature weight) with exponent p,
        then weight w * mu with exponent q.  Built on first use, so every norm
        on this data shares one weight check and one logarithm."""
        w = self.mesh.quad_weights
        out = []
        for weight, exponent in ((w, self.p), (w * self.mu, self.q)):
            positive = weight > 0
            log_weight = np.zeros(weight.shape)
            log_weight[positive] = np.log(weight[positive])
            out.append(_Phase(weight, exponent, bool(np.all(np.isfinite(weight))), weight < 0,
                              positive, log_weight))
        return tuple(out)


@dataclass(frozen=True)
class ModularKind:
    """Which modular to evaluate."""

    kind: str  # 'lebesgue_H' | 'sobolev_H'

    def __post_init__(self):
        if self.kind not in ("lebesgue_H", "sobolev_H"):
            raise ValueError(f"unknown modular kind {self.kind!r}")

    @classmethod
    def lebesgue(cls):
        return cls("lebesgue_H")

    @classmethod
    def sobolev(cls):
        return cls("sobolev_H")


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

    N is the mesh dimension and p* = N p / (N - p) the critical exponent, +inf
    where p(x) >= N and everywhere in one dimension, where the bound p(x) < N
    is recorded as a note instead.  Every violated inequality is reported with
    its worst offending location.
    """
    violations = []
    notes = []
    mesh = ed.mesh
    N = mesh.dim
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
    if N >= 2:
        flag(ed.p >= N, "p(x) < N", ed.p - N)
    else:
        notes.append("N = 1: dimension bound p(x) < N not applicable, p* = +inf")
    flag(ed.q <= ed.p, "p(x) < q(x)", ed.p - ed.q)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_star = np.where((N >= 2) & (N - ed.p > 0), N * ed.p / (N - ed.p), np.inf)
    finite = np.isfinite(p_star)
    flag(finite & (ed.q >= p_star), "q(x) < p*(x)", np.where(finite, ed.q - p_star, -np.inf))
    flag(ed.mu < 0.0, "mu(x) >= 0", -ed.mu)
    return ExponentReport(violations=violations, notes=notes)


# Newton steps per norm; 2-7 are typical, so the cap only stops a broken modular
_NORM_MAX_NEWTON = 50
# largest |modular(u/lambda) - 1| a returned norm lambda may leave
_NORM_TOL = 1e-10


def _integrand_terms(kind: ModularKind, ed: ExponentData, u: FeFunction):
    """(phase, magnitude) pairs sampled at the quadrature points, the phases those
    of :attr:`ExponentData._phases`.

    modular(u/lam) = sum over the pairs of sum(weight * (magnitude/lam)**exponent).
    """
    if u.mesh is not ed.mesh:
        raise ValueError("function and exponent data live on different meshes")
    a = np.abs(u.values_at_quad())
    terms = [(phase, a) for phase in ed._phases]
    if kind.kind == "sobolev_H":
        g = u.gradient_magnitude()[:, None]
        g = np.broadcast_to(g, ed.mesh.quad_weights.shape)
        terms += [(phase, g) for phase in ed._phases]
    return terms


def _modular_from_samples(terms, scale=1.0):
    """Quadrature sum of the modular integrand, with the function scaled by ``scale``."""
    return float(sum(np.sum(ph.weight * (a * scale) ** ph.exponent) for ph, a in terms))


def modular(kind: ModularKind, ed: ExponentData, u: FeFunction) -> float:
    """Quadrature approximation of the requested modular of ``u``."""
    return _modular_from_samples(_integrand_terms(kind, ed, u))


def _log_terms(terms):
    """Log-weights and exponents of the positive terms.

    modular(u/lam) = sum_i exp(logc_i + r_i * tau) with tau = log(1/lam).  The
    weights' checks and logarithms come from their phase; the magnitudes are
    checked here, in the order of the terms.
    """
    logc, r = [], []
    for phase, mag in terms:
        if not (phase.finite and np.all(np.isfinite(mag))):
            raise ValueError("modular is not finite; cannot compute the norm")
        if np.any(phase.negative & (mag > 0)):
            raise ValueError("the modular has a negative weight mu(x) < 0; no norm exists")
        keep = phase.positive & (mag > 0)
        logc.append(phase.log_weight[keep] + phase.exponent[keep] * np.log(mag[keep]))
        r.append(phase.exponent[keep])
    return np.concatenate(logc), np.concatenate(r)


def _log_modular(logc, r, tau):
    """log modular(u/lam) at tau = log(1/lam), and its slope in tau."""
    e = logc + r * tau
    top = np.max(e)
    t = np.exp(e - top)
    total = np.sum(t)
    return top + np.log(total), float(r @ t) / total


def luxemburg_norm(kind: ModularKind, ed: ExponentData, u: FeFunction) -> float:
    """The scaling lambda with modular(u/lambda) = 1, to |modular - 1| <= 1e-10.

    The modular of u/lambda is a positive sum of terms c_i exp(r_i tau) in
    tau = log(1/lambda), so g(tau) = log modular is convex and increasing with
    slope between min r and max r.  Newton on g from lambda = 1 overshoots the
    root at most once and then decreases monotonically onto it, in a handful
    of steps.  The result is checked against the modular evaluated directly.

    Returns 0 for the zero function, and only for it: both modulars weigh
    |u|^p with weight 1.
    """
    terms = _integrand_terms(kind, ed, u)
    logc, r = _log_terms(terms)
    if logc.size == 0:  # the zero function
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
    if not abs(rho - 1.0) <= _NORM_TOL:
        raise ValueError(f"the norm misses the modular tolerance: modular {rho!r} at the root")
    return lam
