"""Variable-exponent data, modulars and Luxemburg norms.

The governing integrand is H(x,t) = t^p(x) + mu(x) t^q(x).  Two modulars
are provided:

* ``lebesgue_H``   : integral of |u|^p + mu |u|^q (values only)
* ``sobolev_H``    : the same integrand applied to both |grad u| and |u|

A Luxemburg norm is the scaling lambda with modular(u/lambda) = 1.  Each
modular is a positive sum of terms c_i lambda^(-r_i), so its logarithm is
convex and increasing in log(1/lambda), and Newton's method on that
logarithm reaches the root in a few steps from any start.

A modular's terms are laid out magnitudes by phases: the magnitudes |u| at
the quadrature points and, for ``sobolev_H``, |grad u| (constant on each
element), against the phases t^p and mu t^q, in the order (p, |u|),
(q, |u|), (p, |grad u|), (q, |grad u|).  A norm takes each logarithm once
(log|u| per quadrature point, log|grad u| per element) and runs its Newton
iteration on one flat array of all positive terms; the modular sums each
term's quadrature points, then the terms in that order.
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


class _Phases(NamedTuple):
    """The two phases of the modular integrand, weight * t**exponent, stacked on a
    leading axis of length 2 over the quadrature points, with the facts about
    their weights that every norm reads."""

    weight: np.ndarray
    exponent: np.ndarray
    finite: tuple  # per phase: every weight is finite
    negative: tuple  # per phase: the mask weight < 0, or None if no weight is negative
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
        quadrature points, stacked: weight w (the quadrature weight) with
        exponent p, then weight w * mu with exponent q.  Built on first use, so
        every norm on this data shares one copy, one weight check and one
        logarithm, and data that never take a norm build nothing."""
        w = self.mesh.quad_weights
        weight = np.stack((w, w * self.mu))
        positive = weight > 0
        log_weight = np.zeros(weight.shape)
        log_weight[positive] = np.log(weight[positive])
        negative = tuple(m if np.any(m) else None for m in weight < 0)
        finite = tuple(bool(np.all(np.isfinite(x))) for x in weight)
        return _Phases(weight, np.stack((self.p, self.q)), finite, negative, positive,
                       log_weight)


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


def _magnitudes(kind: ModularKind, ed: ExponentData, u: FeFunction):
    """|u| at the quadrature points and, for ``sobolev_H``, |grad u| repeated over
    each element's points, stacked as ``(M, *quad shape)``; with them |grad u|
    per element, or None for ``lebesgue_H``.

    modular(u/lam) = sum over magnitudes m, then phases k of
    :attr:`ExponentData._phases`, of sum(weight_k * (mags[m]/lam)**exponent_k).
    """
    if u.mesh is not ed.mesh:
        raise ValueError("function and exponent data live on different meshes")
    values = u.values_at_quad()
    if kind.kind == "lebesgue_H":
        return np.abs(values)[None], None
    g = u.gradient_magnitude()
    mags = np.empty((2,) + values.shape)
    np.abs(values, out=mags[0])
    mags[1] = g[:, None]
    return mags, g


def _modular_from_samples(ed: ExponentData, mags, scale=1.0):
    """Quadrature sum of the modular integrand over the magnitudes ``mags`` of
    :func:`_magnitudes`, scaled by ``scale``: one array over all terms, summed
    term by term in their order.  A power beyond the float range is inf, and a
    phase of weight 0 adds 0 even there, so the modular is inf, not nan."""
    ph = ed._phases
    with np.errstate(over="ignore"):
        powers = (mags * scale)[:, None] ** ph.exponent
    values = ph.weight * np.where(ph.weight == 0, 0.0, powers)
    return float(sum(values.reshape(-1, mags[0].size).sum(axis=1)))


def modular(kind: ModularKind, ed: ExponentData, u: FeFunction) -> float:
    """Quadrature approximation of the requested modular of ``u``, summed term by
    term in the order of :func:`_magnitudes`."""
    return _modular_from_samples(ed, _magnitudes(kind, ed, u)[0])


def _log_terms(ed: ExponentData, mags, g):
    """Log-weights and exponents of the positive terms, as two flat arrays in the
    order of the terms and, within a term, of the quadrature points.

    modular(u/lam) = sum_i exp(logc_i + r_i * tau) with tau = log(1/lam).  The
    weights' checks and logarithms come from their phase.  The terms are
    checked in order, so the first one with a non-finite magnitude or weight,
    or with a negative weight where its magnitude is positive, names the
    error.  log|u| is taken once per quadrature point, log|grad u| once per
    element, each only where positive.
    """
    ph = ed._phases
    positive = mags > 0
    for m, mag_finite in enumerate(np.isfinite(mags).all(axis=(1, 2))):
        for k in range(2):
            if not (ph.finite[k] and mag_finite):
                raise ValueError("modular is not finite; cannot compute the norm")
            if ph.negative[k] is not None and (ph.negative[k] & positive[m]).any():
                raise ValueError("the modular has a negative weight mu(x) < 0; no norm exists")
    log_mag = np.zeros(mags.shape)
    np.log(mags[0], out=log_mag[0], where=positive[0])
    if g is not None:
        log_mag[1] = np.log(g, out=np.zeros(g.shape), where=g > 0)[:, None]
    keep = ph.positive & positive[:, None]
    logc = (ph.log_weight + ph.exponent * log_mag[:, None])[keep]
    return logc, ph.exponent[None].repeat(len(mags), axis=0)[keep]


def _log_modular(logc, r, tau):
    """log modular(u/lam) at tau = log(1/lam), and its slope in tau."""
    e = logc + r * tau
    top = e.max()
    t = np.exp(e - top)
    total = t.sum()
    return top + np.log(total), float(r @ t) / total


def luxemburg_norm(kind: ModularKind, ed: ExponentData, u: FeFunction) -> float:
    """The scaling lambda with modular(u/lambda) = 1, to |modular - 1| <= 1e-10.

    The modular of u/lambda is a positive sum of terms c_i exp(r_i tau) in
    tau = log(1/lambda), so g(tau) = log modular is convex and increasing with
    slope between min r and max r.  Newton on g from lambda = 1 overshoots the
    root at most once and then decreases monotonically onto it, in a handful
    of steps.  All terms lie in one flat array (:func:`_log_terms`), so a
    Newton step is a few whole-array operations.  The result is checked
    against the modular evaluated directly.

    Returns 0 for the zero function, and only for it: both modulars weigh
    |u|^p with weight 1.
    """
    mags, g = _magnitudes(kind, ed, u)
    logc, r = _log_terms(ed, mags, g)
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
    rho = _modular_from_samples(ed, mags, scale=1.0 / lam)
    if not abs(rho - 1.0) <= _NORM_TOL:
        raise ValueError(f"the norm misses the modular tolerance: modular {rho!r} at the root")
    return lam
