"""Interval multifunctions, truncations, penalty and compensator terms.

A multi-valued reaction f(x,s) with closed convex values in R is exactly an
interval [f1(x,s), f2(x,s)]; endpoints are user expressions.  A two-argument
variant [j1(x,r,s), j2(x,r,s)] supports the discontinuous fixed-point
scheme, where the extra variable is frozen to a finite-element function
between outer iterations.  Both parse and evaluate their endpoints alike.

Given an ordered pair of bound functions (lower, upper), this module builds

* the truncated multifunction: the original interval between the bounds,
  below them its lower endpoint at the lower bound, above them its upper
  endpoint at the upper bound, both selected once by the truncation; a
  state-free reaction whose two selections are one field is its own
  truncation;
* the penalty that pushes iterates back into the interval, with growth
  q(x) - 1 outside;
* the piecewise-linear cutoff (1 below 0, descending to 0 at 1) and the
  compensator terms used when several lower or upper bound functions are
  combined.

Every multifunction says whether its selections read the state
(``reads_s``); the Newton loop freezes those that do not, once per solve.
All evaluations are pointwise over quadrature fields and safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import eval_expression, parse_expression, variables_of
from .mesh import _SPATIAL_VARS, FeFunction, Mesh, _freeze, _spatial_bindings

__all__ = [
    "IntervalMultifunction",
    "TwoArgIntervalMultifunction",
    "FrozenIntervalMultifunction",
    "TruncationData",
    "TruncatedMultifunction",
    "cutoff",
    "penalty",
    "penalty_slope",
    "compensator",
    "truncate_multifunction",
    "assemble_source",
    "pick_endpoint",
    "SELECTION_RULES",
]

SELECTION_RULES = ("lower", "upper", "midpoint")


def pick_endpoint(rule, lo, hi):
    if rule == "lower":
        return lo
    if rule == "upper":
        return hi
    if rule == "midpoint":
        return 0.5 * (lo + hi)
    raise ValueError(f"selection rule must be one of {SELECTION_RULES}, got {rule!r}")


def _select(mf, u: FeFunction, rule="lower"):
    """Pointwise selection eta(x) in f(x, u(x)) at the quadrature points of ``mf.layout``."""
    layout = mf.layout
    lo, hi = mf.eval_interval(layout.points, layout.values(u.coeffs))
    return pick_endpoint(rule, lo, hi)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _parse_endpoints(mesh: Mesh, names, endpoints, state_vars):
    """Endpoint ASTs (strings are parsed) that read only space and ``state_vars``."""
    allowed = _SPATIAL_VARS[:mesh.dim] + state_vars
    asts = [parse_expression(e, allowed) if isinstance(e, str) else e for e in endpoints]
    for name, ast in zip(names, asts):
        extra = variables_of(ast) - set(allowed)
        if extra:
            raise ValueError(f"{name} uses unknown variables {sorted(extra)}")
    return asts


def _eval_endpoints(mf, names, points, shape, state):
    """``(lo, hi)`` of ``mf`` at ``points`` and the ``state`` bindings, broadcast
    to ``shape``; endpoints out of order raise, naming the worst point."""
    bindings = {**_spatial_bindings(points, mf.mesh.dim), **state}
    lo = np.broadcast_to(np.asarray(eval_expression(mf.lower, bindings), float), shape)
    hi = np.broadcast_to(np.asarray(eval_expression(mf.upper, bindings), float), shape)
    if np.any(lo > hi):
        pts = np.broadcast_to(np.asarray(points, float), shape + (mf.mesh.dim,))
        idx = np.unravel_index(np.argmax(lo - hi), shape)
        raise ValueError(
            f"interval endpoints out of order ({names[0]} > {names[1]}) at point "
            f"{tuple(float(c) for c in pts[idx])}: "
            f"[{float(lo[idx])}, {float(hi[idx])}]"
        )
    return lo.copy(), hi.copy()


class IntervalMultifunction:
    """f(x,s) = [f1(x,s), f2(x,s)] from endpoint expressions.

    ``on_boundary`` marks whether the multifunction acts in the domain or on
    the natural boundary part; it only selects the mesh layout it acts on.
    Endpoint order f1 <= f2 is checked at every evaluation.
    """

    def __init__(self, mesh: Mesh, lower, upper, on_boundary=False):
        self.mesh = mesh
        self.lower, self.upper = _parse_endpoints(mesh, ("f1", "f2"), (lower, upper), ("s",))
        self.layout = mesh.layout("boundary_gamma" if on_boundary else "interior")
        self._fixed = {}  # rule -> read-only field, when no endpoint reads s

    def eval_interval(self, points, s):
        """Endpoint values ([lo, hi]) at ``points`` for state values ``s``."""
        s = np.asarray(s, dtype=float)
        return _eval_endpoints(self, ("f1", "f2"), points, s.shape, {"s": s})

    @cached_property
    def reads_s(self):
        """Whether an endpoint reads the state s; if not, every selection rule
        picks the same field at every state."""
        return "s" in variables_of(self.lower) | variables_of(self.upper)

    def select(self, u: FeFunction, rule="lower"):
        """:func:`_select`; with endpoints that do not read s, the field of each
        rule is computed once and returned read-only."""
        if self.reads_s:
            return _select(self, u, rule)
        if rule not in self._fixed:
            self._fixed[rule] = _freeze(_select(self, u, rule))
        return self._fixed[rule]


class TwoArgIntervalMultifunction:
    """[j1(x,r,s), j2(x,r,s)]: an interval reaction with a frozen variable r.

    The discontinuous fixed-point scheme requires both endpoints to be
    nonincreasing in r (the frozen variable); :meth:`check_monotone`
    validates this by sampling and reports the worst violation.
    """

    def __init__(self, mesh: Mesh, lower, upper):
        self.mesh = mesh
        self.lower, self.upper = _parse_endpoints(mesh, ("j1", "j2"), (lower, upper), ("r", "s"))

    def eval_interval(self, points, r, s):
        """Endpoint values ([lo, hi]) at ``points`` for frozen values ``r`` and states ``s``."""
        r = np.asarray(r, dtype=float)
        s = np.asarray(s, dtype=float)
        shape = np.broadcast_shapes(r.shape, s.shape)
        return _eval_endpoints(self, ("j1", "j2"), points, shape, {"r": r, "s": s})

    def freeze(self, r_func: FeFunction):
        """Bind r to a finite-element function, yielding a one-argument interval."""
        return FrozenIntervalMultifunction(self, r_func)

    def check_monotone(self, r_values, s_values):
        """Sample whether r -> j1 and r -> j2 are nonincreasing.

        Returns a dict with flags and the worst signed increase found
        (positive means a violation of the required monotonicity).
        """
        pts = self.mesh.quad_points
        worst_lo = worst_hi = -np.inf
        r_values = sorted(float(r) for r in r_values)
        for s in s_values:
            s_arr = np.full(pts.shape[:-1], float(s))
            prev = None
            for r in r_values:
                lo, hi = self.eval_interval(pts, np.full_like(s_arr, r), s_arr)
                if prev is not None:
                    worst_lo = max(worst_lo, float(np.max(lo - prev[0])))
                    worst_hi = max(worst_hi, float(np.max(hi - prev[1])))
                prev = (lo, hi)
        return {
            "lower_nonincreasing": worst_lo <= 1e-10,
            "upper_nonincreasing": worst_hi <= 1e-10,
            "worst_lower_increase": worst_lo,
            "worst_upper_increase": worst_hi,
        }


class FrozenIntervalMultifunction:
    """One-argument view of a two-argument interval with r bound to a function."""

    reads_s = True  # j1 and j2 may read s; they are not inspected

    def __init__(self, base: TwoArgIntervalMultifunction, r_func: FeFunction):
        if r_func.mesh is not base.mesh:
            raise ValueError("frozen function lives on a different mesh")
        self.base = base
        self.mesh = base.mesh
        self.r_func = r_func
        self.layout = base.mesh.layout("interior")

    def eval_interval(self, points, s):
        # interior quadrature layout only; r is evaluated at the same points
        r = self.r_func.values_at_quad()
        s = np.asarray(s, dtype=float)
        if s.shape != r.shape:
            raise ValueError("frozen interval expects interior quadrature layout")
        return self.base.eval_interval(points, r, s)

    select = _select


# ---------------------------------------------------------------------------
# truncation data and derived terms


@dataclass
class TruncationData:
    """Ordered bound pair ``lower <= upper`` of P1 functions on one mesh
    (every certified :class:`dpvi.extremal.OrderedInterval` is one)."""

    lower: FeFunction
    upper: FeFunction

    def __post_init__(self):
        if self.lower.mesh is not self.upper.mesh:
            raise ValueError("bounds live on different meshes")
        if np.any(self.lower.coeffs > self.upper.coeffs):
            raise ValueError("bounds out of order: lower > upper at some node")

    @property
    def mesh(self):
        return self.lower.mesh


def cutoff(s):
    """Piecewise-linear descending cutoff: 1 for s <= 0, 1 - s on [0,1], 0 for s >= 1."""
    return np.clip(1.0 - np.asarray(s, dtype=float), 0.0, 1.0)


def penalty(td: TruncationData, q_field, s):
    """Penalty value at state s: grows like (excess)^(q-1) outside the bounds.

    Positive above the upper bound, negative below the lower bound, zero on
    the interval, so it always pushes the state back toward the bounds.
    """
    s = np.asarray(s, dtype=float)
    lo, hi = td.lower.values_at_quad(), td.upper.values_at_quad()
    q = np.asarray(q_field, dtype=float)
    out = np.zeros_like(s)
    above = s > hi
    below = s < lo
    if np.any(above):
        out[above] = (s[above] - hi[above]) ** (q[above] - 1.0)
    if np.any(below):
        out[below] = -((lo[below] - s[below]) ** (q[below] - 1.0))
    return out


def penalty_slope(td: TruncationData, q_field, s):
    """d(penalty)/ds, clamped near the kinks when q(x) < 2."""
    s = np.asarray(s, dtype=float)
    lo, hi = td.lower.values_at_quad(), td.upper.values_at_quad()
    q = np.asarray(q_field, dtype=float)
    out = np.zeros_like(s)
    above = s > hi
    below = s < lo
    if np.any(above):
        d = np.maximum(s[above] - hi[above], 1e-8)
        out[above] = (q[above] - 1.0) * d ** (q[above] - 2.0)
    if np.any(below):
        d = np.maximum(lo[below] - s[below], 1e-8)
        out[below] = (q[below] - 1.0) * d ** (q[below] - 2.0)
    return out


class TruncatedMultifunction:
    """The truncation of ``base`` between the bounds of a :class:`TruncationData`.

    Below the lower bound the value set collapses to ``base.select(lower,
    "lower")``, above the upper bound to ``base.select(upper, "upper")``
    (both taken once, as ``frozen``, on the layout of ``base``), and in
    between it is ``base`` itself.  Which of the three applies depends on
    the state, so a truncation reads s; :func:`truncate_multifunction` builds
    one only where it can differ from ``base``.
    """

    reads_s = True

    def __init__(self, base, td: TruncationData):
        self.base = base
        self.mesh = td.mesh
        self.layout = base.layout
        self.bounds = (self.layout.values(td.lower.coeffs), self.layout.values(td.upper.coeffs))
        self.frozen = (base.select(td.lower, "lower"), base.select(td.upper, "upper"))

    def eval_interval(self, points, s):
        s = np.asarray(s, dtype=float)
        eta_lo, eta_hi = self.frozen
        lo_b, hi_b = self.bounds
        if lo_b.shape != s.shape:
            raise ValueError("state layout does not match the truncation bounds")
        lo, hi = self.base.eval_interval(points, s)
        below = s < lo_b
        above = s > hi_b
        lo = np.where(below, eta_lo, np.where(above, eta_hi, lo))
        hi = np.where(below, eta_lo, np.where(above, eta_hi, hi))
        return lo, hi

    select = _select


def truncate_multifunction(mf, td: TruncationData):
    """Truncated evaluator for an interior or boundary interval multifunction.

    A state-free ``mf`` whose lower and upper selections are one field,
    bitwise (f = 8, say), equals its truncation at every state and is
    returned itself; one that jumps at the bounds, such as f = [-1, 1], is not.
    """
    if not mf.reads_s and _same_bits(mf.select(td.lower, "lower"), mf.select(td.upper, "upper")):
        return mf
    return TruncatedMultifunction(mf, td)


def compensator(kind, selection_here, selection_combined, bound_here, bound_combined, s):
    """Pointwise compensator used when several bound functions are combined.

    Parameters
    ----------
    kind : {'lower', 'upper'}
        Lower-bound compensators are weighted by the descending cutoff of
        (s - bound_here) / (bound_combined - bound_here); upper-bound
        compensators by one minus the cutoff of
        (s - bound_combined) / (bound_here - bound_combined).
    selection_here, selection_combined : arrays
        The member's frozen selection and the combined frozen selection.
    bound_here, bound_combined : arrays
        The member bound function and the combined bound, sampled alike.
    s : array
        State values.

    Values always lie in [0, |selection_here - selection_combined|].  Where
    the member bound coincides with the combined bound the compensator is
    defined as zero (the combined selection is re-chosen there, making the
    numerator vanish).
    """
    if kind not in ("lower", "upper"):
        raise ValueError("kind must be 'lower' or 'upper'")
    s = np.asarray(s, dtype=float)
    amp = np.abs(np.asarray(selection_here, float) - np.asarray(selection_combined, float))
    if kind == "lower":
        denom = np.asarray(bound_combined, float) - np.asarray(bound_here, float)
        num = s - np.asarray(bound_here, float)
    else:
        denom = np.asarray(bound_here, float) - np.asarray(bound_combined, float)
        num = s - np.asarray(bound_combined, float)
    shape = np.broadcast_shapes(s.shape, amp.shape, denom.shape, num.shape)
    num = np.broadcast_to(num, shape)
    denom = np.broadcast_to(denom, shape)
    amp = np.broadcast_to(amp, shape)
    ok = np.abs(denom) > 0.0
    ratio = np.zeros(shape)
    np.divide(num, denom, out=ratio, where=ok)
    w = cutoff(ratio)
    if kind == "upper":
        w = 1.0 - w
    return np.where(ok, amp * w, 0.0)


# ---------------------------------------------------------------------------
# source assembly


def assemble_source(field, mesh: Mesh, where="interior"):
    """Dual vector of a quadrature field: entries integral(field * hat_i).

    ``where`` selects the interior quadrature layout or the gamma boundary
    layout; an empty gamma part yields the zero vector.
    """
    return mesh.layout(where).dual(field)
