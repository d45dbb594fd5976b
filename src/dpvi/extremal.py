"""Sub/supersolution certificates, enclosure solves and extremal iterations.

A subsolution certificate checks the one-sided variational inequality over
the generating directions: for P1 elements every admissible nonnegative
direction is a nonnegative combination of nodal hats, so the check is
finite and complete at the discrete level.  For a lower obstacle the
admissible hats for the *sub*solution test sit at nodes strictly above the
obstacle (at contact nodes no feasible direction exists); the supersolution
test uses every free node, and box constraints restrict symmetrically.

The enclosure solve runs the truncation-penalty construction: between a
certified pair of bounds the truncated problem is solvable regardless of
coercivity of the original reaction, the converged iterate must come back
inside the bounds (anything else is reported, never accepted silently),
and there the penalty vanishes, so the iterate solves the original problem.

Extremal candidates are produced by monotone interval-shrinking iterations
and certified post hoc: ordering, residuals and enclosure are all checked
on the computed functions, never assumed.  Both the extremal iterations and
the frozen-variable fixed point run one loop, ``_monotone_iteration``: down
from the supersolution and up from the subsolution, with one drift check
and one stop test.  Every enclosed solve of the extremal iterations is
warm-started from a solution it refines: the previous iterate of its side,
or on the first step the fixed bound, or in ``extremal_pair`` the greatest
candidate of the same interval (smallest side).  None runs Newton from the
bound that moves, where the truncation of an interval reaction jumps from
the rule-selected endpoint to the frozen opposite one; a first step starts
there only when that bound already solves its problem.

The greatest side's first solve in ``extremal_pair``, the one whose Newton
steps grow with the mesh from the fixed bound, starts instead from a nested
start on grids large enough (nested iteration, Hackbusch 1985): the same
auxiliary problem solved on the grid with half the subdivisions, itself
started one level further down, then prolonged and clipped into the bounds.
Coarse solves are ordinary ``solve_vi`` calls and only supply a start; the
bounds, certificates, every fine solve and every check stay on the
problem's mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from .expr import parse_expression
from .mesh import _SPATIAL_VARS, FeFunction
from .multifun import IntervalMultifunction, TruncationData, TwoArgIntervalMultifunction, penalty
from .visolve import (
    ConstraintSet,
    SolveReport,
    SolverError,
    SolverOptions,
    VIProblem,
    _coarse_problem,
    _infeasibility,
    _residual_vector,
    _select_terms,
    _sources,
    build_auxiliary,
    solve_vi,
    vi_residual,
)

__all__ = [
    "CertificateReport",
    "OrderedInterval",
    "SolutionSet",
    "verify_subsolution",
    "verify_supersolution",
    "construct_obstacle_bounds",
    "solve_enclosed",
    "extremal_pair",
    "discontinuous_fixed_point",
    "EnclosureError",
    "EnclosedReport",
]

_MAX_OUTER = 50  # bound on the steps of each monotone (extremal or fixed-point) iteration

# a coarse level of the greatest side's nested start is solved only on a coarse grid
# of at least this many nodes.  Newton steps of the greatest side's first enclosed
# solve on bench.cases.ExtremalCase (2D obstacle, f = 8), cold from the lower bound
# and nested, coarsest level first:
#
#   2D n    cold    nested, per level
#   32      13      9 + 9 (from 16: +5 counted, so no)
#   64      24      13 + 11
#   128     41      13 + 11 + 10
#   256     101     13 + 11 + 10 + 12
#
# Below the constant a cold solve takes at most 13 steps, and a coarse level only
# adds counted steps
_NEST_MIN_NODES = 1000


class EnclosureError(RuntimeError):
    """A converged auxiliary solution escaped its bounds (failed certificate
    or solver failure); carries the worst offending node."""


@dataclass
class CertificateReport:
    side: str  # 'subsolution' | 'supersolution'
    margin: float  # worst signed slack; nonnegative (to 1e-9) means verified
    worst_node: Optional[int]
    passed: bool
    lattice_ok: bool
    lattice_note: str
    selection_rule: str
    tested_nodes: int


@dataclass
class OrderedInterval(TruncationData):
    """Certified bound pair, optionally carrying its construction data; it is
    its own truncation bound pair, whose checks (one mesh, ordered) it keeps."""

    lower_certificate: Optional[CertificateReport] = None
    upper_certificate: Optional[CertificateReport] = None
    M: float = 0.0

    def certified(self):
        return (
            self.lower_certificate is not None
            and self.upper_certificate is not None
            and self.lower_certificate.passed
            and self.upper_certificate.passed
        )


@dataclass
class SolutionSet:
    """Converged solutions collected inside an ordered interval."""

    members: list = field(default_factory=list)
    histories: dict = field(default_factory=dict)


@dataclass
class EnclosedReport(SolveReport):
    """The auxiliary solve's report, with how far its iterate lay outside the bounds."""

    enclosure_status: Optional[dict] = None


# ---------------------------------------------------------------------------
# certificates


def _lattice_condition(prob: VIProblem, u: FeFunction, side):
    cs = prob.constraint
    if side == "subsolution":
        # join(u, K) stays in K: automatic unless an upper bound exists
        if cs.upper is not None:
            ok = bool(np.all(u.coeffs <= cs.upper.coeffs + 1e-12))
            return ok, "join with the set respects the upper bound" if ok else (
                "join with the set exceeds the upper bound"
            )
        return True, "automatic for this constraint set"
    if cs.lower is not None:
        ok = bool(np.all(u.coeffs >= cs.lower.coeffs - 1e-12))
        return ok, "meet with the set respects the lower bound" if ok else (
            "meet with the set violates the obstacle"
        )
    return True, "automatic for this constraint set"


def _certify(side, u: FeFunction, prob: VIProblem):
    """Certificate of ``u`` as a sub- or supersolution (``side``).

    The margin is the smallest signed slack over the testable nodes.  The
    worst node is the lowest node index among the nodes whose slack lies
    within 1e-12 max(1, |margin|) of it, so slacks that agree to rounding
    (as on symmetric problems) name one node whatever their last bits.
    """
    rule = "lower" if side == "subsolution" else "upper"
    lattice_ok, note = _lattice_condition(prob, u, side)
    r = _residual_vector(prob, u, _sources(prob, *_select_terms(prob, u, rule)))
    lo, hi = prob.constraint.bounds(prob.mesh)
    free = prob.mesh.free_node_mask
    if side == "subsolution":
        # directions (u - phi)^+ exist only where u sits strictly above the
        # lower bound; the inequality there is r_i <= 0
        testable = free & (u.coeffs > lo)
        margins = -r
    else:
        # directions (phi - u)^+ exist only strictly below the upper bound;
        # the inequality there is r_i >= 0
        testable = free & (u.coeffs < hi)
        margins = r
    idx = np.flatnonzero(testable)
    margin, worst = 0.0, None
    if len(idx):
        margin = float(np.min(margins[idx]))
        # margins that agree to rounding tie: the lowest node index among them
        tied = margins[idx] <= margin + 1e-12 * max(1.0, abs(margin))
        worst = int(idx[np.argmax(tied)])
    return CertificateReport(
        side=side,
        margin=margin,
        worst_node=worst,
        passed=bool(lattice_ok and margin >= -1e-9),
        lattice_ok=lattice_ok,
        lattice_note=note,
        selection_rule=rule,
        tested_nodes=len(idx),
    )


def verify_subsolution(u: FeFunction, prob: VIProblem):
    """Certificate that ``u`` is a discrete subsolution of the problem.

    Checks the lattice compatibility of the constraint set, selects the
    lower endpoint of the reaction at ``u`` and evaluates the one-sided
    inequality over the generating hat directions.  The reported margin is
    the worst signed slack (nonnegative means verified).
    """
    return _certify("subsolution", u, prob)


def verify_supersolution(u: FeFunction, prob: VIProblem):
    """Certificate that ``u`` is a discrete supersolution, tested with the
    upper endpoint of the reaction (see :func:`verify_subsolution`)."""
    return _certify("supersolution", u, prob)


# ---------------------------------------------------------------------------
# constructed bounds from one-sided reaction envelopes


def _dirichlet_solve(prob: VIProblem, k_expr, opts):
    """Solution of the operator equation with constant-in-s reaction k."""
    mesh = prob.mesh
    f = IntervalMultifunction(mesh, k_expr, k_expr)
    sub = VIProblem(prob.operator, ConstraintSet.whole_space(), f)
    u, eta, zeta, rep = solve_vi(sub, opts)
    if not rep.converged:
        raise SolverError(f"bound construction solve failed: {rep.message}")
    return u


def _check_one_sided_envelopes(prob, k1_field, k2_field, s_lo, s_hi):
    """Sampled check that f1 <= k1 and f2 >= k2 over the relevant state range."""
    if prob.f is None:
        return
    mesh = prob.mesh
    for s in np.linspace(s_lo, s_hi, 33):
        s_arr = np.full(mesh.quad_weights.shape, float(s))
        lo, hi = prob.f.eval_interval(mesh.quad_points, s_arr)
        gap1 = np.max(lo - k1_field)
        gap2 = np.max(k2_field - hi)
        if gap1 > 1e-10:
            raise ValueError(
                f"one-sided bound violated: f1(x,{s:.4g}) exceeds k1 by {gap1:.3e}"
            )
        if gap2 > 1e-10:
            raise ValueError(
                f"one-sided bound violated: f2(x,{s:.4g}) drops below k2 by {gap2:.3e}"
            )


def construct_obstacle_bounds(prob: VIProblem, k1, k2, c_psi=None, margin=1e-3,
                              opts: Optional[SolverOptions] = None):
    """Build a certified bound pair from one-sided reaction envelopes.

    ``k1`` bounds the lower endpoint from above (f1 <= k1) and produces the
    lower bound as the solution of the operator equation with reaction k1;
    ``k2`` bounds the upper endpoint from below and produces the upper bound
    after an upward shift M chosen so the shifted function clears both the
    obstacle ceiling ``c_psi`` and the lower bound, plus a safety margin.
    The one-sided envelopes are sampling-checked over the state range the
    construction actually uses, and both certificates are verified.
    """
    opts = opts or SolverOptions(tol=1e-10)
    mesh = prob.mesh
    allowed = _SPATIAL_VARS[:mesh.dim]
    k1_ast = parse_expression(k1, allowed) if isinstance(k1, str) else k1
    k2_ast = parse_expression(k2, allowed) if isinstance(k2, str) else k2
    u1 = _dirichlet_solve(prob, k1_ast, opts)
    # equal envelopes (ASTs compare structurally) give the same deterministic solve
    u2 = u1 if k2_ast == k1_ast else _dirichlet_solve(prob, k2_ast, opts)

    terms = [0.0, float(np.max(u1.coeffs - u2.coeffs))]
    if prob.constraint.lower is not None and c_psi is not None:
        terms.append(float(c_psi) - float(np.min(u2.coeffs)))
    M = max(terms) + float(margin)
    upper = u2 + M
    lower = u1

    span = float(np.max(upper.coeffs) - np.min(lower.coeffs))
    slack = 0.05 * span + 1e-6
    k1_field = mesh.sample(k1_ast)
    k2_field = mesh.sample(k2_ast)
    _check_one_sided_envelopes(
        prob, k1_field, k2_field,
        float(np.min(lower.coeffs)) - slack, float(np.max(upper.coeffs)) + slack,
    )

    return OrderedInterval(
        lower=lower,
        upper=upper,
        lower_certificate=verify_subsolution(lower, prob),
        upper_certificate=verify_supersolution(upper, prob),
        M=M,
    )


# ---------------------------------------------------------------------------
# enclosure solve (truncation + penalty pipeline)


def solve_enclosed(prob: VIProblem, oi: OrderedInterval,
                   opts: Optional[SolverOptions] = None):
    """Solve inside a certified interval via the truncated-penalized problem.

    Returns ``(u, report)`` where u solves the *original* problem with
    residual at most the solver tolerance and lies inside the interval.
    ``oi`` is itself the bound pair of the truncation and the penalty.  The
    auxiliary iterate's distances below and above the bounds are recorded in
    ``report.enclosure_status`` (``below_lower``, ``above_upper``); one over
    10 tol raises :class:`EnclosureError` with the worst node, as a failed
    certificate or solver failure is never silently accepted.
    """
    opts = opts or SolverOptions()
    if not oi.certified():
        raise ValueError("interval certificates missing or failed; cannot enclose")
    u, eta, zeta, report = solve_vi(build_auxiliary(prob, oi), opts)
    if not report.converged:
        raise SolverError(f"auxiliary solve failed: {report.message}")

    tol = opts.tol
    below = float(np.max(oi.lower.coeffs - u.coeffs, initial=0.0))
    above = float(np.max(u.coeffs - oi.upper.coeffs, initial=0.0))
    if max(below, above) > 10 * tol:
        node = int(np.argmax(np.maximum(oi.lower.coeffs - u.coeffs, u.coeffs - oi.upper.coeffs)))
        raise EnclosureError(
            f"enclosure violated by {max(below, above):.3e} at node {node}; "
            "certificate or solver failure"
        )
    status = {"below_lower": below, "above_upper": above}
    report = EnclosedReport(**vars(report), enclosure_status=status)
    u = FeFunction(u.mesh, np.clip(u.coeffs, oi.lower.coeffs, oi.upper.coeffs))

    pen = penalty(oi, prob.exponents.q, u.values_at_quad())
    if float(np.max(np.abs(pen))) > 10 * tol:
        raise EnclosureError("penalty does not vanish at the converged iterate")

    residual = vi_residual(prob, u, *_select_terms(prob, u, opts.selection))
    if residual > 10 * tol:
        raise SolverError(
            f"enclosed iterate does not solve the original problem: residual {residual:.3e}"
        )
    report.residual = residual
    return u, report


# ---------------------------------------------------------------------------
# extremal iterations


def _require_certified(interval: OrderedInterval, what):
    """Raise :class:`EnclosureError` naming ``what`` unless both certificates passed."""
    if not interval.certified():
        lower = interval.lower_certificate
        bad = lower if not lower.passed else interval.upper_certificate
        raise EnclosureError(
            f"{what} failed its {bad.side} certificate "
            f"(margin {bad.margin:.3e} at node {bad.worst_node})"
        )


def _monotone_iteration(side, start, opts, step, what):
    """Monotone sub-supersolution iteration from the bound ``start``.

    ``step(k, moving)`` returns the next iterate and its residual.  From step
    2 on an iterate of the greatest side may not rise above, and one of the
    smallest side not fall below, its predecessor; ``what`` names the
    iteration in that error.  Returns ``(last iterate, history rows)``.
    """
    moving, history = start, []
    for k in range(1, _MAX_OUTER + 1):
        u, residual = step(k, moving)
        update = float(np.max(np.abs(u.coeffs - moving.coeffs)))
        history.append({"iter": k, "max_update": update, "residual": residual})
        if k > 1:
            drift = u.coeffs - moving.coeffs if side == "greatest" else moving.coeffs - u.coeffs
            if np.max(drift) > 1e-10:
                raise EnclosureError(
                    f"{what} not monotone at step {k} "
                    f"(worst drift {float(np.max(drift)):.3e})"
                )
        moving = u
        if update <= max(opts.tol, 1e-12):
            break
    return moving, history


def _solves_enclosed(prob: VIProblem, interval: OrderedInterval, u: FeFunction, opts):
    """Whether ``u`` lies in ``interval``, is feasible and solves ``prob`` to
    ``opts.tol`` with the ``opts.selection`` rule.  Inside the interval the
    truncation (which switches strictly outside the bounds) is the original
    reaction and the penalty vanishes: this is the auxiliary residual too."""
    c = u.coeffs
    inside = np.all(interval.lower.coeffs <= c) and np.all(c <= interval.upper.coeffs)
    if not inside or _infeasibility(prob, c) is not None:
        return False
    return vi_residual(prob, u, *_select_terms(prob, u, opts.selection)) <= opts.tol


def _extremal_iterate(prob: VIProblem, oi: OrderedInterval, opts, side, start):
    """Monotone interval-shrinking iteration toward one extremal candidate.

    The greatest candidate is approached from the upper bound with lower
    endpoint selections (the weakest reaction leaves the largest solution);
    the smallest candidate symmetrically from below with upper endpoint
    selections.  Returns ``(candidate, members, history)``; a member beyond
    the candidate by over 10 tol (above it on the greatest side, below it on
    the smallest) raises :class:`EnclosureError`.

    The first step takes the certificate of its bound from ``oi``; each later
    step certifies its new bound.
    Every enclosed solve after the first starts from the previous iterate, a
    converged solution lying in the new, smaller interval (it then needs no
    Newton step).  The first starts from the first of ``start`` and the
    moving bound (``oi.upper`` for the greatest side, ``oi.lower`` for the
    smallest) that already solves its problem, checked on ``prob`` itself
    (:func:`_solves_enclosed`), and from ``start`` if neither does.  Both lie
    in the interval.  ``start`` is the fixed bound, a candidate of the other
    side, or on the greatest side of :func:`extremal_pair` the nested start
    (:func:`_nested_start`).  It must not be the moving bound: there the
    truncation of an interval reaction switches from the rule-selected
    endpoint to the frozen opposite one, so Newton from the moving bound
    fails to converge unless it is already a solution (as the lower bound
    is when the smallest solution is the subsolution itself).
    """
    members = []  # the converged iterates
    it_opts = replace(opts, selection="lower" if side == "greatest" else "upper")

    def step(k, moving):
        # on step 1 ``moving`` is oi's own bound, and oi holds its certificate
        if side == "greatest":
            cert = oi.upper_certificate if k == 1 else verify_supersolution(moving, prob)
            interval = OrderedInterval(oi.lower, moving, oi.lower_certificate, cert)
        else:
            cert = oi.lower_certificate if k == 1 else verify_subsolution(moving, prob)
            interval = OrderedInterval(moving, oi.upper, cert, oi.upper_certificate)
        _require_certified(interval, f"iterate {k}")
        initial = moving
        if k == 1:
            solved = (c for c in (start, moving) if _solves_enclosed(prob, interval, c, it_opts))
            initial = next(solved, start)
        u, rep = solve_enclosed(prob, interval, replace(it_opts, initial=initial))
        members.append(u)
        return u, rep.residual

    bound = oi.upper if side == "greatest" else oi.lower
    u, history = _monotone_iteration(side, bound, opts, step, "extremal iteration")
    sign, tol = (1.0 if side == "greatest" else -1.0), 10 * opts.tol
    if any(np.any(sign * m.coeffs > sign * u.coeffs + tol) for m in members):
        raise EnclosureError(f"a collected solution escapes the {side} candidate")
    return u, members, history


def _nested_start(prob: VIProblem, oi: TruncationData, opts):
    """Start of the greatest side's first enclosed solve, by nested iteration.

    The same auxiliary problem, that of the interval ``[oi.lower, oi.upper]``,
    is solved on the grid with half the subdivisions (:func:`_coarse_problem`)
    between the bounds injected there, by one :func:`solve_vi` call with
    ``opts`` whose start is, recursively, this start one level down.  Its
    solution is prolonged (:meth:`CoarseGrid.prolong`) and clipped into the
    bounds.  The start is ``oi.lower``, as without nesting, when the coarse
    grid would have fewer than ``_NEST_MIN_NODES`` nodes, when the problem
    cannot be rebuilt there, or when the coarse solve does not converge.
    Only the start comes from the coarse grid: the fine solve, its bounds and
    every check stay on the problem's mesh.
    """
    mesh, n = prob.mesh, prob.mesh.subdivisions
    big = n is not None and (n // 2 + 1) ** mesh.dim >= _NEST_MIN_NODES
    grid = mesh.coarse_grid if big else None
    coarse_prob = None if grid is None else _coarse_problem(prob, grid)
    if coarse_prob is None:
        return oi.lower
    coarse_oi = TruncationData(*(FeFunction(grid.mesh, grid.inject(b.coeffs))
                                 for b in (oi.lower, oi.upper)))
    start = _nested_start(coarse_prob, coarse_oi, opts)
    try:
        u, _, _, report = solve_vi(build_auxiliary(coarse_prob, coarse_oi),
                                   replace(opts, initial=start))
    except SolverError:
        return oi.lower
    if not report.converged:
        return oi.lower
    return FeFunction(mesh, np.clip(grid.prolong(u.coeffs), oi.lower.coeffs, oi.upper.coeffs))


def extremal_pair(prob: VIProblem, oi: OrderedInterval,
                  opts: Optional[SolverOptions] = None):
    """Smallest and greatest solution candidates inside a certified interval.

    Returns ``(u_smallest, u_greatest, solution_set)``.  Both candidates and
    every intermediate converged iterate solve the original problem; the
    set's ordering against the pair is certified post hoc and violations
    raise, because the monotone iteration is a heuristic whose output is
    only accepted with certificates.  Each side checks its members against
    its own candidate; here each is checked against the other's.

    The greatest side starts from :func:`_nested_start`: on a grid whose
    half-size grid has at least ``_NEST_MIN_NODES`` nodes, that adds one
    ``solve_vi`` call per coarse level, with the greatest side's options,
    before the first fine solve; elsewhere it is the lower bound.
    """
    opts = opts or SolverOptions()
    if not oi.certified():
        raise ValueError("interval certificates missing or failed")
    # each side starts off its moving bound: the greatest from the nested start
    # (the fixed lower bound on small grids), the smallest from the greatest
    # candidate just computed
    start = _nested_start(prob, oi, replace(opts, selection="lower"))
    greatest, members_g, hist_g = _extremal_iterate(prob, oi, opts, "greatest", start)
    smallest, members_s, hist_s = _extremal_iterate(prob, oi, opts, "smallest", greatest)

    sset = SolutionSet(members_s + members_g, {"greatest": hist_g, "smallest": hist_s})
    tol = 10 * opts.tol
    if np.any(smallest.coeffs > greatest.coeffs + tol):
        raise EnclosureError("extremal candidates out of order")
    if (any(np.any(u.coeffs < smallest.coeffs - tol) for u in members_g)
            or any(np.any(u.coeffs > greatest.coeffs + tol) for u in members_s)):
        raise EnclosureError("a collected solution escapes the extremal pair")
    return smallest, greatest, sset


# ---------------------------------------------------------------------------
# discontinuous reactions via the frozen-variable fixed point


def discontinuous_fixed_point(prob: VIProblem, j: TwoArgIntervalMultifunction,
                              oi: OrderedInterval, opts: Optional[SolverOptions] = None):
    """Extremal solutions for a reaction with a frozen-variable dependence.

    The two-argument interval [j1(x,r,s), j2(x,r,s)] must have both
    endpoints nonincreasing in r (validated by sampling over the interval's
    value range); then freezing r at the current iterate yields monotone
    outer iterations: from the upper bound with greatest frozen solutions
    (nonincreasing iterates) and from the lower bound with smallest frozen
    solutions (nondecreasing), each fixed point solving the original
    problem.  Each outer step runs the extremal iteration of its side only,
    from the bound that stays fixed.  Violated iterate monotonicity is
    reported with its index.

    Returns ``(u_smallest, u_greatest, histories)``.
    """
    opts = opts or SolverOptions()
    if not oi.certified():
        raise ValueError("interval certificates missing or failed")
    lo_v = float(np.min(oi.lower.coeffs))
    hi_v = float(np.max(oi.upper.coeffs))
    pad = 0.05 * (hi_v - lo_v) + 1e-9
    r_values = np.linspace(lo_v - pad, hi_v + pad, 5)
    s_values = np.linspace(lo_v - pad, hi_v + pad, 7)
    mono = j.check_monotone(r_values, s_values)
    if not (mono["lower_nonincreasing"] and mono["upper_nonincreasing"]):
        raise ValueError(
            "frozen-variable monotonicity fails by "
            f"{max(mono['worst_lower_increase'], mono['worst_upper_increase']):.3e}; "
            "the fixed-point scheme is not applicable"
        )

    def step(side, k, moving):
        probv = replace(prob, f=j.freeze(moving))
        lower, upper = (oi.lower, moving) if side == "greatest" else (moving, oi.upper)
        interval = OrderedInterval(lower, upper, verify_subsolution(lower, probv),
                                   verify_supersolution(upper, probv))
        _require_certified(interval, f"outer iterate {k}")
        start = lower if side == "greatest" else upper
        nxt, _, history = _extremal_iterate(probv, interval, opts, side, start)
        return nxt, history[-1]["residual"]  # with the side's rule on f and f_gamma

    greatest, hist_g = _monotone_iteration("greatest", oi.upper, opts,
                                           partial(step, "greatest"), "outer iterates")
    smallest, hist_s = _monotone_iteration("smallest", oi.lower, opts,
                                           partial(step, "smallest"), "outer iterates")
    if np.any(smallest.coeffs > greatest.coeffs + 10 * opts.tol):
        raise EnclosureError("fixed-point extremals out of order")
    return smallest, greatest, {"greatest": hist_g, "smallest": hist_s}
