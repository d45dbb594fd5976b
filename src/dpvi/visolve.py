"""Discrete multi-valued variational inequality solver.

A problem couples the double-phase operator with a constraint set (whole
working subspace, lower obstacle, or box), an optional interval reaction in
the domain and an optional one on the natural boundary part.  One semismooth
Newton / primal active-set loop solves it: every merit evaluation applies
the selection rule at the iterate it measures and the Newton matrix carries
the selection slopes, so the selection always belongs to the iterate and no
outer selection loop is needed.

Feasibility of the returned iterate is exact (active nodes are set onto
their bound, inactive updates are projected), and convergence is measured
by the nodal complementarity residual

    u_i - median(lo_i, u_i - r_i, hi_i),

which vanishes exactly when the discrete variational inequality holds for
every feasible direction.  Convergence is its max norm.  The line search
accepts a full Newton step when that step cuts either the max norm or the
Euclidean norm of the residual, since the semismooth Newton direction is a
descent direction for the Euclidean norm.  Shorter steps must cut the max
norm.

Each Newton step ends in one sparse LU of the inactive free rows.  They are
taken in the mesh's nested-dissection order (:attr:`Mesh.free_nodes_by_rank`,
built once per mesh), and SuperLU factorises in that order instead of
choosing its own; the order a subset inherits never adds fill, so it holds
for every active set.

A solve pays for its Newton steps and little else.  The residual, the
selections and the iterate that ``solve_vi`` reports are those of the last
accepted merit evaluation, and the next step linearises at that same
:class:`FeFunction`, whose quadrature values and gradients are computed
once.  Whether a selection can change during a solve is decided in one
place, the Newton loop: when no reaction reads the state (``reads_s``), its
selections are frozen at the start, their sources assembled once, and their
slopes are zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import FeFunction, Mesh, _freeze
from .multifun import (
    TruncationData,
    assemble_source,
    penalty,
    penalty_slope,
    pick_endpoint,
    truncate_multifunction,
)
from .operator import DoublePhaseOperator
from .spaces import ExponentData, ModularKind, luxemburg_norm

__all__ = [
    "ConstraintSet",
    "VIProblem",
    "AuxiliaryTerms",
    "SolverOptions",
    "SolveReport",
    "SolverError",
    "solve_vi",
    "vi_residual",
    "build_auxiliary",
    "check_coercivity",
]


class SolverError(RuntimeError):
    """Unrecoverable solver failure (singular systems after retries, ...)."""


# shortest line-search step; no sufficient decrease down to it ends the solve
_LINE_SEARCH_MIN = 1e-8


class ConstraintSet:
    """Feasible set ``lower <= u <= upper`` at the nodes; either bound may be None.

    No bound gives the whole working subspace, ``lower`` alone an obstacle,
    both a box.  The essential boundary Gamma0 stays out of the bounds (no
    lo = hi = 0 there), because certificates test bounds such as ``u2 + M``
    that do not vanish on it: :meth:`project` zeroes Gamma0 instead, and
    admissibility needs lower <= 0 <= upper at every Gamma0 node.
    """

    def __init__(self, lower: Optional[FeFunction] = None, upper: Optional[FeFunction] = None):
        if lower is not None and upper is not None and np.any(lower.coeffs > upper.coeffs):
            raise ValueError("box bounds out of order")
        self.lower = lower
        self.upper = upper
        self._bounds = {}  # n_nodes -> read-only (lo, hi)

    @classmethod
    def whole_space(cls):
        return cls()

    @classmethod
    def obstacle(cls, psi: FeFunction):
        if psi is None:
            raise ValueError("obstacle constraint needs an obstacle function")
        return cls(lower=psi)

    @classmethod
    def box(cls, psi_lower: FeFunction, psi_upper: FeFunction):
        if psi_lower is None or psi_upper is None:
            raise ValueError("box constraint needs both bounds")
        return cls(psi_lower, psi_upper)

    def bounds(self, mesh: Mesh):
        """Nodal bounds as read-only arrays, with +-inf where a bound is absent."""
        n = mesh.n_nodes
        if n not in self._bounds:
            lo = self.lower.coeffs if self.lower is not None else _freeze(np.full(n, -np.inf))
            hi = self.upper.coeffs if self.upper is not None else _freeze(np.full(n, np.inf))
            self._bounds[n] = (lo, hi)
        return self._bounds[n]

    def check_admissible(self, mesh: Mesh):
        lo, hi = self.bounds(mesh)
        on_gamma0 = mesh.gamma0_node_mask
        if np.any(lo[on_gamma0] > 0) or np.any(hi[on_gamma0] < 0):
            raise ValueError(
                "the bounds exclude 0 at an essential-boundary node; "
                "the constraint set is empty in the working subspace"
            )

    def project(self, coeffs, mesh: Mesh):
        """Clip nodal values into the bounds and zero the essential boundary."""
        lo, hi = self.bounds(mesh)
        out = np.clip(coeffs, lo, hi)
        out[mesh.gamma0_node_mask] = 0.0
        return out


@dataclass
class AuxiliaryTerms:
    """State-dependent penalty attached to an auxiliary problem.

    With a single lower/upper bound pair the compensator corrections vanish
    identically, so only the penalty contributes; q is the penalty growth
    exponent field sampled at interior quadrature points.
    """

    truncation: TruncationData
    q_field: np.ndarray

    def residual_field(self, u_vals):
        return penalty(self.truncation, self.q_field, u_vals)

    def slope_field(self, u_vals):
        return penalty_slope(self.truncation, self.q_field, u_vals)


@dataclass
class VIProblem:
    """Operator + constraint set + optional interior/boundary reactions."""

    operator: DoublePhaseOperator
    constraint: ConstraintSet
    f: object = None  # interval multifunction (interior)
    f_gamma: object = None  # interval multifunction (natural boundary)
    aux: Optional[AuxiliaryTerms] = None

    def __post_init__(self):
        self.constraint.check_admissible(self.mesh)
        if self.f_gamma is not None and self.mesh.boundary("gamma") is None:
            raise ValueError("boundary multifunction given but no gamma facets exist")

    @property
    def mesh(self) -> Mesh:
        return self.operator.mesh

    @property
    def exponents(self) -> ExponentData:
        return self.operator.exponents

    def with_terms(self, f=None, f_gamma=None, aux=None):
        return replace(self, f=f, f_gamma=f_gamma, aux=aux)


@dataclass
class SolverOptions:
    tol: float = 1e-9
    max_iter: int = 200
    selection: str = "midpoint"
    seed: int = 0
    initial: Optional[FeFunction] = None


@dataclass
class SolveReport:
    converged: bool = False
    newton_iterations: int = 0
    residual: float = np.inf
    residual_history: list = field(default_factory=list)
    active_set_history: list = field(default_factory=list)
    selection_rule: str = "midpoint"
    message: str = ""


# ---------------------------------------------------------------------------
# residual machinery


def _sources(prob: VIProblem, eta, zeta):
    """Dual vectors of the given selections: the interior one, then the gamma one."""
    return [assemble_source(sel, prob.mesh, where)
            for sel, where in ((eta, "interior"), (zeta, "boundary_gamma")) if sel is not None]


def _residual_vector(prob: VIProblem, u: FeFunction, sources):
    """Full nodal dual vector of the problem at u with the selection ``sources``
    of :func:`_sources`, added in that order."""
    r = prob.operator.apply(u)
    for source in sources:
        r = r + source
    if prob.aux is not None:
        r = r + assemble_source(prob.aux.residual_field(u.values_at_quad()), prob.mesh, "interior")
    return r


def _complementarity(prob: VIProblem, u_coeffs, r):
    """Nodal complementarity residual over free nodes (projected form)."""
    mesh = prob.mesh
    lo, hi = prob.constraint.bounds(mesh)
    alpha = u_coeffs - np.minimum(np.maximum(lo, u_coeffs - r), hi)
    return alpha[mesh.free_node_mask]


def _infeasibility(prob: VIProblem, coeffs):
    """Why nodal ``coeffs`` are infeasible for the problem (to 1e-12), or None."""
    mesh = prob.mesh
    lo, hi = prob.constraint.bounds(mesh)
    feas_tol = 1e-12
    if np.any(coeffs < lo - feas_tol) or np.any(coeffs > hi + feas_tol):
        return "iterate is infeasible for the constraint set"
    if np.any(np.abs(coeffs[mesh.gamma0_node_mask]) > feas_tol):
        return "iterate does not vanish on the essential boundary"
    return None


def vi_residual(prob: VIProblem, u: FeFunction, eta=None, zeta=None) -> float:
    """Max-norm complementarity residual of the VI at (u, eta, zeta).

    Zero exactly when u solves the discrete variational inequality with the
    given selections: for the whole space this is the max dual-vector entry,
    for obstacle/box sets the projected residual
    ``u_i - median(lo_i, u_i - r_i, hi_i)`` over free nodes.
    """
    cause = _infeasibility(prob, u.coeffs)
    if cause is not None:
        raise ValueError(cause)
    r = _residual_vector(prob, u, _sources(prob, eta, zeta))
    return float(np.max(np.abs(_complementarity(prob, u.coeffs, r)), initial=0.0))


def _select_terms(prob: VIProblem, u: FeFunction, rule):
    eta = prob.f.select(u, rule) if prob.f is not None else None
    zeta = prob.f_gamma.select(u, rule) if prob.f_gamma is not None else None
    return eta, zeta


def _selection_slope(mf, u: FeFunction, rule):
    """Finite-difference slope of the rule-selected endpoint with respect to s.

    Exact zeros, without evaluating the reaction, when ``mf`` does not read
    s: the two evaluations would agree bitwise.
    """
    if not mf.reads_s:
        return np.zeros(mf.layout.weights.shape)
    points, s = mf.layout.points, mf.layout.values(u.coeffs)
    ds = 1e-6 * (1.0 + np.abs(s))
    lo_p, hi_p = mf.eval_interval(points, s + ds)
    lo_m, hi_m = mf.eval_interval(points, s - ds)
    slope = (pick_endpoint(rule, lo_p, hi_p) - pick_endpoint(rule, lo_m, hi_m)) / (2.0 * ds)
    return np.clip(slope, -1e10, 1e10)


# ---------------------------------------------------------------------------
# inner semismooth Newton / active set


def _factor_solve(K, rhs):
    """Solve K x = rhs by sparse LU with K's rows and columns already in elimination order.

    SuperLU keeps the given column order (``NATURAL``) and prefers diagonal
    pivots (``SymmetricMode``); the default pivot threshold still allows row
    interchanges, which an indefinite K may need.  K is exactly symmetric, so
    its CSR arrays are also its CSC arrays and no conversion is needed.
    Raises RuntimeError on an exactly singular factor.
    """
    K = sp.csc_matrix((K.data, K.indices, K.indptr), shape=K.shape)
    lu = spla.splu(K, permc_spec="NATURAL", options={"SymmetricMode": True})
    return lu.solve(rhs)


def _inner_solve(prob: VIProblem, u0: np.ndarray, opts: SolverOptions, report, frozen=None):
    """Semismooth Newton / primal active-set iteration for the multi-valued VI.

    The rule-selected reaction endpoints are evaluated at the running
    iterate, with their slopes entering the Newton matrix.  Selections that
    cannot change are frozen for the whole loop instead, and their sources
    assembled once: those ``frozen`` supplies (the warm start's), or, when no
    reaction reads s, those selected at the start.  The Newton system on the
    inactive free nodes is sliced with its rows in the mesh's
    nested-dissection order and factorised in that order by
    :func:`_factor_solve`; a slope field that is identically zero adds no
    mass to it.  A singular Newton system is retried twice with only the
    Jacobian re-assembled, its smoothing eps 100 times larger each time.

    The merit is the complementarity residual at the trial point.  The full
    step (t = 1) is accepted when it cuts the max norm or the Euclidean norm
    by the Armijo factor 1 - 1e-4.  So the max norm, which the convergence
    test and ``residual_history`` record, may rise on a full step.  A halved
    step t < 1 is accepted only when it cuts the max norm by 1 - 1e-4 t, or
    reaches the tolerance.  The first line search without sufficient
    decrease down to ``_LINE_SEARCH_MIN`` ends the solve: it leaves the
    iterate and its residual unchanged, so every later step would repeat it
    exactly.  Returns ``(u, eta, zeta, residual, cause)`` of the last
    accepted merit evaluation: the iterate as a :class:`FeFunction`, its
    selections and its max-norm residual, with cause None on convergence and
    otherwise naming why the solve stopped.  Each step linearises at the
    accepted iterate's :class:`FeFunction`, so its quadrature values and
    gradients are not sampled again.
    """
    mesh = prob.mesh
    free = mesh.free_nodes_by_rank  # so the inactive rows come in elimination order
    lo, hi = prob.constraint.bounds(mesh)
    lo_f, hi_f = lo[free], hi[free]
    u = prob.constraint.project(u0.copy(), mesh)
    op = prob.operator
    rule = opts.selection
    if frozen is None and not any(mf.reads_s for mf in (prob.f, prob.f_gamma) if mf is not None):
        frozen = _select_terms(prob, FeFunction(mesh, u), rule)
    sources = None if frozen is None else _sources(prob, *frozen)

    def merit(coeffs):
        uf = FeFunction(mesh, coeffs)
        eta, zeta = frozen if frozen is not None else _select_terms(prob, uf, rule)
        r = _residual_vector(prob, uf, sources if frozen is not None else _sources(prob, eta, zeta))
        alpha = _complementarity(prob, coeffs, r)
        at = (uf, eta, zeta)
        return at, r, float(np.max(np.abs(alpha), initial=0.0)), float(np.sqrt(alpha @ alpha))

    at, r, phi, ell2 = merit(u)
    for _ in range(opts.max_iter):
        report.residual_history.append(phi)
        if phi <= opts.tol:
            return *at, phi, None
        rf, u_free = r[free], u[free]
        # active where the bound wins the pointwise min/max in the NCP
        act_lo = np.isfinite(lo_f) & (u_free - lo_f <= rf)
        act_hi = np.isfinite(hi_f) & (hi_f - u_free <= -rf) & ~act_lo
        inact = ~(act_lo | act_hi)
        delta = np.zeros(len(free))
        delta[act_lo] = lo_f[act_lo] - u_free[act_lo]
        delta[act_hi] = hi_f[act_hi] - u_free[act_hi]
        rows = free[inact]
        if len(rows):
            uf = at[0]
            # penalty and selection slopes do not depend on the smoothing eps
            slopes = []
            if prob.aux is not None:
                slopes.append((mesh.layout("interior"), prob.aux.slope_field(uf.values_at_quad())))
            for mf in (prob.f, prob.f_gamma) if frozen is None else ():
                if mf is not None:
                    slopes.append((mf.layout, _selection_slope(mf, uf, rule)))
            # a zero slope field adds exact zeros to J: skip its mass
            masses = [lay.mass_data(slope) for lay, slope in slopes if slope.any()]
            d = np.zeros(mesh.n_nodes)  # the active-node corrections
            d[free] = delta
            for attempt in range(3):
                J = op.jacobian(uf, eps=op.eps * (100.0**attempt))
                for mass in masses:  # left to right, the rounding of J + M_aux + M_f + M_gamma
                    J.data += mass
                K = J[np.ix_(rows, rows)]
                K.eliminate_zeros()  # entries that cancel exactly only add fill to the LU
                rhs = -(r + J @ d)[rows]
                try:
                    sol = _factor_solve(K, rhs)
                except RuntimeError:  # exactly singular factor
                    continue
                if np.all(np.isfinite(sol)):
                    break
            else:
                raise SolverError("Newton system singular after smoothing retries")
            delta[inact] = sol
        report.active_set_history.append(int(np.count_nonzero(~inact)))
        report.newton_iterations += 1

        step = np.zeros(mesh.n_nodes)
        step[free] = delta
        t = 1.0
        while t >= _LINE_SEARCH_MIN:
            trial = prob.constraint.project(u + t * step, mesh)
            at_t, r_t, phi_t, ell2_t = merit(trial)
            full_l2 = t == 1.0 and ell2_t < ell2 * (1.0 - 1e-4)
            if phi_t < phi * (1.0 - 1e-4 * t) or phi_t <= opts.tol or full_l2:
                u, at, r, phi, ell2 = trial, at_t, r_t, phi_t, ell2_t
                break
            t *= 0.5
        else:
            return *at, phi, "the line search found no decrease"
    report.residual_history.append(phi)
    return *at, phi, None if phi <= opts.tol else f"{opts.max_iter} Newton steps spent"


def _warm_start(prob: VIProblem, opts) -> np.ndarray:
    """Initial iterate from the quadratic-energy variant of the problem.

    The reaction selections are frozen at the flat iterate and the exponents
    forced to 2, giving a robustly solvable linear complementarity problem
    whose solution is a well-scaled feasible start.
    """
    mesh = prob.mesh
    ed = prob.exponents
    flat = prob.constraint.project(np.zeros(mesh.n_nodes), mesh)
    if abs(ed.p_minus - 2) < 1e-12 and abs(ed.p_plus - 2) < 1e-12 and ed.mu.max() == 0.0:
        return flat
    frozen = _select_terms(prob, FeFunction(mesh, flat), opts.selection)
    shape = mesh.quad_weights.shape
    ed2 = ExponentData(mesh, np.full(shape, 2.0), np.full(shape, 3.0), np.zeros(shape))
    op2 = DoublePhaseOperator(mesh, ed2)
    prob2 = VIProblem(op2, prob.constraint, prob.f, prob.f_gamma, aux=prob.aux)
    rep = SolveReport()
    sub = SolverOptions(tol=max(opts.tol, 1e-10), max_iter=60, selection=opts.selection)
    try:
        return _inner_solve(prob2, flat, sub, rep, frozen=frozen)[0].coeffs
    except SolverError:
        return flat


def solve_vi(prob: VIProblem, opts: Optional[SolverOptions] = None):
    """Solve the multi-valued VI; returns (u, eta, zeta, report).

    One Newton loop (:func:`_inner_solve`) runs from ``opts.initial`` or the
    warm start, with at most ``opts.max_iter`` steps; the iterate, its
    selections and ``report.residual`` are those of the loop's last accepted
    merit evaluation, not evaluated again.  The returned iterate is feasible to machine
    precision, the selections satisfy eta(x) in f(x, u(x)) pointwise (by
    construction of the selection rule), and the complementarity residual is
    at most ``opts.tol`` when ``report.converged`` is set.  Otherwise the last
    iterate is returned flagged non-converged, and the message names the
    cause.  If the Newton system is singular the smoothing is enlarged twice
    before a :class:`SolverError` is raised.  Whether an auxiliary problem's
    iterate lies in its bounds is checked by :func:`dpvi.extremal.solve_enclosed`.
    """
    opts = opts or SolverOptions()
    report = SolveReport(selection_rule=opts.selection)
    mesh = prob.mesh

    if opts.initial is not None:
        u = prob.constraint.project(opts.initial.coeffs.copy(), mesh)
    else:
        u = _warm_start(prob, opts)
    uf, eta, zeta, report.residual, cause = _inner_solve(prob, u, opts, report)
    report.converged = report.residual <= opts.tol
    if not report.converged:
        report.message = f"not converged: residual {report.residual:.3e}; {cause}"
    return uf, eta, zeta, report


# ---------------------------------------------------------------------------
# auxiliary problem of the truncation-penalty construction


def build_auxiliary(prob: VIProblem, td: TruncationData) -> VIProblem:
    """Auxiliary problem: truncated reactions plus the interval penalty.

    The lower-order term becomes the truncation of ``f`` (and of the
    boundary reaction) between the bounds of ``td``, and the penalty enters
    the residual with a positive sign.  With a single lower/upper bound pair
    the compensator corrections vanish identically and are omitted.  A
    converged solution lying inside the bounds makes the penalty vanish and
    the truncated reactions coincide with the originals, so it solves the
    original problem with the same residual.
    """
    if td.mesh is not prob.mesh:
        raise ValueError("truncation data lives on a different mesh")
    f0 = truncate_multifunction(prob.f, td) if prob.f is not None else None
    f0_gamma = (
        truncate_multifunction(prob.f_gamma, td) if prob.f_gamma is not None else None
    )
    aux = AuxiliaryTerms(truncation=td, q_field=prob.exponents.q)
    return prob.with_terms(f=f0, f_gamma=f0_gamma, aux=aux)


# ---------------------------------------------------------------------------
# coercivity probe


# distance |norm - R| at which a sphere sample is accepted
_SPHERE_TOL = 1e-6


def check_coercivity(prob: VIProblem, u0: FeFunction, radii, samples_per_radius=8, seed=0):
    """Sample the sphere of each radius for the leading-term pairing.

    For each radius R, feasible samples with Luxemburg norm R are drawn
    (Gaussian nodal vectors projected onto the constraint set and rescaled
    onto the sphere, see ``_sample_on_sphere``) and the minimum over
    endpoint selections of

        <Au + eta + zeta, u - u0>

    is recorded.  This is a sampling probe: a nonnegative minimum means *no
    violation found at the sampled points*, never a coercivity proof.
    At least one radius is needed, each finite and positive, and at least
    one sample per radius.
    """
    radii = [float(R) for R in radii]
    if not radii:
        raise ValueError("the coercivity probe needs at least one radius")
    bad = [R for R in radii if not 0 < R < np.inf]
    if bad:
        raise ValueError(f"coercivity radii must be finite and positive, got {bad[0]!r}")
    if samples_per_radius < 1:
        raise ValueError(f"samples per radius must be at least 1, got {samples_per_radius}")
    mesh = prob.mesh
    lo, hi = prob.constraint.bounds(mesh)
    if np.any(u0.coeffs < lo - 1e-12) or np.any(u0.coeffs > hi + 1e-12):
        raise ValueError("base point is infeasible")
    rng = np.random.default_rng(seed)
    kind = ModularKind.sobolev()
    rows = []
    for R in radii:
        best = np.inf
        found = 0
        for _ in range(int(samples_per_radius)):
            u = _sample_on_sphere(prob, rng, R, kind)
            if u is None:
                continue
            found += 1
            val = _min_pairing(prob, u, u0)
            best = min(best, val)
        if found == 0:
            raise ValueError(f"no feasible sample found at radius {R}")
        rows.append(
            {
                "radius": R,
                "samples": found,
                "min_pairing": float(best),
                "violation_found": bool(best <= 0.0),
            }
        )
    summary = (
        "violation found at sampled radii"
        if any(r["violation_found"] for r in rows)
        else "no violation found at sampled radii"
    )
    return {"rows": rows, "summary": summary}


def _sample_on_sphere(prob: VIProblem, rng, R, kind):
    """A feasible u = P(t g) with Luxemburg norm R, g a Gaussian nodal vector.

    P(t g) = t P(g) while no bound clips and the norm is positively
    homogeneous, so t = R / |P(g)| is tried first.  Otherwise the root in t
    is bracketed (down to the base point P(0), or up by doubling) and found by
    Illinois regula falsi.  Doubling ends the direction once every node has
    clipped at the bound g points to: P(t g) and its norm no longer change, so
    a norm still below R never reaches it.  Up to 8 directions are drawn; None
    if all fail.
    """
    mesh, ed = prob.mesh, prob.exponents
    for _ in range(8):
        g = rng.normal(size=mesh.n_nodes)
        far = prob.constraint.project(np.copysign(np.inf, g), mesh)  # P(t g) for large t

        def at(t):
            u = FeFunction(mesh, prob.constraint.project(t * g, mesh))
            return u, luxemburg_norm(kind, ed, u) - R

        u, f1 = at(1.0)
        if f1 == -R:
            continue  # P(t g) = 0 for every t >= 0
        t = R / (f1 + R)
        u, f = at(t)
        if abs(f) <= _SPHERE_TOL:
            return u
        (a, fa), (b, fb) = sorted([(1.0, f1), (t, f)])
        if fa > 0 and fb > 0:
            b, fb = a, fa
            a = 0.0
            u, fa = at(a)
            if fa >= 0:
                continue
        saturated = False
        for _ in range(200):
            if (fa > 0) != (fb > 0) or saturated:
                break
            a, fa = b, fb
            b *= 2.0
            u, fb = at(b)
            if abs(fb) <= _SPHERE_TOL:
                return u
            saturated = np.array_equal(u.coeffs, far)
        if (fa > 0) == (fb > 0):
            continue
        side = 0
        for _ in range(200):
            t = (a * fb - b * fa) / (fb - fa)
            u, f = at(t)
            if abs(f) <= _SPHERE_TOL:
                return u
            if (f > 0) == (fb > 0):
                b, fb = t, f
                if side == -1:
                    fa *= 0.5
                side = -1
            else:
                a, fa = t, f
                if side == 1:
                    fb *= 0.5
                side = 1
    return None


def _min_pairing(prob: VIProblem, u: FeFunction, u0: FeFunction):
    """min over endpoint selections of <Au + eta + zeta, u - u0>."""
    d = u.coeffs - u0.coeffs
    val = float(prob.operator.apply(u) @ d)
    for mf in (prob.f, prob.f_gamma):
        if mf is not None:
            dq = mf.layout.values(d)
            lo, hi = mf.eval_interval(mf.layout.points, mf.layout.values(u.coeffs))
            integrand = np.where(dq > 0, lo * dq, hi * dq)
            val += float(np.sum(mf.layout.weights * integrand))
    return val
