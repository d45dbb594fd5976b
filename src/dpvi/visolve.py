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

Each Newton step ends in one linear solve on the inactive free rows, taken in
node-index order on every mesh (:attr:`Mesh.free_nodes`).  It takes
one of three paths (:func:`_factor_solve`):

* on a mesh whose node-index band is cheap (:attr:`Mesh.elimination_band`),
  the Newton matrix's band is gathered straight from the Jacobian's data, and
  a positive definite one is factorised by banded Cholesky;
* on a wider :func:`build_mesh` grid, a positive definite Newton matrix is
  solved by conjugate gradients preconditioned by a Galerkin multigrid
  V-cycle on the grid's :attr:`Mesh.coarse_grid` chain, its coarse spaces
  restricted to the inactive rows.  CG stops at a relative residual of
  1e-12 or, sooner, once its Euclidean residual is a tenth of the Newton
  tolerance, which bounds what it adds to the next Newton residual.  The
  multigrid set-up is built once per inactive set and reused while the
  Newton steps keep it (:class:`_MultigridPlan`): the matrix's pattern, the
  transfers, the coarse Galerkin matrices and the coarsest LU.  Each step
  gathers its own matrix onto that pattern, multiplies by it in CG and
  smooths with it on the fine level, under coarse levels that may lag;
* every other Newton matrix, indefinite ones among them, goes to sparse LU on
  the matrix cut out of the Jacobian, in SuperLU's own minimum-degree order on
  every mesh.

A solve whose accepted steps stay shorter than ``_SHORT_STEP`` for
``_SHORT_STEPS`` steps in a row stops, as one whose line search finds no
decrease does, instead of spending its budget.

A solve pays for its Newton steps and little else.  A cold solve starts
from the p = 2 problem with the selections frozen at the projection of
zero (:func:`_warm_start`).  Without bounds or penalty, on a :func:`build_mesh`
grid whose whole boundary is Gamma0, that start is one Dirichlet Laplace
solve by sine transform, so every factorisation of the solve is a counted
Newton step; other problems reach their start by Newton steps of their own.
The residual, the selections and the iterate that ``solve_vi`` reports are
those of the last accepted merit evaluation, and the next step linearises at
that same :class:`FeFunction`, whose quadrature values and gradients are
computed once.  Whether a selection can change during a solve is decided in
one place, the Newton loop: when no reaction reads the state (``reads_s``),
its selections are frozen at the start, their sources assembled once, and
their slopes are zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .mesh import CoarseGrid, FeFunction, Mesh, _freeze
from .multifun import (
    IntervalMultifunction,
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
# this many accepted steps in a row shorter than _SHORT_STEP end the solve: no
# benchmark or CLI solve takes one such step, the slow 1D whole-space solves at
# n = 4096 take at most 6 in a row, and a stalled solve takes one every step
_SHORT_STEP = 1e-4
_SHORT_STEPS = 20

# multigrid-preconditioned CG on a mesh without a band: the Jacobi smoother's
# damping, the grid size at which coarsening stops, CG's relative residual, the
# share of the Newton tolerance at which its Euclidean residual stops it too, and
# its iteration cap.  The four Newton matrices of the solve_2d problem at 2D
# n = 256 take 9, 9, 6 and 5 iterations, the last three under the first one's
# coarse levels (13-15 to the relative residual alone on their own levels); CG
# stopped by the cap hands its matrix to sparse LU, after one more run on coarse
# levels built from it when those it ran on were built from an earlier matrix
_JACOBI_OMEGA = 0.6
_COARSEST_GRID = 16
_PCG_TOL = 1e-12
_PCG_NEWTON_SHARE = 0.1
_PCG_MAX_ITER = 100


class ConstraintSet:
    """Feasible set ``lower <= u <= upper`` at the nodes; either bound may be None.

    No bound gives the whole working subspace, ``lower`` alone an obstacle,
    both a box.  The essential boundary Gamma0 stays out of the bounds (no
    lo = hi = 0 there), because certificates test bounds such as ``u2 + M``
    that do not vanish on it: :meth:`project` zeroes Gamma0 instead, and
    admissibility needs lower <= 0 <= upper at every Gamma0 node.  The two
    bounds of a box live on one mesh.
    """

    def __init__(self, lower: Optional[FeFunction] = None, upper: Optional[FeFunction] = None):
        if lower is not None and upper is not None:
            if lower.mesh is not upper.mesh:
                raise ValueError("box bounds live on different meshes")
            if np.any(lower.coeffs > upper.coeffs):
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
class VIProblem:
    """Operator + constraint set + optional reactions (interior, boundary),
    and for an auxiliary problem the bound pair of its penalty (``aux``), all
    on the operator's mesh."""

    operator: DoublePhaseOperator
    constraint: ConstraintSet
    f: object = None  # interval multifunction (interior)
    f_gamma: object = None  # interval multifunction (natural boundary)
    aux: Optional[TruncationData] = None

    def __post_init__(self):
        cs = self.constraint
        parts = (("constraint lower bound", cs.lower), ("constraint upper bound", cs.upper),
                 ("f", self.f), ("f_gamma", self.f_gamma), ("aux", self.aux))
        for name, part in parts:
            if part is not None and part.mesh is not self.mesh:
                raise ValueError(f"{name} lives on a different mesh than the operator")
        self.constraint.check_admissible(self.mesh)
        if self.f_gamma is not None and not len(self.mesh.layout("boundary_gamma").conn):
            raise ValueError("boundary multifunction given but no gamma facets exist")

    @property
    def mesh(self) -> Mesh:
        return self.operator.mesh

    @property
    def exponents(self) -> ExponentData:
        return self.operator.exponents


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
        pen = penalty(prob.aux, prob.exponents.q, u.values_at_quad())
        r = r + assemble_source(pen, prob.mesh, "interior")
    return r


def _complementarity(prob: VIProblem, u_coeffs, r):
    """Nodal complementarity residual over free nodes (projected form)."""
    mesh = prob.mesh
    lo, hi = prob.constraint.bounds(mesh)
    alpha = u_coeffs - np.minimum(np.maximum(lo, u_coeffs - r), hi)
    return alpha[mesh.free_node_mask]


def _infeasibility(prob: VIProblem, coeffs, what="iterate"):
    """Why the nodal ``coeffs`` of ``what`` are infeasible (to 1e-12), or None."""
    mesh = prob.mesh
    lo, hi = prob.constraint.bounds(mesh)
    feas_tol = 1e-12
    if np.any(coeffs < lo - feas_tol) or np.any(coeffs > hi + feas_tol):
        return f"{what} is infeasible for the constraint set"
    if np.any(np.abs(coeffs[mesh.gamma0_node_mask]) > feas_tol):
        return f"{what} does not vanish on the essential boundary"
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


def _band_gather(J, rows, mesh: Mesh):
    """Lower band of K = J[rows, rows] in LAPACK storage, ``ab[i - j, j] = K[i, j]``
    for i >= j, on a mesh with an :attr:`Mesh.elimination_band`.

    ``rows`` are free nodes in node-index order.  The mesh's
    :attr:`Mesh.band_entries` are cut down to the entries between two of them
    and renumbered by one cumulative count, and J's data is scattered straight
    into the Fortran array: no sparse K is formed.  An entry that is an exact
    zero stays one, so the band is K's lower band bitwise.
    """
    inside = np.zeros(mesh.n_nodes, dtype=bool)
    inside[rows] = True
    slots, i, j = mesh.band_entries
    keep = np.flatnonzero(inside[i] & inside[j])
    pos = np.cumsum(inside) - 1  # position of each node among the rows
    i, j = pos[i[keep]], pos[j[keep]]
    b = mesh.elimination_band
    ab = np.zeros((b + 1) * len(rows))
    ab[b * j + i] = J.data[slots[keep]]  # entry (i - j, j) of the column-major array
    return ab.reshape((b + 1, len(rows)), order="F")


class _MultigridPlan:
    """Multigrid set-up of the Newton matrices K = J[rows, rows] of one inactive
    set, J on the mesh's shared CSR pattern.  A Newton loop makes a new plan
    whenever its inactive ``rows`` change and reuses it while they repeat;
    nothing is built before the first multigrid solve on them.  Built once per
    inactive set: K's pattern and a mask of its slots in J's data
    (:meth:`matrix`), each level's transfers (:attr:`transfers`), and the
    coarse Galerkin matrices and coarsest LU of the first K that
    :meth:`hierarchy` sees, built again only when CG on them fails.
    """

    def __init__(self, rows, mesh: Mesh):
        self.rows, self.mesh = rows, mesh
        self._coarse = None  # (levels below the fine one, lu) of the K they were built from

    @cached_property
    def _pattern(self):
        """``(keep, indices, indptr)``: K's entries are J's at the slots that the
        mask ``keep`` marks, in K's CSR order, since the rows come in node-index
        order and keep J's sorted columns.  A mask is the smallest record of the
        slots, and the fastest gather."""
        indptr, indices, _, _ = self.mesh._assembly_plan
        inside = np.zeros(self.mesh.n_nodes, dtype=bool)
        inside[self.rows] = True
        keep = np.repeat(inside, np.diff(indptr)) & inside[indices]
        kept = np.concatenate(([0], np.cumsum(keep)))  # kept entries before each slot
        pos = np.cumsum(inside) - 1  # position of each node among the rows
        return (_freeze(keep), _freeze(pos[indices[keep]].astype(indices.dtype)),
                _freeze(kept[np.append(indptr[self.rows], indptr[-1])].astype(indptr.dtype)))

    @cached_property
    def transfers(self):
        """``[(P, R), ...]``: per level, the prolongation P from the coarse nodes
        kept (:meth:`CoarseGrid.prolongation` from those whose own fine node is
        one of the level's rows) and R = P^T, down to the grid with at most
        ``_COARSEST_GRID`` subdivisions or one without a coarse grid.  It walks
        the chain of :class:`CoarseGrid` objects from the mesh's
        :attr:`Mesh.coarse_grid`, which needs no coarse mesh: each P is built
        for its level's rows from the grid's index arithmetic alone."""
        transfers, rows, grid = [], self.rows, self.mesh  # the mesh, then its coarse grids
        while grid.subdivisions > _COARSEST_GRID and grid.coarse_grid is not None:
            P, rows = grid.coarse_grid.prolongation(rows)
            transfers.append((P, P.T.tocsr()))
            grid = grid.coarse_grid
        return transfers

    @property
    def lagged(self):
        """Whether :meth:`hierarchy` will reuse coarse levels built from an earlier K."""
        return self._coarse is not None

    def matrix(self, J):
        """K = J[rows, rows], bitwise the cut, explicit zeros included."""
        keep, indices, indptr = self._pattern
        return sp.csr_matrix((J.data[keep], indices, indptr), shape=(len(self.rows),) * 2)

    def hierarchy(self, K, rebuild=False):
        """The multigrid hierarchy of K, ``([(A, P, R, w), ...], lu)`` as
        :func:`_multigrid_levels` gives it, or None when it finds K not positive
        definite.  K and its Jacobi weights are the fine level; the coarse levels
        and ``lu`` are built from K when none are kept or ``rebuild`` is set,
        and reused otherwise."""
        if self._coarse is None or rebuild:
            built = _multigrid_levels(K, self.transfers)
            self._coarse = None if built is None else (built[0][1:], built[1])
            return built
        diag = K.diagonal()
        if not np.all(diag > 0):  # also catches NaN
            return None
        levels, lu = self._coarse
        if self.transfers:
            levels = [(K, *self.transfers[0], _JACOBI_OMEGA / diag)] + levels
        return levels, lu


def _multigrid_levels(K, transfers):
    """Galerkin hierarchy of a Newton matrix K on a :class:`_MultigridPlan`'s
    ``transfers``: ``([(A, P, R, w), ...], lu)``, or None when some level's
    matrix has a diagonal entry that is not positive, and so is not positive
    definite.

    Each level holds its matrix A (K first), the transfers P and R to and from
    the next level, and the damped inverse diagonal w = ``_JACOBI_OMEGA`` /
    diag(A).  The next level's matrix is R A P.  A coarse node is kept only
    where its own fine node is a row, so no kept node has all its fine children
    outside the rows, which would give the next matrix a zero row, and P's
    columns are independent: the next matrix is positive definite whenever A
    is.  ``lu`` is the sparse LU of the last level's matrix; None also when
    that matrix is exactly singular.  A plan builds this once per inactive
    set, and again when CG on it fails; later Newton steps put their own K and
    w on its fine level (:meth:`_MultigridPlan.hierarchy`).
    """
    levels, A = [], K
    for P, R in transfers:
        diag = A.diagonal()
        if not np.all(diag > 0):  # also catches NaN
            return None
        levels.append((A, P, R, _JACOBI_OMEGA / diag))
        A = R @ (A @ P)
    if not np.all(A.diagonal() > 0):
        return None
    try:
        return levels, spla.splu(A.tocsc())
    except RuntimeError:  # exactly singular
        return None


def _v_cycle(levels, lu, b, k=0):
    """One V(2, 2) cycle for A x = b on level k from x = 0: two damped Jacobi
    sweeps, the coarse correction, two more sweeps; the coarsest level is
    solved directly.  Symmetric in b, so it may precondition CG."""
    if k == len(levels):
        return lu.solve(b)
    A, P, R, w = levels[k]
    x = w * b
    x += w * (b - A @ x)
    x += P @ _v_cycle(levels, lu, R @ (b - A @ x), k + 1)
    for _ in range(2):
        x += w * (b - A @ x)
    return x


def _pcg(K, rhs, stop, hierarchy):
    """Conjugate gradients for K x = rhs from x = 0, preconditioned by one
    :func:`_v_cycle` on ``hierarchy`` per iteration, until the squared
    Euclidean residual is at most ``stop``; None when ``hierarchy`` is None,
    when K or the preconditioner shows a direction of non-positive curvature,
    or when CG has not stopped after ``_PCG_MAX_ITER`` iterations."""
    if hierarchy is None:
        return None
    x, r = np.zeros(len(rhs)), rhs.copy()
    z = _v_cycle(*hierarchy, r)
    p, rz = z, np.sum(r * z)
    for _ in range(_PCG_MAX_ITER):
        q = K @ p
        pq = np.sum(p * q)
        if not (rz > 0 and pq > 0):
            return None
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        if np.sum(r * r) <= stop:
            return x
        z = _v_cycle(*hierarchy, r)
        rz, rz_old = np.sum(r * z), rz
        p = z + (rz / rz_old) * p
    return None


def _multigrid_solve(K, rows, rhs, mesh: Mesh, floor=0.0, plan=None):
    """Solution of K x = rhs by conjugate gradients preconditioned by a
    multigrid V-cycle (:func:`_pcg`), from x = 0 until the Euclidean residual
    ||rhs - K x|| is at most max(``_PCG_TOL`` ||rhs||, ``floor``); None when K
    is not positive definite, or CG fails.  An rhs that already meets the stop,
    rhs = 0 among them, gives x = 0 without an iteration.

    The V-cycle runs on the hierarchy of ``plan``, the :class:`_MultigridPlan`
    of ``rows`` (a new one when None): K on the fine level, under coarse levels
    that may have been built from the K of an earlier Newton step.  CG that
    fails on such lagged levels runs once more on levels built from K.

    Every inner product is ``np.sum`` of an elementwise product, not a BLAS
    dot, whose blocking depends on the thread count: so the solution is the
    same bitwise under any number of BLAS threads.
    """
    rr = np.sum(rhs * rhs)
    stop = max(_PCG_TOL**2 * rr, floor**2)
    if rr <= stop or stop == 0:  # x = 0 meets the stop, or rhs is too small to measure
        return np.zeros(len(rhs))
    if plan is None:
        plan = _MultigridPlan(rows, mesh)
    lagged = plan.lagged
    x = _pcg(K, rhs, stop, plan.hierarchy(K))
    if x is None and lagged:
        x = _pcg(K, rhs, stop, plan.hierarchy(K, rebuild=True))
    return x


def _lu_solve(K, rhs):
    """Solution of K x = rhs by sparse LU.  SuperLU orders K by minimum degree
    on the pattern of K + K^T (``MMD_AT_PLUS_A``, Liu, ACM TOMS 11, 1985),
    which suits K's symmetric pattern, and prefers diagonal pivots
    (``SymmetricMode``); the default pivot threshold still allows row
    interchanges, which an indefinite K may need.  K's CSR arrays are also its
    CSC arrays, so no conversion is needed.  Raises RuntimeError on an
    exactly singular factor."""
    K.eliminate_zeros()  # entries that cancel exactly only add fill to an LU
    K = sp.csc_matrix((K.data, K.indices, K.indptr), shape=K.shape)
    return spla.splu(K, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}).solve(rhs)


def _factor_solve(J, rows, rhs, mesh: Mesh, floor, plan):
    """Solve K x = rhs for the Newton matrix K = J[rows, rows], J exactly
    symmetric on the mesh's shared pattern and ``rows`` the inactive free nodes
    in node-index order (:attr:`Mesh.free_nodes`); x comes in the same
    order.  ``plan`` is the :class:`_MultigridPlan` of ``rows``.

    Three paths:

    * on a mesh with an :attr:`Mesh.elimination_band`, K's lower band is
      gathered from J (:func:`_band_gather`) and factorised by banded Cholesky
      (LAPACK ``dpbtrf``);
    * on a mesh without a band but with a :attr:`Mesh.coarse_grid`, K is
      gathered from J on the plan's pattern and solved by
      multigrid-preconditioned CG (:func:`_multigrid_solve`) until its
      Euclidean residual is at most ``floor`` or ``_PCG_TOL`` relative,
      whichever comes first.  The plan's transfers, coarse Galerkin matrices
      and coarsest LU are built on its first solve and reused by later Newton
      steps on the same rows; each step's own K is the fine level;
    * a K that either of them finds not positive definite, a K on which CG
      does not converge, and every K on any other mesh, is cut out of J and
      factorised by sparse LU in SuperLU's own minimum-degree order
      (:func:`_lu_solve`).

    Raises RuntimeError on an exactly singular LU factor.
    """
    if mesh.elimination_band is not None:
        chol, info = lapack.dpbtrf(_band_gather(J, rows, mesh), lower=1, overwrite_ab=1)
        if info == 0:
            return lapack.dpbtrs(chol, rhs, lower=1)[0]
    elif mesh.coarse_grid is not None:
        sol = _multigrid_solve(plan.matrix(J), rows, rhs, mesh, floor, plan)
        if sol is not None:
            return sol
    return _lu_solve(J[np.ix_(rows, rows)], rhs)


def _inner_solve(prob: VIProblem, u0: np.ndarray, opts: SolverOptions, report, frozen=None):
    """Semismooth Newton / primal active-set iteration for the multi-valued VI.

    The rule-selected reaction endpoints are evaluated at the running
    iterate, with their slopes entering the Newton matrix.  Selections that
    cannot change are frozen for the whole loop instead, and their sources
    assembled once: those ``frozen`` supplies (the warm start's), or, when no
    reaction reads s, those selected at the start.  The Newton system on the
    inactive free nodes, taken in node-index order, is solved by
    :func:`_factor_solve` from the full Jacobian: by banded Cholesky on its
    band, gathered from the Jacobian's data, when the mesh has an
    :attr:`Mesh.elimination_band` and K is positive definite, by
    multigrid-preconditioned CG when a wider grid's K is, otherwise by
    sparse LU on K cut out of the Jacobian; a slope field that is
    identically zero adds no mass to it.  The loop makes a new
    :class:`_MultigridPlan` whenever the inactive rows change, and the steps
    that keep them reuse its multigrid set-up.  The direct solves are exact,
    and CG stops once its Euclidean residual is at most
    ``_PCG_NEWTON_SHARE`` times ``opts.tol`` (an inexact Newton step,
    Dembo-Eisenstat-Steihaug, SIAM J. Numer. Anal. 19, 1982): that residual
    adds at most this share of the tolerance to the max norm of the next
    residual on the inactive rows, so a last step that would land within that
    share below the tolerance may cost one more Newton step.  A singular
    Newton system is retried twice with only the Jacobian re-assembled, its
    smoothing eps 100 times larger each time.

    The merit is the complementarity residual at the trial point.  The full
    step (t = 1) is accepted when it cuts the max norm or the Euclidean norm
    by the Armijo factor 1 - 1e-4.  So the max norm, which the convergence
    test and ``residual_history`` record, may rise on a full step.  A halved
    step t < 1 is accepted only when it cuts the max norm by 1 - 1e-4 t, or
    reaches the tolerance.  The first line search without sufficient
    decrease down to ``_LINE_SEARCH_MIN`` ends the solve: it leaves the
    iterate and its residual unchanged, so every later step would repeat it
    exactly.  So do ``_SHORT_STEPS`` accepted steps in a row shorter than
    ``_SHORT_STEP``: a step that short need cut the max norm by less than
    1e-8 of itself, and a solve that takes only such steps is making no
    progress.  Returns ``(u, eta, zeta, residual, cause)`` of the last
    accepted merit evaluation: the iterate as a :class:`FeFunction`, its
    selections and its max-norm residual, with cause None on convergence and
    otherwise naming why the solve stopped.  Each step linearises at the
    accepted iterate's :class:`FeFunction`, so its quadrature values and
    gradients are not sampled again.
    """
    mesh = prob.mesh
    free = mesh.free_nodes  # so the inactive rows come in node-index order
    lo, hi = prob.constraint.bounds(mesh)
    lo_f, hi_f = lo[free], hi[free]
    u = prob.constraint.project(u0.copy(), mesh)
    op = prob.operator
    rule = opts.selection
    floor = _PCG_NEWTON_SHARE * opts.tol  # where multigrid CG may stop
    plan = None  # the _MultigridPlan of the last inactive rows
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
    short = 0  # accepted steps in a row shorter than _SHORT_STEP
    for _ in range(opts.max_iter):
        report.residual_history.append(phi)
        if phi <= opts.tol:
            return *at, phi, None
        if short == _SHORT_STEPS:
            return *at, phi, f"no progress: {short} steps in a row shorter than {_SHORT_STEP:g}"
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
            if plan is None or not np.array_equal(plan.rows, rows):
                plan = _MultigridPlan(rows, mesh)
            uf = at[0]
            # penalty and selection slopes do not depend on the smoothing eps
            slopes = []
            if prob.aux is not None:
                slope = penalty_slope(prob.aux, prob.exponents.q, uf.values_at_quad())
                slopes.append((mesh.layout("interior"), slope))
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
                rhs = -(r + J @ d)[rows]
                try:
                    sol = _factor_solve(J, rows, rhs, mesh, floor, plan)
                except RuntimeError:  # exactly singular factor
                    continue
                if np.all(np.isfinite(sol)):
                    break
            else:
                raise SolverError("Newton system singular after smoothing retries")
            del J  # not held through the line search, whose merit sets the peak memory
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
                short = short + 1 if t < _SHORT_STEP else 0
                break
            t *= 0.5
        else:
            return *at, phi, "the line search found no decrease"
    report.residual_history.append(phi)
    return *at, phi, None if phi <= opts.tol else f"{opts.max_iter} Newton steps spent"


def _dst1(a, axis):
    """DST-I of ``a`` along ``axis``: entries sum_j a_j sin(pi j k / n) for
    j, k = 1 .. n - 1, where n - 1 = ``a.shape[axis]``, read off
    ``numpy.fft.rfft`` of the odd extension (0, a, 0, -a reversed)."""
    a = np.moveaxis(a, axis, -1)
    zero = np.zeros(a.shape[:-1] + (1,))
    odd = np.concatenate([zero, a, zero, -a[..., ::-1]], axis=-1)
    return np.moveaxis(-0.5 * np.fft.rfft(odd).imag[..., 1:a.shape[-1] + 1], -1, axis)


def _grid_laplace_solve(mesh: Mesh, b) -> np.ndarray:
    """Nodal u, zero on the boundary, with K u + b = 0 at the interior nodes of
    a :func:`build_mesh` grid, K the p = 2 stiffness matrix.

    K is the 3-point (1D) or 5-point (2D) Dirichlet Laplacian times
    n^(2 - dim), which the DST-I diagonalises (Buzbee-Golub-Nielson, SIAM
    J. Numer. Anal. 7, 1970): its eigenvalues are n^(2 - dim) times the sum
    over the axes of 2 - 2 cos(k pi / n) = 4 sin^2(k pi / 2n), k = 1 .. n - 1,
    and the DST-I is its own inverse up to the factor 2/n per axis.
    """
    n, dim = mesh.subdivisions, mesh.dim
    inner = (slice(1, n),) * dim
    t = np.reshape(b, (n + 1,) * dim)[inner]
    for axis in range(dim):
        t = _dst1(t, axis)
    lam = 4.0 * np.sin(np.arange(1, n) * (np.pi / (2 * n))) ** 2
    t = t / (n * lam if dim == 1 else np.add.outer(lam, lam))
    for axis in range(dim):
        t = _dst1(t, axis)
    u = np.zeros((n + 1,) * dim)
    u[inner] -= (2.0 / n) ** dim * t  # 0 - t, so no -0.0 where t vanishes
    return u.ravel()


def _warm_start(prob: VIProblem, opts) -> np.ndarray:
    """Initial iterate from the quadratic-energy variant of the problem.

    The reaction selections are frozen at the flat iterate and the exponents
    forced to 2, giving a robustly solvable linear complementarity problem
    whose solution is a well-scaled feasible start.  Without constraint
    bounds and penalty, on a :func:`build_mesh` grid whose whole boundary is
    Gamma0, that problem is the discrete Dirichlet Laplace equation with the
    frozen sources, solved directly by sine transform
    (:func:`_grid_laplace_solve`) with no factorisation.  Any other problem
    (obstacle and box LCPs, auxiliary problems, gamma facets, meshes not
    built by :func:`build_mesh`) is solved by Newton steps whose
    factorisations count in no report.
    """
    mesh = prob.mesh
    ed = prob.exponents
    flat = prob.constraint.project(np.zeros(mesh.n_nodes), mesh)
    if abs(ed.p_minus - 2) < 1e-12 and abs(ed.p_plus - 2) < 1e-12 and ed.mu.max() == 0.0:
        return flat
    frozen = _select_terms(prob, FeFunction(mesh, flat), opts.selection)
    unbounded = prob.constraint.lower is None and prob.constraint.upper is None
    if (unbounded and prob.aux is None and mesh.subdivisions is not None
            and not len(mesh.layout("boundary_gamma").conn)):
        return _grid_laplace_solve(mesh, sum(_sources(prob, *frozen), flat))
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
    # the mesh's CSR pattern, built once per mesh: here it lands below the warm
    # start's freed temporaries, where at the first Jacobian it would land above
    # them and raise the peak memory of a large solve
    mesh._assembly_plan

    if opts.initial is not None:
        u = prob.constraint.project(opts.initial.coeffs.copy(), mesh)
    else:
        u = _warm_start(prob, opts)
    uf, eta, zeta, report.residual, cause = _inner_solve(prob, u, opts, report)
    report.converged = report.residual <= opts.tol
    if not report.converged:
        report.message = f"not converged: residual {report.residual:.3e}; {cause}"
    return uf, eta, zeta, report


def _coarse_problem(prob: VIProblem, grid: CoarseGrid) -> Optional[VIProblem]:
    """``prob`` rebuilt on the coarse grid ``grid.mesh``, or None.

    The exponents are sampled again from their expressions, the constraint
    bounds are injected (:meth:`CoarseGrid.inject`) and each interval
    reaction is rebuilt from its endpoint ASTs on the same layout.  None when
    a part cannot be rebuilt: exponent data given as arrays, a reaction that
    is not a plain :class:`IntervalMultifunction` (two-argument, frozen or
    truncated), a penalty (``aux``), or a coarse problem that is not
    admissible, such as bounds that exclude 0 at a coarse Gamma0 node.
    """
    ed = prob.exponents
    reactions = (prob.f, prob.f_gamma)
    if (ed.expressions is None or prob.aux is not None
            or any(mf is not None and type(mf) is not IntervalMultifunction for mf in reactions)):
        return None
    coarse = grid.mesh

    def injected(u):
        return None if u is None else FeFunction(coarse, grid.inject(u.coeffs))

    def rebuilt(mf):
        on_boundary = mf.layout.where == "boundary_gamma"
        return IntervalMultifunction(coarse, mf.lower, mf.upper, on_boundary=on_boundary)

    op = DoublePhaseOperator(coarse, ExponentData.from_expressions(coarse, *ed.expressions))
    cs = ConstraintSet(injected(prob.constraint.lower), injected(prob.constraint.upper))
    f, f_gamma = (None if mf is None else rebuilt(mf) for mf in reactions)
    try:
        return VIProblem(op, cs, f, f_gamma)
    except ValueError:  # not admissible on the coarse grid
        return None


# ---------------------------------------------------------------------------
# auxiliary problem of the truncation-penalty construction


def build_auxiliary(prob: VIProblem, td: TruncationData) -> VIProblem:
    """Auxiliary problem: truncated reactions plus the interval penalty.

    The lower-order term becomes the truncation of ``f`` (and of the
    boundary reaction) between the bounds of ``td`` (a certified
    ``OrderedInterval``, say), and ``td`` itself becomes the problem's
    ``aux``, so the penalty against its bounds enters the residual with a
    positive sign.  With a single lower/upper bound pair
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
    return replace(prob, f=f0, f_gamma=f0_gamma, aux=td)


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
    one sample per radius.  The base point ``u0`` must lie in K.
    """
    radii = [float(R) for R in radii]
    if not radii:
        raise ValueError("the coercivity probe needs at least one radius")
    bad = [R for R in radii if not 0 < R < np.inf]
    if bad:
        raise ValueError(f"coercivity radii must be finite and positive, got {bad[0]!r}")
    if samples_per_radius < 1:
        raise ValueError(f"samples per radius must be at least 1, got {samples_per_radius}")
    cause = _infeasibility(prob, u0.coeffs, "base point")
    if cause is not None:
        raise ValueError(cause)
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
