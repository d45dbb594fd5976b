"""The benchmark's workloads: their cases, how each is built and run, and its gate.

Every case is driven from outside through the public ``dpvi`` API (or
``dpvi.cli.main`` for ``configs``).  A case's ``run`` returns its result or
raises; its ``check`` re-examines the result and returns the problems found
(an empty list means the result passed the gate); its ``digest`` returns the
bytes that must repeat exactly when the case is run again with the same seed.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import dpvi
import dpvi.cli
import numpy as np
from dpvi.multifun import IntervalMultifunction

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "demos" / "configs"

# the double_phase_2d.yaml exponents, shared by both 2D workloads
EXPONENTS = ("1.8", "2.6", "max(0, x - 0.5)")

# mesh sizes; the tiny ladder exists only for the benchmark's self-test
SIZES = {
    "solve_2d": {"full": (64, 128, 256), "tiny": (4, 8)},
    # (n, f1, f2, k1, k2): obstacle.yaml lifted to 2D, then its interval variant
    "extremal_2d": {
        "full": ((32, "8", "8", "8", "8"), (64, "8", "8", "8", "8"), (16, "-1", "1", "1", "-1")),
        "tiny": ((4, "8", "8", "8", "8"),),
    },
}

# CLI command -> config block it needs; a config runs every command it has the block for
COMMANDS = {
    "solve": None,
    "extremal": "bounds",
    "verify": "bounds",
    "norm": "function",
    "probe-coercivity": None,
}

FEAS_TOL = 1e-12


def _problem_2d(n, constraint, f1, f2):
    mesh = dpvi.build_mesh(2, n)
    ed = dpvi.ExponentData.from_expressions(mesh, *EXPONENTS)
    op = dpvi.DoublePhaseOperator(mesh, ed)
    if constraint == "obstacle":
        cs = dpvi.ConstraintSet.obstacle(dpvi.fe_interpolate("-0.5", mesh))
    else:
        cs = dpvi.ConstraintSet.whole_space()
    return dpvi.VIProblem(op, cs, IntervalMultifunction(mesh, f1, f2))


def check_iterate(prob, u, eta, zeta, tol):
    """Gate for one returned iterate: finite, feasible, and a VI solution to ``tol``."""
    mesh = prob.mesh
    c = u.coeffs
    if not np.all(np.isfinite(c)):
        return ["iterate is not finite"]
    lo, hi = prob.constraint.bounds(mesh)
    problems = []
    if np.any(c < lo - FEAS_TOL) or np.any(c > hi + FEAS_TOL):
        problems.append("iterate violates the constraint bounds")
    if np.any(np.abs(c[mesh.gamma0_node_mask]) > FEAS_TOL):
        problems.append("iterate does not vanish on the essential boundary")
    if problems:
        return problems
    residual = dpvi.vi_residual(prob, u, eta, zeta)
    if not residual <= tol:
        problems.append(f"VI residual {residual:.3e} exceeds tolerance {tol:.1e}")
    return problems


def _selected(prob, u, rule):
    eta = prob.f.select(u, rule) if prob.f is not None else None
    zeta = prob.f_gamma.select(u, rule) if prob.f_gamma is not None else None
    return eta, zeta


class SolveCase:
    """``solve_vi`` on the whole-space double_phase_2d.yaml problem."""

    tol = 1e-9

    def __init__(self, n, seed):
        self.name = f"solve_2d.n{n}"
        self.prob = _problem_2d(n, "whole_space", "-1", "-1")
        self.opts = dpvi.SolverOptions(tol=self.tol, seed=seed)

    def run(self):
        u, eta, zeta, report = dpvi.solve_vi(self.prob, self.opts)
        if not report.converged:
            raise dpvi.SolverError(report.message)
        return u, eta, zeta

    def check(self, result):
        return check_iterate(self.prob, *result, self.tol)

    def digest(self, result):
        return result[0].coeffs.tobytes()


class ExtremalCase:
    """``construct_obstacle_bounds`` then ``extremal_pair`` on a 2D obstacle problem."""

    tol = 1e-10

    def __init__(self, n, f1, f2, k1, k2, seed):
        kind = "single" if f1 == f2 else "interval"
        self.name = f"extremal_2d.{kind}.n{n}"
        self.prob = _problem_2d(n, "obstacle", f1, f2)
        self.k1, self.k2 = k1, k2
        self.opts = dpvi.SolverOptions(tol=self.tol, max_iter=200, selection="midpoint",
                                       seed=seed)

    def run(self):
        oi = dpvi.construct_obstacle_bounds(self.prob, self.k1, self.k2, c_psi=0.1,
                                            margin=1e-3, opts=self.opts)
        if not oi.certified():
            raise dpvi.EnclosureError("constructed bounds failed their certificates")
        smallest, greatest, sset = dpvi.extremal_pair(self.prob, oi, self.opts)
        return oi, smallest, greatest, sset

    def check(self, result):
        oi, smallest, greatest, sset = result
        prob, tol = self.prob, self.tol
        problems = []
        if np.any(oi.lower.coeffs > oi.upper.coeffs):
            problems.append("bounds out of order")
        if np.any(smallest.coeffs > greatest.coeffs + 10 * tol):
            problems.append("smallest exceeds greatest")
        # the smallest is approached with upper selections, the greatest with lower
        n_small = len(sset.histories["smallest"])
        iterates = [(smallest, "upper"), (greatest, "lower")]
        iterates += [(u, "upper") for u in sset.members[:n_small]]
        iterates += [(u, "lower") for u in sset.members[n_small:]]
        for u, rule in iterates:
            if np.any(u.coeffs < oi.lower.coeffs - 10 * tol) or np.any(
                u.coeffs > oi.upper.coeffs + 10 * tol
            ):
                problems.append("iterate escapes the certified interval")
            problems += check_iterate(prob, u, *_selected(prob, u, rule), tol)
        return sorted(set(problems))

    def digest(self, result):
        oi, smallest, greatest, _ = result
        return b"".join(f.coeffs.tobytes() for f in (oi.lower, oi.upper, smallest, greatest))


class CliCase:
    """One shipped config through one CLI command, into a fresh output directory."""

    def __init__(self, config, command, seed, out_root):
        self.name = f"configs.{config.stem}.{command}"
        self.config = config
        self.command = command
        self.seed = seed
        self.out_root = out_root

    def run(self):
        out = self.out_root / self.name
        argv = [self.command, "--config", str(self.config), "--out", str(out),
                "--seed", str(self.seed)]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = dpvi.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {captured.getvalue().strip()[-200:]}")
        return out

    def check(self, out):
        if not out.is_dir() or not any(out.iterdir()):
            return ["exit 0 without artifacts"]
        return []

    def digest(self, out):
        return b"".join(
            path.name.encode() + b"\0" + path.read_bytes() + b"\0"
            for path in sorted(out.iterdir())
        )


def build(workload, seed, size, out_root):
    """Build every case of ``workload`` (the set-up the benchmark times).

    ``out_root`` must be a directory path not used before: each CLI case
    writes into its own new subdirectory of it, because reopening existing
    artifact files costs far more than creating new ones.
    """
    if workload == "solve_2d":
        return [SolveCase(n, seed) for n in SIZES[workload][size]]
    if workload == "extremal_2d":
        return [ExtremalCase(*row, seed) for row in SIZES[workload][size]]
    if workload == "configs":
        cases = []
        for config in sorted(CONFIG_DIR.glob("*.yaml")):
            cfg = dpvi.cli.load_config(config)
            dpvi.cli.build_problem(cfg)
            for command, block in COMMANDS.items():
                if block is None or block in cfg:
                    cases.append(CliCase(config, command, seed, out_root))
        return cases
    raise ValueError(f"unknown workload {workload!r}")
