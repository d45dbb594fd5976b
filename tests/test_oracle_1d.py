"""1D whole-space solves against the discrete-exact oracle of ``oracle_1d``.

Tolerance.  A solve that stops at residual at most tol solves its nodal
equations up to r_i, |r_i| <= tol, so its element fluxes satisfy
g_(i-1) - g_i + f h = r_i and differ from the oracle's by
delta - (r_1 + ... + r_k), delta the difference on the first element.  Both
functions vanish at both ends, so their slopes differ with both signs unless
they agree, and the flux increases with the slope: |delta| <= (n - 1) tol.
Every element flux then lies within 2 (n - 1) tol of the oracle's, and the
solve within the oracle's ``bound`` for a flux error of 2 n tol, the last
2 tol for rounding.
"""

import argparse
from pathlib import Path

import numpy as np
import pytest

from dpvi.cli import build_problem, load_config, make_interval, solver_options
from dpvi.extremal import extremal_pair
from dpvi.mesh import build_mesh
from dpvi.multifun import IntervalMultifunction
from dpvi.operator import DoublePhaseOperator
from dpvi.spaces import ExponentData
from dpvi.visolve import ConstraintSet, SolverOptions, VIProblem, solve_vi, vi_residual
from oracle_1d import discrete_solution

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def _const(c):
    return lambda x: np.full_like(x, c)


# (p, q, mu) as dpvi expressions and as the oracle's functions of x
P3_Q4_MU_X = (("3", "4", "x"), (_const(3.0), _const(4.0), lambda x: x))
VARIABLE = (("1.5 + x", "3 - x", "1 + sin(3*x)"),
            (lambda x: 1.5 + x, lambda x: 3.0 - x, lambda x: 1.0 + np.sin(3.0 * x)))


def _flux_error(n, tol):
    return 2 * n * tol


@pytest.mark.parametrize("n", [16, 256])
@pytest.mark.parametrize("exponents, f", [(P3_Q4_MU_X, -1.0), (VARIABLE, 2.0)],
                         ids=["p3_q4_mu_x", "variable"])
def test_whole_space_solve_is_the_oracle_solution(n, exponents, f):
    (p, q, mu), functions = exponents
    tol = 1e-12
    mesh = build_mesh(1, n)
    op = DoublePhaseOperator(mesh, ExponentData.from_expressions(mesh, p, q, mu))
    prob = VIProblem(op, ConstraintSet.whole_space(), IntervalMultifunction(mesh, str(f), str(f)))
    u, _, _, report = solve_vi(prob, SolverOptions(tol=tol))
    assert report.converged, report.message
    expected, bound = discrete_solution(n, *functions, f, _flux_error(n, tol))
    assert np.max(np.abs(u.coeffs - expected)) <= bound


def test_lifted_interval_extremal_pair_is_the_oracle_pair():
    # interval_extremal.yaml (f in [-1, 1], whole space) at p = 3, q = 4, mu = x on
    # 1D n = 1024: the greatest solution takes f = -1 and the smallest f = +1
    n = 1024
    cfg = load_config(CONFIGS / "interval_extremal.yaml")
    cfg["mesh"]["n"] = n
    cfg["exponents"] = dict(zip(("p", "q", "mu"), P3_Q4_MU_X[0]))
    prob = build_problem(cfg)
    opts = solver_options(cfg, argparse.Namespace(tol=None, max_iter=None, selection=None,
                                                  seed=None))
    oi = make_interval(prob, cfg, opts, "extremal")
    smallest, greatest, _ = extremal_pair(prob, oi, opts)
    for u, f, rule in ((greatest, -1.0, "lower"), (smallest, 1.0, "upper")):
        assert vi_residual(prob, u, prob.f.select(u, rule)) <= opts.tol
        expected, bound = discrete_solution(n, *P3_Q4_MU_X[1], f, _flux_error(n, opts.tol))
        assert np.max(np.abs(u.coeffs - expected)) <= bound
