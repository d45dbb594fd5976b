"""Obstacle problem with a constant downward reaction.

Find u >= -1/2 on (0,1) with homogeneous Dirichlet data such that the
Laplacian balances the reaction 8 wherever the membrane is off the
obstacle.  The contact region is an interior band whose free boundary sits
at 1/(2 sqrt 2); the solver's active set recovers it to within one cell.
"""

from pathlib import Path

import numpy as np

from dpvi import (
    ConstraintSet,
    DoublePhaseOperator,
    ExponentData,
    FeFunction,
    IntervalMultifunction,
    SolverOptions,
    VIProblem,
    build_mesh,
    solve_vi,
    vi_residual,
)


def main():
    n = 64
    mesh = build_mesh(1, n)
    ed = ExponentData.from_expressions(mesh, "2", "3", "0")
    op = DoublePhaseOperator(mesh, ed)
    prob = VIProblem(
        op,
        ConstraintSet.obstacle(FeFunction.constant(mesh, -0.5)),
        IntervalMultifunction(mesh, "8", "8"),
    )
    u, eta, zeta, report = solve_vi(prob, SolverOptions(tol=1e-10))
    print(f"converged: {report.converged} after {report.newton_iterations} Newton steps")
    print(f"residual:  {report.residual:.3e}")
    print(f"min value: {u.coeffs.min():+.6f} (obstacle at -0.5)")

    active = np.flatnonzero(np.isclose(u.coeffs, -0.5, atol=1e-9))
    x = mesh.nodes[:, 0]
    print(f"contact region: [{x[active[0]]:.4f}, {x[active[-1]]:.4f}]")
    print(f"free boundary reference 1/(2*sqrt(2)) = {1 / (2 * np.sqrt(2)):.4f}")
    print(f"residual recheck: {vi_residual(prob, u, eta, zeta):.3e}")

    path = Path("out") / "obstacle_solution.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(u.to_csv(), encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
