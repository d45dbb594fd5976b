"""Finite-element solvers for multi-valued variational inequalities driven
by the variable-exponent double-phase operator.

The package is organized bottom-up:

* :mod:`dpvi.expr`     expression parsing for configuration data
* :mod:`dpvi.mesh`     interval/triangle meshes, P1 functions, assembly layouts
* :mod:`dpvi.spaces`   variable-exponent modulars and Luxemburg norms
* :mod:`dpvi.operator` the double-phase operator, energy, Jacobian
* :mod:`dpvi.multifun` interval reactions, truncation, penalty, compensators
* :mod:`dpvi.visolve`  constraint sets, semismooth active-set VI solver
* :mod:`dpvi.extremal` certificates, enclosure solves, extremal iterations
* :mod:`dpvi.cli`      configuration-driven batch interface
"""

from .expr import eval_expression, parse_expression
from .extremal import (
    CertificateReport,
    EnclosureError,
    OrderedInterval,
    SolutionSet,
    construct_obstacle_bounds,
    discontinuous_fixed_point,
    extremal_pair,
    solve_enclosed,
    verify_subsolution,
    verify_supersolution,
)
from .mesh import FeFunction, Mesh, build_mesh, fe_interpolate
from .multifun import (
    IntervalMultifunction,
    TruncationData,
    TwoArgIntervalMultifunction,
    assemble_source,
    compensator,
    cutoff,
    penalty,
    truncate_multifunction,
)
from .operator import DoublePhaseOperator
from .spaces import ExponentData, ModularKind, luxemburg_norm, modular, validate_exponents
from .visolve import (
    ConstraintSet,
    SolverError,
    SolverOptions,
    SolveReport,
    VIProblem,
    build_auxiliary,
    check_coercivity,
    solve_vi,
    vi_residual,
)

__version__ = "0.1.0"
