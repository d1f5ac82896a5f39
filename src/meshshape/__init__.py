"""Mesh-quality penalized shape optimization on planar triangular meshes."""

from .mesh import (
    ConnectivityComplex,
    build_complex,
    is_admissible,
    make_disc_mesh,
    make_square5_mesh,
)
from .penalty import (
    PenaltyParams,
    mesh_quality,
    penalty_gradient,
    penalty_value,
)
from .fem import (
    AssembledSystem,
    RhsField,
    assemble,
    constant_rhs,
    model_rhs,
    objective_value,
    shape_derivative,
    solve_adjoint,
    solve_state,
)
from .metrics import MetricSpec, retract_euclidean
from .geodesic import GeodesicConfig, retract_geodesic
from .optimizer import (
    IterationRecord,
    OptimizerConfig,
    RunResult,
    steepest_descent,
)

__version__ = "0.1.0"
