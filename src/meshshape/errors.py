"""Exception hierarchy shared by all modules."""


class MeshShapeError(Exception):
    """Base class for all errors raised by this package."""


class NotPure(MeshShapeError):
    """A vertex (or edge) does not belong to any triangle."""


class NotTwoPathConnected(MeshShapeError):
    """The triangle adjacency graph is disconnected."""


class InconsistentOrientation(MeshShapeError):
    """An interior edge is induced twice with the same orientation."""


class EdgeOveruse(MeshShapeError):
    """An edge appears in more than two triangles."""


class DegenerateEdge(MeshShapeError):
    """An edge has (numerically) zero length."""


class NonpositiveArea(MeshShapeError):
    """A triangle has nonpositive signed area where positivity is required."""


class SingularSystem(MeshShapeError):
    """A linear solve failed or did not reach the required residual."""


class ParseError(MeshShapeError):
    """A mesh file is malformed."""


class NonDescentDirection(MeshShapeError):
    """The pairing of derivative and search direction is not negative."""


class FixedPointDivergence(MeshShapeError):
    """The constraint solve of the geodesic integrator did not converge."""


class StepFloorFailure(MeshShapeError):
    """Backtracking produced a trial step size below the failure threshold."""
