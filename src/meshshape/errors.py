"""Exception hierarchy shared by all modules."""


class InvalidValue(ValueError):
    """A parameter's value outside its range, read ``<name> <value> <rule>``;
    the command line names the option that gave the value instead."""

    def __init__(self, name: str, value, rule: str):
        super().__init__(f"{name} {value} {rule}")
        self.name, self.value, self.rule = name, value, rule


class MeshShapeError(Exception):
    """Base class for all errors raised by this package."""


class MalformedMesh(MeshShapeError):
    """A mesh that cannot be built: a malformed file or invalid connectivity."""


class InadmissibleMesh(MeshShapeError):
    """A mesh that fails ``mesh.is_admissible``, as an input of a command."""


class NotPure(MalformedMesh):
    """A vertex (or edge) does not belong to any triangle."""


class NotTwoPathConnected(MalformedMesh):
    """The triangle adjacency graph is disconnected."""


class InconsistentOrientation(MalformedMesh):
    """An interior edge is induced twice with the same orientation."""


class EdgeOveruse(MalformedMesh):
    """An edge appears in more than two triangles."""


class DegenerateEdge(MeshShapeError):
    """An edge has (numerically) zero length."""


class NonpositiveArea(MeshShapeError):
    """A triangle has nonpositive signed area where positivity is required."""


class SingularSystem(MeshShapeError):
    """A linear solve failed or did not reach the required residual."""


class ParseError(MalformedMesh):
    """A mesh file is malformed."""


class NonDescentDirection(MeshShapeError):
    """The pairing of derivative and search direction is not negative."""


class FixedPointDivergence(MeshShapeError):
    """The constraint solve of the geodesic integrator did not converge."""


class StepFloorFailure(MeshShapeError):
    """Backtracking produced a trial step size below the failure threshold."""
