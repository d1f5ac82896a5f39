"""P1 finite elements for the Poisson model problem on a moving mesh.

State: -Laplace(y) = r with homogeneous Dirichlet conditions, discretized
with piecewise linear elements.  The load vector uses a one-point quadrature
rule at triangle centroids; this exact rule choice is deliberately shared
with the geometry derivative so that the discrete adjoint is the exact
derivative of the discrete reduced objective.  The SPD reduced stiffness is
stored on the complex's ``interior_p1_pattern``, whose ``kept`` DOFs are the interior
vertices in fill-reducing order: SuperLU factors its columns in that order, in symmetric
mode.  The assembled system is kept per vertex configuration; each call factors it afresh,
then runs ``mesh.checked_solve`` per right-hand side and scatters each solution through the pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import NonpositiveArea, SingularSystem
from .mesh import (PREORDERED_LU, ConnectivityComplex, Configuration, SparsePattern, checked_solve, configuration,
                   read_only, scatter_add, signed_areas)


@dataclass(frozen=True)
class RhsField:
    """Right-hand side with analytic gradient, both vectorized over points."""

    value: Callable
    gradient: Callable


def model_rhs() -> RhsField:
    """The built-in benchmark right-hand side
    ``r(x1, x2) = 2.5 (x1 + 0.4 - x2^2)^2 + x1^2 + x2^2 - 1``."""

    def value(x1, x2):
        w = x1 + 0.4 - x2**2
        return 2.5 * w**2 + x1**2 + x2**2 - 1.0

    def gradient(x1, x2):
        w = x1 + 0.4 - x2**2
        return 5.0 * w + 2.0 * x1, 2.0 * x2 * (1.0 - 5.0 * w)

    return RhsField(value=value, gradient=gradient)


def constant_rhs(c: float) -> RhsField:
    def value(x1, x2):
        return np.full_like(np.asarray(x1, dtype=float), c)

    def gradient(x1, x2):
        z = np.zeros_like(np.asarray(x1, dtype=float))
        return z, z.copy()

    return RhsField(value=value, gradient=gradient)


@dataclass(frozen=True)
class AssembledSystem:
    """Reduced stiffness on its pattern, centroid-rule load and volume weights, read-only."""

    reduced: sparse.csc_matrix  # P1 stiffness on the interior DOFs ``pattern.kept``, in that order
    load: np.ndarray
    volume_weights: np.ndarray  # integral of each nodal basis function
    pattern: SparsePattern


def assemble(coords: np.ndarray, complex: ConnectivityComplex, rhs: RhsField) -> AssembledSystem:
    """Assemble the reduced stiffness, load and volume weights on the current
    mesh, once per :class:`~meshshape.mesh.Configuration` and ``rhs``."""
    record = configuration(coords, complex)
    if not record.positive:
        raise NonpositiveArea("assembly requires positive areas")
    return record.memo(_assembled_system, complex, rhs)


def _assembled_system(record: Configuration, complex: ConnectivityComplex, rhs: RhsField) -> AssembledSystem:
    tris, n_v, areas, grads = complex.triangles, complex.num_vertices, record.areas, record.basis_gradients
    k_loc = areas[:, None, None] * np.einsum("tld,tmd->tlm", grads, grads)
    load = scatter_add(n_v, (tris, np.repeat(areas * record.memo(_centroid_rhs, rhs) / 3.0, 3)))
    weights = scatter_add(n_v, (tris, np.repeat(areas / 3.0, 3)))
    pattern = complex.interior_p1_pattern
    reduced = pattern.matrix(k_loc)
    read_only(reduced.data, load, weights)
    return AssembledSystem(reduced=reduced, load=load, volume_weights=weights, pattern=pattern)


def _centroid_rhs(record: Configuration, rhs: RhsField) -> np.ndarray:
    """The right-hand side at the triangle centroids (the load's quadrature points)."""
    centroids = record.centroids
    return read_only(np.asarray(rhs.value(centroids[:, 0], centroids[:, 1]), dtype=float))


def _reduced_solve(system: AssembledSystem, *rhs_full: np.ndarray) -> list:
    """Factor the reduced stiffness once, then solve each right-hand side: nodal solutions, None where one fails."""
    pattern = system.pattern
    if pattern.kept.size == 0:
        return [np.zeros_like(b) for b in rhs_full]
    try:
        lu = splu(system.reduced, **PREORDERED_LU)
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from exc
    solutions = [checked_solve(system.reduced, lu, b[pattern.kept]) for b in rhs_full]
    return [None if x is None else pattern.scattered(x, len(b)) for x, b in zip(solutions, rhs_full)]


def solved(x: np.ndarray | None) -> np.ndarray:
    """``x``, unless its checked solve failed (None) on an ill-conditioned, near-degenerate mesh."""
    if x is None:
        raise SingularSystem("P1 solve residual too large or non-finite")
    return x


def solve_state(system: AssembledSystem, adjoint: bool = False):
    """Nodal state, zero on the boundary; with ``adjoint``, ``(state, adjoint)`` on one LU, a failed adjoint None."""
    y, *p = _reduced_solve(system, system.load, *([-system.volume_weights] if adjoint else []))
    return (solved(y), *p) if adjoint else solved(y)


def solve_adjoint(system: AssembledSystem) -> np.ndarray:
    """Nodal adjoint values (right-hand side is minus the volume weights)."""
    return solved(_reduced_solve(system, -system.volume_weights)[0])


def objective_value(coords: np.ndarray, complex: ConnectivityComplex, y: np.ndarray) -> float:
    """Integral of the piecewise linear field ``y`` over the mesh (exact)."""
    areas = signed_areas(coords, complex)
    return float(np.sum(areas * y[complex.triangles].mean(axis=1)))


def shape_derivative(
    coords: np.ndarray,
    complex: ConnectivityComplex,
    y: np.ndarray,
    p: np.ndarray,
    rhs: RhsField,
) -> np.ndarray:
    """Derivative of the reduced objective w.r.t. every vertex coordinate.

    Entry ``i`` pairs the objective with the hat-field moving one coordinate
    of one vertex (vec order).  Integrands that are piecewise polynomial in
    the P1 fields are integrated exactly; factors involving the right-hand
    side use the same centroid rule as the load assembly.  The penalty
    gradient is *not* included here.
    """
    tris = complex.triangles
    record = configuration(coords, complex)
    if not record.positive:
        raise NonpositiveArea("derivative requires positive areas")
    areas = record.areas
    grads = record.basis_gradients  # (N_T, 3, 2): grad of hat at local vertex

    y_loc = y[tris]
    p_loc = p[tris]
    grad_y = np.einsum("tl,tld->td", y_loc, grads)
    grad_p = np.einsum("tl,tld->td", p_loc, grads)

    centroids = record.centroids
    r_c = record.memo(_centroid_rhs, rhs)
    rgx, rgy = rhs.gradient(centroids[:, 0], centroids[:, 1])
    r_grad = np.column_stack([np.asarray(rgx, dtype=float), np.asarray(rgy, dtype=float)])

    y_mean = y_loc.mean(axis=1)
    p_mean = p_loc.mean(axis=1)
    gy_dot_gp = np.sum(grad_y * grad_p, axis=1)

    # For direction = coordinate alpha of local vertex l (hat field V):
    #   div V = grads[t, l, alpha],  DV = e_alpha (x) grads[t, l, :].
    # contribution(t, l, alpha) =
    #     A ybar div V                                  (objective transport)
    #   + A [div V (gy . gp) - gy_alpha (G_l . gp) - gp_alpha (G_l . gy)]
    #   - A pbar [rgrad_alpha / 3 + r_c div V]          (load transport)
    g_dot_gp = np.einsum("tld,td->tl", grads, grad_p)
    g_dot_gy = np.einsum("tld,td->tl", grads, grad_y)

    contrib = (
        (areas * (y_mean + gy_dot_gp - p_mean * r_c))[:, None, None] * grads
        - areas[:, None, None] * grad_y[:, None, :] * g_dot_gp[:, :, None]
        - areas[:, None, None] * grad_p[:, None, :] * g_dot_gy[:, :, None]
        - ((areas * p_mean / 3.0)[:, None] * r_grad)[:, None, :]
    )

    return scatter_add(2 * complex.num_vertices, (complex.vertex_dofs, contrib))
