"""Mesh-quality penalization and its analytic gradient.

The per-triangle quality reciprocal is

    (E0^2 + E1^2 + E2^2) / (4 sqrt(3) A),

which is bounded below by 1 with equality exactly for equilateral triangles.
The penalty combines its mesh average, the reciprocal total area, smoothed
reciprocal distances between boundary vertices and non-incident boundary
edges, and the squared Frobenius distance to a reference configuration.  The
gradient is exact (chain rule), in vec order ``[x_0, y_0, x_1, y_1, ...]``.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import NonpositiveArea
from .mesh import (
    SQRT3,
    ConnectivityComplex,
    Configuration,
    _AFTER_NEXT,
    _NEXT,
    PairDistances,
    configuration,
    scatter_add,
)


@dataclass(frozen=True)
class PenaltyParams:
    """Coefficients of the four penalty terms plus smoothing parameters.

    ``alpha = (a1, a2, a3, a4)`` weights, in order: mean quality reciprocal,
    reciprocal total area, boundary proximity, squared distance to the
    reference.  ``cutoff_threshold`` enables the C^3 cutoff on the boundary
    proximity term (zero below the threshold, identity above twice it).
    """

    alpha: tuple
    mu: float = 0.1
    cutoff_threshold: float | None = None

    def __post_init__(self):
        if len(self.alpha) != 4:
            raise ValueError("alpha must have four entries")
        if any(a < 0 for a in self.alpha):
            raise ValueError("alpha entries must be nonnegative")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.cutoff_threshold is not None and self.cutoff_threshold <= 0:
            raise ValueError("cutoff_threshold must be positive")

    @property
    def is_zero(self) -> bool:
        return all(a == 0.0 for a in self.alpha)


# ---------------------------------------------------------------------------
# Quality measure
# ---------------------------------------------------------------------------

def quality_reciprocals(coords: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Per-triangle sum of squared edge lengths over ``4 sqrt(3)`` times the area (>= 1)."""
    return configuration(coords, triangles).memo(_quality_reciprocals)


def _quality_reciprocals(record: Configuration) -> np.ndarray:
    if (record.areas <= 0.0).any():
        raise NonpositiveArea("quality measure requires positive areas")
    vals = (record.e * record.e).sum(axis=(1, 2)) / (4.0 * SQRT3 * record.areas)
    vals.setflags(write=False)
    return vals


def mesh_quality(coords: np.ndarray, complex: ConnectivityComplex) -> float:
    """Mean quality reciprocal over all triangles; 1 for all-equilateral meshes."""
    vals = quality_reciprocals(coords, complex.triangles)
    return float(vals.sum() / vals.size)


# ---------------------------------------------------------------------------
# C^3 cutoff
# ---------------------------------------------------------------------------
#
# chi(s) = 0 on [0, sl], chi(s) = s on [2 sl, inf); in between the unique
# degree-7 polynomial in u = s/sl - 1 matching value and first three
# derivatives at both ends: sl * (55 u^4 - 129 u^5 + 106 u^6 - 30 u^7).

_CUTOFF_COEFFS = (55.0, -129.0, 106.0, -30.0)


def cutoff(s, threshold: float):
    s = np.asarray(s, dtype=float)
    u = np.clip(s / threshold - 1.0, 0.0, 1.0)
    c4, c5, c6, c7 = _CUTOFF_COEFFS
    blend = threshold * u**4 * (c4 + u * (c5 + u * (c6 + u * c7)))
    return np.where(s >= 2.0 * threshold, s, np.where(s <= threshold, 0.0, blend))


def cutoff_prime(s, threshold: float):
    s = np.asarray(s, dtype=float)
    u = np.clip(s / threshold - 1.0, 0.0, 1.0)
    c4, c5, c6, c7 = _CUTOFF_COEFFS
    blend = u**3 * (4 * c4 + u * (5 * c5 + u * (6 * c6 + u * 7 * c7)))
    return np.where(s >= 2.0 * threshold, 1.0, np.where(s <= threshold, 0.0, blend))


# ---------------------------------------------------------------------------
# Penalty value
# ---------------------------------------------------------------------------

def _area_term(areas):
    total = areas.sum()
    if total <= 0.0:
        raise NonpositiveArea("total mesh area must be positive")
    return 1.0 / total


def _boundary_distances(record: Configuration, complex: ConnectivityComplex, mu: float) -> PairDistances:
    """The boundary pairs' smoothed distances, kept for the gradient at the same configuration."""
    return PairDistances(record.p.reshape(-1, 2), complex.boundary_pair_slots, mu)


def _boundary_term(record, complex, params):
    if complex.boundary_pairs.shape[0] == 0:
        return 0.0
    recip = 1.0 / record.memo(_boundary_distances, complex, params.mu).dist
    if params.cutoff_threshold is not None:
        recip = cutoff(recip, params.cutoff_threshold)
    return float(recip.sum()) / _boundary_scale(complex)


def penalty_value(
    coords: np.ndarray,
    qref: np.ndarray,
    complex: ConnectivityComplex,
    params: PenaltyParams,
) -> float:
    """Evaluate the mesh-quality penalty at ``coords`` with reference ``qref``."""
    a1, a2, a3, a4 = params.alpha
    value = 0.0
    if a1 != 0.0 or a2 != 0.0 or a3 != 0.0:
        record = configuration(coords, complex.triangles)
    if a1 != 0.0:
        vals = record.memo(_quality_reciprocals)
        value += a1 * (vals.sum() / vals.size)  # np.mean's value, without its dispatch
    if a2 != 0.0:
        value += a2 * _area_term(record.areas)
    if a3 != 0.0:
        value += a3 * _boundary_term(record, complex, params)
    if a4 != 0.0:
        diff = coords - qref
        value += 0.5 * a4 * float((diff * diff).sum())
    return value


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

_HALF_ROT90 = np.array([-0.5, 0.5])  # (x, y) -> (-y, x) / 2 on reversed components


def _boundary_scale(complex):
    return len(complex.boundary_edges) * len(complex.boundary_vertices)


def _area_and_quality_slopes(record: Configuration):
    """Per-triangle derivatives of the area and the quality reciprocal, (N_T, 3, 2) each."""
    p, e, areas = record.p, record.e, record.areas
    vals = record.memo(_quality_reciprocals)  # raises on nonpositive areas
    # d area / d p_l = 0.5 * rot90(e_l), rot90 (x,y) -> (-y,x); adding 0.0 turns
    # -0.0 into 0.0, as the matrix product 0.5 * e @ rot90.T it replaces did
    darea = np.multiply(e[..., ::-1], _HALF_ROT90, order="C")
    darea += 0.0
    # d ssq / d p_l = 2 (2 p_l - p_{l+1} - p_{l+2})
    dssq = 2.0 * (2.0 * p - p[:, _NEXT] - p[:, _AFTER_NEXT])
    denom = 4.0 * SQRT3 * areas
    dquality = (dssq - (4.0 * SQRT3 * vals)[:, None, None] * darea) / denom[:, None, None]
    for a in (darea, dquality):
        a.setflags(write=False)
    return darea, dquality


def penalty_gradient(
    coords: np.ndarray,
    qref: np.ndarray,
    complex: ConnectivityComplex,
    params: PenaltyParams,
) -> np.ndarray:
    """Exact gradient of :func:`penalty_value` in vec order (length ``2 N_V``)."""
    a1, a2, a3, a4 = params.alpha
    terms = []  # (vec DOFs, contributions), summed in this order
    if a1 != 0.0 or a2 != 0.0 or a3 != 0.0:
        record = configuration(coords, complex.triangles)
    if a1 != 0.0 or a2 != 0.0:
        darea, dquality = record.memo(_area_and_quality_slopes)
        if a1 != 0.0:
            terms.append((complex.vertex_dofs, (a1 / complex.num_triangles) * dquality))
        if a2 != 0.0:
            total = record.areas.sum()
            terms.append((complex.vertex_dofs, (-a2 / total**2) * darea))
    if a3 != 0.0 and complex.boundary_pairs.shape[0] > 0:
        distances = record.memo(_boundary_distances, complex, params.mu)
        dist, ddist = distances.dist, distances.gradients()
        # d/dd chi(1/d) = -chi'(1/d) / d^2, chi the identity without cutoff
        slope = -1.0 / dist**2
        if params.cutoff_threshold is not None:
            slope = slope * cutoff_prime(1.0 / dist, params.cutoff_threshold)
        w = (a3 / _boundary_scale(complex)) * slope
        terms.append((complex.boundary_pair_dofs, w[:, None] * ddist))

    n = 2 * complex.num_vertices
    grad = scatter_add(n, *terms) if terms else np.zeros(n)
    if a4 != 0.0:
        grad += a4 * (coords - qref).ravel()
    return grad
