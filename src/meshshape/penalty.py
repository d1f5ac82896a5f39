"""Mesh-quality penalization and its analytic gradient.

The per-triangle quality reciprocal is

    (E0^2 + E1^2 + E2^2) / (4 sqrt(3) A),

which is bounded below by 1 with equality exactly for equilateral triangles.
The penalty combines its mesh average, the reciprocal total area, smoothed
reciprocal distances between boundary vertices and non-incident boundary
edges, and the squared Frobenius distance to a reference configuration.  The
gradient is exact (chain rule), in vec order ``[x_0, y_0, x_1, y_1, ...]``.
At a point, the terms read one gather (:func:`~meshshape.mesh.gather_geometry`),
and the gradient is scattered once.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import InvalidValue, NonpositiveArea
from .mesh import (
    SQRT3,
    ConnectivityComplex,
    Configuration,
    PairDistances,
    configuration,
    gather_geometry,
    read_only,
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
        if len(self.alpha) != 4 or not all(0.0 <= a < np.inf for a in self.alpha):
            raise InvalidValue("alpha", self.alpha, "must give four finite, nonnegative weights")
        if not 0.0 < self.mu < np.inf:
            raise InvalidValue("mu", self.mu, "must be finite and positive")
        if self.cutoff_threshold is not None and not 0.0 < self.cutoff_threshold < np.inf:
            raise InvalidValue("cutoff_threshold", self.cutoff_threshold, "must be finite and positive")

    @property
    def is_zero(self) -> bool:
        return all(a == 0.0 for a in self.alpha)


# ---------------------------------------------------------------------------
# Quality measure
# ---------------------------------------------------------------------------

def mesh_quality(coords: np.ndarray, complex: ConnectivityComplex) -> float:
    """Mean quality reciprocal over all triangles; 1 for all-equilateral meshes."""
    vals = _terms(coords, complex).quality()
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
# The terms at a point
# ---------------------------------------------------------------------------

_HALF_ROT90 = np.array([-0.5, 0.5])  # (x, y) -> (-y, x) / 2 on reversed components


class PenaltyEvaluator:
    """The penalty's terms at one point of ``complex``, each computed once and
    read-only: at the configuration of a shared ``record``, which keeps them in
    its memo, or, with ``record`` None, at the throwaway point :meth:`at` last met."""

    def __init__(self, record: Configuration | None, complex: ConnectivityComplex):
        self.complex, self._key = complex, None
        if record is not None:  # the record's geometry
            self._x, self.e, self.areas, self.edges = record.x, record.e, record.areas, record.edges
            self.total, self._vals, self._distances = self.areas.sum(), None, None

    def at(self, coords: np.ndarray) -> "PenaltyEvaluator":
        """Moved to ``coords``, unless they have the bytes of the last point; the
        geometry is :func:`~meshshape.mesh.gather_geometry`'s, as a record's."""
        key = coords.tobytes()
        if key != self._key:
            self._x = x = np.frombuffer(key, coords.dtype)  # the point's own read-only copy
            self.e, self.areas, self.edges = gather_geometry(x, self.complex)
            self.total, self._vals, self._distances = self.areas.sum(), None, None
            self._key = key
        return self

    def quality(self) -> np.ndarray:
        if self._vals is None:
            if not self.areas.min() > 0.0:  # the test of Configuration.positive, NaN areas refused
                raise NonpositiveArea("quality measure requires positive areas")
            self._vals = read_only((self.e * self.e).sum(axis=(1, 2)) / (4.0 * SQRT3 * self.areas))
        return self._vals

    def area_quality_gradient(self, c1: float, c2: float) -> np.ndarray:
        """Derivatives of ``c1 * sum(quality()) + c2 * total`` by each triangle's vertices, (3, N_T, 2)
        in the order of ``cycle_dofs[:3]``.  With ``q = ssq / (k A)``, ``k = 4 sqrt(3)``, ``d ssq / d p_l
        = 2 (e_{l+1} - e_{l+2})`` and ``d A / d p_l = rot90(e_l) / 2``, the slope at ``p_l`` is
        ``u (e_{l+1} - e_{l+2}) + (c2 - k/2 q u) rot90(e_l) / 2`` with ``u = 2 c1 / (k A)``; those
        edges are rows 2:5, 0:3 and 1:4 of ``edges``."""
        vals, edges = self.quality(), self.edges  # raises on nonpositive areas
        u = (c1 / (2.0 * SQRT3)) / self.areas
        v = c2 - (vals * u) * (2.0 * SQRT3)
        slope = edges[2:5] - edges[0:3]
        slope *= u[:, None]
        slope += edges[1:4, :, ::-1] * (v[:, None] * _HALF_ROT90)
        return slope

    def distances(self, mu: float) -> PairDistances:
        """The boundary pairs' smoothed distances of width ``mu``; the last width's are kept."""
        if self._distances is None or self._distances.mu != mu:
            self._distances = PairDistances(self._x.reshape(-1, 2), self.complex.boundary_pairs, mu)
        return self._distances


def _terms(coords, complex, evaluator=None) -> PenaltyEvaluator:
    """The terms at ``coords``: from ``evaluator`` if given, else kept by the shared record of ``coords``."""
    if evaluator is None:
        return configuration(coords, complex).memo(PenaltyEvaluator, complex)
    return evaluator.at(coords)


# ---------------------------------------------------------------------------
# Penalty value and gradient
# ---------------------------------------------------------------------------

def _boundary_scale(complex):
    return len(complex.boundary_edges) * len(complex.boundary_vertices)


def penalty_value(
    coords: np.ndarray,
    qref: np.ndarray,
    complex: ConnectivityComplex,
    params: PenaltyParams,
    evaluator: PenaltyEvaluator | None = None,
) -> float:
    """Evaluate the mesh-quality penalty at ``coords`` with reference ``qref``, by ``evaluator`` if given."""
    a1, a2, a3, a4 = params.alpha
    value = 0.0
    if a1 != 0.0 or a2 != 0.0 or a3 != 0.0:
        terms = _terms(coords, complex, evaluator)
    if a1 != 0.0:
        vals = terms.quality()
        value += a1 * (vals.sum() / vals.size)  # np.mean's value, without its dispatch
    if a2 != 0.0:
        if not terms.total > 0.0:
            raise NonpositiveArea("total mesh area must be positive")
        value += a2 * (1.0 / terms.total)
    if a3 != 0.0 and complex.boundary_pairs.shape[0] > 0:
        recip = 1.0 / terms.distances(params.mu).dist
        if params.cutoff_threshold is not None:
            recip = cutoff(recip, params.cutoff_threshold)
        value += a3 * (float(recip.sum()) / _boundary_scale(complex))
    if a4 != 0.0:
        diff = coords - qref
        value += 0.5 * a4 * float((diff * diff).sum())
    return value


def penalty_gradient(
    coords: np.ndarray,
    qref: np.ndarray,
    complex: ConnectivityComplex,
    params: PenaltyParams,
    evaluator: PenaltyEvaluator | None = None,
) -> np.ndarray:
    """Exact gradient of :func:`penalty_value` in vec order (length ``2 N_V``)."""
    a1, a2, a3, a4 = params.alpha
    parts = []  # (vec DOFs, contributions), summed in this order
    if a1 != 0.0 or a2 != 0.0 or a3 != 0.0:
        terms = _terms(coords, complex, evaluator)
    if a1 != 0.0 or a2 != 0.0:
        slope = terms.area_quality_gradient(a1 / complex.num_triangles, -a2 / terms.total**2)
        parts.append((complex.cycle_dofs[:3], slope))
    if a3 != 0.0 and complex.boundary_pairs.shape[0] > 0:
        distances = terms.distances(params.mu)
        dist, ddist = distances.dist, distances.gradients()
        # d/dd chi(1/d) = -chi'(1/d) / d^2, chi the identity without cutoff
        slope = -1.0 / dist**2
        if params.cutoff_threshold is not None:
            slope = slope * cutoff_prime(1.0 / dist, params.cutoff_threshold)
        w = (a3 / _boundary_scale(complex)) * slope
        parts.append((complex.boundary_pair_dofs, w[:, None] * ddist))

    n = 2 * complex.num_vertices
    grad = scatter_add(n, *parts) if parts else np.zeros(n)
    if a4 != 0.0:
        grad += a4 * (coords - qref).ravel()
    return grad
