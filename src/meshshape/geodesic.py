"""Geodesics of the rank-one metric, integrated in Hamiltonian form.

With ``w(q)`` the penalty gradient at configuration ``q``, the metric is
``g(q) = I + w w^T`` and its inverse is available in closed form, so the
geodesic flow is the Hamiltonian flow of

    H(q, p) = 1/2 p^T g(q)^{-1} p = 1/2 (|p|^2 - (w.p)^2 / (1 + |w|^2)).

The position-first Stoermer-Verlet scheme is used; both half-steps are
implicit (H is not separable) and solved by plain fixed-point iteration.
The force ``dH/dq = grad w^T (c^2 / s^2 w - c / s p)``, with ``c = w.p`` and
``s = 1 + |w|^2``, is exact: ``grad w`` is the analytic penalty Hessian,
applied as a Hessian-vector product.  It is built once per step at the
midpoint, together with ``w``, so each momentum iteration costs one product
and no gradient evaluation.  Because the discrete flow is equivariant under
the time/velocity rescaling ``(V, h) -> (tau V, h/tau)``, the dyadic-time
snapshots of a single integration provide all the trial points of a
backtracking line search with factor one half.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import FixedPointDivergence
from .mesh import ConnectivityComplex, signed_areas
from .metrics import MetricSpec
from .penalty import penalty_gradient, penalty_hessian

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GeodesicConfig:
    num_steps: int = 1024
    fixed_point_tol: float = 1e-12
    fixed_point_max_iter: int = 50

    def __post_init__(self):
        n = self.num_steps
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("num_steps must be a power of two >= 2")


@dataclass
class GeodesicPath:
    """Snapshots at dyadic times (descending from 1) plus diagnostics."""

    snapshots: list  # list of (time, coords)
    initial_hamiltonian: float
    final_hamiltonian: float
    final_momentum: np.ndarray
    area_warnings: list = field(default_factory=list)

    def at_time(self, t: float) -> np.ndarray:
        for time, coords in self.snapshots:
            if abs(time - t) < 1e-15:
                return coords
        raise KeyError(f"no snapshot at t={t}")


def _inv_metric_apply(w, p):
    return p - w * ((w @ p) / (1.0 + w @ w))


def _hamiltonian(w, p):
    c = w @ p
    return 0.5 * (p @ p - c * c / (1.0 + w @ w))


def _fixed_point(update, start, tol, max_iter, what):
    x = start
    for _ in range(max_iter):
        x_new = update(x)
        if np.linalg.norm(x_new - x) <= tol * (1.0 + np.linalg.norm(x_new)):
            return x_new
        x = x_new
    raise FixedPointDivergence(f"{what} did not converge in {max_iter} iterations")


def integrate_geodesic(w_fn, hess_fn, coords: np.ndarray, velocity: np.ndarray, cfg: GeodesicConfig,
                       complex: ConnectivityComplex | None = None) -> GeodesicPath:
    """Integrate the geodesic with initial velocity over [0, 1].

    ``w_fn(coords) -> vec`` evaluates the gradient field defining the metric
    and ``hess_fn(coords)`` its derivative as a map ``v -> grad w v``, which
    must be symmetric.  Returns snapshots at every dyadic time ``2^-k``
    reachable with the step count, endpoint first.
    """
    shape = coords.shape
    q = coords.ravel().astype(float)
    v = np.asarray(velocity, dtype=float).ravel()
    w0 = w_fn(coords)
    p = v + w0 * (w0 @ v)  # initial momentum g(q) V
    h = 1.0 / cfg.num_steps
    h0 = _hamiltonian(w0, p)

    snap_steps = {}
    k = 0
    while True:
        step_index = cfg.num_steps >> k
        if step_index < 1:
            break
        snap_steps[step_index] = 0.5**k
        k += 1

    snapshots = []
    area_warnings = []
    for step in range(1, cfg.num_steps + 1):
        q_half = _fixed_point(
            lambda x: q + 0.5 * h * _inv_metric_apply(w_fn(x.reshape(shape)), p),
            q + 0.5 * h * _inv_metric_apply(w_fn(q.reshape(shape)), p),
            cfg.fixed_point_tol,
            cfg.fixed_point_max_iter,
            "position half-step",
        )
        qh_coords = q_half.reshape(shape)
        w = w_fn(qh_coords)
        s = 1.0 + w @ w
        hess = hess_fn(qh_coords)

        def force(x):
            c = w @ x
            return hess((c * c / (s * s)) * w - (c / s) * x)

        force0 = force(p)
        p = _fixed_point(
            lambda x: p - 0.5 * h * (force0 + force(x)),
            p - h * force0,
            cfg.fixed_point_tol,
            cfg.fixed_point_max_iter,
            "momentum step",
        )
        q = q_half + 0.5 * h * _inv_metric_apply(w, p)

        if step in snap_steps:
            snap_coords = q.reshape(shape).copy()
            t = snap_steps[step]
            snapshots.append((t, snap_coords))
            if complex is not None:
                min_area = float(np.min(signed_areas(snap_coords, complex.triangles)))
                if min_area <= 0.0:
                    area_warnings.append((t, min_area))
                    logger.warning(
                        "geodesic snapshot at t=%g has nonpositive area %g", t, min_area
                    )

    snapshots.sort(key=lambda item: -item[0])
    return GeodesicPath(
        snapshots=snapshots,
        initial_hamiltonian=h0,
        final_hamiltonian=_hamiltonian(w_fn(q.reshape(shape)), p),
        final_momentum=p,
        area_warnings=area_warnings,
    )


def _penalty_field(spec: MetricSpec, complex: ConnectivityComplex, fixed_mask=None):
    """``(w_fn, hess_fn)`` of the metric penalty gradient ``w = P grad phi``
    and its derivative ``P H P``, ``P`` zeroing the fixed vertices' DOFs."""
    free = None
    if fixed_mask is not None:
        free = ~np.repeat(np.asarray(fixed_mask, dtype=bool), 2)

    def w_fn(c):
        g = penalty_gradient(c, spec.qref, complex, spec.penalty)
        if free is not None:
            g = np.where(free, g, 0.0)
        return g

    def hess_fn(c):
        hess = penalty_hessian(c, spec.qref, complex, spec.penalty)
        if free is None:
            return hess
        return lambda v: np.where(free, hess(np.where(free, v, 0.0)), 0.0)

    return w_fn, hess_fn


def retract_geodesic(
    coords: np.ndarray,
    velocity: np.ndarray,
    spec: MetricSpec,
    cfg: GeodesicConfig,
    complex: ConnectivityComplex,
    fixed_mask: np.ndarray | None = None,
) -> GeodesicPath:
    """Exponential-map retraction for the rank-one metric.

    Integrates the geodesic starting at ``coords`` with the given velocity
    and returns the dyadic-time snapshots, so one integration serves a whole
    backtracking ladder with factor 0.5.
    """
    if spec.kind != "complete":
        raise ValueError("geodesic retraction requires the rank-one metric")
    w_fn, hess_fn = _penalty_field(spec, complex, fixed_mask)
    return integrate_geodesic(w_fn, hess_fn, coords, velocity, cfg, complex=complex)
