"""Geodesics of the rank-one metric, integrated as free motion on a graph.

With ``w = grad phi`` the gradient of the metric penalty, the metric
``g(q) = I + w w^T`` is the pullback of the Euclidean metric of ``R^{n+1}``
under ``q -> (q, phi(q))``.  Its geodesics are therefore the shadows of a
free particle on the hypersurface ``z = phi(q)``: one scalar holonomic
constraint and no potential.  RATTLE (Andersen, J. Comput. Phys. 52, 1983;
Hairer, Lubich and Wanner, *Geometric Numerical Integration*, ch. VII.1)
integrates that motion symplectically and keeps the constraint.  One step
of length ``h`` from ``(x, z)`` with velocity ``(v, v_z)`` and ``g = w(x)``:

1. ``x+ = x + h v + h^2/2 lam g`` and ``z+ = z + h v_z - h^2/2 lam``, the
   multiplier ``lam`` solving the scalar equation ``z+ = phi(x+)`` by
   simplified Newton with the slope ``-h^2/2 (1 + |g|^2)``, which takes
   penalty values only.  The residual ``r`` a solve accepts stays in ``z``
   as the next step's offset ``d = z - phi(x)`` (0 at the start).  A solve
   starts from ``d / slope`` plus ``5 l1 - 10 l2 + 10 l3 - 5 l4 + l5``, the
   quartic extrapolation of the last five steps' multipliers
   ``lam + (r - d) / slope``, freed of their offsets and residuals (over the
   first five steps, the extrapolation of lower degree through the ones
   there are; zero at the first);
2. one gradient ``g+ = w(x+)``;
3. the half-step velocity ``(u, u_z) = (v + h/2 lam g, v_z - h/2 lam)`` is
   projected onto the tangent space at ``x+``: ``v+ = u + mu g+`` and
   ``v_z+ = u_z - mu``, with ``mu = (u_z - g+.u) / (1 + |g+|^2)``.

The energy ``1/2 (|v|^2 + v_z^2)``, with ``v_z = w.v``, is the metric energy
``1/2 v^T g(q) v``.  A step depends on ``h v`` and ``h^2 lam`` only, so the
discrete flow is equivariant under the time/velocity rescaling
``(V, h) -> (tau V, h/tau)``, and the dyadic-time snapshots of a single
integration provide all the trial points of a backtracking line search with
factor one half.  So ``num_steps`` counts steps per unit metric length: the
optimizer scales each geodesic's steps to its speed (``_geodesic_ladder``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FixedPointDivergence, InvalidValue
from .mesh import ConnectivityComplex, free_dofs
from .metrics import COMPLETE, MetricSpec
from .penalty import PenaltyEvaluator, penalty_gradient, penalty_value

FIXED_POINT_TOL = 1e-12  # relative residual of the constraint solve
FIXED_POINT_MAX_ITER = 50  # Newton iterations per step
# The weights that extrapolate a step's multiplier from the last five smoothed ones, newest first, by
# the number of steps before it: the polynomial through all of them, of degree at most four, one step on
EXTRAPOLATION = ((0.0, 0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0), (2.0, -1.0, 0.0, 0.0, 0.0),
                 (3.0, -3.0, 1.0, 0.0, 0.0), (4.0, -6.0, 4.0, -1.0, 0.0), (5.0, -10.0, 10.0, -5.0, 1.0))


@dataclass(frozen=True)
class GeodesicConfig:
    num_steps: int = 1024

    def __post_init__(self):
        n = self.num_steps
        if n < 2 or (n & (n - 1)) != 0:
            raise InvalidValue("num_steps", n, "must be a power of two >= 2")


@dataclass
class GeodesicPath:
    """Snapshots at dyadic times plus diagnostics: ``levels[k]`` holds the
    coordinates at ``t = 2**-k``.  ``area_warnings`` is always empty; only
    perfbench reads it.  A snapshot of :func:`retract_geodesic` needs no area
    test: its penalty value, with a1 > 0, raises at a nonpositive area."""

    levels: list
    initial_hamiltonian: float
    final_hamiltonian: float
    area_warnings: list = field(default_factory=list)


def integrate_geodesic(phi_fn, w_fn, coords: np.ndarray, velocity: np.ndarray, cfg: GeodesicConfig) -> GeodesicPath:
    """Integrate the geodesic with initial velocity over [0, 1].

    ``phi_fn(coords) -> float`` evaluates the function whose graph carries
    the motion and ``w_fn(coords) -> vec`` its gradient.  Returns snapshots
    at every dyadic time ``2^-k`` reachable with the step count, by level
    ``k``, each a point whose ``phi_fn`` value a constraint solve accepted;
    no further test is made of them.  Raises :class:`FixedPointDivergence`
    when a constraint solve does not converge or meets a non-finite residual,
    and passes on what ``phi_fn`` and ``w_fn`` raise.
    """
    shape = coords.shape
    x = coords.ravel().astype(float)
    v = np.asarray(velocity, dtype=float).ravel()
    g = w_fn(coords)
    z, v_z = phi_fn(coords), g @ v
    h = 1.0 / cfg.num_steps
    h_half, h2 = 0.5 * h, 0.5 * h * h
    lam1 = lam2 = lam3 = lam4 = lam5 = 0.0  # the last five steps' smoothed multipliers, newest first
    offset = 0.0  # z - phi(x): the last accepted residual, 0 at the start where z = phi(q0)
    h0 = 0.5 * (v @ v + v_z * v_z)
    lift = 1.0 + g @ g  # 1 + |g|^2, for this step's slope and the last one's projection

    depth = cfg.num_steps.bit_length() - 1  # levels 0..depth, the last one after the first step
    levels = [None] * (depth + 1)
    for step in range(1, cfg.num_steps + 1):
        x_free, z_free = x + h * v, z + h * v_z
        slope = h2 * lift
        c1, c2, c3, c4, c5 = EXTRAPOLATION[min(step - 1, 5)]
        lam = c1 * lam1 + c2 * lam2 + c3 * lam3 + c4 * lam4 + c5 * lam5 + offset / slope
        for _ in range(FIXED_POINT_MAX_ITER):
            x_new, z_new = x_free + (h2 * lam) * g, z_free - h2 * lam
            q_new = x_new.reshape(shape)
            residual = z_new - phi_fn(q_new)
            if not math.isfinite(residual):
                raise FixedPointDivergence(f"non-finite constraint residual at step {step}")
            if abs(residual) <= FIXED_POINT_TOL * (1.0 + abs(z_new)):
                break
            lam += residual / slope
        else:
            raise FixedPointDivergence(
                f"constraint solve did not converge in {FIXED_POINT_MAX_ITER} iterations"
            )
        lam5, lam4, lam3, lam2, lam1 = lam4, lam3, lam2, lam1, lam + (residual - offset) / slope
        offset = residual
        u, u_z = v + (h_half * lam) * g, v_z - h_half * lam
        x, z = x_new, z_new
        g = w_fn(q_new)
        lift = 1.0 + g @ g
        mu = (u_z - g @ u) / lift
        v, v_z = u + mu * g, u_z - mu

        if step & (step - 1) == 0:  # t = step h = 2**-level
            levels[depth + 1 - step.bit_length()] = q_new.copy()

    return GeodesicPath(levels=levels, initial_hamiltonian=h0, final_hamiltonian=0.5 * (v @ v + v_z * v_z))


def _penalty_field(spec: MetricSpec, complex: ConnectivityComplex, fixed_mask=None):
    """``(phi_fn, w_fn)``: the metric penalty and its gradient ``w = P grad
    phi``, ``P`` zeroing the fixed vertices' DOFs."""
    free = free_dofs(fixed_mask)
    evaluator = PenaltyEvaluator(None, complex)  # the terms at the integration's points

    def phi_fn(c):
        return penalty_value(c, spec.qref, complex, spec.penalty, evaluator)

    def w_fn(c):
        g = penalty_gradient(c, spec.qref, complex, spec.penalty, evaluator)
        return g if free is None else np.where(free, g, 0.0)

    return phi_fn, w_fn


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
    if spec.kind != COMPLETE:
        raise ValueError("geodesic retraction requires the rank-one metric")
    phi_fn, w_fn = _penalty_field(spec, complex, fixed_mask)
    return integrate_geodesic(phi_fn, w_fn, coords, velocity, cfg)
