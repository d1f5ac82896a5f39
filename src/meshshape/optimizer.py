"""Steepest descent on the mesh manifold with Armijo backtracking.

Per iteration: solve state and adjoint on one factorization, form the
derivative of the penalized reduced objective, convert it to the negative
gradient of the chosen metric, line-search along the retraction and update.
Runs end when the objective stalls over a trailing window, the iteration cap
is reached, or a trial step size falls below the failure floor.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FixedPointDivergence,
    InvalidValue,
    MeshShapeError,
    NonDescentDirection,
    NonpositiveArea,
    SingularSystem,
    StepFloorFailure,
)
from .fem import (
    RhsField,
    assemble,
    objective_value,
    shape_derivative,
    solve_adjoint,  # uncalled: the adjoint shares solve_state's LU, but perfbench/tracing.py wraps this name
    solve_state,
    solved,
)
from .geodesic import GeodesicConfig, retract_geodesic
from .mesh import ConnectivityComplex, free_dofs, heights, signed_areas
from .metrics import MetricOperator, MetricSpec, check_complete_weights, retract_euclidean
from .penalty import PenaltyParams, mesh_quality, penalty_gradient, penalty_value

logger = logging.getLogger(__name__)

VARIANTS = ("EucEuc", "ElasEuc", "CompEuc", "CompComp")

CONVERGED = "Converged"
MAX_ITER = "MaxIter"
STEP_FLOOR_FAILURE = "StepFloorFailure"

SIGMA = 1e-4  # Armijo sufficient-decrease constant
TAU = 0.5  # backtracking factor; the geodesic ladder's dyadic snapshots need 1/2
STEP_FLOOR = 1e-6  # a trial step below this ends the run
WINDOW = 5  # iterations of the stopping rule's trailing window

PHASES = (
    "state",
    "dObjective",
    "dPenalization",
    "backtracking",
    "assemblyG",
    "gradient",
    "retraction",
)


class PhaseTimer:
    """Accumulates wall time per algorithm phase."""

    def __init__(self):
        self.seconds = {name: 0.0 for name in PHASES}

    @contextmanager
    def phase(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start


@dataclass
class OptimizerConfig:
    variant: str
    penalty: PenaltyParams
    metric_penalty: PenaltyParams | None = None
    max_iter: int = 100
    stop_tol: float = 1e-6
    fixed_vertex_mask: np.ndarray | None = None
    geodesic: GeodesicConfig = field(default_factory=GeodesicConfig)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        for name in ("max_iter", "stop_tol"):
            if not getattr(self, name) >= 0:
                raise InvalidValue(name, getattr(self, name), "must not be negative")
        if self.variant in ("CompEuc", "CompComp"):
            if self.metric_penalty is None:
                raise ValueError(f"{self.variant} requires metric penalty parameters")
            check_complete_weights(self.metric_penalty)

    @property
    def sigma(self) -> float:
        """The Armijo constant, ``SIGMA``; not settable."""
        return SIGMA


@dataclass
class IterationRecord:
    iter: int
    objective: float
    penalty: float
    total: float
    theta: float
    step: float
    backtracks: int
    grad_deriv_pairing: float


@dataclass
class RunResult:
    final_coords: np.ndarray
    status: str
    history: list


def initial_step(n, prev_step, prev_pairing, cur_pairing, grad_norm_metric):
    """Initial trial step: carry over the previous first-order decrease, resetting to ``1 / |d|``
    on the first iteration or when the carried-over step becomes tiny relative to the direction
    norm; raises unless the pairing is negative and the norm finite and positive (not NaN)."""
    if not (cur_pairing < 0.0 and 0.0 < grad_norm_metric < np.inf):
        raise NonDescentDirection(f"pairing {cur_pairing}, direction norm {grad_norm_metric} at iteration {n}")
    if n == 0:
        return 1.0 / grad_norm_metric
    candidate = prev_step * prev_pairing / cur_pairing
    if candidate * grad_norm_metric < 1e-4:
        return 1.0 / grad_norm_metric
    return candidate


def safeguard_critical_step(coords, complex: ConnectivityComplex, d) -> float:
    """Smallest step at which some vertex would travel at least half an
    incident height (inf if never)."""
    moves = np.linalg.norm(np.asarray(d, dtype=float).reshape(-1, 2), axis=1)
    tri_moves = moves[complex.triangles]  # (N_T, 3)
    h = heights(coords, complex)
    active = tri_moves > 0.0
    if not np.any(active):
        return np.inf
    return float(np.min(0.5 * h[active] / tri_moves[active]))


def stopping_check(totals, window: int, tol: float) -> bool:
    """True when the best decrease over the trailing window drops below tol."""
    if len(totals) <= window:
        return False
    current = totals[-1]
    past = totals[-1 - window : -1]
    return max(t - current for t in past) < tol


def armijo_search(
    evaluate,
    coords,
    complex,
    d,
    s_init,
    pairing,
    total0,
    *,
    trial_point=None,
):
    """Backtracking line search with admissibility and travel safeguards.

    ``evaluate(candidate_coords) -> float`` returns the merit value (may be
    non-finite, which counts as failure).  ``trial_point(s, m)`` maps the
    m-th trial step to candidate coordinates; the default is the straight
    line ``coords + s d``, and only that default is held to the half-height
    travel safeguard.  Returns ``(accepted step, new coords, number of
    rejected trials)``.
    """
    d = np.asarray(d, dtype=float)
    s_crit = np.inf
    if trial_point is None:
        def trial_point(s, m):
            return retract_euclidean(coords, d, s)

        if complex is not None:
            s_crit = safeguard_critical_step(coords, complex, d)

    s = s_init
    backtracks = 0
    while True:
        if not s >= STEP_FLOOR:  # a NaN step too
            raise StepFloorFailure(f"trial step {s:.3e} below floor {STEP_FLOOR:.3e}")
        ok = s < s_crit
        if ok:
            try:
                candidate = trial_point(s, backtracks)
            except FixedPointDivergence:
                ok = False  # retraction not computable at this scale
            else:
                if complex is not None and not np.all(
                    signed_areas(candidate, complex) > 0.0
                ):
                    ok = False
        if ok:
            value = evaluate(candidate)
            if np.isfinite(value) and value <= total0 + SIGMA * s * pairing:
                return s, candidate, backtracks
        s *= TAU
        backtracks += 1


def _metric_spec(config: OptimizerConfig, qref) -> MetricSpec:
    if config.variant == "EucEuc":
        return MetricSpec.euclidean()
    if config.variant == "ElasEuc":
        return MetricSpec.elasticity()
    return MetricSpec.complete(config.metric_penalty, qref)


def steepest_descent(
    complex: ConnectivityComplex,
    qref: np.ndarray,
    rhs: RhsField,
    config: OptimizerConfig,
    timer: PhaseTimer | None = None,
    on_iterate=None,
) -> RunResult:
    """Run the descent from the reference configuration.

    Records one row per visited iterate, and solves its state and adjoint on one LU.  The terminal
    row has step 0 and NaN for what its exit left uncomputed: everything at a start with a
    nonpositive area, everything but ``theta`` after a failed state solve, the pairing after a failed
    adjoint or metric solve and on ``Converged``/``MaxIter``.  Any :class:`MeshShapeError` raised
    inside an iteration (a nonpositive area at the start, a failed solve, a non-descent direction, a
    degenerate edge in the safeguard) ends the run as ``StepFloorFailure``, like a trial step below
    the floor.  All accepted iterates have strictly positive signed areas.
    """
    timer = timer if timer is not None else PhaseTimer()
    spec = _metric_spec(config, qref)
    mask = config.fixed_vertex_mask
    free = free_dofs(mask)

    coords = np.array(qref, dtype=float)
    history: list[IterationRecord] = []
    totals: list[float] = []
    prev_step = None
    prev_pairing = None

    def evaluate(q, adjoint=False):
        """State (with ``adjoint``, the pair of state and adjoint), objective and penalty of the configuration ``q``."""
        solution = solve_state(assemble(q, complex, rhs), adjoint=adjoint)
        y = solution[0] if adjoint else solution
        return solution, objective_value(q, complex, y), penalty_value(q, qref, complex, config.penalty)

    def merit(candidate):
        with timer.phase("backtracking"):
            try:
                _, j, phi = evaluate(candidate)
            except SingularSystem:
                return float("inf")
        return j + phi

    n = 0
    operator = None
    while True:
        j = phi = total = pairing = theta = float("nan")
        if on_iterate is not None:
            on_iterate(n, coords)
        try:
            theta = mesh_quality(coords, complex)
            with timer.phase("state"):
                (y, p), j, phi = evaluate(coords, adjoint=True)
            total = j + phi
            totals.append(total)

            if stopping_check(totals, WINDOW, config.stop_tol):
                status = CONVERGED
                break
            if n >= config.max_iter:
                status = MAX_ITER
                break

            with timer.phase("dObjective"):
                derivative = shape_derivative(coords, complex, y, solved(p), rhs)
            if not config.penalty.is_zero:
                with timer.phase("dPenalization"):
                    derivative = derivative + penalty_gradient(
                        coords, qref, complex, config.penalty
                    )
            if free is not None:
                derivative = np.where(free, derivative, 0.0)
            if np.linalg.norm(derivative) < 1e-12:
                status = CONVERGED
                break
            with timer.phase("assemblyG"):
                operator = MetricOperator(spec, coords, complex, fixed_mask=mask, previous=operator)
            with timer.phase("gradient"):
                d = -operator.solve(derivative)
            pairing = float(derivative @ d)
            s_init = initial_step(n, prev_step, prev_pairing, pairing, operator.norm(d))

            trial_point = None
            if config.variant == "CompComp":
                trial_point = _geodesic_ladder(
                    coords, d, s_init, spec, config, complex, mask, timer
                )
            s, new_coords, backtracks = armijo_search(
                merit, coords, complex, d, s_init, pairing, total, trial_point=trial_point
            )
            if not np.all(signed_areas(new_coords, complex) > 0.0):
                raise NonpositiveArea(f"accepted iterate {n + 1} has a nonpositive area")
        except MeshShapeError as exc:
            # a failed solve, line search or check ends the run at this iterate
            logger.warning("terminating: %s", exc)
            status = STEP_FLOOR_FAILURE
            break
        history.append(
            IterationRecord(n, j, phi, total, theta, s, backtracks, pairing)
        )
        coords = new_coords
        prev_step, prev_pairing = s, pairing
        n += 1

    history.append(IterationRecord(n, j, phi, total, theta, 0.0, 0, pairing))
    return RunResult(final_coords=coords, status=status, history=history)


def _geodesic_ladder(coords, d, s_init, spec, config, complex, mask, timer):
    """Trial-point source for the geodesic retraction.

    One integration with velocity ``s_init * d`` yields snapshots at the
    dyadic times matching the backtracking ladder (``TAU`` = 1/2).  Trial
    ``m``, step ``s_init / 2**m``, reads level ``m % depth`` of integration
    ``m // depth``, whose velocity is ``s_init * d`` scaled by
    ``2**-(start * depth)``; with ``depth = log2(num_steps)`` the deepest
    level is never read.  An integration that diverges or whose penalty
    meets a nonpositive area rejects its trials.
    """
    depth = config.geodesic.num_steps.bit_length() - 1
    paths = {}

    def trial_point(s, m):
        start, level = divmod(m, depth)
        if start not in paths:
            with timer.phase("retraction"):
                try:
                    paths[start] = retract_geodesic(
                        coords, s_init * 0.5 ** (start * depth) * np.asarray(d, dtype=float),
                        spec, config.geodesic, complex, fixed_mask=mask,
                    )
                except (FixedPointDivergence, NonpositiveArea):
                    paths[start] = None
        if paths[start] is None:
            raise FixedPointDivergence(f"no geodesic for trial {m}: it diverged or met a nonpositive area")
        return paths[start].levels[level]

    return trial_point
