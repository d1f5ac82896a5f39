import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshshape import fem, optimizer
from meshshape.errors import NonDescentDirection, NonpositiveArea, SingularSystem, StepFloorFailure
from meshshape.fem import constant_rhs, model_rhs, solve_state
from meshshape.geodesic import GeodesicConfig
from meshshape.mesh import build_complex, make_disc_mesh, make_square5_mesh, signed_areas
from meshshape.optimizer import (
    CONVERGED,
    MAX_ITER,
    STEP_FLOOR_FAILURE,
    VARIANTS,
    WINDOW,
    OptimizerConfig,
    PhaseTimer,
    armijo_search,
    initial_step,
    safeguard_critical_step,
    steepest_descent,
    stopping_check,
)
from meshshape.penalty import PenaltyParams, penalty_gradient

from test_fem import _perturbed_disc

METRIC_ALPHA = PenaltyParams((10.0, 1.0, 0.0, 0.01))
ZERO = PenaltyParams((0.0, 0.0, 0.0, 0.0))


# -- initial step ------------------------------------------------------------

def test_initial_step_first_iteration():
    assert initial_step(0, None, None, -1.0, 2.0) == pytest.approx(0.5)


def test_initial_step_ratio_rule():
    assert initial_step(3, 1.0, -2.0, -1.0, 1.0) == pytest.approx(2.0)


def test_initial_step_reset_branch():
    # carried-over candidate too small relative to the direction norm
    s = initial_step(3, 1e-5, -1.0, -1.0, 1.0)  # candidate 1e-5 * 1 < 1e-4
    assert s == pytest.approx(1.0)


def test_initial_step_requires_descent():
    with pytest.raises(NonDescentDirection):
        initial_step(1, 1.0, -1.0, 0.0, 1.0)


@pytest.mark.parametrize("pairing,norm", [(np.nan, 1.0), (-1.0, np.nan), (-1.0, np.inf), (-1.0, 0.0)])
@pytest.mark.parametrize("n", [0, 3])
def test_initial_step_rejects_non_finite_input(n, pairing, norm):
    with pytest.raises(NonDescentDirection):
        initial_step(n, 1.0, -1.0, pairing, norm)


# -- safeguard ---------------------------------------------------------------

def test_safeguard_zero_direction(square5):
    cx, q = square5
    assert not (10.0 >= safeguard_critical_step(q, cx, np.zeros(2 * cx.num_vertices)))


def test_safeguard_threshold_arithmetic():
    cx = build_complex([(0, 1, 2)], 3)
    q = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.1]])  # min height 0.1 at vertex 2
    d = np.zeros(6)
    d[2 * 2] = 1.0  # move vertex 2 with unit speed
    assert 0.06 >= safeguard_critical_step(q, cx, d)  # 0.06 >= 0.05
    assert not (0.04 >= safeguard_critical_step(q, cx, d))


# -- armijo ------------------------------------------------------------------

def test_armijo_quadratic_oracle():
    # f(q) = 0.5 |q - target|^2, direction = negative Euclidean gradient with
    # unit norm: the closed-form Armijo condition accepts s=1 immediately.
    target = np.array([[1.0, 0.0]])
    coords = np.array([[0.0, 0.0]])

    def evaluate(c):
        return 0.5 * float(np.sum((c - target) ** 2))

    d = (target - coords).ravel()
    pairing = -float(d @ d)
    s, new, backtracks = armijo_search(
        evaluate, coords, None, d, 1.0, pairing, evaluate(coords)
    )
    assert s == 1.0
    assert backtracks == 0
    assert np.allclose(new, target)


def test_armijo_backtrack_count():
    # force two rejections by an evaluate that only accepts small steps
    coords = np.array([[0.0, 0.0]])
    d = np.array([1.0, 0.0])

    def evaluate(c):
        x = c[0, 0]
        return 0.0 if x <= 0.3 else 1.0  # flat then bad: accept first s <= 0.3

    s, _, backtracks = armijo_search(
        evaluate, coords, None, d, 1.0, -1e-12, 0.5
    )
    assert s == 0.25
    assert backtracks == 2


def test_armijo_rejects_flipping_trial(square5, monkeypatch):
    cx, q = square5
    d = np.zeros(2 * cx.num_vertices)
    d[2 * 4 + 1] = 10.0  # shoot the center far upward, flipping triangles

    def evaluate(c):
        return -1.0  # objective says yes, admissibility must refuse

    def straight(s, m):  # an explicit trial point: the area gate, not the safeguard, refuses
        return q + s * d.reshape(q.shape)

    monkeypatch.setattr(optimizer, "STEP_FLOOR", 1e-3)
    s, new, backtracks = armijo_search(
        evaluate, q, cx, d, 1.0, -1.0, 0.0, trial_point=straight
    )
    # accepted only once the center stays inside
    assert np.all(signed_areas(new, cx) > 0.0)
    assert backtracks >= 3


def test_armijo_diverging_retraction_counts_as_failure():
    from meshshape.errors import FixedPointDivergence

    coords = np.array([[0.0, 0.0]])
    d = np.array([1.0, 0.0])

    def trial(s, m):
        if m == 0:
            raise FixedPointDivergence("no convergence at full scale")
        return coords + s * d.reshape(1, 2)

    s, _, backtracks = armijo_search(
        lambda c: -1.0, coords, None, d, 1.0, -1.0, 0.0, trial_point=trial
    )
    assert s == 0.5
    assert backtracks == 1


def test_armijo_step_floor_failure():
    coords = np.array([[0.0, 0.0]])
    d = np.array([1.0, 0.0])

    def evaluate(c):
        return 1.0  # never acceptable

    with pytest.raises(StepFloorFailure):
        armijo_search(evaluate, coords, None, d, 1.0, -1.0, 0.0)


def test_armijo_nan_step_is_below_the_floor():
    coords = np.array([[0.0, 0.0]])
    d = np.array([1.0, 0.0])
    with pytest.raises(StepFloorFailure):
        armijo_search(lambda c: -1.0, coords, None, d, float("nan"), -1.0, 0.0)


def test_armijo_nan_treated_as_failure():
    coords = np.array([[0.0, 0.0]])
    d = np.array([1.0, 0.0])

    def evaluate(c):
        return float("nan") if c[0, 0] > 0.4 else -1.0

    s, _, _ = armijo_search(evaluate, coords, None, d, 1.0, -1.0, 0.0)
    assert s <= 0.4


# -- stopping ----------------------------------------------------------------

def test_stopping_constant_history():
    assert stopping_check([1.0] * 10, 5, 1e-12)


def test_stopping_strictly_decreasing():
    totals = [10.0 - n for n in range(10)]
    assert not stopping_check(totals, 5, 1e-6)


def test_stopping_small_decreases():
    totals = [1.0 - 5e-7 * n for n in range(10)]
    # max over the window is 5 * 5e-7 = 2.5e-6 >= 1e-6
    assert not stopping_check(totals, 5, 1e-6)
    assert stopping_check(totals, 5, 3e-6)


def test_stopping_needs_enough_history():
    assert not stopping_check([1.0, 1.0], 5, 1.0)


# -- full driver -------------------------------------------------------------

def test_stationary_at_reference():
    cx, q = make_square5_mesh()
    cfg = OptimizerConfig(variant="EucEuc", penalty=PenaltyParams((0, 0, 0, 1.0)), max_iter=10)
    res = steepest_descent(cx, q, constant_rhs(0.0), cfg)
    assert res.status == CONVERGED
    assert res.history[-1].iter == 0
    assert np.array_equal(res.final_coords, q)


def test_square5_fixed_boundary_symmetric_minimum():
    cx, q = make_square5_mesh()
    mask = np.zeros(5, dtype=bool)
    mask[cx.boundary_vertices] = True
    cfg = OptimizerConfig(
        variant="CompEuc",
        penalty=PenaltyParams((0.1, 0.01, 0.0, 0.01)),
        metric_penalty=METRIC_ALPHA,
        max_iter=100,
        fixed_vertex_mask=mask,
    )
    res = steepest_descent(cx, q, constant_rhs(1.0), cfg)
    assert res.status == CONVERGED
    assert np.max(np.abs(res.final_coords[4])) < 1e-3
    assert np.array_equal(res.final_coords[:4], q[:4])


def test_square5_landscape_scan():
    # Grid-scan oracle over the interior node: the penalized merit is finite
    # inside the square, blows up toward the boundary, is symmetric in both
    # axes, and makes the center a stationary point.  (The scan also shows
    # the global minimum sits off-center on the symmetry axis; the fixed-
    # boundary run converges to the center because it starts at that
    # stationary point.)
    from meshshape.fem import assemble, objective_value, solve_state
    from meshshape.penalty import penalty_value

    cx, q = make_square5_mesh()
    params = PenaltyParams((0.1, 0.01, 0.0, 0.01))
    rhs = constant_rhs(1.0)

    def merit(x, y):
        c = q.copy()
        c[4] = (x, y)
        if not np.all(signed_areas(c, cx) > 0):
            return np.inf
        sys_ = assemble(c, cx, rhs)
        return objective_value(c, cx, solve_state(sys_)) + penalty_value(c, q, cx, params)

    grid = np.linspace(-0.9, 0.9, 19)
    values = np.array([[merit(x, y) for x in grid] for y in grid])
    assert np.all(np.isfinite(values))
    assert np.allclose(values, values[:, ::-1], atol=1e-12)  # x symmetry
    assert np.allclose(values, values[::-1, :], atol=1e-12)  # y symmetry
    assert merit(0.0, 0.999) > 10 * values.min()  # blow-up near the edge
    h = 1e-5
    gx = (merit(h, 0.0) - merit(-h, 0.0)) / (2 * h)
    gy = (merit(0.0, h) - merit(0.0, -h)) / (2 * h)
    assert abs(gx) < 1e-8 and abs(gy) < 1e-8  # center is stationary


def test_monotone_descent_and_descent_pairing(disc3):
    cx, q = disc3
    cfg = OptimizerConfig(
        variant="CompEuc",
        penalty=PenaltyParams((1.0, 0.5, 0.0, 0.1)),
        metric_penalty=METRIC_ALPHA,
        max_iter=60,
        stop_tol=1e-6,
    )
    res = steepest_descent(cx, q, model_rhs(), cfg)
    totals = [r.total for r in res.history]
    assert all(a >= b - 1e-15 for a, b in zip(totals, totals[1:]))
    for rec in res.history:
        assert rec.theta >= 1.0
        if rec.step > 0.0:
            assert rec.grad_deriv_pairing < 0.0
    assert np.all(signed_areas(res.final_coords, cx) > 0.0)


def test_converged_status_satisfies_stopping_rule(disc3):
    cx, q = disc3
    cfg = OptimizerConfig(
        variant="EucEuc",
        penalty=PenaltyParams((1.0, 0.5, 0.0, 0.1)),
        max_iter=1000,
        stop_tol=1e-6,
    )
    res = steepest_descent(cx, q, model_rhs(), cfg)
    assert res.status == CONVERGED
    totals = [r.total for r in res.history]
    assert stopping_check(totals, WINDOW, cfg.stop_tol)


def test_unpenalized_euceuc_fails(disc3):
    cx, q = disc3
    cfg = OptimizerConfig(variant="EucEuc", penalty=ZERO, max_iter=2000, stop_tol=0.0)
    res = steepest_descent(cx, q, model_rhs(), cfg)
    assert res.status == STEP_FLOOR_FAILURE
    assert res.history[-1].theta > 10.0


# -- terminal records ----------------------------------------------------------

SET1 = PenaltyParams((1.0, 0.5, 0.0, 0.1))


def _fail_after(monkeypatch, name, iteration, visited, error=SingularSystem):
    """Make ``optimizer.<name>`` raise ``error`` from its first call after
    ``on_iterate(iteration, ...)``; returns that callback, which also
    appends each visited configuration to ``visited``."""
    wrapped = getattr(optimizer, name)

    def failing(*args, **kwargs):
        if len(visited) > iteration:
            raise error(f"{name} made to fail")
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(optimizer, name, failing)
    return lambda n, coords: visited.append(coords.copy())


def _terminal(res, status):
    """The terminal row, after checking the status, one row per visited
    iterate, and step 0 with no backtracks on the terminal row alone."""
    assert res.status == status
    assert [r.iter for r in res.history] == list(range(len(res.history)))
    assert all(r.step > 0.0 for r in res.history[:-1])
    last = res.history[-1]
    assert last.step == 0.0 and last.backtracks == 0
    assert np.isfinite(last.theta)
    return last


def test_terminal_record_after_a_failed_state_solve(disc3, monkeypatch):
    cx, q = disc3
    visited = []
    on_iterate = _fail_after(monkeypatch, "solve_state", 2, visited)
    cfg = OptimizerConfig(variant="EucEuc", penalty=SET1, max_iter=50)
    res = steepest_descent(cx, q, model_rhs(), cfg, on_iterate=on_iterate)
    last = _terminal(res, STEP_FLOOR_FAILURE)
    assert last.iter == 2
    assert np.isnan([last.objective, last.penalty, last.total, last.grad_deriv_pairing]).all()
    assert np.array_equal(res.final_coords, visited[2])


def test_terminal_record_after_a_failed_adjoint_solve(disc3, monkeypatch):
    # the adjoint is solved on the state's LU; its checked solve, the one against minus the volume
    # weights of the system just assembled, fails from iteration 1 on
    cx, q = disc3
    visited, systems = [], []
    assemble, checked_solve = optimizer.assemble, fem.checked_solve

    def assembled(*args):
        systems.append(assemble(*args))
        return systems[-1]

    def failing(a, lu, b):
        adjoint = np.array_equal(b, -systems[-1].volume_weights[systems[-1].interior])
        return None if adjoint and len(visited) > 1 else checked_solve(a, lu, b)

    monkeypatch.setattr(optimizer, "assemble", assembled)
    monkeypatch.setattr(fem, "checked_solve", failing)
    on_iterate = lambda n, coords: visited.append(coords.copy())
    cfg = OptimizerConfig(variant="EucEuc", penalty=SET1, max_iter=50)
    res = steepest_descent(cx, q, model_rhs(), cfg, on_iterate=on_iterate)
    last = _terminal(res, STEP_FLOOR_FAILURE)
    assert last.iter == 1
    assert np.isfinite([last.objective, last.penalty, last.total]).all()
    assert last.total == last.objective + last.penalty
    assert np.isnan(last.grad_deriv_pairing)
    assert np.array_equal(res.final_coords, visited[1])


def test_terminal_record_after_a_failed_metric(disc3, monkeypatch):
    cx, q = disc3
    visited = []
    on_iterate = _fail_after(monkeypatch, "MetricOperator", 1, visited)
    cfg = OptimizerConfig(variant="ElasEuc", penalty=SET1, max_iter=50)
    res = steepest_descent(cx, q, model_rhs(), cfg, on_iterate=on_iterate)
    last = _terminal(res, STEP_FLOOR_FAILURE)
    assert last.iter == 1
    assert np.isfinite([last.objective, last.penalty, last.total]).all()
    assert last.total == last.objective + last.penalty
    assert np.isnan(last.grad_deriv_pairing)
    assert np.array_equal(res.final_coords, visited[1])


def test_terminal_record_after_a_non_descent_direction(disc3, monkeypatch):
    cx, q = disc3
    visited = []
    on_iterate = _fail_after(monkeypatch, "initial_step", 1, visited, error=NonDescentDirection)
    cfg = OptimizerConfig(variant="EucEuc", penalty=SET1, max_iter=50)
    res = steepest_descent(cx, q, model_rhs(), cfg, on_iterate=on_iterate)
    last = _terminal(res, STEP_FLOOR_FAILURE)
    assert last.iter == 1
    assert np.isfinite([last.objective, last.penalty, last.total, last.grad_deriv_pairing]).all()
    assert np.array_equal(res.final_coords, visited[1])


def test_terminal_record_at_the_step_floor(disc3, monkeypatch):
    # a floor above every initial step 1 / |d| fails the first line search
    cx, q = disc3
    monkeypatch.setattr(optimizer, "STEP_FLOOR", 1e9)
    cfg = OptimizerConfig(variant="EucEuc", penalty=SET1)
    res = steepest_descent(cx, q, model_rhs(), cfg)
    last = _terminal(res, STEP_FLOOR_FAILURE)
    assert last.iter == 0 and np.isfinite(last.total)
    assert np.isfinite(last.grad_deriv_pairing) and last.grad_deriv_pairing < 0.0
    assert np.array_equal(res.final_coords, q)


@pytest.mark.parametrize("penalty", [ZERO, SET1], ids=["unpenalized", "penalized"])
def test_a_start_with_a_nonpositive_area_ends_with_a_status(penalty):
    cx, q = make_disc_mesh(2)
    q[0] = (0.9, 0.0)  # the centre moved past its ring: some triangle turns over
    assert not np.all(signed_areas(q, cx) > 0.0)
    res = steepest_descent(cx, q, model_rhs(), OptimizerConfig(variant="EucEuc", penalty=penalty))
    assert res.status == STEP_FLOOR_FAILURE
    (last,) = res.history
    assert last.iter == 0 and last.step == 0.0 and last.backtracks == 0
    assert np.isnan([last.theta, last.objective, last.penalty, last.total, last.grad_deriv_pairing]).all()
    assert np.array_equal(res.final_coords, q)


def test_terminal_record_at_max_iter(disc3):
    cx, q = disc3
    cfg = OptimizerConfig(variant="EucEuc", penalty=SET1, max_iter=3)
    last = _terminal(steepest_descent(cx, q, model_rhs(), cfg), MAX_ITER)
    assert last.iter == 3 and np.isfinite(last.total)
    assert np.isnan(last.grad_deriv_pairing)


def test_terminal_records_on_convergence(disc3):
    # the totals stall over the window
    cx, q = disc3
    cfg = OptimizerConfig(variant="EucEuc", penalty=SET1, max_iter=1000)
    res = steepest_descent(cx, q, model_rhs(), cfg)
    last = _terminal(res, CONVERGED)
    assert stopping_check([r.total for r in res.history], WINDOW, cfg.stop_tol)
    assert np.isfinite(last.total) and np.isnan(last.grad_deriv_pairing)
    # the derivative vanishes at the symmetric center
    cx, q = make_square5_mesh()
    cfg = OptimizerConfig(variant="EucEuc", penalty=PenaltyParams((0, 0, 0, 1.0)))
    last = _terminal(steepest_descent(cx, q, constant_rhs(0.0), cfg), CONVERGED)
    assert last.iter == 0 and np.isfinite(last.total)
    assert np.isnan(last.grad_deriv_pairing)


def test_variants_agree_at_stationary_point():
    cx, q = make_square5_mesh()
    configs = [
        OptimizerConfig(variant="EucEuc", penalty=PenaltyParams((0, 0, 0, 1.0)), max_iter=5),
        OptimizerConfig(variant="ElasEuc", penalty=PenaltyParams((0, 0, 0, 1.0)), max_iter=5),
        OptimizerConfig(
            variant="CompEuc",
            penalty=PenaltyParams((0, 0, 0, 1.0)),
            metric_penalty=METRIC_ALPHA,
            max_iter=5,
        ),
    ]
    for cfg in configs:
        res = steepest_descent(cx, q, constant_rhs(0.0), cfg)
        assert res.status == CONVERGED
        assert np.array_equal(res.final_coords, q)


def test_compcomp_runs_with_geodesic_ladder():
    cx, q = make_disc_mesh(1)
    cfg = OptimizerConfig(
        variant="CompComp",
        penalty=ZERO,
        metric_penalty=METRIC_ALPHA,
        max_iter=3,
        stop_tol=0.0,
        geodesic=GeodesicConfig(num_steps=64),
    )
    res = steepest_descent(cx, q, model_rhs(), cfg)
    assert res.status == MAX_ITER
    assert len(res.history) == 4
    assert all(r.step > 0 for r in res.history[:-1])
    assert np.all(signed_areas(res.final_coords, cx) > 0.0)


def test_compcomp_with_boundary_term_in_the_metric(monkeypatch):
    # a3 > 0 puts the boundary term's Hessian into the geodesic force
    paths = []
    retract = optimizer.retract_geodesic

    def recording_retract(*args, **kwargs):
        paths.append(retract(*args, **kwargs))
        return paths[-1]

    monkeypatch.setattr(optimizer, "retract_geodesic", recording_retract)
    cx, q = make_disc_mesh(1)
    cfg = OptimizerConfig(
        variant="CompComp",
        penalty=ZERO,
        metric_penalty=PenaltyParams((10.0, 1.0, 0.1, 0.01)),
        max_iter=2,
        stop_tol=0.0,
        # the first integration drifts by 4.6e-4 with 64 steps, 2.2e-5 with
        # 256 and 5.4e-6 with 512 (second order in the step)
        geodesic=GeodesicConfig(num_steps=512),
    )
    iterates = []
    res = steepest_descent(cx, q, model_rhs(), cfg, on_iterate=lambda n, c: iterates.append(c))
    assert res.status == MAX_ITER
    assert len(iterates) == 3
    assert all(np.all(signed_areas(c, cx) > 0.0) for c in iterates)
    assert paths
    for path in paths:
        assert not path.area_warnings
        drift = abs(path.final_hamiltonian - path.initial_hamiltonian) / abs(path.initial_hamiltonian)
        assert drift <= 1e-5


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(VARIANTS))
def test_every_accepted_iterate_has_positive_areas(seed, variant):
    # unpenalized, where nothing but the line search's gates keeps the
    # triangles from flipping
    if variant == "CompComp":
        cx, q = _perturbed_disc(1, seed)
        geodesic = GeodesicConfig(num_steps=64)
    else:
        cx, q = _perturbed_disc(2, seed)
        geodesic = GeodesicConfig()
    cfg = OptimizerConfig(
        variant=variant,
        penalty=ZERO,
        metric_penalty=METRIC_ALPHA,
        max_iter=6,
        stop_tol=0.0,
        geodesic=geodesic,
    )
    visited = []

    def on_iterate(n, coords):
        assert np.all(signed_areas(coords, cx) > 0.0), f"iterate {n}"
        visited.append(n)

    res = steepest_descent(cx, q, model_rhs(), cfg, on_iterate=on_iterate)
    assert res.status == MAX_ITER  # not ended by the accepted-iterate check
    assert visited == [r.iter for r in res.history]


def test_geodesic_ladder_relaunches_after_exhaustion():
    # with num_steps = 4 the first integration stores only levels 0..2, and
    # reads 0 and 1; a deeper trial comes from a fresh integration at its scale
    from meshshape.metrics import MetricOperator, MetricSpec
    from meshshape.optimizer import PhaseTimer, _geodesic_ladder

    cx, q = make_disc_mesh(1)
    spec = MetricSpec.complete(METRIC_ALPHA, q.copy())
    rng = np.random.default_rng(2)
    d = 0.05 * rng.standard_normal(2 * cx.num_vertices)
    cfg = OptimizerConfig(
        variant="CompComp",
        penalty=ZERO,
        metric_penalty=METRIC_ALPHA,
        geodesic=GeodesicConfig(num_steps=4),
    )
    speed = MetricOperator(spec, q, cx).norm(d)  # with 4 steps every integration takes 4
    trial = _geodesic_ladder(q, d, 1.0, speed, spec, cfg, cx, None, PhaseTimer())
    deep = trial(1.0 * 0.5**3, 3)  # level 3 > max level 2
    from meshshape.geodesic import retract_geodesic

    direct = retract_geodesic(q, 0.125 * d, spec, GeodesicConfig(num_steps=4), cx)
    assert np.max(np.abs(deep - direct.levels[0])) < 1e-12
    shallow = trial(1.0, 0)
    assert np.max(np.abs(shallow - retract_geodesic(q, d, spec, GeodesicConfig(num_steps=4), cx).levels[0])) < 1e-12


def test_each_geodesic_takes_steps_for_its_metric_speed(monkeypatch):
    # unpenalized CompComp on disc:2, whose metric speeds fall to 0.05-0.25 from iteration 4: each
    # integration takes the fewest power-of-two steps covering speed * num_steps, within [4, num_steps]
    integrations, iteration = [], []
    retract = optimizer.retract_geodesic

    def recorded(coords, velocity, spec, cfg, complex, fixed_mask=None):
        w = penalty_gradient(coords, spec.qref, complex, spec.penalty)
        speed = float(np.sqrt(velocity @ velocity + (w @ velocity) ** 2))
        integrations.append((iteration[-1], speed, cfg.num_steps))
        return retract(coords, velocity, spec, cfg, complex, fixed_mask)

    monkeypatch.setattr(optimizer, "retract_geodesic", recorded)
    cx, q = make_disc_mesh(2)
    num_steps = GeodesicConfig.num_steps
    cfg = OptimizerConfig(variant="CompComp", penalty=ZERO, metric_penalty=METRIC_ALPHA, max_iter=12, stop_tol=0.0)
    res = steepest_descent(cx, q, model_rhs(), cfg, on_iterate=lambda n, c: iteration.append(n))
    assert res.status == MAX_ITER
    for _, speed, steps in integrations:
        assert 4 <= steps <= num_steps and steps & (steps - 1) == 0
        # the speed is recomputed here, so a power of two it meets exactly may round either way
        assert steps == num_steps or speed * num_steps <= steps * (1 + 1e-9)
        assert steps == 4 or speed * num_steps > steps / 2 * (1 - 1e-9)
    assert integrations[0][0] == 0 and integrations[0][2] == num_steps  # iteration 0 runs at unit speed
    assert min(steps for _, _, steps in integrations) < num_steps


def test_geodesic_ladder_rejects_an_inverting_integration(monkeypatch):
    # with 4 steps the first integration's penalty meets a nonpositive area: its trials are
    # rejected and the search backtracks to a fresh integration, instead of ending the run
    raised = []

    def recorded(*args, **kwargs):
        try:
            return retract(*args, **kwargs)
        except NonpositiveArea as exc:
            raised.append(exc)
            raise

    retract = optimizer.retract_geodesic
    monkeypatch.setattr(optimizer, "retract_geodesic", recorded)
    cx, q = make_disc_mesh(1)
    cfg = OptimizerConfig(variant="CompComp", penalty=ZERO, metric_penalty=METRIC_ALPHA, max_iter=6,
                          geodesic=GeodesicConfig(num_steps=4))
    res = steepest_descent(cx, q, model_rhs(), cfg)
    assert raised
    assert res.status == MAX_ITER and res.history[-1].iter == 6


def test_trial_solves_are_booked_under_backtracking(monkeypatch):
    # every state solve takes a fixed delay: `state` holds the top-of-loop solves, one per history
    # row, and `backtracking` the line search's
    delay, calls = 0.05, []

    def slow(system, **kwargs):
        calls.append(1)
        time.sleep(delay)
        return solve_state(system, **kwargs)

    monkeypatch.setattr(optimizer, "solve_state", slow)
    cx, q = make_disc_mesh(2)
    timer = PhaseTimer()
    res = steepest_descent(cx, q, model_rhs(), OptimizerConfig(variant="EucEuc", penalty=ZERO, max_iter=3),
                           timer=timer)
    tops = len(res.history)
    trials = len(calls) - tops
    assert trials >= tops - 1
    assert tops * delay <= timer.seconds["state"] < (tops + 1) * delay
    assert trials * delay <= timer.seconds["backtracking"] < (trials + 1) * delay


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_p1_factorization_per_state_solve(variant, monkeypatch):
    # every visited iterate solves its state and adjoint on one LU, every merit evaluation its state
    counts = {"splu": 0, "solve_state": 0, "merit": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    def search(evaluate, *args, **kwargs):
        return armijo_search(counted("merit", evaluate), *args, **kwargs)

    def adjoint_apart(*args, **kwargs):
        pytest.fail("steepest_descent solved the adjoint apart from the state")

    monkeypatch.setattr(fem, "splu", counted("splu", fem.splu))
    monkeypatch.setattr(optimizer, "solve_state", counted("solve_state", optimizer.solve_state))
    monkeypatch.setattr(optimizer, "armijo_search", search)
    monkeypatch.setattr(fem, "solve_adjoint", adjoint_apart)
    monkeypatch.setattr(optimizer, "solve_adjoint", adjoint_apart)
    if variant == "CompComp":
        (cx, q), penalty = make_disc_mesh(1), ZERO
    else:
        (cx, q), penalty = make_disc_mesh(3), SET1
    cfg = OptimizerConfig(variant=variant, penalty=penalty, metric_penalty=METRIC_ALPHA, max_iter=3)
    res = steepest_descent(cx, q, model_rhs(), cfg)
    assert res.status == MAX_ITER and len(res.history) == 4
    assert counts["merit"] >= 3
    assert counts["splu"] == counts["solve_state"] == len(res.history) + counts["merit"]
    if variant == "EucEuc":
        assert counts["splu"] == 11 - 3  # 11 with a factorization of its own for each iteration's adjoint


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(variant="NoSuch", penalty=ZERO)
    with pytest.raises(ValueError):
        OptimizerConfig(variant="CompEuc", penalty=ZERO)  # missing metric params
    # the weights MetricSpec.complete rejects are rejected with the configuration
    no_a4 = PenaltyParams((1.0, 1.0, 0.0, 0.0))
    for variant in ("CompEuc", "CompComp"):
        with pytest.raises(ValueError):
            OptimizerConfig(variant=variant, penalty=ZERO, metric_penalty=no_a4)
    OptimizerConfig(variant="ElasEuc", penalty=ZERO, metric_penalty=no_a4)  # its metric ignores them
