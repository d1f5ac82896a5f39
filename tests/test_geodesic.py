import numpy as np
import pytest

from meshshape import geodesic
from meshshape.errors import FixedPointDivergence
from meshshape.fem import assemble, model_rhs, shape_derivative, solve_adjoint, solve_state
from meshshape.geodesic import GeodesicConfig, integrate_geodesic, retract_geodesic
from meshshape.metrics import MetricOperator, MetricSpec
from meshshape.mesh import make_disc_mesh
from meshshape.penalty import PenaltyParams, penalty_gradient

METRIC_ALPHA = PenaltyParams((10.0, 1.0, 0.0, 0.01))


def test_config_requires_power_of_two():
    with pytest.raises(ValueError):
        GeodesicConfig(num_steps=100)
    GeodesicConfig(num_steps=64)


def test_flat_field_gives_straight_line(disc2, rng):
    cx, q = disc2
    v = rng.standard_normal(2 * cx.num_vertices)
    cfg = GeodesicConfig(num_steps=32)
    zero = np.zeros(2 * cx.num_vertices)
    path = integrate_geodesic(lambda c: 0.0, lambda c: zero, q, v, cfg)
    end = path.levels[0]
    assert np.max(np.abs(end - (q + v.reshape(q.shape)))) < 1e-13
    # midpoint snapshot is the half step
    mid = path.levels[1]
    assert np.max(np.abs(mid - (q + 0.5 * v.reshape(q.shape)))) < 1e-13


def test_snapshots_are_dyadic(disc2, rng):
    # on the flat field, level k is the straight line at t = 2**-k, for every k down to one step
    cx, q = disc2
    v = rng.standard_normal(2 * cx.num_vertices)
    zero = np.zeros(2 * cx.num_vertices)
    path = integrate_geodesic(lambda c: 0.0, lambda c: zero, q, v, GeodesicConfig(num_steps=16))
    assert len(path.levels) == 5
    for k, coords in enumerate(path.levels):
        assert np.max(np.abs(coords - (q + 2.0**-k * v.reshape(q.shape)))) < 1e-13, k


def test_hamiltonian_drift_small():
    cx, q = make_disc_mesh(1)
    spec = MetricSpec.complete(METRIC_ALPHA, q.copy())
    rng = np.random.default_rng(5)
    v = rng.standard_normal(2 * cx.num_vertices)
    v /= 4.0 * np.linalg.norm(v)
    path = retract_geodesic(q, v, spec, GeodesicConfig(num_steps=256), cx)
    drift = abs(path.final_hamiltonian - path.initial_hamiltonian) / abs(
        path.initial_hamiltonian
    )
    assert drift < 1e-5


def test_drift_decays_second_order():
    cx, q = make_disc_mesh(1)
    spec = MetricSpec.complete(METRIC_ALPHA, q.copy())
    rng = np.random.default_rng(11)
    v = rng.standard_normal(2 * cx.num_vertices)
    v /= np.linalg.norm(v)
    drifts = []
    for steps in (128, 256, 512):
        path = retract_geodesic(q, v, spec, GeodesicConfig(num_steps=steps), cx)
        drifts.append(
            abs(path.final_hamiltonian - path.initial_hamiltonian)
            / abs(path.initial_hamiltonian)
        )
    assert drifts[0] / drifts[1] == pytest.approx(4.0, rel=0.3)
    assert drifts[1] / drifts[2] == pytest.approx(4.0, rel=0.3)


def test_rescaling_equivariance():
    # half velocity with N steps lands exactly where the full-velocity
    # trajectory with 2N steps sits at t = 1/2 (discrete flow equivariance)
    cx, q = make_disc_mesh(1)
    spec = MetricSpec.complete(METRIC_ALPHA, q.copy())
    rng = np.random.default_rng(3)
    v = 0.5 * rng.standard_normal(2 * cx.num_vertices)
    half = retract_geodesic(q, 0.5 * v, spec, GeodesicConfig(num_steps=128), cx)
    full = retract_geodesic(q, v, spec, GeodesicConfig(num_steps=256), cx)
    assert np.max(np.abs(half.levels[0] - full.levels[1])) < 1e-10


def test_metric_speed_conservation():
    # metric speed sqrt(2 H) stays essentially constant along the flow
    cx, q = make_disc_mesh(1)
    spec = MetricSpec.complete(METRIC_ALPHA, q.copy())
    rng = np.random.default_rng(9)
    v = 0.3 * rng.standard_normal(2 * cx.num_vertices)
    path = retract_geodesic(q, v, spec, GeodesicConfig(num_steps=512), cx)
    s0 = np.sqrt(2 * path.initial_hamiltonian)
    s1 = np.sqrt(2 * path.final_hamiltonian)
    assert abs(s1 - s0) / s0 < 1e-5


def test_requires_complete_metric(disc2):
    cx, q = disc2
    with pytest.raises(ValueError):
        retract_geodesic(q, np.zeros(2 * cx.num_vertices), MetricSpec.euclidean(), GeodesicConfig(), cx)


def test_fixed_point_divergence_reported(monkeypatch):
    cx, q = make_disc_mesh(1)
    spec = MetricSpec.complete(METRIC_ALPHA, q.copy())
    v = 50.0 * np.ones(2 * cx.num_vertices)  # absurd velocity, giant steps
    monkeypatch.setattr(geodesic, "FIXED_POINT_MAX_ITER", 4)
    with pytest.raises(FixedPointDivergence):
        retract_geodesic(q, v, spec, GeodesicConfig(num_steps=2), cx)


def _descent_velocity(cx, q, spec, fixed_mask=None):
    # the unpenalized problem's first descent direction at unit metric norm,
    # the velocity of the optimizer's first geodesic
    rhs = model_rhs()
    system = assemble(q, cx, rhs)
    deriv = shape_derivative(q, cx, solve_state(system), solve_adjoint(system), rhs)
    op = MetricOperator(spec, q, cx, fixed_mask=fixed_mask)
    d = -op.solve(deriv)
    return d / op.norm(d)


def test_fixed_boundary_stays_put(disc2):
    cx, q = disc2
    mask = np.zeros(cx.num_vertices, dtype=bool)
    mask[cx.boundary_vertices] = True
    spec = MetricSpec.complete(METRIC_ALPHA, q.copy())
    v = _descent_velocity(cx, q, spec, fixed_mask=mask)
    # 4096 steps: at this velocity the drift is 4.5e-6 with 1024 and falls
    # as the step squared
    path = retract_geodesic(q, v, spec, GeodesicConfig(num_steps=4096), cx, fixed_mask=mask)
    fixed = np.repeat(mask, 2)
    for coords in path.levels:
        assert np.array_equal(coords.ravel()[fixed], q.ravel()[fixed])
    assert np.max(np.abs(path.levels[0] - q)) > 0.1  # the free vertices move
    drift = abs(path.final_hamiltonian - path.initial_hamiltonian) / path.initial_hamiltonian
    assert drift < 1e-6


def test_endpoint_converges_second_order():
    # endpoint error against a 4096-step reference quarters as the step halves
    cx, q = make_disc_mesh(1)
    spec = MetricSpec.complete(METRIC_ALPHA, q.copy())
    v = _descent_velocity(cx, q, spec)
    ref = retract_geodesic(q, v, spec, GeodesicConfig(num_steps=4096), cx).levels[0]
    errors = [
        np.max(np.abs(retract_geodesic(q, v, spec, GeodesicConfig(num_steps=n), cx).levels[0] - ref))
        for n in (256, 512)
    ]
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)


def test_one_gradient_per_step(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return penalty_gradient(*args)

    monkeypatch.setattr(geodesic, "penalty_gradient", counted)
    cx, q = make_disc_mesh(1)
    spec = MetricSpec.complete(METRIC_ALPHA, q.copy())
    v = 0.1 * np.random.default_rng(2).standard_normal(2 * cx.num_vertices)
    retract_geodesic(q, v, spec, GeodesicConfig(num_steps=64), cx)
    assert len(calls) == 64 + 1


def test_call_counts_are_pinned():
    # RATTLE's call sequence on disc:1 over 64 steps: one gradient per step
    # plus the initial one, and the constraint solves' penalty values (one
    # initial value, then 1.66 per step at this velocity, each solve started
    # from the extrapolated multiplier)
    cx, q = make_disc_mesh(1)
    phi_fn, w_fn = geodesic._penalty_field(MetricSpec.complete(METRIC_ALPHA, q.copy()), cx)
    calls = {"phi": 0, "w": 0}

    def counted(name, fn):
        def call(c):
            calls[name] += 1
            return fn(c)
        return call

    v = 0.1 * np.random.default_rng(2).standard_normal(2 * cx.num_vertices)
    integrate_geodesic(counted("phi", phi_fn), counted("w", w_fn), q, v, GeodesicConfig(num_steps=64))
    assert calls == {"phi": 107, "w": 64 + 1}


def _first_geodesic(rings, alpha, fix_boundary):
    # the optimizer's first geodesic: its start, metric, mask and velocity
    cx, q = make_disc_mesh(rings)
    mask = None
    if fix_boundary:
        mask = np.zeros(cx.num_vertices, dtype=bool)
        mask[cx.boundary_vertices] = True
    spec = MetricSpec.complete(alpha, q.copy())
    return cx, q, spec, mask, _descent_velocity(cx, q, spec, fixed_mask=mask)


@pytest.mark.parametrize(
    "rings, alpha, fix_boundary",
    [(1, METRIC_ALPHA, False), (1, PenaltyParams((10.0, 1.0, 0.1, 0.01)), False), (2, METRIC_ALPHA, True)],
    ids=["disc1", "disc1-a3", "disc2-fixed"],
)
def test_default_tolerance_matches_tight_solve(rings, alpha, fix_boundary, monkeypatch):
    # the constraint solve's starting guess only moves the trajectory within
    # its tolerance: against solves to 1e-14 the endpoint and the energy agree
    cx, q, spec, mask, v = _first_geodesic(rings, alpha, fix_boundary)
    paths = []
    for tol in (geodesic.FIXED_POINT_TOL, 1e-14):
        monkeypatch.setattr(geodesic, "FIXED_POINT_TOL", tol)
        paths.append(retract_geodesic(q, v, spec, GeodesicConfig(num_steps=1024), cx, fixed_mask=mask))
    assert np.max(np.abs(paths[0].levels[0] - paths[1].levels[0])) <= 1e-10
    assert abs(paths[0].final_hamiltonian - paths[1].final_hamiltonian) <= 1e-10


@pytest.mark.parametrize("rings", [1, 2], ids=["disc1", "disc2"])
def test_one_value_per_step_along_the_first_descent(rings):
    # the optimizer's first geodesic, 1024 steps: one initial value and one per step, plus two more in
    # the first step, which starts from zero, and one more in each of the next two
    cx, q, spec, mask, v = _first_geodesic(rings, METRIC_ALPHA, False)
    phi_fn, w_fn = geodesic._penalty_field(spec, cx, mask)
    calls = []

    def counted(c):
        calls.append(1)
        return phi_fn(c)

    integrate_geodesic(counted, w_fn, q, v, GeodesicConfig(num_steps=1024))
    assert len(calls) == 1029


def test_repeated_retraction_is_bit_identical():
    # no multiplier history carries over from one integration to the next
    cx, q, spec, _, v = _first_geodesic(1, METRIC_ALPHA, False)
    first, second = (retract_geodesic(q, v, spec, GeodesicConfig(num_steps=256), cx) for _ in range(2))
    assert [c.tobytes() for c in first.levels] == [c.tobytes() for c in second.levels]
