import numpy as np
import pytest

from meshshape.errors import FixedPointDivergence
from meshshape.geodesic import GeodesicConfig, _penalty_field, integrate_geodesic, retract_geodesic
from meshshape.metrics import MetricSpec
from meshshape.mesh import make_disc_mesh
from meshshape.penalty import PenaltyParams

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
    path = integrate_geodesic(lambda c: zero, lambda c: lambda x: zero, q, v, cfg)
    end = path.at_time(1.0)
    assert np.max(np.abs(end - (q + v.reshape(q.shape)))) < 1e-13
    # midpoint snapshot is the half step
    mid = path.at_time(0.5)
    assert np.max(np.abs(mid - (q + 0.5 * v.reshape(q.shape)))) < 1e-13


def test_snapshots_are_dyadic():
    cx, q = make_disc_mesh(1)
    spec = MetricSpec.complete(METRIC_ALPHA, q.copy())
    v = 0.1 * np.ones(2 * cx.num_vertices)
    path = retract_geodesic(q, v, spec, GeodesicConfig(num_steps=16), cx)
    times = [t for t, _ in path.snapshots]
    assert times == [1.0, 0.5, 0.25, 0.125, 0.0625]


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
    assert np.max(np.abs(half.at_time(1.0) - full.at_time(0.5))) < 1e-10


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


def test_fixed_point_divergence_reported():
    cx, q = make_disc_mesh(1)
    spec = MetricSpec.complete(METRIC_ALPHA, q.copy())
    v = 50.0 * np.ones(2 * cx.num_vertices)  # absurd velocity, giant steps
    cfg = GeodesicConfig(num_steps=2, fixed_point_max_iter=4)
    with pytest.raises(FixedPointDivergence):
        retract_geodesic(q, v, spec, cfg, cx)


def test_fixed_mask_hessian_matches_masked_field(disc3):
    # P H P v equals central differences of the masked gradient w = P grad phi
    # along directions that keep the fixed vertices in place
    cx, q0 = disc3
    rng = np.random.default_rng(8)
    q = q0 + 0.04 * rng.standard_normal(q0.shape)
    mask = np.zeros(cx.num_vertices, dtype=bool)
    mask[cx.boundary_vertices] = True
    spec = MetricSpec.complete(PenaltyParams((10.0, 1.0, 0.1, 0.01)), q0.copy())
    w_fn, hess_fn = _penalty_field(spec, cx, fixed_mask=mask)
    hess = hess_fn(q)
    free = ~np.repeat(mask, 2)
    h = 1e-6
    for _ in range(3):
        v = np.where(free, rng.standard_normal(q.size), 0.0)
        fd = (w_fn(q + h * v.reshape(q.shape)) - w_fn(q - h * v.reshape(q.shape))) / (2.0 * h)
        hv = hess(v)
        assert np.all(hv[~free] == 0.0)
        assert np.max(np.abs(hv - fd)) < 1e-6 * np.max(np.abs(hv))
    # the fixed DOFs of the argument do not enter
    u = rng.standard_normal(q.size)
    assert np.array_equal(hess(u), hess(np.where(free, u, 0.0)))
