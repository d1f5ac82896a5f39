"""The per-configuration record: what it caches equals an uncached
computation byte for byte, is read-only, and is shared only where the inputs
are the same.  The geodesic's penalty evaluator, which takes the records'
place at the points of one integration, equals them byte for byte."""

import numpy as np
import pytest

from meshshape import fem, geodesic, mesh as mesh_module, optimizer, penalty as penalty_module
from meshshape.errors import NonpositiveArea
from meshshape.experiments import METRIC_ALPHA
from meshshape.fem import assemble, constant_rhs, model_rhs, shape_derivative, solve_adjoint, solve_state
from meshshape.geodesic import GeodesicConfig, retract_geodesic
from meshshape.mesh import (SQRT3, SparsePattern, build_complex, configuration, free_dofs, is_admissible,
                            make_disc_mesh)
from meshshape.metrics import MetricSpec, assemble_elasticity
from meshshape.optimizer import OptimizerConfig, steepest_descent
from meshshape.penalty import PenaltyEvaluator, PenaltyParams, mesh_quality, penalty_gradient, penalty_value

SET1 = PenaltyParams((1.0, 0.5, 0.0, 0.1))
METRIC = PenaltyParams((10.0, 1.0, 0.1, 0.01))


@pytest.fixture(params=["square5", "disc3-perturbed"])
def mesh(request, rng):
    if request.param == "square5":
        cx, q = request.getfixturevalue("square5")
        return cx, q.copy()
    cx, q = request.getfixturevalue("disc3")
    q = q.copy()
    q[cx.interior_vertices] += rng.uniform(-0.03, 0.03, size=(len(cx.interior_vertices), 2))
    return cx, q


def _fresh_cache():
    mesh_module._configuration_cache.clear()


def _assert_identical(got, want):
    # equal strides too: the summation order of later reductions follows them
    assert got.shape == want.shape and got.strides == want.strides and got.tobytes() == want.tobytes()


def _uncached_geometry(coords, triangles):
    p = coords[triangles]
    e = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]
    return p, e, 0.5 * (e[:, 2, 0] * e[:, 0, 1] - e[:, 2, 1] * e[:, 0, 0])


def _uncached_basis_gradients(e, areas):
    rot = np.stack([-e[..., 1], e[..., 0]], axis=-1)
    return rot / (2.0 * areas[:, None, None])


def _uncached_system(coords, cx, rhs):
    # The assembly as it was, every quantity computed on the spot.
    p, e, areas = _uncached_geometry(coords, cx.triangles)
    grads = _uncached_basis_gradients(e, areas)
    k_loc = areas[:, None, None] * np.einsum("tld,tmd->tlm", grads, grads)
    centroids = p.mean(axis=1)
    r_c = np.asarray(rhs.value(centroids[:, 0], centroids[:, 1]), dtype=float)
    load = mesh_module.scatter_add(cx.num_vertices, (cx.triangles, np.repeat(areas * r_c / 3.0, 3)))
    weights = mesh_module.scatter_add(cx.num_vertices, (cx.triangles, np.repeat(areas / 3.0, 3)))
    return cx.interior_p1_pattern.matrix(k_loc), load, weights, r_c


def _uncached_quality(coords, triangles):
    _, e, areas = _uncached_geometry(coords, triangles)
    return np.sum(e**2, axis=(1, 2)) / (4.0 * SQRT3 * areas)


def _uncached_edges(coords, triangles):
    # row k: p_{k+1} - p_k, local indices mod 3, (5, N_T, 2)
    walk = coords[triangles[:, [0, 1, 2, 0, 1, 2]].T]
    return walk[1:] - walk[:-1]


def _cached_arrays(coords, cx, rhs):
    """Every array the record of ``coords`` holds after assembly, the shape
    derivative and the penalty gradient, by name."""
    system = assemble(coords, cx, rhs)
    y, p = solve_state(system), solve_adjoint(system)
    shape_derivative(coords, cx, y, p, rhs)
    penalty_gradient(coords, coords, cx, SET1)
    record = configuration(coords, cx)
    terms = record.memo(PenaltyEvaluator, cx)  # the penalty's terms, kept by the record
    return record, {
        "e": record.e, "areas": record.areas, "edges": record.edges,
        "basis_gradients": record.basis_gradients, "centroids": record.centroids,
        "reduced.data": system.reduced.data, "load": system.load, "volume_weights": system.volume_weights,
        "centroid_rhs": record.memo(fem._centroid_rhs, rhs),
        "quality": terms.quality(),
    }


def test_cached_quantities_equal_uncached(mesh):
    cx, q = mesh
    rhs = model_rhs()
    _fresh_cache()
    _, cached = _cached_arrays(q, cx, rhs)
    p, e, areas = _uncached_geometry(q, cx.triangles)
    reduced, load, weights, r_c = _uncached_system(q, cx, rhs)
    want = {
        "e": e, "areas": areas, "edges": _uncached_edges(q, cx.triangles),
        "basis_gradients": _uncached_basis_gradients(e, areas), "centroids": p.mean(axis=1),
        "reduced.data": reduced.data, "load": load, "volume_weights": weights, "centroid_rhs": r_c,
        "quality": _uncached_quality(q, cx.triangles),
    }
    assert cached.keys() == want.keys()
    for name in want:
        _assert_identical(cached[name], want[name])


def test_cached_arrays_are_read_only(mesh):
    cx, q = mesh
    rhs = model_rhs()
    _, cached = _cached_arrays(q, cx, rhs)
    for name, a in cached.items():
        assert not a.flags.writeable, name
        with pytest.raises(ValueError):
            a[0] = 0.0
    # SuperLU factors the read-only matrix, and the solves give fresh arrays
    y = solve_state(assemble(q, cx, rhs))
    assert y.flags.writeable


def test_moving_coordinates_in_place_gives_a_fresh_record(mesh, rng):
    cx, q = mesh
    rhs = model_rhs()
    before = configuration(q, cx)
    system_before = assemble(q, cx, rhs)
    load_before = system_before.load.copy()
    q[cx.interior_vertices] += rng.uniform(-0.01, 0.01, size=(len(cx.interior_vertices), 2))
    after = configuration(q, cx)
    system_after = assemble(q, cx, rhs)
    assert after is not before and system_after is not system_before
    _assert_identical(system_before.load, load_before)  # the old record is untouched
    reduced, load, _, _ = _uncached_system(q, cx, rhs)
    _assert_identical(system_after.reduced.data, reduced.data)
    _assert_identical(system_after.load, load)


def test_right_hand_sides_keep_separate_systems(mesh):
    cx, q = mesh
    fields = (model_rhs(), constant_rhs(1.0), model_rhs())  # the last: equal code, another field
    systems = [assemble(q, cx, rhs) for rhs in fields]
    assert len({id(s) for s in systems}) == 3
    for rhs, system in zip(fields, systems):
        assert assemble(q, cx, rhs) is system
        _, load, _, _ = _uncached_system(q, cx, rhs)
        _assert_identical(system.load, load)
    assert not np.array_equal(systems[0].load, systems[1].load)


def test_penalty_parameters_keep_separate_results(mesh):
    cx, q = mesh
    qref = q + 0.01
    params = (SET1, METRIC, PenaltyParams((0.0, 2.0, 0.0, 0.0)), SET1)
    fresh = []
    for par in params:
        _fresh_cache()
        fresh.append((penalty_value(q, qref, cx, par), penalty_gradient(q, qref, cx, par)))
    _fresh_cache()
    for _ in range(2):  # alternating parameters at one configuration
        for par, (value, grad) in zip(params, fresh):
            assert penalty_value(q, qref, cx, par) == value
            _assert_identical(penalty_gradient(q, qref, cx, par), grad)


def test_accepted_trial_is_assembled_once(monkeypatch, disc2):
    cx, q = disc2
    builds, calls = [], []
    original_matrix, original_assemble = SparsePattern.matrix, optimizer.assemble

    def spy_matrix(pattern, values):
        builds.append(pattern is cx.interior_p1_pattern)
        return original_matrix(pattern, values)

    def spy_assemble(*args):
        calls.append(args)
        return original_assemble(*args)

    monkeypatch.setattr(SparsePattern, "matrix", spy_matrix)
    monkeypatch.setattr(optimizer, "assemble", spy_assemble)
    config = OptimizerConfig(variant="ElasEuc", penalty=SET1, max_iter=3, stop_tol=0.0)
    result = steepest_descent(cx, q, model_rhs(), config)
    iterations = len(result.history) - 1
    assert result.status == "MaxIter" and iterations == 3
    assert len(calls) >= 2 * iterations + 1  # a trial per iteration, and again every accepted one
    # each accepted trial is evaluated again at the top of the loop, from its record
    assert sum(builds) == len(calls) - iterations


def test_returning_to_a_configuration_builds_an_equal_record(mesh, rng):
    cx, q = mesh
    rhs = model_rhs()
    _fresh_cache()
    record, cached = _cached_arrays(q, cx, rhs)
    moved = q.copy()
    moved[cx.interior_vertices] += rng.uniform(-0.01, 0.01, size=(len(cx.interior_vertices), 2))
    assemble(moved, cx, rhs)
    # only the latest record is kept: the first is built again, bit for bit
    again_record, again = _cached_arrays(q, cx, rhs)
    assert again_record is not record
    assert again.keys() == cached.keys()
    for name in cached:
        _assert_identical(again[name], cached[name])
        assert again[name] is not cached[name], name


@pytest.mark.parametrize("rings", [1, 2, 5])
def test_edge_vectors_are_local_edge_major(rings):
    # the histories depend on this layout: the reductions over p and e sum in the order of their strides
    cx, q = make_disc_mesh(rings)
    rotated = build_complex(cx.triangles[:, [1, 2, 0]], cx.num_vertices)  # built from a non-contiguous array
    n = cx.num_triangles
    for complex in (cx, rotated):
        for point in (configuration(q, complex), PenaltyEvaluator(None, complex).at(q)):
            assert point.e.shape == (n, 3, 2) and point.e.strides == (16, 16 * n, 8)
            assert point.edges.shape == (5, n, 2) and point.edges.strides == (16 * n, 16, 8)


EVALUATOR_PARAMS = {
    "a3-zero": PenaltyParams((10.0, 1.0, 0.0, 0.01)),
    "a3": PenaltyParams((10.0, 1.0, 0.1, 0.01)),
    "cutoff": PenaltyParams((10.0, 1.0, 0.1, 0.01), cutoff_threshold=0.4),
}


def _perturbed_points(rings, count=3):
    cx, qref = make_disc_mesh(rings)
    rng = np.random.default_rng(rings)
    points = [qref + rng.uniform(-0.1, 0.1, size=qref.shape) / rings for _ in range(count)]
    return cx, qref, points


def _record_path(coords, qref, cx, params, free=None):
    _fresh_cache()
    value, grad = penalty_value(coords, qref, cx, params), penalty_gradient(coords, qref, cx, params)
    return value, (grad if free is None else np.where(free, grad, 0.0)), configuration(coords, cx).e


def _assert_same_value(got, want):
    assert type(got) is type(want) and np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("rings", [1, 2, 5])
@pytest.mark.parametrize("name", EVALUATOR_PARAMS)
@pytest.mark.parametrize("fixed", [False, True], ids=["free", "fixed-boundary"])
def test_evaluator_equals_the_record_path(rings, name, fixed):
    params = EVALUATOR_PARAMS[name]
    cx, qref, points = _perturbed_points(rings)
    mask = None
    if fixed:
        mask = np.zeros(cx.num_vertices, dtype=bool)
        mask[cx.boundary_vertices] = True
    phi_fn, w_fn = geodesic._penalty_field(MetricSpec.complete(params, qref), cx, mask)
    evaluator = penalty_module.PenaltyEvaluator(None, cx)
    for q in points:
        value, grad, e = _record_path(q, qref, cx, params, free_dofs(mask))
        _assert_identical(evaluator.at(q).e, e)
        _assert_same_value(phi_fn(q), value)
        _assert_identical(w_fn(q), grad)  # the gradient at the value's point, from its terms
        _assert_same_value(phi_fn(q), value)


@pytest.mark.parametrize("name", EVALUATOR_PARAMS)
def test_evaluator_recomputes_every_other_point(name, monkeypatch):
    params = EVALUATOR_PARAMS[name]
    cx, qref, (q1, q2, q3) = _perturbed_points(2)
    want = {key: _record_path(q, qref, cx, params)[:2] for key, q in (("q1", q1), ("q2", q2), ("q3", q3))}
    built = []

    class Counted(penalty_module.PairDistances):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(penalty_module, "PairDistances", Counted)
    evaluator = penalty_module.PenaltyEvaluator(None, cx)

    def check(coords, key):
        _assert_same_value(penalty_value(coords, qref, cx, params, evaluator), want[key][0])
        _assert_identical(penalty_gradient(coords, qref, cx, params, evaluator), want[key][1])

    point = q1.copy()
    check(point, "q1")
    _assert_identical(penalty_gradient(q2, qref, cx, params, evaluator), want["q2"][1])  # gradient first
    point[...] = q3  # the same array, other bytes
    check(point, "q3")
    check(q1.copy(), "q1")  # an earlier point, not the last one
    assert len(built) == (4 if params.alpha[2] else 0)  # once per point: the value's, kept for its gradient


def _count_records(monkeypatch):
    """A list that grows by one per :class:`~meshshape.mesh.Configuration` built from now on."""
    built = []

    class Counted(mesh_module.Configuration):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(mesh_module, "Configuration", Counted)
    _fresh_cache()
    return built


def test_retraction_builds_no_records(monkeypatch):
    # its points, snapshots included, are the penalty evaluator's throwaway points
    cx, q = make_disc_mesh(1)
    spec = MetricSpec.complete(PenaltyParams((10.0, 1.0, 0.0, 0.01)), q.copy())
    v = 0.1 * np.random.default_rng(2).standard_normal(2 * cx.num_vertices)
    built = _count_records(monkeypatch)
    path = retract_geodesic(q, v, spec, GeodesicConfig(num_steps=64), cx)
    assert len(path.levels) == 7 and len(built) == 0


def test_compcomp_builds_one_record_per_trial(monkeypatch, disc2):
    # the start's record, then one per line-search trial at most: the geodesic's snapshots and the
    # accepted iterate are tested through the trial's record alone
    cx, q = disc2
    built = _count_records(monkeypatch)
    config = OptimizerConfig(variant="CompComp", penalty=PenaltyParams((0.0, 0.0, 0.0, 0.0)),
                             metric_penalty=PenaltyParams(METRIC_ALPHA), max_iter=12, stop_tol=0.0)
    result = steepest_descent(cx, q, model_rhs(), config)
    trials = sum(1 + row.backtracks for row in result.history[:-1])
    assert result.status == "MaxIter" and trials >= 12
    assert len(built) <= 1 + trials


@pytest.mark.parametrize("gate", ["assemble", "assemble_elasticity", "mesh_quality", "penalty_value"])
def test_nan_areas_are_refused_by_every_gate(gate, disc2):
    cx, qref = disc2
    q = qref.copy()
    q[cx.interior_vertices[0], 0] = np.nan  # the areas of its triangles are NaN
    calls = {
        "assemble": lambda: assemble(q, cx, model_rhs()),
        "assemble_elasticity": lambda: assemble_elasticity(q, cx),
        "mesh_quality": lambda: mesh_quality(q, cx),
        "penalty_value": lambda: penalty_value(q, qref, cx, METRIC, PenaltyEvaluator(None, cx)),
    }
    with pytest.raises(NonpositiveArea):
        calls[gate]()
    assert not is_admissible(cx, q)
