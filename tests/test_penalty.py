import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshshape import mesh as mesh_module, penalty as penalty_module
from meshshape.errors import NonpositiveArea
from meshshape.mesh import (
    build_complex,
    make_disc_mesh,
    make_square5_mesh,
    signed_areas,
)
from meshshape.penalty import (
    PenaltyParams,
    cutoff,
    cutoff_prime,
    mesh_quality,
    penalty_gradient,
    penalty_value,
)

from conftest import central_difference, quality_reciprocal, random_admissible_triangle, uniform_refine

SQRT3 = np.sqrt(3.0)


def _quality_oracle(p):
    # independent arithmetic: sum of squared side lengths over 4*sqrt(3)*area
    e2 = (
        np.sum((p[0] - p[1]) ** 2)
        + np.sum((p[1] - p[2]) ** 2)
        + np.sum((p[2] - p[0]) ** 2)
    )
    a, b = p[1] - p[0], p[2] - p[1]
    area = 0.5 * (a[0] * b[1] - a[1] * b[0])
    return e2 / (4.0 * SQRT3 * area)


# -- quality measure ---------------------------------------------------------

def test_quality_equilateral_any_pose(rng):
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    for _ in range(10):
        a = rng.uniform(-np.pi, np.pi)
        rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        scale = rng.uniform(0.1, 5.0)
        moved = scale * base @ rot.T + rng.uniform(-4, 4, 2)
        assert quality_reciprocal(moved, (0, 1, 2)) == pytest.approx(1.0, abs=1e-12)


def test_quality_right_triangle():
    q = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert quality_reciprocal(q, (0, 1, 2)) == pytest.approx(2.0 / SQRT3, rel=1e-12)
    assert quality_reciprocal(q, (0, 1, 2)) == pytest.approx(1.154701, abs=1e-6)


def test_quality_thin_triangle():
    q = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.01]])
    assert quality_reciprocal(q, (0, 1, 2)) == pytest.approx(_quality_oracle(q), rel=1e-14)
    assert quality_reciprocal(q, (0, 1, 2)) == pytest.approx(43.31, abs=0.01)


def test_quality_requires_positive_area():
    q = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NonpositiveArea):
        quality_reciprocal(q, (0, 1, 2))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_weitzenboeck_bound(seed):
    rng = np.random.default_rng(seed)
    p = random_admissible_triangle(rng)
    assert quality_reciprocal(p, (0, 1, 2)) >= 1.0 - 1e-12


def test_weitzenboeck_equality_only_equilateral(rng):
    # near-equilateral perturbations stay above 1 unless the perturbation vanishes
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    assert quality_reciprocal(base, (0, 1, 2)) == pytest.approx(1.0, abs=1e-12)
    for _ in range(20):
        p = base + rng.uniform(-0.05, 0.05, size=(3, 2))
        val = quality_reciprocal(p, (0, 1, 2))
        d = np.abs(p - base).max()
        if d > 1e-3:
            assert val > 1.0 + 1e-9


def test_isoperimetric_inequality(rng):
    # area <= (perimeter)^2 / (12 sqrt(3)) on random positive triangles
    for _ in range(1000):
        p = random_admissible_triangle(rng)
        a, b = p[1] - p[0], p[2] - p[1]
        area = 0.5 * (a[0] * b[1] - a[1] * b[0])
        per = (
            np.linalg.norm(p[0] - p[1])
            + np.linalg.norm(p[1] - p[2])
            + np.linalg.norm(p[2] - p[0])
        )
        assert area <= per**2 / (12.0 * SQRT3) + 1e-12


# -- mesh quality monitor ----------------------------------------------------

def test_mesh_quality_square5(square5):
    cx, q = square5
    assert mesh_quality(q, cx) == pytest.approx(2.0 / SQRT3, rel=1e-12)


def test_mesh_quality_equilateral_disc():
    from meshshape.mesh import make_disc_mesh

    cx, q = make_disc_mesh(1)  # hexagon fan: all six triangles equilateral
    assert mesh_quality(q, cx) == pytest.approx(1.0, abs=1e-12)


def test_mesh_quality_refinement_invariant(square5):
    cx, q = square5
    rcx, rq = uniform_refine(cx, q)
    assert mesh_quality(rq, rcx) == mesh_quality(q, cx)  # exact for dyadic coords


# -- penalty value -----------------------------------------------------------

def test_penalty_single_terms(square5):
    tri = build_complex([(0, 1, 2)], 3)
    eq = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    right = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert penalty_value(eq, eq, tri, PenaltyParams((1, 0, 0, 0))) == pytest.approx(1.0)
    assert penalty_value(right, right, tri, PenaltyParams((0, 1, 0, 0))) == pytest.approx(2.0)
    assert penalty_value(right, right, tri, PenaltyParams((0, 0, 0, 1))) == 0.0


def test_penalty_rigid_motion_invariance(disc3, rng):
    cx, q = disc3
    qref = q + 0.01 * rng.standard_normal(q.shape)
    params = PenaltyParams((1.0, 0.5, 0.25, 0.1), mu=0.1)
    base = penalty_value(q, qref, cx, params)
    for _ in range(5):
        a = rng.uniform(-np.pi, np.pi)
        rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        b = rng.uniform(-2, 2, 2)
        assert penalty_value(q @ rot.T + b, qref @ rot.T + b, cx, params) == pytest.approx(
            base, abs=1e-10
        )


def test_penalty_refinement_invariance_first_two_terms(square5):
    cx, q = square5
    rcx, rq = uniform_refine(cx, q)
    for alpha in ((1, 0, 0, 0), (0, 1, 0, 0)):
        v0 = penalty_value(q, q, cx, PenaltyParams(alpha))
        v1 = penalty_value(rq, rq, rcx, PenaltyParams(alpha))
        assert v1 == v0  # exactly, coordinates are dyadic


def test_penalty_blowup_towards_boundary(square5):
    cx, q = square5
    params = PenaltyParams((1.0, 0.0, 0.0, 0.0))
    values = []
    for eps in (0.5, 0.1, 0.01, 0.001):
        qe = q.copy()
        qe[4] = (0.0, 1.0 - eps)
        values.append(penalty_value(qe, q, cx, params))
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] > 100.0


def test_penalty_gradient_fd(disc3, rng):
    cx, q = disc3
    qref = q.copy()
    coords = q + 0.02 * rng.standard_normal(q.shape)
    params = PenaltyParams((1.0, 0.5, 0.25, 0.1), mu=0.1)
    grad = penalty_gradient(coords, qref, cx, params)
    fd = central_difference(lambda c: penalty_value(c, qref, cx, params), coords)
    assert np.max(np.abs(fd - grad)) / np.max(np.abs(grad)) < 1e-6


# Weight sets of the property tests: the metric preset, all four terms, and the
# boundary term alone and with the others, cut off in its blend region.
PROPERTY_PARAMS = (
    PenaltyParams((10.0, 1.0, 0.0, 0.01)),
    PenaltyParams((1.0, 0.5, 0.25, 0.1), mu=0.1),
    PenaltyParams((0.0, 0.0, 1.0, 0.0), mu=0.05, cutoff_threshold=0.6),
    PenaltyParams((10.0, 1.0, 0.1, 0.01), cutoff_threshold=0.4),
)
property_cases = given(
    seed=st.integers(0, 2**32 - 1), rings=st.integers(1, 3), params=st.sampled_from(PROPERTY_PARAMS)
)


def _perturbed_disc(seed, rings):
    # every vertex moved by at most 0.15 of the ring spacing: areas stay positive
    cx, qref = make_disc_mesh(rings)
    q = qref + np.random.default_rng(seed).uniform(-0.15, 0.15, size=qref.shape) / rings
    assert np.all(signed_areas(q, cx) > 0.0)
    return cx, q, qref


@settings(max_examples=25, deadline=None)
@property_cases
def test_penalty_gradient_matches_central_differences(seed, rings, params):
    cx, q, qref = _perturbed_disc(seed, rings)
    grad = penalty_gradient(q, qref, cx, params)
    fd = central_difference(lambda c: penalty_value(c, qref, cx, params), q)
    assert np.max(np.abs(fd - grad)) <= 1e-6 * np.max(np.abs(grad))


@settings(max_examples=25, deadline=None)
@property_cases
def test_value_and_gradient_bits_do_not_depend_on_call_order(seed, rings, params):
    # the record's memo shares the quality terms and the boundary distances
    # between the two calls; either order must give the same bits
    cx, q, qref = _perturbed_disc(seed, rings)
    results = []
    for value_first in (True, False):
        mesh_module._configuration_cache.clear()  # a fresh configuration
        if value_first:
            value = penalty_value(q, qref, cx, params)
            grad = penalty_gradient(q, qref, cx, params)
        else:
            grad = penalty_gradient(q, qref, cx, params)
            value = penalty_value(q, qref, cx, params)
        results.append((type(value), np.float64(value).tobytes(), grad.tobytes()))
    assert results[0] == results[1]


def test_gradient_reuses_the_boundary_distances_of_the_value(disc3, monkeypatch):
    cx, q = disc3
    built = []

    class Counted(penalty_module.PairDistances):
        def __init__(self, *args):
            built.append(args[2])
            super().__init__(*args)

    monkeypatch.setattr(penalty_module, "PairDistances", Counted)
    params = PenaltyParams((1.0, 0.5, 0.25, 0.1), mu=0.1)
    other_mu = PenaltyParams((1.0, 0.5, 0.25, 0.1), mu=0.05)
    moved = q + 0.01
    for coords, par in ((moved, params), (moved, params), (moved, other_mu), (moved + 0.01, params)):
        penalty_value(coords, q, cx, par)
        penalty_gradient(coords, q, cx, par)
    assert built == [0.1, 0.05, 0.1]  # once per configuration and smoothing width


def test_penalty_gradient_zero_at_reference(square5):
    cx, q = square5
    grad = penalty_gradient(q, q, cx, PenaltyParams((0, 0, 0, 1.0)))
    assert np.all(grad == 0.0)


def test_penalty_gradient_translation_invariance(disc3):
    cx, q = disc3
    params = PenaltyParams((1.0, 0.5, 0.25, 0.0), mu=0.1)
    grad = penalty_gradient(q, q, cx, params)
    tx = np.zeros_like(grad)
    tx[0::2] = 1.0
    ty = np.zeros_like(grad)
    ty[1::2] = 1.0
    assert abs(grad @ tx) < 1e-10
    assert abs(grad @ ty) < 1e-10


# An unfused reference: per-triangle slopes of the area and of the quality
# reciprocal from the gathered vertices, each term scattered on its own by
# np.add.at, and the reference term as a sum of squares.
def _reference_penalty(coords, qref, cx, params):
    a1, a2, a3, a4 = params.alpha
    p = coords[cx.triangles]
    e = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]
    areas = 0.5 * (e[:, 2, 0] * e[:, 0, 1] - e[:, 2, 1] * e[:, 0, 0])
    vals = np.sum(e**2, axis=(1, 2)) / (4.0 * SQRT3 * areas)
    darea = 0.5 * e @ np.array([[0.0, -1.0], [1.0, 0.0]]).T
    dssq = 2.0 * (2.0 * p - p[:, [1, 2, 0]] - p[:, [2, 0, 1]])
    dquality = (dssq - (4.0 * SQRT3 * vals)[:, None, None] * darea) / (4.0 * SQRT3 * areas)[:, None, None]
    diff = coords - qref
    value = a1 * vals.mean() + a2 / areas.sum() + 0.5 * a4 * np.sum(diff * diff)
    grad = a4 * diff.ravel()
    np.add.at(grad, cx.vertex_dofs, (a1 / cx.num_triangles) * dquality)
    np.add.at(grad, cx.vertex_dofs, (-a2 / areas.sum() ** 2) * darea)
    if a3 != 0.0:
        distances = mesh_module.PairDistances(coords, cx.boundary_pairs, params.mu)
        recip, slope = 1.0 / distances.dist, -1.0 / distances.dist**2
        if params.cutoff_threshold is not None:
            recip, slope = cutoff(recip, params.cutoff_threshold), slope * cutoff_prime(recip, params.cutoff_threshold)
        scale = len(cx.boundary_edges) * len(cx.boundary_vertices)
        value += a3 * recip.sum() / scale
        np.add.at(grad, cx.boundary_pair_dofs, (a3 / scale) * slope[:, None] * distances.gradients())
    return value, grad


REFERENCE_PARAMS = {
    "metric": PenaltyParams((10.0, 1.0, 0.0, 0.01)),
    "a1-zero": PenaltyParams((0.0, 1.0, 0.0, 0.01)),
    "a2-zero": PenaltyParams((10.0, 0.0, 0.0, 0.01)),
    "a3": PenaltyParams((10.0, 1.0, 0.1, 0.01)),
    "a3-cutoff": PenaltyParams((1.0, 0.5, 0.25, 0.1), mu=0.05, cutoff_threshold=0.6),
}


@pytest.mark.parametrize("rings", [1, 3, 7])
@pytest.mark.parametrize("name", REFERENCE_PARAMS)
@pytest.mark.parametrize("seed", [0, 1])
def test_value_and_gradient_match_the_unfused_reference(rings, name, seed):
    params = REFERENCE_PARAMS[name]
    cx, q, qref = _perturbed_disc(seed, rings)
    want_value, want_grad = _reference_penalty(q, qref, cx, params)
    evaluator = penalty_module.PenaltyEvaluator(None, cx)
    for grad in (penalty_gradient(q, qref, cx, params), penalty_gradient(q, qref, cx, params, evaluator)):
        assert np.max(np.abs(grad - want_grad)) <= 1e-13 * np.max(np.abs(want_grad))
    assert penalty_value(q, qref, cx, params) == pytest.approx(want_value, rel=1e-13, abs=0.0)


# -- cutoff ------------------------------------------------------------------

def test_cutoff_plateaus():
    s = 2.0
    assert cutoff(0.5 * s, s) == 0.0
    assert cutoff(s, s) == 0.0
    assert cutoff(2 * s, s) == pytest.approx(2 * s)
    assert cutoff(5.0 * s, s) == pytest.approx(5.0 * s)
    assert cutoff_prime(0.9 * s, s) == 0.0
    assert cutoff_prime(2.1 * s, s) == 1.0


def test_cutoff_c3_blend():
    # A jump in the k-th derivative would leave an h-independent step in the
    # k-th finite difference; for a C^3 blend the third-difference steps must
    # shrink linearly with h (they are bounded by the fourth derivative).
    s = 1.0

    def d3_step(n):
        xs = np.linspace(0.8, 2.2, n)
        h = xs[1] - xs[0]
        d1 = np.gradient(cutoff(xs, s), h)
        d2 = np.gradient(d1, h)
        d3 = np.gradient(d2, h)
        return np.max(np.abs(np.diff(d3))), h

    coarse, h_c = d3_step(2001)
    fine, h_f = d3_step(4001)
    assert coarse < 2000 * h_c  # bounded by the fourth-derivative scale
    assert fine < 0.7 * coarse  # shrinks with h: continuous third derivative

    xs = np.linspace(0.8, 2.2, 2001)
    h = xs[1] - xs[0]
    d1 = np.gradient(cutoff(xs, s), h)
    assert np.max(np.abs(d1[5:-5] - cutoff_prime(xs[5:-5], s))) < 1e-3


def test_cutoff_consistency_in_penalty(disc3):
    cx, q = disc3
    sbar = 0.05  # all reciprocal distances far above 2*sbar -> plain value
    plain = PenaltyParams((0.0, 0.0, 1.0, 0.0), mu=0.1)
    cut = PenaltyParams((0.0, 0.0, 1.0, 0.0), mu=0.1, cutoff_threshold=sbar)
    assert penalty_value(q, q, cx, cut) == pytest.approx(
        penalty_value(q, q, cx, plain), rel=1e-12
    )
    big = PenaltyParams((0.0, 0.0, 1.0, 0.0), mu=0.1, cutoff_threshold=1e4)
    assert penalty_value(q, q, cx, big) == 0.0


# -- parameter validation ----------------------------------------------------

def test_penalty_params_validation():
    with pytest.raises(ValueError):
        PenaltyParams((1, 2, 3))
    with pytest.raises(ValueError):
        PenaltyParams((1, -1, 0, 0))
    with pytest.raises(ValueError):
        PenaltyParams((1, 1, 1, 1), mu=-0.1)
