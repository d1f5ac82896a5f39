import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from meshshape.errors import (
    DegenerateEdge,
    EdgeOveruse,
    InconsistentOrientation,
    NotPure,
    NotTwoPathConnected,
)
from meshshape.fem import assemble, model_rhs
from meshshape.mesh import (
    PREORDERED_LU,
    RESIDUAL_TOL,
    build_complex,
    checked_solve,
    configuration,
    is_admissible,
    make_disc_mesh,
    make_square5_mesh,
    scatter_add,
    signed_areas,
    smooth_abs,
)
from meshshape import mesh as mesh_module
from meshshape.metrics import assemble_elasticity

from conftest import (
    edge_length,
    height,
    quality_reciprocal,
    random_admissible_triangle,
    regularized_distance,
    signed_area,
    uniform_refine,
)
from test_fem import _perturbed_disc
from test_metrics import _moved


# -- build_complex -----------------------------------------------------------

def test_square5_complex(square5):
    cx, _ = square5
    assert cx.num_vertices == 5
    assert cx.num_triangles == 4
    assert len(cx.boundary_edges) == 4
    assert set(cx.boundary_vertices) == {0, 1, 2, 3}


def test_single_triangle_all_boundary():
    cx = build_complex([(0, 1, 2)], 3)
    assert len(cx.edges) == 3
    assert len(cx.boundary_edges) == 3
    assert set(cx.boundary_vertices) == {0, 1, 2}


def test_same_orientation_twice_rejected():
    with pytest.raises(InconsistentOrientation):
        build_complex([(0, 1, 2), (0, 1, 3)], 4)


def test_opposite_orientation_accepted():
    cx = build_complex([(0, 1, 2), (1, 0, 3)], 4)
    assert cx.num_triangles == 2
    assert len(cx.boundary_edges) == 4


def test_edge_overuse():
    with pytest.raises(EdgeOveruse):
        build_complex([(0, 1, 2), (1, 0, 3), (0, 1, 4)], 5)


def test_isolated_vertex_not_pure():
    with pytest.raises(NotPure):
        build_complex([(0, 1, 2)], 4)


def test_empty_triangles_not_pure():
    with pytest.raises(NotPure):
        build_complex([], 3)


def test_disconnected_complex():
    with pytest.raises(NotTwoPathConnected):
        build_complex([(0, 1, 2), (3, 4, 5)], 6)


def test_index_out_of_range():
    with pytest.raises(ValueError):
        build_complex([(0, 1, 7)], 3)


def _loop_orientation(triangles, num_vertices):
    # Reference: the per-edge orientation loop build_complex ran before it was vectorized.
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    directed = np.stack([tris[:, [1, 2]], tris[:, [2, 0]], tris[:, [0, 1]]], axis=1).reshape(-1, 2)
    lo = directed.min(axis=1)
    hi = directed.max(axis=1)
    keys = lo * num_vertices + hi
    order = np.argsort(keys, kind="stable")
    uniq_keys, first, counts = np.unique(keys[order], return_index=True, return_counts=True)
    edges = np.column_stack([uniq_keys // num_vertices, uniq_keys % num_vertices])
    forward = (directed[:, 0] == lo).astype(np.int8)
    for e, (start, cnt) in enumerate(zip(first, counts)):
        if cnt == 2 and forward[order[start]] == forward[order[start + 1]]:
            raise InconsistentOrientation(f"edge {tuple(edges[e])} induced twice with the same orientation")


def _loop_boundary_pairs(cx):
    # Reference: the double loop boundary_pairs ran before it was vectorized.
    rows = []
    for j0, j1 in cx.boundary_edges:
        for i0 in cx.boundary_vertices:
            if i0 != j0 and i0 != j1:
                rows.append((i0, j0, j1))
    return np.asarray(rows, dtype=np.int64).reshape(-1, 3)


@pytest.mark.parametrize("mesh", ["square5", "disc3"])
def test_vectorized_connectivity_matches_loops(mesh, request):
    cx, _ = request.getfixturevalue(mesh)
    pairs = cx.boundary_pairs
    assert pairs.dtype == np.int64
    assert np.array_equal(pairs, _loop_boundary_pairs(cx))


def test_inconsistent_orientation_names_first_sorted_edge():
    # edge (1, 2) is bad between the first two triangles, edge (0, 1)
    # between the last two; the sorted-first one is named
    tris = [(1, 2, 4), (0, 1, 2), (0, 1, 3)]
    with pytest.raises(InconsistentOrientation) as expected:
        _loop_orientation(tris, 5)
    with pytest.raises(InconsistentOrientation) as got:
        build_complex(tris, 5)
    assert str(got.value) == str(expected.value)
    first = tuple(np.array([0, 1], dtype=np.int64))
    assert str(got.value) == f"edge {first} induced twice with the same orientation"


def test_scatter_add_equals_add_at(disc3, rng):
    cx, _ = disc3
    n = 2 * cx.num_vertices
    a = rng.standard_normal((cx.num_triangles, 3, 2))
    b = rng.standard_normal((cx.num_triangles, 3, 2))
    c = rng.standard_normal((3, len(cx.boundary_pairs), 2))
    reference = np.zeros(n)
    tris = cx.triangles.ravel()
    for per_vertex in (a, b):
        np.add.at(reference, 2 * tris, per_vertex[..., 0].ravel())
        np.add.at(reference, 2 * tris + 1, per_vertex[..., 1].ravel())
    for idx in range(3):
        np.add.at(reference, 2 * cx.boundary_pairs[:, idx], c[idx, :, 0])
        np.add.at(reference, 2 * cx.boundary_pairs[:, idx] + 1, c[idx, :, 1])
    got = scatter_add(n, (cx.vertex_dofs, a), (cx.vertex_dofs, b), (cx.boundary_pair_dofs, c))
    assert np.array_equal(got, reference)

    single = np.zeros(cx.num_vertices)
    np.add.at(single, tris, a[..., 0].ravel())
    assert np.array_equal(scatter_add(cx.num_vertices, (cx.triangles, a[..., 0])), single)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rings=st.integers(1, 3), split=st.floats(0.0, 1.0))
def test_one_term_scatter_add_equals_the_general_path(seed, rings, split):
    # one term skips the concatenation; cut in two it takes the general path,
    # which must sum every entry in the same order
    cx, _ = make_disc_mesh(rings)
    values = np.random.default_rng(seed).standard_normal((cx.num_triangles, 3, 2))
    index, values = cx.vertex_dofs.ravel(), values.ravel()
    k = int(split * len(index))
    one = scatter_add(2 * cx.num_vertices, (cx.vertex_dofs, values.reshape(-1, 3, 2)))
    two = scatter_add(2 * cx.num_vertices, (index[:k], values[:k]), (index[k:], values[k:]))
    assert one.tobytes() == two.tobytes()
    reference = np.zeros(2 * cx.num_vertices)
    np.add.at(reference, index, values)
    assert one.tobytes() == reference.tobytes()


# -- elementary geometry -----------------------------------------------------

def test_signed_area_values():
    q = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert signed_area(q, (0, 1, 2)) == pytest.approx(0.5)
    assert signed_area(q, (0, 2, 1)) == pytest.approx(-0.5)


def test_signed_area_equilateral():
    q = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    assert signed_area(q, (0, 1, 2)) == pytest.approx(np.sqrt(3) / 4)


def test_edge_length_opposite_convention():
    q = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert edge_length(q, (0, 1, 2), 0) == pytest.approx(np.sqrt(2))
    assert edge_length(q, (0, 1, 2), 1) == pytest.approx(1.0)
    assert edge_length(q, (0, 1, 2), 2) == pytest.approx(1.0)


def test_height_values():
    q = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert height(q, (0, 1, 2), 0) == pytest.approx(1.0 / np.sqrt(2))
    assert height(q, (0, 1, 2), 1) == pytest.approx(1.0)
    eq = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    assert height(eq, (0, 1, 2), 0) == pytest.approx(np.sqrt(3) / 2)


def test_height_degenerate_edge():
    q = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DegenerateEdge):
        height(q, (0, 1, 2), 2)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_area_height_edge_identity(seed):
    rng = np.random.default_rng(seed)
    p = random_admissible_triangle(rng)
    a = signed_area(p, (0, 1, 2))
    for ell in range(3):
        assert 2.0 * a == pytest.approx(
            edge_length(p, (0, 1, 2), ell) * height(p, (0, 1, 2), ell), rel=1e-12
        )


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-np.pi, np.pi))
def test_rigid_motion_equivariance(seed, angle):
    rng = np.random.default_rng(seed)
    p = random_admissible_triangle(rng)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    shift = rng.uniform(-3, 3, size=2)
    moved = p @ rot.T + shift
    assert signed_area(moved, (0, 1, 2)) == pytest.approx(signed_area(p, (0, 1, 2)), abs=1e-10)
    for ell in range(3):
        assert edge_length(moved, (0, 1, 2), ell) == pytest.approx(
            edge_length(p, (0, 1, 2), ell), rel=1e-10
        )
        assert height(moved, (0, 1, 2), ell) == pytest.approx(
            height(p, (0, 1, 2), ell), rel=1e-10, abs=1e-10
        )


def test_swap_antisymmetry(rng):
    for _ in range(50):
        p = rng.uniform(-2, 2, size=(3, 2))
        base = signed_area(p, (0, 1, 2))
        assert signed_area(p, (1, 0, 2)) == pytest.approx(-base, rel=1e-12, abs=1e-15)
        assert signed_area(p, (0, 2, 1)) == pytest.approx(-base, rel=1e-12, abs=1e-15)


# -- regularized distance ----------------------------------------------------

def test_regularized_distance_normal_offset():
    # Vertex straight above the segment: only the smoothed |eta| term is active.
    q = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    d = regularized_distance(q, 2, (0, 1), mu=0.1)
    assert d == pytest.approx(4.0 / np.sqrt(4.01), rel=1e-12)
    assert d == pytest.approx(1.9975, abs=1e-4)


def test_regularized_distance_on_segment():
    q = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    assert regularized_distance(q, 2, (0, 1), mu=0.1) == 0.0


def test_regularized_distance_tangential_overshoot():
    # Vertex on the segment line beyond the far endpoint by 1.
    q = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    d = regularized_distance(q, 2, (0, 1), mu=0.1)
    expected = 0.5 * (1.0 + 1.0 / np.sqrt(1.01))  # smoothed positive part at 1
    assert d == pytest.approx(expected, rel=1e-12)
    assert d == pytest.approx(0.997519, abs=1e-6)


def test_regularized_distance_degenerate_edge():
    q = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(DegenerateEdge):
        regularized_distance(q, 2, (0, 1), mu=0.1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1e-1, 1.0]))
def test_regularized_distance_underestimates(seed, mu):
    rng = np.random.default_rng(seed)
    p0, p1 = rng.uniform(-2, 2, size=(2, 2))
    if np.linalg.norm(p1 - p0) < 1e-6:
        return
    v = rng.uniform(-3, 3, size=2)
    coords = np.array([p0, p1, v])
    d = regularized_distance(coords, 2, (0, 1), mu=mu)
    # brute-force fine sampling of the frame-aligned 1-norm over the segment
    e = p1 - p0
    length = np.linalg.norm(e)
    t = e / length
    n = np.array([-t[1], t[0]])
    samples = p0 + np.linspace(0.0, 1.0, 4001)[:, None] * e
    rel = v - samples
    exact = np.min(np.abs(rel @ t) + np.abs(rel @ n))
    assert d <= exact + 1e-12
    assert d >= 0.0


def test_smoothers_zero_sets():
    assert smooth_abs(0.0, 0.1) == 0.0
    # m_mu is the product PairDistances takes of the factors
    half_sum, _, step = mesh_module._smooth_pos_factors(np.array([0.0, -2.0, 0.05]), 0.1)
    m_mu = half_sum * step
    assert m_mu[0] == 0.0
    assert m_mu[1] == 0.0
    assert m_mu[2] > 0.0


def test_regularized_distance_rigid_invariance(rng):
    coords = np.array([[0.1, -0.4], [1.3, 0.2], [0.7, 1.1]])
    base = regularized_distance(coords, 2, (0, 1), mu=0.1)
    for _ in range(10):
        a = rng.uniform(-np.pi, np.pi)
        rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        moved = coords @ rot.T + rng.uniform(-2, 2, size=2)
        assert regularized_distance(moved, 2, (0, 1), mu=0.1) == pytest.approx(
            base, abs=1e-10
        )


# -- admissibility -----------------------------------------------------------

def test_admissibility_square5_family(square5):
    cx, q = square5
    assert is_admissible(cx, q, check_intersections=True)
    flat = q.copy()
    flat[4] = (0.0, 1.0)  # two zero-area triangles
    assert not is_admissible(cx, flat)
    flipped = q.copy()
    flipped[4] = (0.0, 2.0)
    assert not is_admissible(cx, flipped)


def test_admissibility_implies_positive_heights(disc3):
    cx, q = disc3
    assert is_admissible(cx, q)
    from meshshape.mesh import heights

    assert np.all(heights(q, cx) > 0.0)


def test_boundary_overlap_detected():
    # Fan spiralling past a full turn: every signed area is positive but the
    # last vertex lands inside the first triangle and boundary edges cross.
    angles = np.deg2rad([0.0, 60.0, 120.0, 180.0, 240.0, 300.0, 380.0])
    radii = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5])
    coords = np.vstack(
        [[0.0, 0.0], np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])]
    )
    cx = build_complex([(0, k, k + 1) for k in range(1, 7)], 8)
    assert np.all(signed_areas(coords, cx) > 0.0)
    assert is_admissible(cx, coords, check_intersections=False)
    assert not is_admissible(cx, coords, check_intersections=True)


def _loop_orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _loop_segments_intersect(p0, p1, q0, q1):
    d1 = _loop_orient(q0, q1, p0)
    d2 = _loop_orient(q0, q1, p1)
    d3 = _loop_orient(p0, p1, q0)
    d4 = _loop_orient(p0, p1, q1)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True

    def on_segment(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    return bool(
        (d1 == 0 and on_segment(q0, q1, p0))
        or (d2 == 0 and on_segment(q0, q1, p1))
        or (d3 == 0 and on_segment(p0, p1, q0))
        or (d4 == 0 and on_segment(p0, p1, q1))
    )


def _loop_boundary_edges_cross(cx, coords):
    # The loops is_admissible ran before it was vectorized: the reference.
    be = cx.boundary_edges
    for i in range(len(be)):
        a, b = be[i]
        for j in range(i + 1, len(be)):
            c, d = be[j]
            if len({a, b, c, d}) < 4:
                continue
            if _loop_segments_intersect(coords[a], coords[b], coords[c], coords[d]):
                return True
    return False


def _loop_boundary_vertex_inside(cx, coords):
    tris = cx.triangles
    for v in cx.boundary_vertices:
        pv = coords[v]
        for t in tris:
            if v in t:
                continue
            d0 = _loop_orient(coords[t[0]], coords[t[1]], pv)
            d1 = _loop_orient(coords[t[1]], coords[t[2]], pv)
            d2 = _loop_orient(coords[t[2]], coords[t[0]], pv)
            if d0 > 0 and d1 > 0 and d2 > 0:
                return True
    return False


def _spiral_fan(last):
    # Six triangles around the origin; the last rim vertex is free to move.
    angles = np.deg2rad([0.0, 60.0, 120.0, 180.0, 240.0, 300.0])
    coords = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angles), np.sin(angles)]), last])
    return build_complex([(0, k, k + 1) for k in range(1, 7)], 8), coords


def _crossing_strip(w=0.1):
    # A strip of width 2w along the centerline (-1,0) (1,0) (1,1) (0,1) (0,-1):
    # its first and last arms cross at the origin, far from every vertex.
    c = np.array([[-1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, -1.0]])
    d = np.diff(c, axis=0)
    n = np.column_stack([-d[:, 1], d[:, 0]]) / np.linalg.norm(d, axis=1)[:, None]
    offsets = w * np.vstack([n[:1], n[:-1] + n[1:], n[-1:]])  # mitred corners
    coords = np.vstack([c - offsets, c + offsets])  # right rail 0..4, left rail 5..9
    tris = [t for i in range(4) for t in ((i, i + 1, i + 6), (i, i + 6, i + 5))]
    return build_complex(tris, 10), coords


def _admissibility_case(name):
    if name.startswith("disc"):
        rings, _, seed = name[4:].partition("-")
        cx, q = make_disc_mesh(int(rings))
        if seed:
            q = q.copy()
            inner = cx.interior_vertices
            q[inner] += np.random.default_rng(int(seed)).uniform(-0.02, 0.02, size=(len(inner), 2))
        return cx, q
    if name == "touching":  # the last rim vertex on the first spoke
        return _spiral_fan([0.5, 0.0])
    if name == "pushed":  # the last rim vertex inside the first triangle
        return _spiral_fan(0.5 * np.array([np.cos(np.deg2rad(380.0)), np.sin(np.deg2rad(380.0))]))
    return _crossing_strip()


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize(
    "name, crossing, inside",
    [
        ("disc3", False, False),
        ("disc10", False, False),
        ("disc10-4", False, False),
        ("touching", True, False),
        ("crossing", True, False),
        ("pushed", True, True),
    ],
)
def test_vectorized_admissibility_matches_loops(name, crossing, inside, block, monkeypatch):
    if block is not None:  # blocks of one or a few rows
        monkeypatch.setattr(mesh_module, "_PAIR_BLOCK", block)
    cx, q = _admissibility_case(name)
    assert np.all(signed_areas(q, cx) > 0.0)
    assert (_loop_boundary_edges_cross(cx, q), _loop_boundary_vertex_inside(cx, q)) == (crossing, inside)
    assert mesh_module._boundary_overlaps(cx, q) == (crossing, inside)
    assert is_admissible(cx, q, check_intersections=True) == (not (crossing or inside))


@pytest.mark.parametrize("block", [None, 7])
def test_grid_prefilter_finds_a_pushed_boundary_vertex(block, monkeypatch):
    # a perturbed disc:12 whose boundary vertex at (1, 0) is pushed past two
    # rings of triangles, to the nearest triangle centroid inside radius 0.85;
    # its own triangles turn over, so the area check alone would reject the
    # configuration, and the overlap tests run directly
    if block is not None:
        monkeypatch.setattr(mesh_module, "_PAIR_BLOCK", block)
    cx, q = _admissibility_case("disc12-5")
    vertex = cx.boundary_vertices[np.argmax(q[cx.boundary_vertices, 0])]
    target = q[cx.triangles].mean(axis=1)
    target[np.linalg.norm(target, axis=1) > 0.85] = 9.0
    q[vertex] = target[np.argmin(np.linalg.norm(target - q[vertex], axis=1))]
    reference = (_loop_boundary_edges_cross(cx, q), _loop_boundary_vertex_inside(cx, q))
    assert reference[1]
    assert mesh_module._boundary_overlaps(cx, q) == reference
    assert not is_admissible(cx, q, check_intersections=True)


# -- refinement --------------------------------------------------------------

def test_refine_counts_single_triangle():
    cx = build_complex([(0, 1, 2)], 3)
    q = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rcx, rq = uniform_refine(cx, q)
    assert rcx.num_triangles == 4
    assert rcx.num_vertices == 6
    assert is_admissible(rcx, rq)


def test_refine_counts_square5(square5):
    cx, q = square5
    rcx, rq = uniform_refine(cx, q)
    assert rcx.num_triangles == 16
    assert rcx.num_vertices == 13
    assert is_admissible(rcx, rq)


def test_refine_preserves_area_and_quality(rng):
    p = random_admissible_triangle(rng)
    cx = build_complex([(0, 1, 2)], 3)
    rcx, rq = uniform_refine(cx, p)
    parent_quality = quality_reciprocal(p, (0, 1, 2))
    child_areas = signed_areas(rq, rcx)
    assert child_areas.sum() == pytest.approx(signed_area(p, (0, 1, 2)), rel=1e-14)
    for tri in rcx.triangles:
        assert quality_reciprocal(rq, tri) == pytest.approx(parent_quality, rel=1e-13)


# -- generators --------------------------------------------------------------

@pytest.mark.parametrize(
    "rings,nv,nt", [(1, 7, 6), (2, 19, 24), (5, 91, 150)]
)
def test_disc_mesh_counts(rings, nv, nt):
    cx, q = make_disc_mesh(rings)
    assert cx.num_vertices == nv
    assert cx.num_triangles == nt
    assert np.all(signed_areas(q, cx) > 0.0)
    assert is_admissible(cx, q, check_intersections=True)


def _loop_disc_mesh(rings):
    # make_disc_mesh as it was, with the triangles from nested Python loops
    coords = [np.zeros(2)]
    offsets = [0, 1]
    for k in range(1, rings + 1):
        r = k / rings
        angles = 2.0 * np.pi * np.arange(6 * k) / (6 * k)
        coords.extend(np.column_stack([r * np.cos(angles), r * np.sin(angles)]))
        offsets.append(offsets[-1] + 6 * k)
    triangles = []
    for k in range(1, rings + 1):
        n_out, n_in = 6 * k, 6 * (k - 1)
        out0, in0 = offsets[k], offsets[k - 1]
        for s in range(6):
            for u in range(k):
                o_a = out0 + (s * k + u) % n_out
                o_b = out0 + (s * k + u + 1) % n_out
                inner = 0 if k == 1 else in0 + (s * (k - 1) + u) % n_in
                triangles.append((o_a, o_b, inner))
            for u in range(k - 1):
                o_b = out0 + (s * k + u + 1) % n_out
                i_a = in0 + (s * (k - 1) + u) % n_in
                i_b = in0 + (s * (k - 1) + u + 1) % n_in
                triangles.append((o_b, i_b, i_a))
    return build_complex(triangles, offsets[-1]), np.asarray(coords)


@pytest.mark.parametrize("rings", [*range(1, 13), 30])
def test_vectorized_disc_mesh_matches_loops(rings):
    cx, q = make_disc_mesh(rings)
    ref_cx, ref_q = _loop_disc_mesh(rings)
    for got, want in ((q, ref_q), (cx.triangles, ref_cx.triangles)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_square5_mesh_properties(square5):
    cx, q = square5
    assert is_admissible(cx, q)
    assert signed_areas(q, cx).sum() == pytest.approx(4.0)
    assert set(cx.boundary_vertices) == {0, 1, 2, 3}


def test_disc_requires_positive_rings():
    with pytest.raises(ValueError):
        make_disc_mesh(0)


# -- geometry cache ----------------------------------------------------------

def triangle_geometry(coords, complex):
    record = configuration(coords, complex)
    return record.centroids, record.e, record.areas


def _uncached_geometry(coords, triangles):
    p = coords[triangles]
    e = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]
    return p.mean(axis=1), e, 0.5 * (e[:, 2, 0] * e[:, 0, 1] - e[:, 2, 1] * e[:, 0, 0])


def _assert_identical(got, want):
    # equal strides too: the summation order of later reductions follows them
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and a.strides == b.strides and a.tobytes() == b.tobytes()


def test_geometry_is_read_only(disc3):
    cx, q = disc3
    for a in triangle_geometry(q, cx):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_geometry_shared_per_configuration(disc3):
    cx, q = disc3
    first = triangle_geometry(q, cx)
    again = triangle_geometry(q.copy(), cx)  # equal bytes, another array
    assert all(a is b for a, b in zip(first, again))


def test_geometry_follows_in_place_changes(disc3, rng):
    cx, q0 = disc3
    q = q0.copy()
    before = triangle_geometry(q, cx)
    q[cx.interior_vertices] += rng.uniform(-0.05, 0.05, size=(len(cx.interior_vertices), 2))
    after = triangle_geometry(q, cx)
    _assert_identical(after, _uncached_geometry(q, cx.triangles))
    assert not np.array_equal(before[2], after[2])


def test_geometry_keyed_by_triangles(disc3):
    cx, q = disc3
    rotated = cx.triangles[:, [1, 2, 0]]  # the same triangles, other local order
    reversed_order = cx.triangles[::-1].copy()
    complexes = [build_complex(tris, cx.num_vertices) for tris in (rotated, reversed_order)]
    for complex in (cx, *complexes, cx):
        _assert_identical(triangle_geometry(q, complex), _uncached_geometry(q, complex.triangles))


def test_geometry_cache_is_bounded(disc3):
    cx, q = disc3
    for k in range(10):
        moved = q * (1.0 + 0.01 * k)
        _assert_identical(triangle_geometry(moved, cx), _uncached_geometry(moved, cx.triangles))
        assert len(mesh_module._configuration_cache) <= 1  # the latest record only


# -- checked_solve ---------------------------------------------------------------

def _p1_matrix(cx, q):
    return assemble(q, cx, model_rhs()).reduced


def _elasticity_matrix(cx, q):
    return assemble_elasticity(q, cx)


SPD_MATRICES = pytest.mark.parametrize("matrix", [_p1_matrix, _elasticity_matrix])


@pytest.fixture(scope="module")
def perturbed_disc7():
    return _perturbed_disc(7, 11)


def _kept_lu(cx, q, matrix, amplitude):
    """The matrix at ``q`` moved by ``amplitude`` and the LU of the one at ``q``."""
    return matrix(cx, _moved(cx, q, amplitude, 5)), splu(matrix(cx, q), **PREORDERED_LU)


def _relative_residual(a, x, b):
    return np.linalg.norm(a @ x - b) / np.linalg.norm(b)


@SPD_MATRICES
def test_checked_solve_on_the_own_lu_is_the_lu_solve(perturbed_disc7, matrix, rng):
    cx, q = perturbed_disc7
    a = matrix(cx, q)
    lu = splu(a, **PREORDERED_LU)
    b = rng.standard_normal(a.shape[0])
    assert np.array_equal(checked_solve(a, lu, b), lu.solve(b))


@SPD_MATRICES
def test_checked_solve_of_zero_is_zero(perturbed_disc7, matrix):
    cx, q = perturbed_disc7
    a, lu = _kept_lu(cx, q, matrix, 0.001)
    zero = np.zeros(a.shape[0])
    x = checked_solve(a, lu, zero)
    assert x is not None and np.array_equal(x, zero)


@SPD_MATRICES
def test_checked_solve_on_a_kept_lu_reaches_the_tolerance(perturbed_disc7, matrix, rng):
    cx, q = perturbed_disc7
    a, lu = _kept_lu(cx, q, matrix, 0.001)
    b = 1e-6 * rng.standard_normal(a.shape[0])  # the tolerance is relative to |b|
    assert _relative_residual(a, lu.solve(b), b) > 1e3 * RESIDUAL_TOL  # the kept LU alone is not enough
    assert _relative_residual(a, checked_solve(a, lu, b), b) <= RESIDUAL_TOL


@SPD_MATRICES
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checked_solve_of_a_nonfinite_rhs_is_none(perturbed_disc7, matrix, bad, rng):
    cx, q = perturbed_disc7
    a = matrix(cx, q)
    b = rng.standard_normal(a.shape[0])
    b[3] = bad
    assert checked_solve(a, splu(a, **PREORDERED_LU), b) is None


@SPD_MATRICES
def test_checked_solve_on_a_far_off_lu_is_none(perturbed_disc7, matrix, rng):
    # 14 (P1) and 23 (elasticity) iterations, beyond CG_MAX_ITER, would reach the tolerance on this LU
    cx, q = perturbed_disc7
    a, lu = _kept_lu(cx, q, matrix, 0.03)
    assert checked_solve(a, lu, rng.standard_normal(a.shape[0])) is None
