import numpy as np
import pytest

from meshshape.errors import DegenerateEdge
from meshshape.mesh import (
    ConnectivityComplex,
    PairDistances,
    build_complex,
    configuration,
    make_disc_mesh,
    make_square5_mesh,
)
from meshshape.penalty import PenaltyEvaluator


@pytest.fixture(scope="session")
def square5():
    return make_square5_mesh()


@pytest.fixture(scope="session")
def disc2():
    return make_disc_mesh(2)


@pytest.fixture(scope="session")
def disc3():
    return make_disc_mesh(3)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_admissible_triangle(rng, min_area=1e-3):
    while True:
        p = rng.uniform(-2.0, 2.0, size=(3, 2))
        a, b = p[1] - p[0], p[2] - p[1]
        area = 0.5 * (a[0] * b[1] - a[1] * b[0])
        if area > min_area:
            return p


def central_difference(fn, coords, h=1e-6):
    flat = coords.ravel()
    out = np.zeros(flat.size)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = h
        out[i] = (
            fn((flat + bump).reshape(coords.shape))
            - fn((flat - bump).reshape(coords.shape))
        ) / (2.0 * h)
    return out


# -- reference oracles --------------------------------------------------------
# Scalar, one-element versions of the vectorized geometry in meshshape.mesh,
# uniform refinement (the refinement ladders of the convergence tests) and the
# CG solve the paper uses for the rank-one metric.

def signed_area(coords, tri):
    """Signed area of one triangle: half the determinant of two edge vectors.

    Positive for counter-clockwise orientation; antisymmetric under swapping
    any two vertices.
    """
    p0, p1, p2 = coords[tri[0]], coords[tri[1]], coords[tri[2]]
    a, b = p1 - p0, p2 - p1
    return 0.5 * (a[0] * b[1] - a[1] * b[0])


def edge_length(coords, tri, ell):
    """Length of the edge opposite local vertex ``ell`` (indices mod 3)."""
    i = tri[(ell + 1) % 3]
    j = tri[(ell + 2) % 3]
    return float(np.linalg.norm(coords[i] - coords[j]))


def height(coords, tri, ell):
    """Triangle height onto the edge opposite vertex ``ell``, sign following
    the orientation; raises ``DegenerateEdge`` on a zero-length edge."""
    e = edge_length(coords, tri, ell)
    if e == 0.0:
        raise DegenerateEdge("zero-length edge has no height")
    return 2.0 * signed_area(coords, tri) / e


def quality_reciprocal(coords, tri):
    """Sum of squared edge lengths over ``4 sqrt(3)`` times the area (>= 1)
    of one triangle, from the record's ``PenaltyEvaluator``, as ``mesh_quality``."""
    one = build_complex([(0, 1, 2)], 3)
    return float(configuration(np.asarray(coords)[list(tri)], one).memo(PenaltyEvaluator, one).quality()[0])


def regularized_distance(coords, vertex, edge, mu):
    """Smoothed 1-norm distance from one vertex to a non-incident segment."""
    if mu <= 0.0:
        raise ValueError("smoothing parameter must be positive")
    pair = np.array([[vertex, edge[0], edge[1]]], dtype=np.int64)
    return float(PairDistances(coords, pair, mu).dist[0])


def uniform_refine(complex: ConnectivityComplex, coords: np.ndarray):
    """Bisect every edge, splitting each triangle into 4 similar children.

    Preserves total area and per-triangle quality exactly (children are
    congruent and similar to their parent); the child count is ``4 N_T``.
    """
    n_v = complex.num_vertices
    edges = complex.edges
    edge_index = {(int(a), int(b)): n_v + i for i, (a, b) in enumerate(edges)}

    def mid(a, b):
        return edge_index[(a, b) if a < b else (b, a)]

    new_coords = np.vstack([coords, 0.5 * (coords[edges[:, 0]] + coords[edges[:, 1]])])
    children = []
    for a, b, c in complex.triangles:
        a, b, c = int(a), int(b), int(c)
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        children.append((a, mab, mca))
        children.append((mab, b, mbc))
        children.append((mca, mbc, c))
        children.append((mab, mbc, mca))
    refined = build_complex(children, n_v + len(edges))
    return refined, new_coords


def cg_rank_one(g, d):
    """Two unpreconditioned CG iterations on ``(I + g g^T) x = d``, exact in
    exact arithmetic because the matrix has two distinct eigenvalues."""
    x = np.zeros_like(d)
    r = d - (x + g * (g @ x))
    p = r.copy()
    rs = r @ r
    for _ in range(2):
        if rs == 0.0:
            break
        ap = p + g * (g @ p)
        alpha = rs / (p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = r @ r
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x
