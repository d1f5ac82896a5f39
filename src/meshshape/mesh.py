"""Connectivity complexes, vertex configurations and elementary mesh geometry.

A mesh is split into two independent objects: a :class:`ConnectivityComplex`
holding the purely combinatorial data (triangles, derived edges, boundary
sets) and a vertex configuration, which is simply an
``(N_V, 2)`` float array whose row ``j`` is the position of vertex ``j``.
What the package derives from one configuration is computed once, in its
:class:`Configuration` record, the latest of which is kept; its edge vectors
and signed areas come from :func:`gather_geometry`, the one gather that the
penalty's evaluator also calls at the geodesic's throwaway points.

Vectorized quantities use the "vec" ordering throughout the package: the
flattened coordinate vector is ``coords.ravel()``, i.e.
``[x_0, y_0, x_1, y_1, ...]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spilu

from .errors import (
    DegenerateEdge,
    EdgeOveruse,
    InconsistentOrientation,
    InvalidValue,
    NotPure,
    NotTwoPathConnected,
)

SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as a memo key
class ConnectivityComplex:
    """Oriented abstract simplicial 2-complex of a triangular mesh.

    Attributes
    ----------
    num_vertices : int
        Number of vertices ``N_V``; triangle indices are 0-based in
        ``[0, N_V)``.
    triangles : ndarray, shape (N_T, 3)
        Oriented vertex index triples.
    edges : ndarray, shape (N_E, 2)
        Derived undirected edges, each row sorted, rows lexicographically
        sorted.
    boundary_edges : ndarray, shape (N_B, 2)
        Edges incident to exactly one triangle (subset of ``edges``).
    boundary_vertices : ndarray
        Sorted vertices of the boundary edges.

    Instances are produced by :func:`build_complex`, which verifies that the
    complex is pure (every vertex lies in some triangle), 2-path connected
    (the graph of triangles sharing an interior edge is connected) and
    consistently oriented (each interior edge is traversed in opposite
    directions by its two triangles).
    """

    num_vertices: int
    triangles: np.ndarray
    edges: np.ndarray
    boundary_edges: np.ndarray
    boundary_vertices: np.ndarray

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def boundary_pairs(self) -> np.ndarray:
        """All (vertex, edge) pairs entering the boundary-proximity terms.

        Returns an ``(P, 3)`` int array of rows ``(i0, j0, j1)`` where
        ``[j0, j1]`` is a boundary edge and ``i0`` a boundary vertex that is
        not an endpoint of it; rows run edge by edge, vertices ascending.
        """
        edge = np.repeat(self.boundary_edges, len(self.boundary_vertices), axis=0)
        vertex = np.tile(self.boundary_vertices, len(self.boundary_edges))
        keep = (vertex != edge[:, 0]) & (vertex != edge[:, 1])
        return np.column_stack([vertex, edge])[keep]

    @cached_property
    def vertex_dofs(self) -> np.ndarray:
        """Vec-order DOFs ``2 i + c`` of each triangle's vertices, shape (N_T, 3, 2)."""
        return 2 * self.triangles[..., None] + np.arange(2)

    @cached_property
    def cycle_dofs(self) -> np.ndarray:
        """Vec-order DOFs of local vertices 0, 1, 2, 0, 1, 2 of each triangle, shape (6, N_T, 2):
        rows ``[:3]`` are ``vertex_dofs`` local vertex major, and successive rows walk the boundary twice."""
        return self.vertex_dofs.transpose(1, 0, 2)[[0, 1, 2, 0, 1, 2]]

    @cached_property
    def boundary_pair_dofs(self) -> np.ndarray:
        """Vec-order DOFs of the vertex and the two edge endpoints of each
        boundary pair, shape (3, P, 2), endpoint-major."""
        return 2 * self.boundary_pairs.T[..., None] + np.arange(2)

    @cached_property
    def interior_vertices(self) -> np.ndarray:
        """Sorted vertices that are not on the boundary."""
        return np.setdiff1d(np.arange(self.num_vertices), self.boundary_vertices, assume_unique=True)

    @cached_property
    def interior_order(self) -> np.ndarray:
        """``interior_vertices`` in the fill-reducing order of the interior P1 graph."""
        return fill_reducing_order(self, self.interior_vertices)

    @cached_property
    def dof_order(self) -> np.ndarray:
        """Vec-order DOFs, x and y adjacent, vertices in the fill-reducing order of the P1 graph."""
        return (2 * fill_reducing_order(self, np.arange(self.num_vertices))[:, None] + np.arange(2)).ravel()

    @cached_property
    def interior_p1_pattern(self) -> "SparsePattern":
        """Pattern of the P1 stiffness on ``interior_vertices`` in ``interior_order``: 3x3 blocks over ``triangles``."""
        return SparsePattern.build(self.interior_order, self.triangles)

    @cached_property
    def elasticity_pattern(self) -> "SparsePattern":
        """Pattern of the vector P1 metric in ``dof_order``: 6x6 blocks over ``vertex_dofs``."""
        return SparsePattern.build_doubled(self.dof_order[::2] // 2, self.triangles)


@dataclass(frozen=True, eq=False)
class SparsePattern:
    """CSC pattern of a sum of dense element blocks: :meth:`matrix` adds the
    flattened element entry ``k`` to stored entry ``slots[k]`` (none for
    ``len(indices)``), each stored entry summing its contributions in element
    order, as :func:`scatter_add` and ``np.add.at`` do."""

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray

    def __post_init__(self):
        for shared in (self.indptr, self.indices):  # by every assembled matrix
            shared.flags.writeable = False

    @classmethod
    def build(cls, kept: np.ndarray, dofs: np.ndarray) -> "SparsePattern":
        """The ``k x k`` blocks over the rows of ``dofs`` (n, k), in rows and columns ``kept``,
        in that order: flat entry ``(n k + a) k + b`` sits at the places in ``kept`` of
        ``dofs[n, a]`` and ``dofs[n, b]``, and in no stored entry if either is not kept."""
        size = len(kept)
        place = np.full(dofs.max() + 1, -1)
        place[kept] = np.arange(size)
        ends = place[dofs]
        rows, cols = ends[:, :, None], ends[:, None, :]
        keys = np.where((rows < 0) | (cols < 0), size * size, cols * size + rows).ravel()  # dropped ones sort last
        # A stored entry is a run of equal keys in sorted order; a slot depends on its key alone,
        # so any sort gives the same slots, and the fastest is used.
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.r_[True, keys[1:] != keys[:-1]]
        keys = keys[starts]
        indptr = np.searchsorted(keys, np.arange(size + 1) * size).astype(np.int32)
        indices = (keys[:indptr[-1]] % size).astype(np.int32)
        ranks = np.cumsum(starts) - 1  # before slots: the cast of starts takes an entry-long temporary
        slots = np.empty_like(order)
        slots[order] = ranks  # a dropped entry's rank is len(indices)
        return cls(indptr, indices, slots)

    @classmethod
    def build_doubled(cls, kept: np.ndarray, dofs: np.ndarray) -> "SparsePattern":
        """``build`` with each index ``i`` split into ``2 i`` and ``2 i + 1`` (a vertex into its x and y DOFs):
        kept ``2 kept[:, None] + [0, 1]`` and rows ``2 dofs[:, :, None] + [0, 1]``, raveled per row.  Read off
        ``build(kept, dofs)``, each of whose stored entries becomes a 2x2 block, instead of sorting 4x the keys."""
        half = cls.build(kept, dofs)
        indptr, nnz, c = half.indptr.astype(np.int64), len(half.indices), np.arange(2)
        counts = np.diff(indptr)
        column = np.repeat(np.arange(len(counts)), counts)
        # Entry e of column s, row i, splits into rows 2 i + c of columns 2 s + d; column s's rows all precede
        # column s + 1's, so split[e, c, d] = first + d width + c is where each part is stored.
        first = np.r_[2 * (np.arange(nnz) + indptr[column]), 4 * nnz]
        width = np.r_[2 * counts[column], 0]
        split = np.minimum(first[:, None, None] + c[:, None] + width[:, None, None] * c, 4 * nnz)  # dropped: 4 nnz
        indices = np.empty(4 * nnz, dtype=np.int32)
        indices[split[:-1]] = 2 * half.indices[:, None, None] + c[:, None]
        slots = split[half.slots].reshape(-1, dofs.shape[1], dofs.shape[1], 2, 2).swapaxes(2, 3).ravel()
        i = np.arange(2 * len(counts) + 1)
        indptr = (2 * (indptr[i // 2] + indptr[(i + 1) // 2])).astype(np.int32)
        return cls(indptr, indices, slots)

    def matrix(self, values: np.ndarray) -> sparse.csc_matrix:
        """The sum of the element blocks ``values``."""
        data = np.bincount(self.slots, weights=np.ravel(values), minlength=len(self.indices) + 1)
        size = len(self.indptr) - 1
        return sparse.csc_matrix((data[:-1], self.indices, self.indptr), shape=(size, size))


# SuperLU options for the symmetric positive definite matrices assembled on
# these patterns: symmetric mode, minimum degree ordering on A + A^T, which
# fill_reducing_order computes once per pattern.  The patterns are stored in
# that order, so their columns are factored as stored (PREORDERED_LU); SuperLU's
# default threshold pivoting may still swap rows (unpinned disc:3 elasticity).
# Panels of one column factor these small supernodes faster, at equal fill (scripts/superlu_table.py).
SPD_LU = {"permc_spec": "MMD_AT_PLUS_A", "panel_size": 1, "options": {"SymmetricMode": True}}
PREORDERED_LU = {**SPD_LU, "permc_spec": "NATURAL"}

# Every SPD solve meets this relative residual within CG_MAX_ITER iterations, or its caller raises SingularSystem.
RESIDUAL_TOL = 1e-10
CG_MAX_ITER = 8


def checked_solve(a, lu, b: np.ndarray, precision=np.float64):
    """Conjugate gradients on the SPD matrix ``a``, preconditioned by ``lu``
    (an LU of ``a`` or of a nearby matrix, factored in ``precision``, which
    solves in it: right-hand sides are cast to it, solutions back to float64)
    and started from ``lu``'s solution: the first iterate whose float64
    residual is within ``RESIDUAL_TOL`` of ``|b|``, or None after ``CG_MAX_ITER``
    iterations, as always for a non-finite ``b``: its NaN residuals fail every test."""

    def precondition(r):
        return lu.solve(r.astype(precision, copy=False)).astype(np.float64, copy=False)

    tol = RESIDUAL_TOL * np.linalg.norm(b)
    x = precondition(b)
    r = b - a @ x
    p, rz = 0.0, 1.0
    for _ in range(CG_MAX_ITER):
        if np.linalg.norm(r) <= tol:
            return x
        z = precondition(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
        x = x + (rz / (p @ (a @ p))) * p
        r = b - a @ x
    return x if np.linalg.norm(r) <= tol else None


def fill_reducing_order(complex: ConnectivityComplex, keep: np.ndarray) -> np.ndarray:
    """``keep`` in the order in which SuperLU, under ``SPD_LU``, factors rows and columns ``keep`` of the P1 graph
    of ``complex``; read off a stand-in: -1 on each kept edge, the column count on the diagonal.  An incomplete LU
    that drops every off-diagonal entry orders it the same way, without the fill."""
    n = len(keep)
    place = np.full(complex.num_vertices, -1)
    place[keep] = np.arange(n)
    ends = place[complex.edges]
    i, j = ends[np.all(ends >= 0, axis=1)].T
    rows, cols = np.r_[i, j, :n], np.r_[j, i, :n]  # the edges both ways, then the diagonal
    values = np.r_[-np.ones(2 * len(i)), np.bincount(cols, minlength=n)]
    stand_in = sparse.csc_matrix((values, (rows, cols)), shape=(n, n))
    return keep[np.argsort(spilu(stand_in, drop_tol=np.inf, fill_factor=1.0, **SPD_LU).perm_c)]


def free_dofs(fixed_mask) -> np.ndarray | None:
    """Vec-order mask of the DOFs of the vertices outside the per-vertex ``fixed_mask``; None for no mask."""
    return None if fixed_mask is None else ~np.repeat(np.asarray(fixed_mask, dtype=bool), 2)


def read_only(*arrays):
    """The arrays, made read-only so that all callers can share them; one array for one argument."""
    for a in arrays:
        a.setflags(write=False)
    return arrays[0] if len(arrays) == 1 else arrays


def scatter_add(size: int, *terms) -> np.ndarray:
    """Sum ``(index, values)`` contributions of equal shapes into a
    length-``size`` array.

    All terms go through one ``np.bincount`` in the order given, so every
    entry sums its contributions in exactly that order, as successive
    unbuffered ``ufunc.at`` additions would.
    """
    if len(terms) == 1:
        (index, values), = terms
    else:
        index = np.concatenate([i.ravel() for i, _ in terms])
        values = np.concatenate([v.ravel() for _, v in terms])
    return np.bincount(index.ravel(), weights=values.ravel(), minlength=size)


def build_complex(triangles, num_vertices: int) -> ConnectivityComplex:
    """Build and validate a :class:`ConnectivityComplex` from index triples.

    Raises
    ------
    NotPure
        If the triangle list is empty or some vertex is isolated.
    EdgeOveruse
        If some edge belongs to more than two triangles.
    InconsistentOrientation
        If an interior edge is induced with the same orientation twice.
    NotTwoPathConnected
        If the triangle adjacency graph is disconnected.
    ValueError
        If an index is out of range or a triangle repeats a vertex.
    """
    tris = np.ascontiguousarray(triangles, dtype=np.int64).reshape(-1, 3)  # the gathers take its layout
    if num_vertices <= 0 or tris.shape[0] == 0:
        raise NotPure("complex has no triangles")
    if tris.min(initial=0) < 0 or tris.max(initial=-1) >= num_vertices:
        raise ValueError("triangle vertex index out of range")
    if np.any((tris[:, 0] == tris[:, 1]) | (tris[:, 1] == tris[:, 2]) | (tris[:, 2] == tris[:, 0])):
        raise ValueError("triangle with repeated vertex")

    n_t = tris.shape[0]
    # Directed edges in traversal order; edge l is opposite local vertex l.
    directed = np.stack(
        [tris[:, [1, 2]], tris[:, [2, 0]], tris[:, [0, 1]]], axis=1
    ).reshape(-1, 2)
    lo = directed.min(axis=1)
    hi = directed.max(axis=1)
    keys = lo * num_vertices + hi
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    uniq_keys, first, counts = np.unique(sorted_keys, return_index=True, return_counts=True)
    if np.any(counts > 2):
        raise EdgeOveruse("edge shared by more than two triangles")

    edges = np.column_stack([uniq_keys // num_vertices, uniq_keys % num_vertices])

    # Orientation: the two traversals of an interior edge must be opposite,
    # i.e. one must run lo->hi and the other hi->lo.  Half-edge ids are flat
    # indices 3*triangle + local edge.
    forward = directed[:, 0] == lo
    interior = counts == 2
    h0 = order[first[interior]]
    h1 = order[first[interior] + 1]
    same = forward[h0] == forward[h1]
    if np.any(same):
        bad = edges[interior][np.argmax(same)]
        raise InconsistentOrientation(
            f"edge {tuple(bad)} induced twice with the same orientation"
        )

    used = np.zeros(num_vertices, dtype=bool)
    used[tris.ravel()] = True
    if not used.all():
        missing = int(np.flatnonzero(~used)[0])
        raise NotPure(f"vertex {missing} does not belong to any triangle")

    boundary_edges = edges[counts == 1]
    boundary_vertices = np.unique(boundary_edges)

    if n_t > 1:
        graph = sparse.coo_matrix((np.ones(len(h0)), (h0 // 3, h1 // 3)), shape=(n_t, n_t))
        n_comp, _ = connected_components(graph, directed=False)
        if n_comp != 1:
            raise NotTwoPathConnected(f"{n_comp} triangle components")

    return ConnectivityComplex(
        num_vertices=num_vertices,
        triangles=tris,
        edges=edges,
        boundary_edges=boundary_edges,
        boundary_vertices=boundary_vertices,
    )


# ---------------------------------------------------------------------------
# Elementary geometric quantities
# ---------------------------------------------------------------------------

_configuration_cache = []  # the latest (complex, coords key, record), or nothing


def gather_geometry(x: np.ndarray, complex: ConnectivityComplex) -> tuple:
    """``(e, areas, edges)`` of the flat vec-order coordinates ``x`` on ``complex``, from one gather.

    For the gathered vertices ``p``, ``edges`` (5, N_T, 2) holds ``p_{k+1} - p_k`` in row ``k`` (local
    indices mod 3): row ``l + 1`` is ``e_l = p_{l+2} - p_{l+1}``, the edge vector opposite local vertex
    ``l``, and ``e`` (N_T, 3, 2) the view of rows 1 to 3, local edge major in memory (strides ``(16,
    16 N_T, 8)``), which fixes the order of every later sum over it; ``areas`` (N_T,) holds the signed
    areas.
    """
    cycle = x[complex.cycle_dofs]
    edges = cycle[1:] - cycle[:-1]
    e = edges[1:4].transpose(1, 0, 2)
    return e, 0.5 * (e[:, 2, 0] * e[:, 0, 1] - e[:, 2, 1] * e[:, 0, 0]), edges


class Configuration:
    """Everything derived from one vertex configuration on one complex.

    ``x`` holds the flat read-only coordinates, ``e``, ``areas`` and ``edges``
    the geometry of :func:`gather_geometry`, and ``positive`` the one area
    test: whether all signed areas are positive (none NaN); ``basis_gradients``
    and ``centroids`` are computed on first use, and :meth:`memo` keeps what
    other layers derive (the assembled P1 system, the penalty's terms).
    Every array is read-only, so all callers can share them.
    """

    def __init__(self, x: np.ndarray, complex: ConnectivityComplex):
        self.x, self._vertex_dofs = x, complex.vertex_dofs
        self.e, self.areas, self.edges = read_only(*gather_geometry(x, complex))
        self.positive = bool(self.areas.min() > 0.0)
        self._memo = {}

    @cached_property
    def basis_gradients(self) -> np.ndarray:
        """Gradients of the P1 hat functions, (N_T, 3, 2): the hat function of
        local vertex ``l`` has gradient ``rot90(e_l) / (2 A)``, with
        ``rot90 (x, y) = (-y, x)``."""
        e = self.e
        return read_only(np.stack([-e[..., 1], e[..., 0]], axis=-1) / (2.0 * self.areas[:, None, None]))

    @cached_property
    def centroids(self) -> np.ndarray:
        return read_only(self.x[self._vertex_dofs].mean(axis=1))

    def memo(self, compute, *args):
        """``compute(self, *args)`` (read-only), once per ``compute`` and ``args``
        themselves; a ``compute`` that raises stores nothing."""
        key = (compute, *args)
        result = self._memo.get(key)
        if result is None:
            result = self._memo[key] = compute(self, *args)
        return result


def configuration(coords: np.ndarray, complex: ConnectivityComplex) -> Configuration:
    """The :class:`Configuration` of ``coords`` on ``complex``.

    The record of the last configuration asked for is kept, keyed by
    ``complex`` itself (by identity) and by the shape, dtype and bytes of
    ``coords``, so every layer asking about one vertex configuration shares
    one record, and changing ``coords`` in place gives a fresh one.  A
    record's ``x`` reads the key's bytes.  Any other configuration replaces
    it: every layer reads derived quantities only at the configuration it
    has just asked for.
    """
    key = (coords.tobytes(), coords.shape, coords.dtype)  # the bytes first: they tell records apart
    if _configuration_cache:
        cx, entry_key, record = _configuration_cache[0]
        if cx is complex and entry_key == key:
            return record
    record = Configuration(np.frombuffer(key[0], coords.dtype), complex)
    _configuration_cache[:] = [(complex, key, record)]
    return record


def signed_areas(coords: np.ndarray, complex: ConnectivityComplex) -> np.ndarray:
    """Signed areas of all triangles, vectorized."""
    return configuration(coords, complex).areas


def heights(coords: np.ndarray, complex: ConnectivityComplex) -> np.ndarray:
    """All heights as an (N_T, 3) array, sign following the signed area."""
    record = configuration(coords, complex)
    lengths = np.sqrt(np.sum(record.e**2, axis=2))
    if np.any(lengths == 0.0):
        raise DegenerateEdge("zero-length edge has no height")
    return 2.0 * record.areas[:, None] / lengths


# ---------------------------------------------------------------------------
# Regularized vertex-edge distance
# ---------------------------------------------------------------------------
#
# Distance from a vertex to a segment, measured with a smooth underestimate of
# the 1-norm in the orthogonal frame aligned with the segment.  With (xi, eta)
# the tangential/normal coordinates of the vertex relative to the segment
# [0, L] the exact frame-aligned 1-norm distance is
#
#     |eta| + max(-xi, 0) + max(xi - L, 0),
#
# and we replace |.| by a_mu and max(., 0) by m_mu below.  Both are smooth
# (C^3) underestimates, so the result is a nonnegative underestimate that
# vanishes exactly when the vertex lies on the segment.


def smooth_abs(t, mu: float):
    """C^inf underestimate of ``|t|``: ``t^2 / sqrt(t^2 + mu^2)``."""
    return t * t / np.sqrt(t * t + mu * mu)


def smooth_abs_prime(t, mu: float):
    tt = t * t
    return t * (tt + 2.0 * mu * mu) / (tt + mu * mu) ** 1.5


def _smoothstep(u):
    # C^3 step of u clipped to [0, 1]: 0 at 0, 1 at 1, degree-7 Hermite blend between.
    return u**4 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u)))


def _smooth_pos_factors(t, mu: float):
    """Factors ``(half_sum, u, step)`` of m_mu(t) = ``half_sum * step``, the C^3
    underestimate of ``max(t, 0)``: exactly zero for ``t <= 0``, and equal to
    ``half_sum = (t + smooth_abs(t)) / 2`` for ``t >= mu``.  ``step`` blends on
    ``u = t / mu`` clipped to [0, 1]; the slope reuses all three factors."""
    u = np.clip(t / mu, 0.0, 1.0)
    return 0.5 * (t + smooth_abs(t, mu)), u, _smoothstep(u)


def _smooth_pos_slope(t, mu: float, half_sum, u, step):
    # d m_mu / dt from the factors of _smooth_pos_factors(t, mu)
    step_slope = np.where((u > 0.0) & (u < 1.0), u**3 * (140.0 + u * (-420.0 + u * (420.0 - 140.0 * u))), 0.0) / mu
    return 0.5 * (1.0 + smooth_abs_prime(t, mu)) * step + half_sum * step_slope


def _pair_frames(coords, pairs):
    # Edge-aligned frame of each (vertex, j0, j1) row: unit tangent t, unit
    # normal n, the vertex's coordinates (xi, eta) relative to j0, and |e|.
    v = coords[pairs[:, 0]]
    p0 = coords[pairs[:, 1]]
    p1 = coords[pairs[:, 2]]
    e = p1 - p0
    length = np.sqrt(np.sum(e**2, axis=1))
    if np.any(length == 0.0):
        raise DegenerateEdge("edge endpoints coincide")
    t = e / length[:, None]
    n = np.column_stack([-t[:, 1], t[:, 0]])
    u = v - p0
    return t, n, np.sum(u * t, axis=1), np.sum(u * n, axis=1), length


class PairDistances:
    """Smoothed 1-norm distances from vertices to non-incident segments.

    For each row ``(i, j0, j1)`` of the (P, 3) ``pairs``, ``dist`` holds a
    nonnegative ``C^3`` underestimate of the minimum, over points of the
    segment ``[j0, j1]``, of the 1-norm in the edge-aligned frame; zero
    exactly when vertex ``i`` lies on the segment.  The frames and smoother
    factors are kept for :meth:`gradients`.
    """

    def __init__(self, coords, pairs, mu: float):
        self.mu = mu
        self._frames = t, n, xi, eta, length = _pair_frames(coords, pairs)
        # the tangential overshoots past j0 and past j1, rows of one (2, P) array, and their smoother factors
        self._overshoots = np.stack([-xi, xi - length])
        self._factors = half_sum, _, step = _smooth_pos_factors(self._overshoots, mu)
        m = half_sum * step
        self.dist = read_only(smooth_abs(eta, mu) + m[0] + m[1])

    def gradients(self) -> np.ndarray:
        """Exact gradients of ``dist`` with respect to the vertex and the two
        edge endpoints, (3, P, 2)."""
        t, n, xi, eta, length = self._frames
        m_lo, m_hi = _smooth_pos_slope(self._overshoots, self.mu, *self._factors)
        c_eta = smooth_abs_prime(eta, self.mu)
        c_xi = -m_lo + m_hi
        c_len = -m_hi

        # xi, eta, length differentials in terms of du = dv - dp0, de = dp1 - dp0:
        #   d xi  = t . du + (eta / length) n . de
        #   d eta = n . du - (xi  / length) n . de
        #   d len = t . de
        gv = c_eta[:, None] * n + c_xi[:, None] * t
        g1 = (
            ((c_xi * eta - c_eta * xi) / length)[:, None] * n
            + c_len[:, None] * t
        )
        g0 = -gv - g1
        return np.stack([gv, g0, g1])


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

_PAIR_BLOCK = 1 << 18  # candidate pairs per block of a pairwise test


def _grid_cells(lo, hi, origin, size, m):
    # (box, cell id) of every cell of the m x m grid that each box [lo, hi]
    # meets; the cell index of a coordinate never decreases with it.
    first = np.minimum(((lo - origin) / size).astype(np.int64), m - 1)
    span = np.minimum(((hi - origin) / size).astype(np.int64), m - 1) - first + 1
    counts = span[:, 0] * span[:, 1]
    box = np.repeat(np.arange(len(lo)), counts)
    k = np.arange(len(box)) - np.repeat(np.cumsum(counts) - counts, counts)
    return box, (first[box, 0] + k % span[box, 0]) * m + first[box, 1] + k // span[box, 0]


def _box_candidates(lo_a, hi_a, lo_b, hi_b):
    """Index pairs ``(i, j)`` of boxes ``a_i`` and ``b_j`` (rows of corner
    arrays, (n, 2)) that share a cell of a uniform grid with about
    ``len(lo_b)`` cells: every pair of intersecting boxes, some more than once."""
    origin = np.minimum(lo_a.min(axis=0), lo_b.min(axis=0))
    extent = np.maximum(hi_a.max(axis=0), hi_b.max(axis=0)) - origin
    m = max(1, int(np.sqrt(len(lo_b))))
    size = np.where(extent > 0.0, extent, 1.0) / m
    a, a_cell = _grid_cells(lo_a, hi_a, origin, size, m)
    b, b_cell = _grid_cells(lo_b, hi_b, origin, size, m)
    order = np.argsort(b_cell, kind="stable")
    b, b_cell = b[order], b_cell[order]
    start = np.searchsorted(b_cell, a_cell, side="left")
    count = np.searchsorted(b_cell, a_cell, side="right") - start
    offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    return np.repeat(a, count), b[np.repeat(start, count) + offset]


def _orient(a, b, c):
    # Elementwise over broadcast (..., 2) points.
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])


def _segments_intersect(p0, p1, q0, q1):
    ends = ((q0, q1, p0), (q0, q1, p1), (p0, p1, q0), (p0, p1, q1))
    d1, d2, d3, d4 = (_orient(a, b, c) for a, b, c in ends)
    meet = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)
    for d, (a, b, c) in zip((d1, d2, d3, d4), ends):  # an endpoint on the other segment
        meet = meet | ((d == 0) & np.all((np.minimum(a, b) <= c) & (c <= np.maximum(a, b)), axis=-1))
    return meet


def is_admissible(complex: ConnectivityComplex, coords: np.ndarray, check_intersections: bool = False) -> bool:
    """Whether a vertex configuration is an admissible mesh for ``complex``.

    Always requires strictly positive signed areas.  With
    ``check_intersections`` a conservative geometric check is added: no two
    non-adjacent boundary edges may intersect and no boundary vertex may lie
    strictly inside a non-incident triangle.  Only edges and triangles whose
    bounding boxes share a grid cell are tested against each other.
    """
    if not np.all(np.isfinite(coords)):
        return False
    if not configuration(coords, complex).positive:
        return False
    return not check_intersections or not any(_boundary_overlaps(complex, coords))


def _boundary_overlaps(complex: ConnectivityComplex, coords: np.ndarray) -> tuple:
    """``(crossing, inside)``: whether two boundary edges without a common
    vertex intersect, and whether a boundary vertex lies strictly inside a
    triangle it is not a vertex of."""
    be, bv, tris = complex.boundary_edges, complex.boundary_vertices, complex.triangles
    seg, p, pv = coords[be], coords[tris], coords[bv]
    # each boundary edge and vertex meets only the few edges and triangles
    # whose bounding boxes share a grid cell with its own
    seg_lo, seg_hi = seg.min(axis=1), seg.max(axis=1)
    edge_pairs = _box_candidates(seg_lo, seg_hi, seg_lo, seg_hi)  # every pair both ways
    vertex_pairs = _box_candidates(pv, pv, p.min(axis=1), p.max(axis=1))

    def edges_cross(i, j):
        disjoint = ~np.any(be[i, :, None] == be[j, None, :], axis=(1, 2))
        return disjoint & _segments_intersect(seg[i, 0], seg[i, 1], seg[j, 0], seg[j, 1])

    def vertex_inside(i, j):
        inside = ~np.any(tris[j] == bv[i, None], axis=1)
        for k in range(3):
            inside &= _orient(p[j, k], p[j, (k + 1) % 3], pv[i]) > 0
        return inside

    return tuple(
        any(np.any(test(i[r:r + _PAIR_BLOCK], j[r:r + _PAIR_BLOCK])) for r in range(0, len(i), _PAIR_BLOCK))
        for test, (i, j) in ((edges_cross, edge_pairs), (vertex_inside, vertex_pairs))
    )


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def make_square5_mesh():
    """The 5-vertex mesh of the square [-1,1]^2: 4 corners plus the center."""
    coords = np.array(
        [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [0.0, 0.0]]
    )
    complex = build_complex([(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)], 5)
    return complex, coords


def make_disc_mesh(rings: int):
    """Triangulate the unit disc with concentric rings.

    Ring ``k`` (1-based) sits at radius ``k / rings`` and carries ``6 k``
    vertices, giving ``1 + 3 rings (rings+1)`` vertices and ``6 rings^2``
    positively oriented triangles.
    """
    if rings < 1:
        raise InvalidValue("rings", rings, "must be >= 1")

    coords = [np.zeros((1, 2))]
    triangles = []
    for k in range(1, rings + 1):
        r = k / rings
        angles = 2.0 * np.pi * np.arange(6 * k) / (6 * k)
        coords.append(np.column_stack([r * np.cos(angles), r * np.sin(angles)]))
        # Per sector s, the k triangles (o_a, o_b, inner) on the outer ring's
        # edges, then the k - 1 triangles (o_b, i_b, i_a) on the inner ring's.
        out0 = 1 + 3 * k * (k - 1)  # the first vertex of ring k
        in0 = 1 + 3 * (k - 1) * (k - 2) if k > 1 else 0
        s, u = np.arange(6)[:, None], np.arange(k)
        o_a = out0 + (s * k + u) % (6 * k)
        o_b = out0 + (s * k + u + 1) % (6 * k)
        inner = in0 + (s * (k - 1) + u) % max(6 * (k - 1), 1)  # the centre when k == 1
        outward = np.stack([o_a, o_b, inner], axis=-1)
        inward = np.stack([o_b[:, :-1], inner[:, 1:], inner[:, :-1]], axis=-1)
        triangles.append(np.concatenate([outward, inward], axis=1).reshape(-1, 3))

    complex = build_complex(np.concatenate(triangles), 3 * rings * (rings + 1) + 1)
    return complex, np.concatenate(coords)
