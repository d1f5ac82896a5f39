import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import SuperLU, splu

from meshshape import fem, metrics
from meshshape.errors import SingularSystem
from meshshape.fem import model_rhs
from meshshape.mesh import CG_MAX_ITER, PREORDERED_LU, RESIDUAL_TOL, make_disc_mesh, signed_areas
from meshshape.metrics import (
    MetricOperator,
    MetricSpec,
    assemble_elasticity,
    retract_euclidean,
)
from meshshape.optimizer import OptimizerConfig, steepest_descent
from meshshape.penalty import PenaltyParams, penalty_gradient

from conftest import cg_rank_one
from test_fem import _perturbed_disc

METRIC_ALPHA = PenaltyParams((10.0, 1.0, 0.0, 0.01))


def _specs(qref):
    return [
        MetricSpec.euclidean(),
        MetricSpec.elasticity(),
        MetricSpec.complete(METRIC_ALPHA, qref),
    ]


def test_lame_parameters():
    # E = 1, nu = 0.4
    assert metrics.MU == pytest.approx(1.0 / 2.8)
    assert metrics.LAM == pytest.approx(0.4 / (1.4 * 0.2))
    assert metrics.DELTA == pytest.approx(0.2)


def test_complete_requires_weights(disc2):
    _, q = disc2
    with pytest.raises(ValueError):
        MetricSpec.complete(PenaltyParams((0.0, 1.0, 0.0, 1.0)), q)


def test_elasticity_local_stiffness_hand_value():
    from meshshape.mesh import build_complex

    cx = build_complex([(0, 1, 2)], 3)
    q = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mat = assemble_elasticity(q, cx).toarray()
    mu, lam, delta = metrics.MU, metrics.LAM, metrics.DELTA
    x0 = np.argsort(cx.dof_order)[0]  # the x DOF of vertex 0 in the metric's order
    # stiffness area * (2 mu + lam + mu), mass area * delta * 2/12 (area 1/2)
    assert mat[x0, x0] == pytest.approx(0.5 * (2 * mu + lam + mu) + 0.5 * delta / 6.0, rel=1e-12)


def _einsum_elasticity(coords, cx):
    # The assembly as it was: B^T D B by a three-operand einsum, the mass
    # block entry by entry.
    from meshshape.mesh import configuration

    mu, lam, delta = metrics.MU, metrics.LAM, metrics.DELTA
    record = configuration(coords, cx)
    areas, grads = record.areas, record.basis_gradients
    n_t = cx.num_triangles
    b_mat = np.zeros((n_t, 3, 6))
    b_mat[:, 0, 0::2] = grads[..., 0]
    b_mat[:, 1, 1::2] = grads[..., 1]
    b_mat[:, 2, 0::2] = grads[..., 1]
    b_mat[:, 2, 1::2] = grads[..., 0]
    d_mat = np.array([[2.0 * mu + lam, lam, 0.0], [lam, 2.0 * mu + lam, 0.0], [0.0, 0.0, mu]])
    k_loc = areas[:, None, None] * np.einsum("tiv,ij,tjw->tvw", b_mat, d_mat, b_mat)
    m_scalar = (np.ones((3, 3)) + np.eye(3)) / 12.0
    m_loc = np.zeros((n_t, 6, 6))
    for a in range(3):
        for b in range(3):
            m_loc[:, 2 * a, 2 * b] = areas * m_scalar[a, b]
            m_loc[:, 2 * a + 1, 2 * b + 1] = areas * m_scalar[a, b]
    return cx.elasticity_pattern.matrix(k_loc + delta * m_loc)


@pytest.mark.parametrize("rings,perturb", [(2, False), (7, True)])
def test_closed_form_elasticity_matches_einsum(rings, perturb, rng):
    from meshshape.mesh import make_disc_mesh

    cx, q = make_disc_mesh(rings)
    if perturb:
        q = q.copy()
        q[cx.interior_vertices] += rng.uniform(-0.02, 0.02, size=(len(cx.interior_vertices), 2))
    mat, ref = assemble_elasticity(q, cx), _einsum_elasticity(q, cx)
    for field in ("data", "indices", "indptr"):
        assert getattr(mat, field).tobytes() == getattr(ref, field).tobytes()


def test_pinned_elasticity_is_the_free_block(disc3, rng):
    cx, q = disc3
    q = q.copy()
    q[cx.interior_vertices] += rng.uniform(-0.05, 0.05, size=(len(cx.interior_vertices), 2))
    boundary = np.zeros(cx.num_vertices, dtype=bool)
    boundary[cx.boundary_vertices] = True
    interior = np.zeros(cx.num_vertices, dtype=bool)
    interior[cx.interior_vertices] = rng.random(len(cx.interior_vertices)) < 0.3
    for mask in (boundary, interior):
        # the rows and columns of the free DOFs of the unpinned matrix, in dof_order
        keep = np.flatnonzero(~np.repeat(mask, 2)[cx.dof_order])
        ref = assemble_elasticity(q, cx)[keep][:, keep]
        op = MetricOperator(MetricSpec.elasticity(), q, cx, fixed_mask=mask)
        assert np.array_equal(op._pattern.kept, cx.dof_order[keep])
        free = ~np.repeat(mask, 2)
        assert np.array_equal(op._pattern.kept, cx.dof_order[free[cx.dof_order]])
        assert not op._pattern.kept.flags.writeable
        mat = op._matrix
        assert mat.format == ref.format == "csc"
        for field in ("data", "indices", "indptr"):
            assert getattr(mat, field).tobytes() == getattr(ref, field).tobytes()


def test_metric_symmetry_and_spd(disc2, rng):
    cx, q = disc2
    for spec in _specs(q.copy()):
        op = MetricOperator(spec, q, cx)
        for _ in range(5):
            v = rng.standard_normal(2 * cx.num_vertices)
            w = rng.standard_normal(2 * cx.num_vertices)
            assert w @ op.apply(v) == pytest.approx(v @ op.apply(w), abs=1e-12 * (1 + abs(v @ op.apply(w))))
            assert v @ op.apply(v) > 0.0


def test_elasticity_spd_eigenvalues(disc2):
    cx, q = disc2
    mat = assemble_elasticity(q, cx).toarray()
    eig = np.linalg.eigvalsh(mat)
    assert eig.min() > 0.0


def test_to_gradient_inverts_metric(disc2, rng):
    cx, q = disc2
    for spec in _specs(q.copy()):
        d = rng.standard_normal(2 * cx.num_vertices)
        op = MetricOperator(spec, q, cx)
        x = op.solve(d)
        assert np.linalg.norm(op.apply(x) - d) <= 1e-10 * np.linalg.norm(d)


def test_euclidean_gradient_is_identity(disc2, rng):
    """The rank-one operator with g = 0 is the identity bit for bit, signed zeros kept, pinned or not."""
    cx, q = disc2
    n = 2 * cx.num_vertices
    pinned = np.isin(np.arange(cx.num_vertices), cx.boundary_vertices)
    v = rng.standard_normal(n)
    v[::3], v[1::3] = 0.0, -0.0
    for mask in (None, pinned):
        op = MetricOperator(MetricSpec.euclidean(), q, cx, fixed_mask=mask)
        free = np.ones(n, dtype=bool) if mask is None else ~np.repeat(mask, 2)
        for x in (v, -v, np.full(n, -0.0)):
            assert op.solve(x).tobytes() == np.where(free, x, 0.0).tobytes()
            assert op.apply(x).tobytes() == x.tobytes()
            assert op.norm(x) == np.sqrt(x @ x)


def test_sherman_morrison_closed_form(disc2, rng):
    cx, q = disc2
    g = penalty_gradient(q, q, cx, METRIC_ALPHA)
    d = rng.standard_normal(2 * cx.num_vertices)
    x = MetricOperator(MetricSpec.complete(METRIC_ALPHA, q.copy()), q, cx).solve(d)
    expected = d - g * (g @ d) / (1.0 + g @ g)
    assert np.allclose(x, expected, rtol=0, atol=1e-15)
    # solves the rank-one system
    assert np.allclose(x + g * (g @ x), d, atol=1e-12)


def test_two_cg_iterations_match_closed_form(disc2, rng):
    cx, q = disc2
    qref = q + 0.01 * rng.standard_normal(q.shape)
    spec = MetricSpec.complete(METRIC_ALPHA, qref)
    op = MetricOperator(spec, q, cx)
    for _ in range(5):
        d = rng.standard_normal(2 * cx.num_vertices)
        x_cg = cg_rank_one(op._g, d)
        x_sm = op.solve(d)
        assert np.max(np.abs(x_cg - x_sm)) < 1e-12
        assert np.linalg.norm(op.apply(x_cg) - d) <= 1e-10 * np.linalg.norm(d)


def test_complete_metric_identity_when_flat(disc2, rng):
    cx, q = disc2
    spec = MetricSpec.complete(METRIC_ALPHA, q.copy())
    op = MetricOperator(spec, q, cx)
    v = rng.standard_normal(2 * cx.num_vertices)
    # algebraic identity: v^T G v = |v|^2 + (g.v)^2
    assert v @ op.apply(v) == pytest.approx(v @ v + (op._g @ v) ** 2, rel=1e-12)


def test_descent_compatibility(disc2, rng):
    cx, q = disc2
    for spec in _specs(q.copy()):
        d = rng.standard_normal(2 * cx.num_vertices)
        assert d @ MetricOperator(spec, q, cx).solve(d) > 0.0


def test_retract_euclidean_affine(disc2, rng):
    cx, q = disc2
    v = rng.standard_normal(2 * cx.num_vertices)
    assert np.array_equal(retract_euclidean(q, v, 0.0), q)
    assert np.array_equal(retract_euclidean(q, np.zeros_like(v), 2.0), q)
    chained = retract_euclidean(retract_euclidean(q, v, 0.3), v, 0.4)
    direct = retract_euclidean(q, v, 0.7)
    assert np.allclose(chained, direct, atol=1e-15)


def test_fixed_mask_restriction(disc2, rng):
    cx, q = disc2
    mask = np.zeros(cx.num_vertices, dtype=bool)
    mask[cx.boundary_vertices] = True
    d = rng.standard_normal(2 * cx.num_vertices)
    for spec in _specs(q.copy()):
        op = MetricOperator(spec, q, cx, fixed_mask=mask)
        x = op.solve(d)
        fixed = np.repeat(mask, 2)
        assert np.all(x[fixed] == 0.0)
        free = ~fixed
        applied = op.apply(x)
        assert np.allclose(applied[free], d[free], atol=1e-10 * np.linalg.norm(d))


# -- the lagged elasticity solve ------------------------------------------------

def _moved(cx, q, amplitude, seed):
    q = q.copy()
    inner = cx.interior_vertices
    q[inner] += np.random.default_rng(seed).uniform(-amplitude, amplitude, size=(len(inner), 2))
    return q


@pytest.fixture(scope="module")
def disc7_moves():
    """A perturbed disc:7, a slightly moved copy (the reference's LU
    preconditions its matrix within the CG cap) and a strongly deformed one
    (beyond the cap)."""
    cx, qref = _perturbed_disc(7, 11)
    moved, deformed = _moved(cx, qref, 0.001, 5), _moved(cx, qref, 0.02, 5)
    assert np.all(signed_areas(deformed, cx) > 0.0)
    return cx, qref, moved, deformed


@pytest.fixture()
def factorizations(monkeypatch):
    calls = []

    def spy(matrix, **options):
        calls.append(matrix.shape)
        return splu(matrix, **options)

    monkeypatch.setattr(metrics, "splu", spy)
    return calls


def _residual(op, x, d):
    return np.linalg.norm(op.apply(x) - d) / np.linalg.norm(d)


def test_kept_lu_solves_a_moved_configuration(disc7_moves, factorizations, rng):
    cx, qref, moved, _ = disc7_moves
    spec = MetricSpec.elasticity()
    reference = MetricOperator(spec, qref, cx)
    d = rng.standard_normal(reference.n)
    unrefined = reference.solve(d)
    op = MetricOperator(spec, moved, cx, previous=reference)
    assert _residual(op, unrefined, d) > 1e3 * RESIDUAL_TOL  # the kept LU alone is not enough
    x = op.solve(d)
    assert len(factorizations) == 1  # the reference's: the moved matrix is never factored
    assert _residual(op, x, d) <= RESIDUAL_TOL


def test_lagged_solve_matches_a_fresh_direct_solve(disc7_moves, rng):
    cx, qref, moved, _ = disc7_moves
    spec = MetricSpec.elasticity()
    lagged = MetricOperator(spec, moved, cx, previous=MetricOperator(spec, qref, cx))
    for _ in range(3):
        d = rng.standard_normal(lagged.n)
        fresh = MetricOperator(spec, moved, cx).solve(d)
        assert np.linalg.norm(lagged.solve(d) - fresh) <= 1e-8 * np.linalg.norm(fresh)


def test_stale_lu_is_replaced_once(disc7_moves, factorizations, rng):
    cx, qref, _, deformed = disc7_moves
    spec = MetricSpec.elasticity()
    op = MetricOperator(spec, deformed, cx, previous=MetricOperator(spec, qref, cx))
    assert len(factorizations) == 1
    for _ in range(2):  # the second solve uses the new LU
        d = rng.standard_normal(op.n)
        assert _residual(op, op.solve(d), d) <= RESIDUAL_TOL
    assert len(factorizations) == 2


def test_masked_operator_reuses_only_an_lu_of_its_mask(disc7_moves, factorizations, rng):
    cx, qref, moved, _ = disc7_moves
    spec = MetricSpec.elasticity()
    mask = np.zeros(cx.num_vertices, dtype=bool)
    mask[cx.boundary_vertices] = True
    fixed = np.repeat(mask, 2)
    d = rng.standard_normal(2 * cx.num_vertices)
    for previous_mask, kept in ((mask, True), (None, False)):
        previous = MetricOperator(spec, qref, cx, fixed_mask=previous_mask)
        del factorizations[:]
        op = MetricOperator(spec, moved, cx, fixed_mask=mask, previous=previous)
        assert len(factorizations) == (0 if kept else 1)  # another mask's LU is not taken over
        x = op.solve(d)
        assert len(factorizations) == (0 if kept else 1)
        assert np.all(x[fixed] == 0.0)
        assert np.linalg.norm(op.apply(x)[~fixed] - d[~fixed]) <= RESIDUAL_TOL * np.linalg.norm(d[~fixed])


@pytest.mark.parametrize("pivot", [0.0, 1e-300])
def test_singular_elasticity_matrix_raises(disc7_moves, monkeypatch, pivot):
    """A zero pivot fails the factorization; a pivot of 1e-300 overflows the solve."""
    cx, qref, moved, _ = disc7_moves
    spec = MetricSpec.elasticity()
    kept = MetricOperator(spec, qref, cx)

    def singular(coords, complex, pattern):  # the first stored DOF's row and column: the pivot alone
        mat = assemble_elasticity(coords, complex, pattern).copy()
        cols = np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr))
        first = (mat.indices == 0) | (cols == 0)
        mat.data[first] = np.where(mat.indices[first] == cols[first], pivot, 0.0)
        return mat

    monkeypatch.setattr(metrics, "assemble_elasticity", singular)
    d = np.ones(2 * cx.num_vertices)
    d[cx.dof_order[0]] = 1e10
    for previous in (None, kept):
        with np.errstate(all="ignore"), pytest.raises(SingularSystem):
            MetricOperator(spec, moved, cx, previous=previous).solve(d)


class _CountedLU:
    """An LU that counts its solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


def test_fresh_operator_solves_directly(disc7_moves, rng):
    cx, _, moved, _ = disc7_moves
    mask = np.zeros(cx.num_vertices, dtype=bool)
    mask[cx.boundary_vertices] = True
    free = ~np.repeat(mask, 2)
    for fixed_mask, order in ((None, cx.dof_order), (mask, cx.dof_order[free[cx.dof_order]])):
        op = MetricOperator(MetricSpec.elasticity(), moved, cx, fixed_mask=fixed_mask)
        assert np.array_equal(op._pattern.kept, order)
        op._lu = lu = _CountedLU(op._lu)
        d = rng.standard_normal(op.n)
        # the direct double-precision solve in the operator's order: one factorization of its matrix
        direct = np.zeros(op.n)
        direct[order] = splu(op._matrix, **PREORDERED_LU).solve(d[order])
        x = op.solve(d)
        assert np.linalg.norm(op.apply(x)[order] - d[order]) <= RESIDUAL_TOL * np.linalg.norm(d[order])
        assert np.linalg.norm(x - direct) <= 1e-9 * np.linalg.norm(direct)
        # the single-precision LU's first iterate misses the bound; one or two CG iterations meet it
        assert lu.solves in (2, 3)


def _distorted_disc7():
    """disc:7 with interior moves of up to 45 % of the ring spacing (smallest area 1.7e-4 of the
    largest), then stretched 20-fold along x: admissible, and far from the deterministic disc."""
    cx, q = make_disc_mesh(7)
    q = _moved(cx, q, 0.065, 13) * [20.0, 1.0]
    assert np.all(signed_areas(q, cx) > 0.0)
    return cx, q


@pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
@pytest.mark.parametrize("mesh", [1, 2, 3, 5, 7, 12, 50, "distorted-7"])  # the rings of history_digest.py's meshes
def test_fresh_single_precision_lu_meets_the_tolerance_within_three_solves(mesh, pinned, rng):
    cx, q = _distorted_disc7() if mesh == "distorted-7" else make_disc_mesh(mesh)
    fixed = np.isin(np.arange(cx.num_vertices), cx.boundary_vertices) if pinned else None
    op = MetricOperator(MetricSpec.elasticity(), q, cx, fixed_mask=fixed)
    op._lu = lu = _CountedLU(op._lu)
    order = op._pattern.kept
    for _ in range(2):
        d = np.zeros(op.n)
        d[order] = rng.standard_normal(len(order))
        lu.solves = 0
        x = op.solve(d)
        assert np.linalg.norm(op.apply(x)[order] - d[order]) <= RESIDUAL_TOL * np.linalg.norm(d[order])
        assert lu.solves <= 3 < CG_MAX_ITER  # a margin below the cap


def test_metric_lu_is_single_precision_and_p1_lu_double(monkeypatch):
    lus = {"metric": [], "p1": []}

    def spy(kind, real):
        def factorize(matrix, **options):
            assert matrix.dtype == (np.float32 if kind == "metric" else np.float64)
            lus[kind].append(real(matrix, **options))
            return lus[kind][-1]
        return factorize

    monkeypatch.setattr(metrics, "splu", spy("metric", metrics.splu))
    monkeypatch.setattr(fem, "splu", spy("p1", fem.splu))
    assert _elaseuc_run(3, 3).history[-1].iter == 3
    assert len(lus["metric"]) >= 1 and len(lus["p1"]) >= 3
    assert all(lu.L.dtype == lu.U.dtype == np.float32 for lu in lus["metric"])
    assert all(lu.L.dtype == lu.U.dtype == np.float64 for lu in lus["p1"])


def _elaseuc_run(rings, max_iter, on_iterate=None):
    cx, q = make_disc_mesh(rings)
    config = OptimizerConfig(variant="ElasEuc", penalty=PenaltyParams((0.0, 0.0, 0.0, 0.0)),
                             max_iter=max_iter, stop_tol=0.0)
    return steepest_descent(cx, q, model_rhs(), config, on_iterate=on_iterate)


def _reachable_lus():
    # SuperLU objects are not tracked by the collector; find them as referents.
    return {id(r) for o in gc.get_objects() for r in gc.get_referents(o) if isinstance(r, SuperLU)}


def test_one_elasticity_lu_alive_at_a_time(monkeypatch):
    matrices, dead_at_assembly, lus_at_factorization, lus_at_iterate = [], [], [], []
    real_assemble = metrics.assemble_elasticity
    earlier = _reachable_lus()  # held elsewhere, e.g. by a failed test's traceback

    def new_lus():
        return len(_reachable_lus() - earlier)

    def assemble(*args):
        dead_at_assembly.append([ref() is None for ref in matrices])
        mat = real_assemble(*args)
        matrices.append(weakref.ref(mat))
        return mat

    def factorize(matrix, **options):
        lus_at_factorization.append(new_lus())
        return splu(matrix, **options)

    monkeypatch.setattr(metrics, "assemble_elasticity", assemble)
    monkeypatch.setattr(metrics, "splu", factorize)
    result = _elaseuc_run(7, 6, on_iterate=lambda n, q: lus_at_iterate.append(new_lus()))
    assert result.history[-1].iter == 6
    assert len(matrices) == 6
    # each operator's matrix is released before the next one is built
    assert all(all(dead) for dead in dead_at_assembly)
    assert lus_at_factorization and set(lus_at_factorization) == {0}
    assert max(lus_at_iterate) == 1


def test_fewer_elasticity_factorizations_than_iterations(factorizations):
    result = _elaseuc_run(12, 12)
    assert result.history[-1].iter == 12
    assert 1 <= len(factorizations) < 12


_DISCS = {rings: make_disc_mesh(rings) for rings in (3, 5)}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(0, 2**32 - 1), st.floats(0.0, 0.1))
def test_lagged_solve_inverts_the_metric_symmetrically(rings, seed, amplitude):
    cx, q = _DISCS[rings]
    qref = _moved(cx, q, 0.1 / rings, seed)
    moved = _moved(cx, qref, amplitude / rings, seed + 1)
    assume(np.all(signed_areas(moved, cx) > 0.0))
    spec = MetricSpec.elasticity()
    op = MetricOperator(spec, moved, cx, previous=MetricOperator(spec, qref, cx))
    u, v, w = np.random.default_rng(seed).standard_normal((3, op.n))
    assert np.linalg.norm(op.solve(op.apply(v)) - v) <= 1e-8 * np.linalg.norm(v)
    su, sw = op.solve(u), op.solve(w)
    assert abs(u @ sw - w @ su) <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(sw)
