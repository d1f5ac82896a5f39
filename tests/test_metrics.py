import numpy as np
import pytest

from meshshape.metrics import (
    MetricOperator,
    MetricSpec,
    assemble_elasticity,
    lame_parameters,
    retract_euclidean,
)
from meshshape.penalty import PenaltyParams, penalty_gradient

from conftest import cg_rank_one

METRIC_ALPHA = PenaltyParams((10.0, 1.0, 0.0, 0.01))


def _specs(qref):
    return [
        MetricSpec.euclidean(),
        MetricSpec.elasticity(),
        MetricSpec.complete(METRIC_ALPHA, qref),
    ]


def test_lame_parameters():
    mu, lam, delta = lame_parameters(MetricSpec.elasticity(1.0, 0.4))
    assert mu == pytest.approx(1.0 / 2.8)
    assert lam == pytest.approx(0.4 / (1.4 * 0.2))
    assert delta == pytest.approx(0.2)
    mu0, lam0, _ = lame_parameters(MetricSpec.elasticity(2.0, 1e-9))
    assert lam0 == pytest.approx(0.0, abs=1e-8)
    assert mu0 == pytest.approx(1.0, rel=1e-6)


def test_poisson_ratio_bounds():
    with pytest.raises(ValueError):
        MetricSpec.elasticity(1.0, 0.5)
    with pytest.raises(ValueError):
        MetricSpec.elasticity(-1.0, 0.4)


def test_complete_requires_weights(disc2):
    _, q = disc2
    with pytest.raises(ValueError):
        MetricSpec.complete(PenaltyParams((0.0, 1.0, 0.0, 1.0)), q)


def test_elasticity_local_stiffness_hand_value():
    from meshshape.mesh import build_complex

    cx = build_complex([(0, 1, 2)], 3)
    q = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mat = assemble_elasticity(q, cx, MetricSpec.elasticity(damping_delta=1e-30)).toarray()
    mu, lam, _ = lame_parameters(MetricSpec.elasticity())
    x0 = np.argsort(cx.dof_order)[0]  # the x DOF of vertex 0 in the metric's order
    assert mat[x0, x0] == pytest.approx(0.5 * (2 * mu + lam + mu), rel=1e-12)


def _einsum_elasticity(coords, cx, spec):
    # The assembly as it was: B^T D B by a three-operand einsum, the mass
    # block entry by entry.
    from meshshape.mesh import configuration

    mu, lam, delta = lame_parameters(spec)
    record = configuration(coords, cx.triangles)
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


@pytest.mark.parametrize(
    "rings,perturb,params",
    [
        (2, False, {}),
        (7, True, {}),
        (7, True, {"young_E": 2.5, "poisson_nu": 0.3, "damping_delta": 0.7}),
    ],
)
def test_closed_form_elasticity_matches_einsum(rings, perturb, params, rng):
    from meshshape.mesh import make_disc_mesh

    cx, q = make_disc_mesh(rings)
    if perturb:
        q = q.copy()
        q[cx.interior_vertices] += rng.uniform(-0.02, 0.02, size=(len(cx.interior_vertices), 2))
    spec = MetricSpec.elasticity(**params)
    mat, ref = assemble_elasticity(q, cx, spec), _einsum_elasticity(q, cx, spec)
    for field in ("data", "indices", "indptr"):
        assert getattr(mat, field).tobytes() == getattr(ref, field).tobytes()


def test_pinned_elasticity_matches_lil_assignment(disc3, rng):
    cx, q = disc3
    q = q.copy()
    q[cx.interior_vertices] += rng.uniform(-0.05, 0.05, size=(len(cx.interior_vertices), 2))
    mask = np.zeros(cx.num_vertices, dtype=bool)
    mask[cx.boundary_vertices] = True
    # The masked matrix as it was built before: assignments on a LIL copy,
    # which keep no explicit zero in the fixed rows and columns, in dof_order.
    ref = assemble_elasticity(q, cx, MetricSpec.elasticity()).tolil()
    fixed = np.flatnonzero(np.repeat(mask, 2)[cx.dof_order])
    ref[fixed, :] = 0.0
    ref[:, fixed] = 0.0
    ref[fixed, fixed] = 1.0
    ref = ref.tocsc()
    mat = MetricOperator(MetricSpec.elasticity(), q, cx, fixed_mask=mask)._matrix
    assert mat.format == "csc"
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(mat, field), getattr(ref, field))


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
    mat = assemble_elasticity(q, cx, MetricSpec.elasticity()).toarray()
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
    cx, q = disc2
    d = rng.standard_normal(2 * cx.num_vertices)
    assert np.array_equal(MetricOperator(MetricSpec.euclidean(), q, cx).solve(d), d)


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
