import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshshape import fem
from meshshape.fem import (
    assemble,
    constant_rhs,
    model_rhs,
    objective_value,
    shape_derivative,
    solve_adjoint,
    solve_state,
)
from meshshape.mesh import SparsePattern, build_complex, configuration, make_disc_mesh, make_square5_mesh, signed_areas
from meshshape.metrics import DELTA, LAM, MU, assemble_elasticity
from scipy import sparse
from scipy.sparse.linalg import splu

from conftest import central_difference, uniform_refine


def _degenerate_square5(eps):
    cx, q = make_square5_mesh()
    qe = q.copy()
    qe[4] = (0.0, 1.0 - eps)
    return cx, qe


def test_reference_assembly_center(square5):
    cx, q = square5
    sys_ = assemble(q, cx, constant_rhs(1.0))
    # hand assembly on four right isoceles triangles: diagonal entry 4, load 4/3
    assert list(sys_.interior) == [4]
    assert sys_.reduced[0, 0] == pytest.approx(4.0, abs=1e-12)
    assert sys_.load[4] == pytest.approx(4.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
def test_degenerate_family_assembly(eps):
    # Exact reduced stiffness of the off-center fan: 2 + 1/eps + 1/(2-eps).
    cx, qe = _degenerate_square5(eps)
    sys_ = assemble(qe, cx, constant_rhs(1.0))
    expected = 2.0 + 1.0 / eps + 1.0 / (2.0 - eps)
    assert list(sys_.interior) == [4]
    assert sys_.reduced[0, 0] == pytest.approx(expected, rel=1e-12)
    assert sys_.load[4] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_stiffness_row_sums_zero(disc3):
    # on the full P1 stiffness, which the assembled reduced one matches entry
    # for entry (test_pattern_assembly_matches_coo)
    cx, q = disc3
    stiffness, _ = _coo_reference(q, cx)
    row_sums = np.asarray(stiffness.sum(axis=1)).ravel()
    assert np.max(np.abs(row_sums)) < 1e-12


def test_state_solution_center(square5):
    cx, q = square5
    sys_ = assemble(q, cx, constant_rhs(1.0))
    y = solve_state(sys_)
    assert y[4] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert np.all(y[:4] == 0.0)


def test_state_zero_load(square5):
    cx, q = square5
    sys_ = assemble(q, cx, constant_rhs(0.0))
    assert np.all(solve_state(sys_) == 0.0)


def test_state_residual_contract(disc3):
    cx, q = disc3
    sys_ = assemble(q, cx, model_rhs())
    y = solve_state(sys_)
    interior = sys_.interior
    b = sys_.load[interior]
    assert np.linalg.norm(sys_.reduced @ y[interior] - b) <= 1e-10 * np.linalg.norm(b)


def test_adjoint_center(square5):
    cx, q = square5
    sys_ = assemble(q, cx, constant_rhs(1.0))
    p = solve_adjoint(sys_)
    assert p[4] == pytest.approx(-1.0 / 3.0, rel=1e-12)


def test_adjoint_is_minus_state_for_unit_rhs(disc3):
    # with r = 1 the load equals the volume weights exactly, so p = -y
    cx, q = disc3
    sys_ = assemble(q, cx, constant_rhs(1.0))
    assert np.max(np.abs(solve_adjoint(sys_) + solve_state(sys_))) < 1e-14


@pytest.mark.parametrize("mesh", ["square5", "disc3", "perturbed-disc7"])
def test_state_and_adjoint_share_one_factorization(mesh, monkeypatch):
    cx, q = {"square5": make_square5_mesh, "disc3": lambda: make_disc_mesh(3),
             "perturbed-disc7": lambda: _perturbed_disc(7, 5)}[mesh]()
    sys_ = assemble(q, cx, model_rhs())
    apart = solve_state(sys_), solve_adjoint(sys_)
    calls = []

    def spy(matrix, **options):
        calls.append(matrix)
        return splu(matrix, **options)

    monkeypatch.setattr(fem, "splu", spy)
    y, p = solve_state(sys_, adjoint=True)
    assert len(calls) == 1 and calls[0] is sys_.reduced
    for got, want in zip((y, p), apart):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_shared_solve_without_interior_factors_nothing(monkeypatch):
    cx = build_complex([(0, 1, 2)], 3)
    sys_ = assemble(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), cx, model_rhs())
    assert sys_.interior.size == 0
    monkeypatch.setattr(fem, "splu", lambda *args, **kwargs: pytest.fail("factored an empty system"))
    y, p = solve_state(sys_, adjoint=True)
    assert np.array_equal(y, np.zeros(3)) and np.array_equal(p, np.zeros(3))
    assert np.array_equal(solve_state(sys_), y) and np.array_equal(solve_adjoint(sys_), p)


def test_objective_center(square5):
    cx, q = square5
    sys_ = assemble(q, cx, constant_rhs(1.0))
    y = solve_state(sys_)
    assert objective_value(q, cx, y) == pytest.approx(4.0 / 9.0, rel=1e-12)


def test_objective_zero_field(square5):
    cx, q = square5
    assert objective_value(q, cx, np.zeros(5)) == 0.0


def test_objective_linear_interpolant_refinement_invariant(square5):
    cx, q = square5
    field = lambda c: 0.3 * c[:, 0] - 0.7 * c[:, 1] + 0.2
    base = objective_value(q, cx, field(q))
    rcx, rq = uniform_refine(cx, q)
    assert objective_value(rq, rcx, field(rq)) == pytest.approx(base, abs=1e-12)


def test_monotone_degeneration():
    values = []
    for eps in (0.5, 0.1, 0.01, 0.001):
        cx, qe = _degenerate_square5(eps)
        sys_ = assemble(qe, cx, constant_rhs(1.0))
        values.append(objective_value(qe, cx, solve_state(sys_)))
    assert all(a > b > 0 for a, b in zip(values, values[1:]))


def test_continuous_reference_value(square5):
    cx, q = square5
    for _ in range(5):
        cx, q = uniform_refine(cx, q)
    sys_ = assemble(q, cx, constant_rhs(1.0))
    obj = objective_value(q, cx, solve_state(sys_))
    assert obj == pytest.approx(0.5622, rel=0.01)


def test_rhs_gradient_consistency(rng):
    rhs = model_rhs()
    for _ in range(20):
        x1, x2 = rng.uniform(-1.5, 1.5, 2)
        h = 1e-6
        gx = (rhs.value(x1 + h, x2) - rhs.value(x1 - h, x2)) / (2 * h)
        gy = (rhs.value(x1, x2 + h) - rhs.value(x1, x2 - h)) / (2 * h)
        ax, ay = rhs.gradient(x1, x2)
        assert gx == pytest.approx(ax, rel=1e-6, abs=1e-8)
        assert gy == pytest.approx(ay, rel=1e-6, abs=1e-8)


def test_shape_derivative_fd(disc3, rng):
    cx, q = disc3
    coords = q + 0.02 * rng.standard_normal(q.shape)
    rhs = model_rhs()
    sys_ = assemble(coords, cx, rhs)
    y = solve_state(sys_)
    p = solve_adjoint(sys_)
    grad = shape_derivative(coords, cx, y, p, rhs)

    def reduced(c):
        s = assemble(c, cx, rhs)
        return objective_value(c, cx, solve_state(s))

    fd = central_difference(reduced, coords)
    assert np.max(np.abs(fd - grad)) / np.max(np.abs(grad)) < 1e-5


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rings=st.integers(1, 3))
def test_shape_derivative_matches_central_differences(seed, rings):
    cx, q = _perturbed_disc(rings, seed)
    assert np.all(signed_areas(q, cx) > 0.0)
    rhs = model_rhs()
    sys_ = assemble(q, cx, rhs)
    grad = shape_derivative(q, cx, solve_state(sys_), solve_adjoint(sys_), rhs)
    fd = central_difference(lambda c: objective_value(c, cx, solve_state(assemble(c, cx, rhs))), q)
    assert np.max(np.abs(fd - grad)) <= 1e-5 * np.max(np.abs(grad))


def test_shape_derivative_translation_invariance(disc3):
    cx, q = disc3
    rhs = constant_rhs(3.0)
    sys_ = assemble(q, cx, rhs)
    grad = shape_derivative(q, cx, solve_state(sys_), solve_adjoint(sys_), rhs)
    for axis in (0, 1):
        t = np.zeros_like(grad)
        t[axis::2] = 1.0
        assert abs(grad @ t) < 1e-10


def test_shape_derivative_symmetry_center(square5):
    # moving the center vertically at the symmetric configuration: zero derivative
    cx, q = square5
    rhs = constant_rhs(1.0)
    sys_ = assemble(q, cx, rhs)
    grad = shape_derivative(q, cx, solve_state(sys_), solve_adjoint(sys_), rhs)
    assert abs(grad[2 * 4 + 1]) < 1e-12
    assert abs(grad[2 * 4]) < 1e-12


# -- assembly from the cached sparse patterns --------------------------------

def _element_blocks(coords, cx):
    """The element blocks of the P1 stiffness and of the vector elasticity
    metric, each with the DOFs its blocks are over (flat entry ``(n k + a) k + b``
    at ``(dofs[n, a], dofs[n, b])``), the metric's DOFs relabelled by their
    places in ``dof_order``."""
    n_t = len(cx.triangles)
    record = configuration(coords, cx)
    areas, grads = record.areas, record.basis_gradients
    k_loc = areas[:, None, None] * np.einsum("tld,tmd->tlm", grads, grads)

    mu, lam, delta = MU, LAM, DELTA
    b_mat = np.zeros((n_t, 3, 6))
    b_mat[:, 0, 0::2] = grads[..., 0]
    b_mat[:, 1, 1::2] = grads[..., 1]
    b_mat[:, 2, 0::2] = grads[..., 1]
    b_mat[:, 2, 1::2] = grads[..., 0]
    d_mat = np.array([[2.0 * mu + lam, lam, 0.0], [lam, 2.0 * mu + lam, 0.0], [0.0, 0.0, mu]])
    k_el = areas[:, None, None] * np.einsum("tiv,ij,tjw->tvw", b_mat, d_mat, b_mat)
    m_scalar = (np.ones((3, 3)) + np.eye(3)) / 12.0
    m_loc = np.zeros((n_t, 6, 6))
    for a in range(3):
        for b in range(3):
            m_loc[:, 2 * a, 2 * b] = areas * m_scalar[a, b]
            m_loc[:, 2 * a + 1, 2 * b + 1] = areas * m_scalar[a, b]
    dofs = np.argsort(cx.dof_order)[cx.vertex_dofs.reshape(n_t, 6)]
    return (cx.triangles, k_loc), (dofs, k_el + delta * m_loc)


def _coo(dofs, blocks, size):
    k = dofs.shape[1]
    rows, cols = np.repeat(dofs, k, axis=1).ravel(), np.tile(dofs, (1, k)).ravel()
    return sparse.coo_matrix((blocks.ravel(), (rows, cols)), shape=(size, size))


def _coo_reference(coords, cx):
    """P1 stiffness and vector elasticity metric (in ``dof_order``) as COO
    conversions: the assembly the cached patterns replace."""
    (tris, k_loc), (dofs, m_loc) = _element_blocks(coords, cx)
    return _coo(tris, k_loc, cx.num_vertices).tocsr(), _coo(dofs, m_loc, 2 * cx.num_vertices).tocsc()


def _perturbed_disc(rings, seed):
    cx, q = make_disc_mesh(rings)
    q = q.copy()
    inner = cx.interior_vertices
    q[inner] += np.random.default_rng(seed).uniform(-0.2 / rings, 0.2 / rings, size=(len(inner), 2))
    return cx, q


def _element_order_sums(matrix, coo, keep):
    """``matrix``'s stored values as ``np.add.at`` sums of the element entries
    ``coo`` (unconverted, so in element order), kept in rows and columns
    ``keep`` and numbered by their places in it."""
    n = matrix.shape[0]
    place = np.full(coo.shape[0], -1)
    place[keep] = np.arange(len(keep))
    rows, cols = place[coo.row], place[coo.col]
    kept = (rows >= 0) & (cols >= 0)
    major, minor = (rows, cols) if matrix.format == "csr" else (cols, rows)
    stored = np.repeat(np.arange(n), np.diff(matrix.indptr)) * n + matrix.indices  # sorted: see the caller
    wanted = (major * n + minor)[kept]
    where = np.searchsorted(stored, wanted)
    assert np.array_equal(stored[where], wanted)
    data = np.zeros(matrix.nnz)
    np.add.at(data, where, coo.data[kept])
    return data


@pytest.mark.parametrize("mesh", ["square5", "disc3", "disc7"])
def test_pattern_assembly_matches_coo(mesh):
    # The structure of scipy's COO conversion and its values to round-off; each stored value is, byte
    # for byte, the np.add.at sum of its element contributions in element order.
    cx, q = make_square5_mesh() if mesh == "square5" else _perturbed_disc(int(mesh[4:]), 5)
    (tris, k_loc), (dofs, m_loc) = _element_blocks(q, cx)
    p1, elasticity = _coo(tris, k_loc, cx.num_vertices), _coo(dofs, m_loc, 2 * cx.num_vertices)
    free = np.flatnonzero(~np.isin(cx.dof_order // 2, cx.boundary_vertices))  # places in dof_order
    pinned = SparsePattern.build(cx.dof_order[free], cx.vertex_dofs.reshape(-1, 6))
    cases = [  # assembled matrix, element entries, kept rows and columns (None for all)
        (SparsePattern.build(np.arange(cx.num_vertices), tris).matrix(k_loc), p1, None),
        (assemble(q, cx, model_rhs()).reduced, p1, cx.interior_order),
        (assemble_elasticity(q, cx), elasticity, None),
        (assemble_elasticity(q, cx, pinned), elasticity, free),
    ]
    for got, coo, keep in cases:
        want = coo.asformat(got.format) if keep is None else coo.tocsr()[keep][:, keep].tocsc()
        assert got.format == want.format
        assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
        np.testing.assert_allclose(got.data, want.data, rtol=1e-13, atol=1e-13 * np.abs(want.data).max())
        keep = np.arange(coo.shape[0]) if keep is None else keep
        assert got.data.tobytes() == _element_order_sums(got, coo, keep).tobytes()


def _kept(cx, case, rng):
    """The element DOFs, the full order, the kept places in it, and the element blocks of one case."""
    if case == "p1-interior":
        values = rng.standard_normal((cx.num_triangles, 3, 3))
        return cx.triangles, np.arange(cx.num_vertices), cx.interior_order, values
    mask = np.zeros(cx.num_vertices, dtype=bool)
    if case == "elasticity-boundary":
        mask[cx.boundary_vertices] = True
    else:  # a random set of interior vertices
        mask[cx.interior_vertices] = rng.random(len(cx.interior_vertices)) < 0.3
    keep = np.flatnonzero(~np.repeat(mask, 2)[cx.dof_order])  # places in dof_order
    return cx.vertex_dofs.reshape(-1, 6), cx.dof_order, keep, rng.standard_normal((cx.num_triangles, 6, 6))


def _same_bytes(a, b):
    return a.format == b.format and all(
        getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in ("data", "indices", "indptr"))


@pytest.mark.parametrize("rings", [3, 7])
@pytest.mark.parametrize("case", ["p1-interior", "elasticity-boundary", "elasticity-random"])
def test_restricted_pattern_is_the_sliced_matrix(rings, case, rng):
    cx, _ = _perturbed_disc(rings, 5)
    dofs, order, keep, values = _kept(cx, case, rng)
    full = SparsePattern.build(order, dofs).matrix(values)
    sliced = full[keep][:, keep].sorted_indices()  # slicing a CSC matrix leaves its rows unsorted
    assert _same_bytes(SparsePattern.build(order[keep], dofs).matrix(values), sliced)
    if case == "p1-interior":
        assert _same_bytes(cx.interior_p1_pattern.matrix(values), sliced)


@pytest.mark.parametrize("mask", ["none", "boundary", "random"])
@pytest.mark.parametrize("mesh", ["square5", 1, 2, 3, 7, 50])
def test_doubled_pattern_is_the_built_one(mesh, mask, rng):
    # The vector pattern read off the vertex pattern holds the bytes and dtypes of the one sorted from DOF keys.
    cx, _ = make_square5_mesh() if mesh == "square5" else make_disc_mesh(mesh)
    fixed = np.zeros(cx.num_vertices, dtype=bool)
    if mask == "boundary":
        fixed[cx.boundary_vertices] = True
    elif mask == "random":
        fixed = rng.random(cx.num_vertices) < 0.3
    order = cx.dof_order[~np.repeat(fixed, 2)[cx.dof_order]]
    want = SparsePattern.build(order, cx.vertex_dofs.reshape(-1, 6))
    got = cx.elasticity_pattern if mask == "none" else SparsePattern.build_doubled(order[::2] // 2, cx.triangles)
    for field in ("indptr", "indices", "slots"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field


@pytest.mark.parametrize("refinements", [0, 2])
def test_symmetric_mode_state_residual(refinements):
    # The criterion-1 square with its center at (0, 1 - eps), eps = 1e-3,
    # optionally refined: reduced systems of 1 and 25 unknowns.
    cx, q = _degenerate_square5(1e-3)
    for _ in range(refinements):
        cx, q = uniform_refine(cx, q)
    sys_ = assemble(q, cx, constant_rhs(1.0))
    y = solve_state(sys_)
    interior = sys_.interior
    b = sys_.load[interior]
    assert np.linalg.norm(sys_.reduced @ y[interior] - b) <= 1e-10 * np.linalg.norm(b)


def test_second_assemble_rebuilds_no_pattern():
    cx, q = _perturbed_disc(3, 6)
    first = assemble(q, cx, model_rhs())
    cached = (cx.interior_p1_pattern, cx.interior_vertices)
    second = assemble(q + 1e-3, cx, model_rhs())
    assert (cx.interior_p1_pattern, cx.interior_vertices) == cached
    # every matrix is built on the cached index arrays, not on copies
    for sys_ in (first, second):
        assert sys_.interior is cx.interior_order
        assert np.shares_memory(sys_.reduced.indices, cx.interior_p1_pattern.indices)
        assert np.shares_memory(sys_.reduced.indptr, cx.interior_p1_pattern.indptr)
    elasticity = cx.elasticity_pattern
    for x in (q, q + 1e-3):
        assert np.shares_memory(assemble_elasticity(x, cx).indices, elasticity.indices)
    assert cx.elasticity_pattern is elasticity
