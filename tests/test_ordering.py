"""The fill-reducing orders: structural, computed once per complex, kept by
every factorization."""

import numpy as np
import pytest
from scipy.sparse.linalg import spilu, splu

from meshshape import fem, mesh, metrics
from meshshape.fem import assemble, model_rhs
from meshshape.mesh import PREORDERED_LU, SPD_LU, checked_solve, make_disc_mesh
from meshshape.metrics import MetricOperator, MetricSpec
from meshshape.optimizer import OptimizerConfig, steepest_descent
from meshshape.penalty import PenaltyParams
from test_fem import _coo_reference, _perturbed_disc


@pytest.mark.parametrize("rings", [3, 7, 12])
def test_orders_are_superlu_minimum_degree_orders(rings):
    cx, q = _perturbed_disc(rings, 11)
    stiffness, _ = _coo_reference(q, cx)  # in natural vertex order
    inner = cx.interior_vertices
    lu = splu(stiffness[inner][:, inner].tocsc(), **SPD_LU)
    assert np.array_equal(inner[np.argsort(lu.perm_c)], cx.interior_order)
    vertices = np.argsort(splu(stiffness.tocsc(), **SPD_LU).perm_c)
    assert np.array_equal((2 * vertices[:, None] + np.arange(2)).ravel(), cx.dof_order)


def _elaseuc(rings, max_iter, fixed_boundary=False):
    cx, q = make_disc_mesh(rings)  # a fresh complex: no order computed yet
    mask = None
    if fixed_boundary:
        mask = np.zeros(cx.num_vertices, dtype=bool)
        mask[cx.boundary_vertices] = True
    config = OptimizerConfig(variant="ElasEuc", penalty=PenaltyParams((0.0, 0.0, 0.0, 0.0)), max_iter=max_iter,
                             fixed_vertex_mask=mask)
    return cx, steepest_descent(cx, q, model_rhs(), config)


@pytest.mark.parametrize("fixed_boundary", [False, True])
def test_every_factorization_keeps_the_stored_order(monkeypatch, fixed_boundary):
    calls = []

    def spy(matrix, **options):
        lu = splu(matrix, **options)
        calls.append((options["permc_spec"], np.array_equal(lu.perm_c, np.arange(matrix.shape[0]))))
        return lu

    monkeypatch.setattr(fem, "splu", spy)
    monkeypatch.setattr(metrics, "splu", spy)
    _elaseuc(3, 5, fixed_boundary)
    assert len(calls) > 10
    assert set(calls) == {("NATURAL", True)}


@pytest.mark.parametrize("max_iter,fixed_boundary", [(1, False), (12, False), (12, True)],
                         ids=["1", "12", "12-pinned"])
def test_each_pattern_is_ordered_once_per_run(monkeypatch, max_iter, fixed_boundary):
    orderings, builds = [], []
    build = mesh.SparsePattern.build

    def spy(matrix, **options):
        orderings.append(options["permc_spec"])
        return spilu(matrix, **options)

    def count(kept, dofs):
        builds.append(kept)
        return build(kept, dofs)

    monkeypatch.setattr(mesh, "spilu", spy)
    monkeypatch.setattr(mesh.SparsePattern, "build", count)
    cx, result = _elaseuc(3, max_iter, fixed_boundary)
    assert result.history[-1].iter == max_iter
    # the interior P1 graph and the full one; a pinned metric keeps the full one's order
    assert orderings == ["MMD_AT_PLUS_A"] * 2
    assert len(builds) == 2  # the interior P1 pattern, and the metric's on its free DOFs or on all
    if fixed_boundary:
        assert "elasticity_pattern" not in vars(cx)


# -- SuperLU's supernode settings ------------------------------------------------

def _pinned(cx):
    mask = np.zeros(cx.num_vertices, dtype=bool)
    mask[cx.boundary_vertices] = True
    return mask


# The reduced P1 matrix holds the interior vertices alone, so a pinned boundary
# leaves it as it is; the pinned elasticity metric holds the free DOFs alone.
FACTORED = {
    "p1": lambda cx, q: assemble(q, cx, model_rhs()).reduced,
    "elasticity": lambda cx, q: MetricOperator(MetricSpec.elasticity(), q, cx)._matrix,
    "elasticity-pinned": lambda cx, q: MetricOperator(MetricSpec.elasticity(), q, cx, fixed_mask=_pinned(cx))._matrix,
}


@pytest.mark.parametrize("rings", [3, 7, 12])
@pytest.mark.parametrize("name", FACTORED)
def test_supernode_settings_keep_order_fill_and_one_solve(rings, name, rng):
    cx, q = _perturbed_disc(rings, 11)
    a = FACTORED[name](cx, q)
    lu = splu(a, **PREORDERED_LU)
    default = splu(a, **{key: value for key, value in PREORDERED_LU.items() if key not in ("panel_size", "relax")})
    identity = np.arange(a.shape[0])
    assert np.array_equal(lu.perm_c, identity)
    # SuperLU's threshold pivoting (diag_pivot_thresh 1) swaps two rows of the
    # unpinned disc:3 elasticity matrix under either setting
    assert np.count_nonzero(lu.perm_r != identity) == (2 if (rings, name) == (3, "elasticity") else 0)
    assert np.array_equal(lu.perm_r, default.perm_r)
    assert (lu.L.nnz, lu.U.nnz) == (default.L.nnz, default.U.nnz)

    solves = []

    class CountedLU:
        def solve(self, b):
            solves.append(b)
            return lu.solve(b)

    b = rng.standard_normal(a.shape[0])
    assert np.array_equal(checked_solve(a, CountedLU(), b), lu.solve(b))
    assert len(solves) == 1
