"""Riemannian metrics on the space of vertex configurations.

Two families.  The rank-one metric ``I + g g^T``, which the derivative-to-gradient
solve inverts in closed form (Sherman-Morrison): the complete metric, ``g`` the
gradient of the mesh-quality penalty, and the Euclidean metric, ``g = 0``.  And a
linear-elasticity metric (vector P1 stiffness plus a damping multiple of the vector
L2 Gram matrix, assembled fresh at the current configuration).  The SPD elasticity
matrix is assembled on a ``SparsePattern`` of 6x6 blocks over ``vertex_dofs``, whose
``kept`` DOFs are the complex's fill-reducing ``dof_order``, or its free DOFs alone
when vertices are pinned; SuperLU factors its columns in that order, in symmetric
mode, and the pattern scatters solutions back to every DOF.  The matrix moves little
from one iterate to the next, so an operator built with ``previous`` keeps that
operator's LU as the preconditioner of :func:`~meshshape.mesh.checked_solve`, the one SPD solve of the package; it factors
its own matrix only when ``CG_MAX_ITER`` iterations on the kept LU miss ``RESIDUAL_TOL``.
As the LU only preconditions, it is factored and applied in ``LU_PRECISION``
(single): a fresh one takes 2 or 3 LU solves to meet the float64 test, not 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .errors import InvalidValue, NonpositiveArea, SingularSystem
from .mesh import PREORDERED_LU, ConnectivityComplex, SparsePattern, checked_solve, configuration, free_dofs
from .penalty import PenaltyParams, penalty_gradient

EUCLIDEAN = "euclidean"
ELASTICITY = "elasticity"
COMPLETE = "complete"

# Lame constants of the elasticity metric, from Young's modulus E = 1 and
# Poisson ratio nu = 0.4, and its damping 0.2 E.
MU = 1.0 / (2.0 * (1.0 + 0.4))
LAM = 1.0 * 0.4 / ((1.0 + 0.4) * (1.0 - 2.0 * 0.4))
DELTA = 0.2 * 1.0
# The precision of the elasticity LU: half the factor's memory and faster solves than float64, for
# one or two more LU solves on a fresh LU.
LU_PRECISION = np.float32


def check_complete_weights(penalty: PenaltyParams):
    """Raise :class:`InvalidValue` unless ``penalty`` can weight the complete metric:
    a1, a2 and a4 positive (``PenaltyParams`` admits no negative weight).  a3 == 0 is admitted:
    the boundary term can be switched off by a cutoff without affecting completeness in practice."""
    a1, a2, _, a4 = penalty.alpha
    if a1 <= 0 or a2 <= 0 or a4 <= 0:
        raise InvalidValue("alpha", penalty.alpha, "must give the complete metric positive a1, a2, a4 and a3 >= 0")


@dataclass(frozen=True)
class MetricSpec:
    kind: str
    penalty: PenaltyParams | None = None
    qref: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, ELASTICITY, COMPLETE):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == COMPLETE:
            if self.penalty is None or self.qref is None:
                raise ValueError("complete metric needs penalty params and a reference")
            check_complete_weights(self.penalty)

    @staticmethod
    def euclidean() -> "MetricSpec":
        return MetricSpec(kind=EUCLIDEAN)

    @staticmethod
    def elasticity() -> "MetricSpec":
        return MetricSpec(kind=ELASTICITY)

    @staticmethod
    def complete(penalty: PenaltyParams, qref: np.ndarray) -> "MetricSpec":
        return MetricSpec(kind=COMPLETE, penalty=penalty, qref=np.asarray(qref, dtype=float))


_VECTOR_MASS = np.kron((np.ones((3, 3)) + np.eye(3)) / 12.0, np.eye(2))


def assemble_elasticity(coords: np.ndarray, complex: ConnectivityComplex, pattern: SparsePattern | None = None):
    """Vector P1 elasticity stiffness with Lame constants ``MU`` and ``LAM`` plus
    ``DELTA`` times the vector L2 Gram matrix of the hat functions, on ``pattern``:
    by default ``complex.elasticity_pattern``, in ``dof_order``, or the one on its free DOFs."""
    record = configuration(coords, complex)
    if not record.positive:
        raise NonpositiveArea("metric assembly requires positive areas")
    areas, grads = record.areas, record.basis_gradients

    # Entry (2a + c, 2b + d) of B^T D B, B the Voigt strain-displacement
    # matrix (e_xx, e_yy, gamma_xy), has two nonzero terms (B_iv D_ij) B_jw, triangles innermost.
    g = grads.transpose(2, 1, 0)  # (component, vertex, triangle)
    (gx, gy), (gxb, gyb) = g[:, :, None], g[:, None]
    k_loc = np.empty((3, 2, 3, 2, len(areas)))
    k_loc[:, 0, :, 0] = (gx * (2.0 * MU + LAM)) * gxb + (gy * MU) * gyb
    k_loc[:, 0, :, 1] = (gx * LAM) * gyb + (gy * MU) * gxb
    k_loc[:, 1, :, 0] = (gy * LAM) * gxb + (gx * MU) * gyb
    k_loc[:, 1, :, 1] = (gy * (2.0 * MU + LAM)) * gyb + (gx * MU) * gxb
    k_loc = k_loc.reshape(36, -1)
    k_loc *= areas
    k_loc += (_VECTOR_MASS.reshape(36, 1) * areas) * DELTA  # the vector P1 Gram block, damped
    return (pattern or complex.elasticity_pattern).matrix(k_loc.T)


class MetricOperator:
    """Metric at a fixed configuration: apply, solve, and norm.

    An optional per-vertex boolean mask restricts the metric to the complementary
    (free) subspace, the elasticity metric to the free DOFs of ``dof_order``, which
    its pattern keeps; masked coordinates are zero in both inputs and outputs of
    ``solve`` and in the output of an elasticity ``apply``.  An elasticity
    operator built with ``previous``, one on the same complex with the same mask,
    takes over its pattern and its LU, which preconditions ``solve`` instead of a
    factorization; ``previous`` is spent, its matrix and LU released.
    """

    def __init__(self, spec: MetricSpec, coords, complex, fixed_mask=None, previous=None):
        self.spec = spec
        self.n = 2 * complex.num_vertices
        self._free = free_dofs(fixed_mask)
        if spec.kind == ELASTICITY:
            self._complex, self._lu, self._pattern = complex, None, None
            if previous is not None and previous.spec.kind == ELASTICITY:
                if previous._complex is complex and np.array_equal(previous._free, self._free):
                    self._lu, self._pattern = previous._lu, previous._pattern
                previous._matrix = previous._lu = None
            self._lagged = self._lu is not None
            if self._pattern is None:  # built once per mask, then handed on
                if self._free is None:
                    self._pattern = complex.elasticity_pattern
                else:
                    kept = complex.dof_order[self._free[complex.dof_order]]
                    self._pattern = SparsePattern.build(kept, complex.vertex_dofs.reshape(-1, 6))
            self._matrix = assemble_elasticity(coords, complex, self._pattern)
            if self._lu is None:
                self._factorize()
        elif spec.kind == COMPLETE:
            g = penalty_gradient(coords, spec.qref, complex, spec.penalty)
            self._g = g if self._free is None else np.where(self._free, g, 0.0)
        else:  # Euclidean: the rank-one metric with g = 0
            self._g = np.zeros(self.n)

    def _factorize(self):
        self._lu = None  # at most one LU alive: drop a kept one before factoring
        try:
            self._lu = splu(self._matrix.astype(LU_PRECISION), **PREORDERED_LU)
        except RuntimeError as exc:
            raise SingularSystem(str(exc)) from exc
        self._lagged = False

    def apply(self, v: np.ndarray) -> np.ndarray:
        if self.spec.kind == ELASTICITY:
            return self._pattern.scattered(self._matrix @ v[self._pattern.kept], self.n)
        g = self._g
        return v - g * (-g @ v)  # v + g (g.v); subtracting g = 0 keeps each -0.0 of v, adding would not

    def solve(self, d: np.ndarray) -> np.ndarray:
        if self.spec.kind == ELASTICITY:
            d = d[self._pattern.kept]
            x = checked_solve(self._matrix, self._lu, d, LU_PRECISION)
            if x is None and self._lagged:  # the kept LU has gone stale
                self._factorize()
                x = checked_solve(self._matrix, self._lu, d, LU_PRECISION)
            if x is None:
                raise SingularSystem("metric solve residual too large or non-finite")
            return self._pattern.scattered(x, self.n)
        if self._free is not None:
            d = np.where(self._free, d, 0.0)
        g = self._g
        return d - g * ((g @ d) / (1.0 + g @ g))

    def norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(max(v @ self.apply(v), 0.0)))


def retract_euclidean(coords: np.ndarray, v: np.ndarray, s: float) -> np.ndarray:
    """Straight-line retraction ``coords + s * v`` (vec order unfolded)."""
    return coords + s * np.asarray(v, dtype=float).reshape(coords.shape)
