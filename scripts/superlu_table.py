#!/usr/bin/env python3
"""Time SuperLU's supernode settings on the package's SPD matrices.

For the reduced P1 stiffness and the vector P1 elasticity metric on the
deterministic discs, the metric also with the boundary pinned (its matrix
holds the free DOFs alone), each factored as stored (``mesh.PREORDERED_LU``), print
the factor and solve times, min of ``--repeat`` repetitions, under SuperLU's
default ``panel_size`` and ``relax`` and under the ones ``mesh.SPD_LU`` sets,
with the ratio, the fill (``nnz`` of L plus U) and the largest relative
difference between the two solutions.  A setting that changes SuperLU's
row or column permutation stops the script:

    PYTHONPATH=src python scripts/superlu_table.py

``--dtype float32`` compares instead the metric matrices' LU in float64 with
one of the matrix cast to that type, as ``metrics.LU_PRECISION`` keeps it:
factor and solve times (the solve with the casts of its right-hand side and
solution), fill, and the LU solves ``mesh.checked_solve`` makes with each LU
to bring a random right-hand side within ``RESIDUAL_TOL``:

    PYTHONPATH=src python scripts/superlu_table.py --dtype float32

``--setting panel_size=1,relax=4`` (repeatable) times other values instead of
``SPD_LU``'s, which is how the constant is chosen; a parameter it leaves out
keeps SuperLU's default (``panel_size`` 20, ``relax`` 10 in scipy 1.17).  Values
above 20, the larger default, are refused: with scipy 1.17.1, scans that went
beyond it crashed the process.
"""
import argparse
import timeit

import numpy as np
from scipy.sparse.linalg import splu

from meshshape.fem import assemble, model_rhs
from meshshape.mesh import PREORDERED_LU, checked_solve, make_disc_mesh
from meshshape.metrics import MetricOperator, MetricSpec, assemble_elasticity


def _pinned_elasticity(cx, q):
    boundary = np.zeros(cx.num_vertices, dtype=bool)
    boundary[cx.boundary_vertices] = True
    return MetricOperator(MetricSpec.elasticity(), q, cx, fixed_mask=boundary)._matrix


MATRICES = (
    ("P1", lambda cx, q: assemble(q, cx, model_rhs()).reduced),
    ("elasticity", lambda cx, q: assemble_elasticity(q, cx)),
    ("pinned", _pinned_elasticity),
)
SUPERNODE_KEYS = ("panel_size", "relax")


def _min_times(calls, repeat):
    """Seconds per call of each of ``calls``, the minimum over ``repeat``
    batches of at least 20 ms each, the calls' batches taken in turn."""
    timers = [timeit.Timer(call) for call in calls]
    numbers = [max(1, int(np.ceil(0.02 / max(timer.timeit(1), 1e-7)))) for timer in timers]
    best = [np.inf] * len(calls)
    for _ in range(repeat):
        for i, (timer, number) in enumerate(zip(timers, numbers)):
            best[i] = min(best[i], timer.timeit(number) / number)
    return best


def _options(setting):
    """``PREORDERED_LU`` with SuperLU's default supernode parameters, updated by ``setting``."""
    return {**{key: value for key, value in PREORDERED_LU.items() if key not in SUPERNODE_KEYS}, **setting}


def _setting(text):
    setting = dict(item.split("=") for item in text.split(","))
    if not set(setting) <= set(SUPERNODE_KEYS):
        raise argparse.ArgumentTypeError(f"only {' and '.join(SUPERNODE_KEYS)} can be set")
    setting = {key: int(value) for key, value in setting.items()}
    if not all(1 <= value <= 20 for value in setting.values()):
        raise argparse.ArgumentTypeError("values run from 1 to 20")
    return setting


def table_rows(rings_list, settings, repeat):
    rng = np.random.default_rng(0)
    for rings in rings_list:
        cx, q = make_disc_mesh(rings)
        for name, build in MATRICES:
            a = build(cx, q)
            b = rng.standard_normal(a.shape[0])
            default = _options({})
            base_lu = splu(a, **default)
            base_x = base_lu.solve(b)
            for setting in settings:
                options = _options(setting)
                lu = splu(a, **options)
                if not (np.array_equal(lu.perm_c, base_lu.perm_c) and np.array_equal(lu.perm_r, base_lu.perm_r)):
                    raise AssertionError(f"disc:{rings} {name}: {setting} changed the permutations")
                x = lu.solve(b)
                base_factor, factor = _min_times([lambda: splu(a, **default), lambda: splu(a, **options)], repeat)
                base_solve, solve = _min_times([lambda: base_lu.solve(b), lambda: lu.solve(b)], repeat)
                yield (f"disc:{rings}", name, a.shape[0], ",".join(f"{k}={v}" for k, v in setting.items()),
                       base_lu.L.nnz + base_lu.U.nnz, lu.L.nnz + lu.U.nnz,
                       base_factor * 1e3, factor * 1e3, factor / base_factor,
                       base_solve * 1e3, solve * 1e3, solve / base_solve,
                       np.max(np.abs(x - base_x)) / np.max(np.abs(base_x)))


class _CountedLU:
    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


def _lu_solves(a, lu, b, precision):
    """The LU solves ``checked_solve`` makes on ``lu`` to reach its tolerance, or "-" if it misses."""
    counted = _CountedLU(lu)
    return counted.solves if checked_solve(a, counted, b, precision) is not None else "-"


def precision_rows(rings_list, dtype, repeat):
    rng = np.random.default_rng(0)
    for rings in rings_list:
        cx, q = make_disc_mesh(rings)
        for name, build in MATRICES[1:]:  # the metric's
            a = build(cx, q)
            low = a.astype(dtype)
            b = rng.standard_normal(a.shape[0])
            lu, low_lu = splu(a, **PREORDERED_LU), splu(low, **PREORDERED_LU)
            factor, low_factor = _min_times([lambda: splu(a, **PREORDERED_LU), lambda: splu(low, **PREORDERED_LU)],
                                            repeat)
            solve, low_solve = _min_times([lambda: lu.solve(b), lambda: low_lu.solve(b.astype(dtype)).astype(float)],
                                          repeat)
            yield (f"disc:{rings}", name, a.shape[0], lu.L.nnz + lu.U.nnz, low_lu.L.nnz + low_lu.U.nnz,
                   factor * 1e3, low_factor * 1e3, low_factor / factor, solve * 1e3, low_solve * 1e3, low_solve / solve,
                   _lu_solves(a, lu, b, np.float64), _lu_solves(a, low_lu, b, dtype))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rings", type=int, nargs="+", default=[5, 7, 12, 25, 50])
    parser.add_argument("--setting", action="append", type=_setting, metavar="panel_size=P,relax=R",
                        help="supernode parameters to time against the default (default: SPD_LU's)")
    parser.add_argument("--repeat", type=int, default=7, help="repetitions; each time is the min of them")
    parser.add_argument("--dtype", choices=["float32"],
                        help="compare the metric matrices' float64 LU with one in this type instead")
    args = parser.parse_args(argv)
    if args.dtype:
        print(f"mesh      matrix         n      fill float64 / {args.dtype}  factor ms float64 / {args.dtype} (ratio)"
              f"  solve ms float64 / {args.dtype} (ratio)  LU solves to RESIDUAL_TOL float64 / {args.dtype}")
        for row in precision_rows(args.rings, np.dtype(args.dtype), args.repeat):
            print("{:<9} {:<10} {:>6}  {:>8} / {:<8}  {:8.3f} / {:<8.3f} ({:.2f})"
                  "        {:7.3f} / {:<7.3f} ({:.2f})        {} / {}".format(*row), flush=True)
        return
    settings = args.setting or [{key: PREORDERED_LU[key] for key in SUPERNODE_KEYS if key in PREORDERED_LU}]
    print("mesh      matrix         n  setting               fill default / set  factor ms default / set (ratio)"
          "  solve ms default / set (ratio)  max rel diff of x")
    for row in table_rows(args.rings, settings, args.repeat):
        print("{:<9} {:<10} {:>6}  {:<20}  {:>8} / {:<8}  {:8.3f} / {:<8.3f} ({:.2f})"
              "        {:7.3f} / {:<7.3f} ({:.2f})        {:.1e}".format(*row), flush=True)


if __name__ == "__main__":
    main()
