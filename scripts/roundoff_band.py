#!/usr/bin/env python3
"""Print the round-off band of each reproduced number: its value and its range over perturbed starts.

Each run of a case starts once from its mesh's coordinates and once from
each of ``--starts`` copies multiplied entrywise by ``1 + 1e-13 xi``, with
xi standard normal from ``numpy.random.default_rng(seed)``, seeds 0 to
``--starts`` - 1.  Per run it prints the final iteration count, ``j``,
``j + phi``, theta and status, from the unperturbed start and as the
minimum and maximum over all the starts:

    PYTHONPATH=src python scripts/roundoff_band.py --case criterion6 --case exp2

A change that moves a history moves it by round-off when each moved value
lies inside the band printed at the parent commit; a value outside it is a
change in dynamics.  The cases:

- ``criterion6``: acceptance criterion 6's fixture, experiment 2's
  parameter set 1 on ``disc:7`` (EucEuc, ElasEuc, CompEuc to convergence);
- ``criterion7``: criterion 7's, unpenalized on ``disc:5`` (EucEuc to its
  step-floor failure, ElasEuc and CompEuc for 500 iterations);
- ``exp2``: the nine runs of ``meshshape experiment 2``;
- ``elaseuc-disc50``: ElasEuc on ``disc:50`` for 8 iterations, without
  penalty.  Its metric vectors are long enough for OpenBLAS's dot products
  to round differently per thread count, so the script, run as one, sets
  ``OPENBLAS_NUM_THREADS=1`` before numpy is imported (loaded as a module,
  it leaves the environment as it is);
- ``compcomp-disc1``: CompComp on ``disc:1`` for 2 iterations, without
  penalty, the geodesic retraction's history case and benchmark workload;
- ``compcomp-disc5``: CompComp on ``disc:5`` for 200 iterations, without
  penalty and with ``stop_tol`` 0, where the geodesics are short.

``--rings`` and ``--max-iter`` replace every run's mesh and iteration cap,
for a quick look.  Progress goes to standard error.
"""
import argparse
import os
import sys
import time

if __name__ == "__main__":  # before numpy is imported: OpenBLAS reads it once, at load
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from meshshape.experiments import METRIC_ALPHA, PENALTY_SETS
from meshshape.fem import model_rhs
from meshshape.mesh import make_disc_mesh
from meshshape.optimizer import OptimizerConfig, steepest_descent
from meshshape.penalty import PenaltyParams

SCALE = 1e-13
ZERO = (0.0, 0.0, 0.0, 0.0)
VARIANTS = ("EucEuc", "ElasEuc", "CompEuc")


def _penalized(set_id):  # experiment 2's runs of one penalty set
    return [(f"set{set_id}_{v}", v, PENALTY_SETS[set_id], 1000, 1e-6) for v in VARIANTS]


# name: (rings, runs); a run is (label, variant, penalty weights, iteration cap, stop_tol)
CASES = {
    "criterion6": (7, [(v, v, PENALTY_SETS[1], 1000, 1e-6) for v in VARIANTS]),
    "criterion7": (5, [("EucEuc", "EucEuc", ZERO, 1000, 0.0), ("ElasEuc", "ElasEuc", ZERO, 500, 0.0),
                       ("CompEuc", "CompEuc", ZERO, 500, 0.0)]),
    "exp2": (7, [run for set_id in PENALTY_SETS for run in _penalized(set_id)]),
    "elaseuc-disc50": (50, [("ElasEuc", "ElasEuc", ZERO, 8, 1e-6)]),
    "compcomp-disc1": (1, [("CompComp", "CompComp", ZERO, 2, 1e-6)]),
    "compcomp-disc5": (5, [("CompComp", "CompComp", ZERO, 200, 0.0)]),
}
QUANTITIES = ("iterations", "j", "j+phi", "theta")


def starts(coords, k):
    """The unperturbed coordinates, then ``k`` copies scaled by ``1 + SCALE xi``, seeds 0 to k - 1."""
    yield coords
    for seed in range(k):
        yield coords * (1.0 + SCALE * np.random.default_rng(seed).standard_normal(coords.shape))


def run_finals(rings, run, k, max_iter=None):
    """``(iterations, j, j + phi, theta, status)`` of one run from each start."""
    _, variant, alpha, cap, stop_tol = run
    cx, q = make_disc_mesh(rings)
    config = OptimizerConfig(variant=variant, penalty=PenaltyParams(alpha), metric_penalty=PenaltyParams(METRIC_ALPHA),
                             max_iter=cap if max_iter is None else max_iter, stop_tol=stop_tol)
    for q0 in starts(q, k):
        result = steepest_descent(cx, q0, model_rhs(), config)
        last = result.history[-1]
        yield last.iter, last.objective, last.total, last.theta, result.status


def band_rows(name, k, rings=None, max_iter=None):
    """One row per run and quantity: case, run, quantity, unperturbed value, minimum, maximum."""
    case_rings, runs = CASES[name]
    for run in runs:
        began = time.perf_counter()
        finals = list(run_finals(rings or case_rings, run, k, max_iter))
        print(f"{name} {run[0]}: {len(finals)} starts in {time.perf_counter() - began:.1f} s", file=sys.stderr)
        columns = list(zip(*finals))
        for quantity, values in zip(QUANTITIES, columns):
            fmt = "{:d}" if quantity == "iterations" else "{:.15g}"
            yield (name, run[0], quantity, *(fmt.format(v) for v in (values[0], min(values), max(values))))
        statuses = columns[-1]
        spread = ",".join(f"{s}:{statuses.count(s)}" for s in sorted(set(statuses)))
        yield name, run[0], "status", statuses[0], spread, ""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", action="append", choices=list(CASES), help="a case to run (repeatable)")
    parser.add_argument("--starts", type=int, default=6, help="perturbed starts besides the unperturbed one")
    parser.add_argument("--rings", type=int, help="run every case on disc:RINGS instead")
    parser.add_argument("--max-iter", type=int, help="cap every run at this many iterations instead")
    args = parser.parse_args(argv)
    print(f"# {args.starts + 1} starts: the unperturbed one and {args.starts} scaled by 1 + {SCALE:g} xi")
    print(f"{'case':<15} {'run':<13} {'quantity':<10} {'unperturbed':>21} {'min':>21} {'max':>21}")
    for name in args.case or list(CASES):
        for row in band_rows(name, args.starts, args.rings, args.max_iter):
            print("{:<15} {:<13} {:<10} {:>21} {:>21} {:>21}".format(*row).rstrip(), flush=True)


if __name__ == "__main__":
    main()
