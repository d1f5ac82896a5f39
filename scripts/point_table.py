#!/usr/bin/env python3
"""Time the per-point layer: a record's build and the penalty at throwaway points.

For each deterministic disc and each set of penalty weights, print the
microseconds per point, min of ``--repeat`` batches of at least 20 ms each, of

- ``record``: a :class:`~meshshape.mesh.Configuration` built on a fresh key,
  timed through ``mesh.is_admissible(complex, coords)`` after clearing
  ``mesh._configuration_cache`` (the same call at every version of the package);
- ``value``: ``penalty_value`` through one ``PenaltyEvaluator`` at a new point;
- ``value+gradient``: ``penalty_value`` and then ``penalty_gradient`` at a new
  point, which reuses the value's terms;
- ``step``: one ``retract_geodesic`` of 1024 steps from the first point with the
  velocity that leads to the reference, the microseconds per step, and after
  them ``values/step``, the ``penalty_value`` calls per step (the constraint
  solve's, counted in one more integration outside the timing).  Only discs of
  at most ``STEP_MAX_RINGS`` rings get this row: a ``disc:50`` integration
  takes seconds;
- ``descent``: the same along the optimizer's first geodesic, from the disc
  with the unpenalized problem's descent direction at unit metric norm.  The
  path to the reference is smooth enough that any extrapolation of the
  constraint solve's multiplier starts it within tolerance; this one shows
  what the extrapolation's order buys.

The points alternate between two perturbations of the disc, so every call
meets a point other than the last::

    PYTHONPATH=src python scripts/point_table.py

``--against DIR`` times the package in ``DIR/src/meshshape`` as well, from a
copy under another package name (every module imports its siblings
relatively), taking the two sides' batches in turn and alternating, round by
round, which side goes first.  On a noisy machine, timings of separate
processes spread by more than the differences this resolves.
"""
import argparse
import ctypes
import importlib
import shutil
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

WEIGHTS = ((10.0, 1.0, 0.0, 0.01), (10.0, 1.0, 0.1, 0.01))
STEPS = 1024
STEP_MAX_RINGS = 7


def _keep_freed_memory():
    """Have glibc keep the memory it frees for the next allocation.  Its default
    returns some of it to the system and maps it again, page by page, at a cost
    that depends on what ran before: timing one checkout against a copy of
    itself, the first side read 0.71-0.82 of the second on the ``disc:50``
    ``a3 = 0`` rows, and 0.97-1.00 with these settings."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):  # not glibc: its allocator is left as it is
        return
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: no trimming of the heap's top
    mallopt(-3, 1 << 25)  # M_MMAP_THRESHOLD at its largest, 32 MiB: no fresh mapping per array


def _load_copy(root):
    """The package in ``root/src/meshshape``, imported from a copy under another name."""
    with tempfile.TemporaryDirectory() as tmp:
        name = Path(tmp).name  # unique, so a second copy is not taken for the first
        shutil.copytree(Path(root) / "src" / "meshshape", Path(tmp) / name)
        sys.path.insert(0, tmp)
        try:
            return importlib.import_module(name)
        finally:
            sys.path.remove(tmp)


def _calls(package, rings, alpha, step):
    """The timed calls of one mesh, by measure, each with the points (or
    steps) it covers, and, by measure, the value calls per step of the
    ``step`` and ``descent`` measures, which are there if ``step``."""
    mesh, penalty = package.mesh, package.penalty
    complex, qref = mesh.make_disc_mesh(rings)
    rng = np.random.default_rng(rings)
    points = [qref + rng.uniform(-0.1, 0.1, size=qref.shape) / rings for _ in range(2)]
    if alpha is None:
        def record():
            for c in points:
                mesh._configuration_cache.clear()
                mesh.is_admissible(complex, c)
        return {"record": (record, 2)}, {}
    params = penalty.PenaltyParams(alpha)
    evaluator = penalty.PenaltyEvaluator(None, complex)

    def value():
        for c in points:
            penalty.penalty_value(c, qref, complex, params, evaluator)

    def value_gradient():
        for c in points:
            penalty.penalty_value(c, qref, complex, params, evaluator)
            penalty.penalty_gradient(c, qref, complex, params, evaluator)
    calls = {"value": (value, 2), "value+gradient": (value_gradient, 2)}
    if not step:
        return calls, {}
    geodesic = package.geodesic
    spec = package.metrics.MetricSpec.complete(params, qref)
    cfg = geodesic.GeodesicConfig(num_steps=STEPS)

    def retraction(start, velocity):
        return lambda: geodesic.retract_geodesic(start, velocity, spec, cfg, complex)
    steps = {"step": retraction(points[0], (qref - points[0]).ravel()),
             "descent": retraction(qref, _descent_velocity(package, complex, qref, spec))}
    counted = []
    original = geodesic.penalty_value  # looked up by name at every call, as the benchmark's tracer wraps it
    geodesic.penalty_value = lambda *args: counted.append(1) or original(*args)
    per_step = {}
    try:
        for measure, retract in steps.items():
            counted.clear()
            retract()
            per_step[measure] = len(counted) / STEPS
    finally:
        geodesic.penalty_value = original
    return {**calls, **{measure: (retract, STEPS) for measure, retract in steps.items()}}, per_step


def _descent_velocity(package, complex, qref, spec):
    """The velocity of the optimizer's first geodesic from ``qref``: the unpenalized problem's descent
    direction in the metric ``spec``, at unit metric norm."""
    fem = package.fem
    rhs = fem.model_rhs()
    system = fem.assemble(qref, complex, rhs)
    derivative = fem.shape_derivative(qref, complex, fem.solve_state(system), fem.solve_adjoint(system), rhs)
    operator = package.metrics.MetricOperator(spec, qref, complex)
    d = -operator.solve(derivative)
    return d / operator.norm(d)


def table_rows(packages, rings_list, repeat):
    """``(mesh, weights, measure, µs per point or step of each package, value
    calls per step of each package or None)`` rows."""
    for rings in rings_list:
        for alpha in (None, *WEIGHTS):
            sides, counts = zip(*(_calls(package, rings, alpha, rings <= STEP_MAX_RINGS) for package in packages))
            for measure, (_, per) in sides[0].items():
                timers = [timeit.Timer(side[measure][0]) for side in sides]
                number = max(1, int(np.ceil(0.02 / max(timers[0].timeit(1), 1e-7))))
                best = [np.inf] * len(timers)
                for r in range(repeat):
                    order = range(len(timers)) if r % 2 == 0 else reversed(range(len(timers)))
                    for i in order:
                        best[i] = min(best[i], timers[i].timeit(number) / number)
                weights = "-" if alpha is None else "/".join(f"{a:g}" for a in alpha)
                yield (f"disc:{rings}", weights, measure, [1e6 * t / per for t in best],
                       [count[measure] for count in counts] if measure in counts[0] else None)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rings", type=int, nargs="+", default=[1, 5, 7, 50])
    parser.add_argument("--repeat", type=int, default=21, help="batches per side; each time is the min of them")
    parser.add_argument("--against", metavar="DIR", help="a checkout whose src/meshshape is timed as well")
    args = parser.parse_args(argv)
    packages = [importlib.import_module("meshshape")]
    header = "mesh     weights          measure          this µs"
    if args.against:
        packages.append(_load_copy(args.against))
        header += "  against µs  ratio"
    print(header)
    for mesh, weights, measure, times, counts in table_rows(packages, args.rings, args.repeat):
        line = f"{mesh:<8} {weights:<16} {measure:<15} {times[0]:8.2f}"
        if args.against:
            line += f"  {times[1]:10.2f}  {times[0] / times[1]:5.3f}"
        if counts:
            line += "  values/step " + "/".join(f"{c:.3f}" for c in counts)
        print(line, flush=True)


if __name__ == "__main__":
    _keep_freed_memory()
    main()
