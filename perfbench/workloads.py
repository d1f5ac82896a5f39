"""The benchmark's workloads: seeded inputs and one round of each.

A round is the unit a run repeats.  For the two single-run workloads it is
what ``meshshape optimize`` does, called through the same names in
``meshshape.cli``: build the mesh and configuration, run ``steepest_descent``
and write ``history.csv``, ``timing.csv``, ``final.mesh`` and ``final.svg``.
For ``exp2-batch`` it is one ``meshshape.experiments.run_experiment(2, ...)``
at its defaults, which runs its nine optimizations one after the other.

Every round records what the checks in ``checks.py`` need: the history rows
with their pairings, a copy of every visited iterate, and the diagnostics of
every geodesic integration.  It also samples the pace kernel while it runs.
Copying an iterate and sampling the pace are timed and left out of the solve
time.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Largest displacement of an interior vertex per coordinate, as a share of
# the ring spacing.
PERTURBATION = 0.002
# The pace kernel: a fixed loop of small-array NumPy arithmetic, the kind of
# work that dominates the small workloads.  An untraced round samples it every
# PACE_PERIOD_S of wall time; a traced round samples it in its iterate
# callback, as often as keeps the kernel at PACE_SHARE of the round's time.
# run.py scales the round's times by PACE_REFERENCE_S over the mean sample
# (README, "Noise").
PACE_LOOPS = 7500
PACE_PERIOD_S = 0.25
PACE_SHARE = 0.1
PACE_REFERENCE_S = 0.025


def use_checkout_source() -> bool:
    """Put the checkout's ``src`` first on ``sys.path``; False when it is absent."""
    if not (SRC / "meshshape" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


@dataclass(frozen=True)
class Workload:
    name: str
    rings: int
    variant: str | None  # None: the experiment-2 batch
    penalty: str = "none"
    max_iter: int = 0
    batch_max_iter: int | None = None  # run_experiment's own default when None
    batch_rings: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("elaseuc-disc50", rings=50, variant="ElasEuc", penalty="none", max_iter=8),
        Workload("compcomp-disc1", rings=1, variant="CompComp", penalty="none", max_iter=2),
        Workload("exp2-batch", rings=7, variant=None),
    )
}


def perturbation(workload: Workload, seed: int, complex, coords):
    """Seeded displacement of the interior vertices, checked for admissibility.

    Each interior vertex moves by at most ``PERTURBATION / rings`` in each
    coordinate; boundary vertices stay on the circle.
    """
    import numpy as np

    from checks import boundary_vertices, signed_areas

    rng = np.random.default_rng(seed)
    displacement = rng.uniform(-1.0, 1.0, size=coords.shape) * (PERTURBATION / workload.rings)
    displacement[boundary_vertices(complex.triangles)] = 0.0
    moved = coords + displacement
    if not np.all(signed_areas(moved, complex.triangles) > 0.0):
        raise ValueError(f"seed {seed} gives an inadmissible start for {workload.name}")
    return displacement


def pace_kernel() -> float:
    """Seconds one pass of the pace kernel takes now."""
    import numpy as np

    start = time.perf_counter()
    a = np.linspace(0.1, 1.0, 14)
    total = 0.0
    for _ in range(PACE_LOOPS):
        b = a * 1.5 + 0.25
        total += float(b @ a)
        a = np.sqrt(b) * 0.5
    return time.perf_counter() - start


class Pace:
    """Samples of the pace kernel taken while a round runs.

    On a timer, the samples are taken from the handler of an interval timer's
    signal, which Python runs between two bytecodes of the program; without
    one, from ``keep_up``.  ``clock`` is ``perf_counter`` less the time spent
    sampling, so a region timed with it leaves the samples out.
    """

    def __init__(self, timer: bool):
        self.samples = []
        self.spent_s = 0.0
        self._timer = timer
        self._busy = False
        self._start = time.perf_counter()

    def _sample(self, *_signal):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(pace_kernel())
        self.spent_s += time.perf_counter() - start
        self._busy = False

    def clock(self) -> float:
        while True:
            spent = self.spent_s
            now = time.perf_counter()
            if spent == self.spent_s:  # no sample ran in between
                return now - spent

    def keep_up(self):
        """Without a timer: sample until the samples have taken ``PACE_SHARE``
        of the time since the start spent otherwise."""
        while not self._timer and self.spent_s < PACE_SHARE * (self.clock() - self._start):
            self._sample()

    @contextmanager
    def running(self):
        """Sample at the start, then on the timer or from ``keep_up``, and at the end."""
        self._sample()
        if not self._timer:
            yield self
            self.keep_up()
            return
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PACE_PERIOD_S, PACE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mean(self) -> float:
        return statistics.fmean(self.samples)


class Recorder:
    """Collects per-run data from inside the program's calls.

    With a tracer, the pace is sampled in the iterate callback, so that no
    sample lands inside a traced call, and the callback is traced as
    ``bench.on_iterate``, so its time is not booked to the optimizer.
    """

    def __init__(self, tracer=None):
        self.callback_s = 0.0
        self.geodesics = []  # (initial H, final H, area warnings, steps)
        self.pace = Pace(timer=tracer is None)
        self._tracer = tracer

    def on_iterate(self, iterates):
        def record(n, coords):
            start = self.pace.clock()
            iterates.append(coords.copy())
            self.pace.keep_up()
            self.callback_s += self.pace.clock() - start

        return self._tracer.wrap("bench.on_iterate", record) if self._tracer else record

    @contextmanager
    def geodesic_diagnostics(self):
        """Keep each geodesic's energy drift and area warnings, which the
        optimizer drops, by wrapping ``retract_geodesic`` where it looks it up."""
        from meshshape import optimizer

        retract = optimizer.retract_geodesic

        def retract_geodesic(coords, velocity, spec, cfg, complex, fixed_mask=None):
            path = retract(coords, velocity, spec, cfg, complex, fixed_mask=fixed_mask)
            self.geodesics.append(
                (path.initial_hamiltonian, path.final_hamiltonian, len(path.area_warnings), cfg.num_steps)
            )
            return path

        optimizer.retract_geodesic = retract_geodesic
        try:
            yield
        finally:
            optimizer.retract_geodesic = retract


def _run_data(label, result, config, iterates, triangles, qref, solve_s, geodesics):
    return {
        "label": label,
        "variant": config.variant,
        "status": result.status,
        "sigma": config.sigma,
        "alpha": list(config.penalty.alpha),
        "records": [
            [r.iter, r.objective, r.penalty, r.total, r.theta, r.step, r.backtracks, r.grad_deriv_pairing]
            for r in result.history
        ],
        "solve_s": solve_s,
        "geodesics": geodesics,
        "arrays": {"iterates": iterates, "triangles": triangles, "qref": qref},
    }


def build_optimize(workload: Workload, displacement):
    """Mesh, start and configuration as ``meshshape optimize`` builds them."""
    from meshshape import GeodesicConfig, OptimizerConfig, PenaltyParams, cli

    complex, coords = cli.load_mesh(f"disc:{workload.rings}")
    coords = coords + displacement
    if not cli.is_admissible(complex, coords):
        raise ValueError("start mesh is not admissible")
    rhs = cli.parse_rhs("model")
    config = OptimizerConfig(
        variant=workload.variant,
        penalty=PenaltyParams(cli.parse_alpha(workload.penalty)),
        metric_penalty=PenaltyParams(cli.parse_alpha("ag")),
        max_iter=workload.max_iter,
        stop_tol=0.0,
        geodesic=GeodesicConfig(num_steps=1024),  # the CLI's default
    )
    return complex, coords, rhs, config


def optimize_round(workload: Workload, displacement, outdir: Path, recorder: Recorder):
    """One ``meshshape optimize`` run; returns its timings and run data."""
    from meshshape import cli

    iterates = []
    recorder.callback_s = 0.0
    recorder.geodesics = []
    clock = recorder.pace.clock
    with recorder.pace.running():
        start = clock()
        complex, coords, rhs, config = build_optimize(workload, displacement)
        timer = cli.PhaseTimer()
        built = clock()
        result = cli.steepest_descent(
            complex, coords, rhs, config, timer=timer, on_iterate=recorder.on_iterate(iterates)
        )
        solved = clock()
        outdir.mkdir(parents=True, exist_ok=True)
        cli.write_history(outdir / "history.csv", result.history)
        cli.write_timing(outdir / "timing.csv", timer)
        cli.write_mesh(outdir / "final.mesh", complex, result.final_coords)
        cli.write_svg(outdir / "final.svg", complex, result.final_coords)
        end = clock()
    solve_s = solved - built - recorder.callback_s
    run = _run_data(
        workload.name, result, config, iterates, complex.triangles, coords, solve_s, recorder.geodesics
    )
    run["outdir"] = str(outdir)
    return {
        "build_s": built - start,
        "solve_s": solve_s,
        "output_s": end - solved,
        "pace_s": recorder.pace.mean(),
        "iterations": _iterations(run),
        "runs": [run],
    }


def _iterations(run):
    return sum(1 for r in run["records"] if r[5] > 0.0)


def run_round(workload: Workload, displacement, outdir: Path, recorder: Recorder):
    if workload.variant is None:
        return batch_round(workload, outdir, recorder)
    return optimize_round(workload, displacement, outdir, recorder)


def batch_round(workload: Workload, outdir: Path, recorder: Recorder):
    """One experiment-2 batch through ``run_experiment``; returns timings and runs.

    ``steepest_descent`` is wrapped where ``run_experiment`` looks it up, to
    time each run and to record its iterates and result.
    """
    from meshshape import experiments

    set_ids = {alpha: k for k, alpha in experiments.PENALTY_SETS.items()}
    runs = []
    first_call = []
    optimize = experiments.steepest_descent
    clock = recorder.pace.clock

    def steepest_descent(complex, qref, rhs, config, timer=None, on_iterate=None):
        if not first_call:
            first_call.append(clock())
        iterates = []
        recorder.geodesics = []
        callback_before = recorder.callback_s
        start = clock()
        result = optimize(complex, qref, rhs, config, timer=timer, on_iterate=recorder.on_iterate(iterates))
        solve_s = clock() - start - (recorder.callback_s - callback_before)
        label = f"set{set_ids[tuple(config.penalty.alpha)]}_{config.variant}"
        runs.append(
            _run_data(label, result, config, iterates, complex.triangles, qref, solve_s, recorder.geodesics)
        )
        return result

    recorder.callback_s = 0.0
    experiments.steepest_descent = steepest_descent
    try:
        with recorder.pace.running():
            start = clock()
            experiments.run_experiment(
                2, outdir, max_iter=workload.batch_max_iter, rings=workload.batch_rings
            )
            end = clock()
    finally:
        experiments.steepest_descent = optimize
    for run in runs:
        run["outdir"] = str(outdir / run["label"])
    solve_s = sum(run["solve_s"] for run in runs)
    build_s = first_call[0] - start
    return {
        "build_s": build_s,
        "solve_s": solve_s,
        "output_s": end - start - build_s - solve_s - recorder.callback_s,
        "pace_s": recorder.pace.mean(),
        "iterations": sum(_iterations(run) for run in runs),
        "runs": runs,
        "summary": str(outdir / "summary.csv"),
    }


class _FirstIteration(BaseException):
    """Raised from a stand-in optimizer to end a batch at its first run.

    It derives from BaseException because ``run_experiment`` turns every
    Exception of a run into an error row and goes on with the next run.
    """


def setup_only(workload: Workload, displacement, outdir: Path) -> float:
    """Seconds from the start of a round to its first optimizer iteration."""
    start = time.perf_counter()
    if workload.variant is not None:
        build_optimize(workload, displacement)
        return time.perf_counter() - start
    from meshshape import experiments

    optimize = experiments.steepest_descent

    def stop(*args, **kwargs):
        raise _FirstIteration

    experiments.steepest_descent = stop
    try:
        experiments.run_experiment(2, outdir, max_iter=workload.batch_max_iter, rings=workload.batch_rings)
    except _FirstIteration:
        return time.perf_counter() - start
    finally:
        experiments.steepest_descent = optimize
    raise RuntimeError("run_experiment returned without starting an optimization")


def save_arrays(record, outdir: Path):
    """Move each run's arrays out of a round record into an ``.npz`` file."""
    import numpy as np

    for k, run in enumerate(record["runs"]):
        arrays = run.pop("arrays")
        path = outdir / f"arrays{k}.npz"
        np.savez(path, iterates=np.stack(arrays["iterates"]), triangles=arrays["triangles"], qref=arrays["qref"])
        run["arrays"] = str(path)
