"""Scripted experiment batches with CSV summaries and per-phase timings.

Experiment 1: unpenalized runs on a coarse disc comparing the Euclidean and
elasticity metrics (Euclidean retraction) against the rank-one metric with
geodesic retraction, all on the same disc with the same iteration cap.

Experiment 2: penalized runs for three penalty parameter sets; all variants
should converge to the same minimizer.

Experiment 3: unpenalized runs on finer discs, elasticity versus rank-one
metric, fixed iteration budget.
"""

from __future__ import annotations

from pathlib import Path

from .fem import model_rhs
from .fileio import write_history, write_timing
from .geodesic import GeodesicConfig
from .mesh import make_disc_mesh
from .optimizer import OptimizerConfig, PhaseTimer, steepest_descent
from .penalty import PenaltyParams

PENALTY_SETS = {
    1: (1.0, 0.5, 0.0, 0.1),
    2: (0.1, 0.01, 0.0, 0.001),
    3: (0.015, 0.005, 0.0, 0.0005),
}
METRIC_ALPHA = (10.0, 1.0, 0.0, 0.01)

SUMMARY_HEADER = "experiment,label,variant,vertices,triangles,iterations,status,Obj,Total,mshQua"
TIMING_HEADER = "label,variant,phase,seconds"


def _run(complex, coords, config, outdir, label):
    rundir = outdir / label
    rundir.mkdir(parents=True, exist_ok=True)
    timer = PhaseTimer()
    result = steepest_descent(complex, coords, model_rhs(), config, timer=timer)
    write_history(rundir / "history.csv", result.history)
    write_timing(rundir / "timing.csv", timer)
    last = result.history[-1]
    return result, timer, last


def _summary_row(exp_id, label, variant, complex, result, last):
    return (
        f"{exp_id},{label},{variant},{complex.num_vertices},{complex.num_triangles},"
        f"{last.iter},{result.status},{last.objective!r},{last.total!r},{last.theta!r}"
    )


def run_experiment(
    exp_id: int,
    outdir: Path,
    max_iter: int | None = None,
    rings: int | None = None,
    geodesic_steps: int = GeodesicConfig.num_steps,
) -> int:
    """Run experiment ``exp_id`` into ``outdir``, one run after another.  A
    bad option raises before ``outdir`` is made.  A run that fails ends
    with its failure status in the summary, as ``steepest_descent`` ends it."""
    zero = PenaltyParams((0.0, 0.0, 0.0, 0.0))
    metric = PenaltyParams(METRIC_ALPHA)
    geodesic = GeodesicConfig(num_steps=geodesic_steps)  # checked for every experiment
    cap = max_iter if max_iter is not None else (500 if exp_id == 3 else 1000)
    tasks = []  # (label, variant, complex, coords, config)

    def add(label, variant, mesh, penalty=zero, stop_tol=0.0):
        config = OptimizerConfig(variant=variant, penalty=penalty, metric_penalty=metric, max_iter=cap,
                                 stop_tol=stop_tol, geodesic=geodesic)
        tasks.append((label, variant, *mesh, config))

    if exp_id == 1:
        mesh = make_disc_mesh(rings if rings is not None else 5)
        for variant in ("EucEuc", "ElasEuc", "CompComp"):
            add(variant, variant, mesh)

    elif exp_id == 2:
        mesh = make_disc_mesh(rings if rings is not None else 7)
        for set_id, alpha in PENALTY_SETS.items():
            for variant in ("EucEuc", "ElasEuc", "CompEuc"):
                add(f"set{set_id}_{variant}", variant, mesh, PenaltyParams(alpha), stop_tol=1e-6)

    elif exp_id == 3:
        for r in (rings,) if rings is not None else (5, 8, 12):
            mesh = make_disc_mesh(r)
            for variant in ("ElasEuc", "CompEuc"):
                add(f"rings{r}_{variant}", variant, mesh)
    else:
        raise ValueError(f"unknown experiment {exp_id}")

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = [SUMMARY_HEADER]
    timing_rows = [TIMING_HEADER]
    for label, variant, cx, q, config in tasks:
        result, timer, last = _run(cx, q, config, outdir, label)
        summary.append(_summary_row(exp_id, label, variant, cx, result, last))
        for phase, seconds in timer.seconds.items():
            timing_rows.append(f"{label},{variant},{phase},{seconds:.6f}")

    (outdir / "summary.csv").write_text("\n".join(summary) + "\n", encoding="utf-8")
    (outdir / "timing_summary.csv").write_text(
        "\n".join(timing_rows) + "\n", encoding="utf-8"
    )
    for line in summary:
        print(line)
    return 0
