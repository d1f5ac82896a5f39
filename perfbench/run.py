"""Benchmark of ``meshshape optimize`` and the experiment-2 batch.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see ``workloads.py`` and README.md) from the checkout's
``src`` and prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

Each round of the workload runs in a worker process of its own, as
``meshshape optimize`` runs one optimization per process, so each peak
resident set is that round's alone; two more worker processes only set up.
Every result is checked here, after the worker has ended, against
computations made apart from the program (``checks.py``).  Every time
reported is scaled to the reference pace: multiplied by
``workloads.PACE_REFERENCE_S`` over the mean time of the pace kernel sampled
in the same worker while it ran (README, "Noise").
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

SETUP_PROBES = 2
RUN_LIMIT_S = 170.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not workloads.use_checkout_source():
        print(f"error: no meshshape sources under {workloads.SRC}", file=sys.stderr)
        return 2

    began = time.monotonic()
    work = workloads.WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = [_setup_sample(_worker(args, work / f"probe{k}", began, "--setup-only"))
                  for k in range(SETUP_PROBES)]
        results = _rounds(args, work, began)
        setups += [_setup_sample(r) for r in results]
        rounds = [r["round"] for r in results]
        outcome = check_rounds(workloads.WORKLOADS[args.workload], rounds, args.seed)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in outcome["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for fault in outcome["known"]:
        print(f"known fault: {fault}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(results)
    else:
        metrics = end_to_end(results, setups)
        print("unscaled median solve_s {:.4f} s, mean pace {:.4f} s".format(
            statistics.median(r["round"]["solve_s"] for r in results),
            statistics.fmean(r["round"]["pace_s"] for r in results)), file=sys.stderr)
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


class WorkerError(RuntimeError):
    pass


def _rounds(args, work, began):
    """Whole rounds, one worker process each, until the next would end past
    ``--seconds`` (at least one).  Traced runs alternate untraced and traced
    rounds, so the tracing overhead is measured under the same conditions."""
    modes = ("0", "1") if args.trace else ("0",)
    results = []
    start = time.monotonic()
    while True:
        cycle = time.monotonic()
        for mode in modes:
            result = _worker(args, work / f"round{len(results)}", began, "--trace", mode)
            result["round"]["traced"] = mode == "1"
            results.append(result)
        now = time.monotonic()
        if now - start + (now - cycle) > args.seconds:
            return results


def _scale(result):
    """Factor that brings a worker's times to the reference pace."""
    pace = result["pace_s"] if "pace_s" in result else result["round"]["pace_s"]
    return workloads.PACE_REFERENCE_S / pace


def _setup_sample(result):
    build = result["build_s"] if "build_s" in result else result["round"]["build_s"]
    return (result["import_s"] + build) * _scale(result)


def _worker(args, out: Path, began: float, *extra):
    cmd = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload, "--seed", str(args.seed), "--out", str(out), *extra,
    ]
    remaining = RUN_LIMIT_S - (time.monotonic() - began)
    try:
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    if done.returncode != 0:
        raise WorkerError(f"worker exited with code {done.returncode}")
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


def end_to_end(results, setups):
    rounds = [(r["round"], _scale(r)) for r in results]
    setup_s = statistics.median(setups)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "solve_s": {"value": statistics.median(r["solve_s"] * k for r, k in rounds), "unit": "s"},
        "wall_s": {"value": setup_s + statistics.median((r["solve_s"] + r["output_s"]) * k for r, k in rounds),
                   "unit": "s"},
        "iter_per_s": {"value": statistics.median(r["iterations"] / (r["solve_s"] * k) for r, k in rounds),
                       "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in results), "unit": "MB"},
    }


def per_layer(results):
    """Means of the traced rounds' layer metrics, and the tracing overhead."""
    traced = [r for r in results if r["round"]["traced"]]

    def scaled(r, name):
        return r["layers"][name] * (_scale(r) if unit_of(name) == "s" else 1.0)

    layers = {name: statistics.fmean(scaled(r, name) for r in traced) for name in traced[0]["layers"]}
    untraced = statistics.median(r["round"]["solve_s"] * _scale(r) for r in results if not r["round"]["traced"])
    layers["trace.untraced_solve_s"] = untraced
    layers["trace.solve_s"] = statistics.median(r["round"]["solve_s"] * _scale(r) for r in traced)
    layers["trace.overhead_s"] = layers["trace.solve_s"] - untraced
    shares = {layer: statistics.fmean(r["shares"].get(layer, 0.0) for r in traced)
              for layer in sorted({layer for r in traced for layer in r["shares"]})}
    print("self-time shares of solve_s: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()), file=sys.stderr)
    return {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("per_step", "ratio")):
        return "ratio"
    return "count"


def check_rounds(workload, rounds, seed):
    """Check every operation of every round.

    An operation is one optimizer run with its checks, plus, in the batch,
    the written ``summary.csv``.  A summary whose only fault is the known
    ``np.float64(...)`` Total cells counts as failed without making the run
    incorrect; any other failed check does both.
    """
    from meshshape import fem, model_rhs, penalty
    from meshshape.mesh import build_complex

    rng = np.random.default_rng([seed, 1])
    outcome = {"attempted": 0, "failed": 0, "problems": [], "known": []}
    verified = {}  # terminal iterate bytes -> problems, for repeated identical runs
    first_history = {}

    def terminal_checks(run, iterates, triangles, qref):
        final = iterates[-1]
        key = (run["label"], final.tobytes())
        if key not in verified:
            complex = build_complex(triangles, len(final))
            rhs = model_rhs()
            system = fem.assemble(final, complex, rhs)
            gradient = fem.shape_derivative(final, complex, fem.solve_state(system), fem.solve_adjoint(system), rhs)
            params = penalty.PenaltyParams(tuple(run["alpha"]))
            if not params.is_zero:
                gradient = gradient + penalty.penalty_gradient(final, qref, complex, params)
            verified[key] = checks.check_terminal_values(
                final, qref, triangles, run["alpha"], run["records"][-1]
            ) + checks.check_derivative(final, qref, triangles, run["alpha"], gradient, rng)
        return verified[key]

    for index, record in enumerate(rounds):
        per_run = {}
        finals = {}
        for run in record["runs"]:
            problems = _check_run(workload, run, terminal_checks, first_history)
            per_run[run["label"]] = problems
            if workload.variant is None:
                finals.setdefault(run["label"].split("_")[0], []).append(run["records"][-1][3])
        if workload.variant is None:
            agreement = checks.check_batch_agreement(finals)
            for label, problems in per_run.items():
                problems += [p for p in agreement if p.startswith(label.split("_")[0] + ":")]
        for label, problems in per_run.items():
            outcome["attempted"] += 1
            outcome["failed"] += bool(problems)
            outcome["problems"] += [f"round {index} {label}: {p}" for p in problems]
        if workload.variant is None:
            _check_summary(outcome, index, record)
    return outcome


def _check_run(workload, run, terminal_checks, first_history):
    with np.load(run["arrays"]) as data:
        iterates, triangles, qref = data["iterates"], data["triangles"], data["qref"]
    records = [tuple(row) for row in run["records"]]
    outdir = Path(run["outdir"])
    history = (outdir / "history.csv").read_text(encoding="utf-8")
    problems = checks.check_history_csv(history, records)
    if len(iterates) != len(records):
        problems.append(f"{len(iterates)} iterates visited for {len(records)} history rows")
    problems += checks.check_areas(iterates, triangles)
    problems += checks.check_armijo(records, run["sigma"])
    problems += terminal_checks(run, iterates, triangles, qref)
    problems += checks.check_geodesics(run["geodesics"])
    if history != first_history.setdefault(run["label"], history):
        problems.append("history.csv differs from the first round's")
    if (workload.variant == "CompComp") != bool(run["geodesics"]):
        problems.append(f"{len(run['geodesics'])} geodesic integrations for {run['variant']}")
    if workload.variant is None:
        if run["status"] != "Converged":
            problems.append(f"status {run['status']}")
    else:
        if run["status"] != "MaxIter" or records[-1][0] != workload.max_iter:
            problems.append(f"status {run['status']} after {records[-1][0]} iterations")
        if not np.array_equal(_read_mesh_coords(outdir / "final.mesh"), iterates[-1]):
            problems.append("final.mesh differs from the terminal iterate")
    return problems


def _check_summary(outcome, index, record):
    rows = {row["label"]: row for row in checks.parse_summary(Path(record["summary"]).read_text(encoding="utf-8"))}
    problems, known = [], []
    if sorted(rows) != sorted(run["label"] for run in record["runs"]):
        problems.append(f"summary.csv labels {sorted(rows)}")
    for run in record["runs"]:
        if run["label"] in rows:
            p, k = checks.check_summary_row(rows[run["label"]], tuple(run["records"][-1]), run["status"])
            problems += p
            known += k
    outcome["attempted"] += 1
    if problems or known:
        outcome["failed"] += 1
    outcome["problems"] += [f"round {index} summary.csv: {p}" for p in problems]
    if known and index == 0:
        outcome["known"] += known


def _read_mesh_coords(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    n_v = int(lines[0].split()[0])
    return np.array([[float(x) for x in line.split()] for line in lines[1:1 + n_v]])


if __name__ == "__main__":
    sys.exit(main())
