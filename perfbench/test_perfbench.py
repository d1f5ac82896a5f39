"""Tests of the benchmark itself: short versions of each workload's checks,
the once-per-call tracing counts, and byte-identical history files."""

import json
import shutil
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

assert workloads.use_checkout_source()

SHORT = {
    # CompEuc with penalty set 1, run as `meshshape optimize` runs it.
    "compeuc-disc3": workloads.Workload("compeuc-disc3", rings=3, variant="CompEuc", penalty="set1", max_iter=3),
    "elaseuc-disc50": replace(workloads.WORKLOADS["elaseuc-disc50"], rings=3, max_iter=3),
    "compcomp-disc1": replace(workloads.WORKLOADS["compcomp-disc1"], max_iter=1),
}


def _optimize(workload, outdir, seed=7, tracer=None):
    from meshshape import make_disc_mesh

    complex, coords = make_disc_mesh(workload.rings)
    displacement = workloads.perturbation(workload, seed, complex, coords)
    recorder = workloads.Recorder(tracer)
    traced = tracing.instrumented(tracer) if tracer else nullcontext()
    with recorder.geodesic_diagnostics(), traced:
        record = workloads.optimize_round(workload, displacement, outdir, recorder)
    workloads.save_arrays(record, outdir)
    return record


@pytest.mark.parametrize("name", sorted(SHORT))
def test_short_workload_passes_its_checks(name, tmp_path):
    workload = SHORT[name]
    records = [_optimize(workload, tmp_path / f"round{k}") for k in range(2)]
    outcome = run.check_rounds(workload, records, seed=7)
    assert outcome["problems"] == []
    assert (outcome["attempted"], outcome["failed"]) == (2, 0)


def test_short_batch_counts_the_summary_fault(tmp_path):
    workload = replace(workloads.WORKLOADS["exp2-batch"], batch_rings=2, batch_max_iter=4)
    record = workloads.batch_round(workload, tmp_path, workloads.Recorder())
    workloads.save_arrays(record, tmp_path)
    outcome = run.check_rounds(workload, [record], seed=7)
    # Four iterations neither converge nor agree; every other check passes.
    assert all("status MaxIter" in p or "disagree" in p for p in outcome["problems"])
    assert len(outcome["known"]) == 9
    assert (outcome["attempted"], outcome["failed"]) == (10, 10)


def test_each_wrapped_call_is_counted_once(tmp_path):
    tracer = tracing.Tracer()
    record = _optimize(SHORT["compeuc-disc3"], tmp_path, tracer=tracer)
    m = tracing.layer_metrics(tracer.spans, 1, record["iterations"], 1, 0)
    assert m["fem.factorizations"] == m["fem.solve_state.calls"] + m["fem.solve_adjoint.calls"]
    assert m["fem.assemble.calls"] == m["fem.solve_state.calls"]
    assert m["metrics.operator.calls"] == m["optimizer.iterations"] == 3
    # one derivative per iteration plus one rank-one metric per iteration
    assert m["penalty.penalty_gradient.calls"] == 2 * m["metrics.operator.calls"]
    assert m["optimizer.merit_evals"] == m["fem.assemble.calls"] - 4
    assert all(span is not None for span in tracer.spans)
    # the benchmark's own iterate callback is traced apart and left out of the shares
    assert sum(name == "bench.on_iterate" for name, *_ in tracer.spans) == len(record["runs"][0]["records"])
    shares = tracing.layer_shares(tracer.spans)
    assert "bench" not in shares and sum(shares.values()) == pytest.approx(1.0)


def test_pace_samples_are_left_out_of_the_timed_regions():
    pace = workloads.Pace(timer=True)
    with pace.running():
        clock0, raw0, spent0 = pace.clock(), time.perf_counter(), pace.spent_s
        while time.perf_counter() - raw0 < 1.0:
            pass
        timed = pace.clock() - clock0
        raw, spent = time.perf_counter() - raw0, pace.spent_s - spent0
    assert len(pace.samples) >= 4  # one at the start, then on the timer
    assert spent > 0.0
    assert timed == pytest.approx(raw - spent, abs=1e-3)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    pace = workloads.Pace(timer=False)
    with pace.running():
        assert len(pace.samples) == 1
        pace.keep_up()  # the kernel has had its share of the time since the start
        assert len(pace.samples) == 1


def test_two_executions_write_identical_history(tmp_path):
    workload = SHORT["compeuc-disc3"]
    _optimize(workload, tmp_path / "a")
    _optimize(workload, tmp_path / "b")
    a = (tmp_path / "a" / "history.csv").read_bytes()
    assert a == (tmp_path / "b" / "history.csv").read_bytes()


def test_checks_reject_wrong_results(tmp_path):
    workload = SHORT["compeuc-disc3"]
    record = _optimize(workload, tmp_path)
    run_data = record["runs"][0]
    with np.load(run_data["arrays"]) as data:
        iterates, triangles, qref = data["iterates"], data["triangles"], data["qref"]
    rows = [tuple(r) for r in run_data["records"]]
    alpha = run_data["alpha"]
    final = iterates[-1]

    assert checks.check_terminal_values(final, qref, triangles, alpha, rows[-1]) == []
    wrong = rows[-1][:3] + (rows[-1][3] * (1 + 1e-8),) + rows[-1][4:]
    assert checks.check_terminal_values(final, qref, triangles, alpha, wrong)

    assert checks.check_armijo(rows, run_data["sigma"]) == []
    raised = list(rows)
    raised[1] = rows[1][:3] + (rows[0][3],) + rows[1][4:]
    assert checks.check_armijo(raised, run_data["sigma"])

    flipped = iterates[:1].copy()
    a, b, c = triangles[0]
    flipped[0][a] = flipped[0][b] + flipped[0][c] - flipped[0][a]  # mirror across edge bc
    assert checks.check_areas(flipped, triangles)

    from meshshape import fem, model_rhs, penalty
    from meshshape.mesh import build_complex

    complex = build_complex(triangles, len(final))
    system = fem.assemble(final, complex, model_rhs())
    gradient = fem.shape_derivative(
        final, complex, fem.solve_state(system), fem.solve_adjoint(system), model_rhs()
    ) + penalty.penalty_gradient(final, qref, complex, penalty.PenaltyParams(tuple(alpha)))
    rng = np.random.default_rng(0)
    assert checks.check_derivative(final, qref, triangles, alpha, gradient, rng) == []
    assert checks.check_derivative(final, qref, triangles, alpha, 1.001 * gradient, rng)

    history = (tmp_path / "history.csv").read_text(encoding="utf-8")
    assert checks.check_history_csv(history, rows) == []
    assert checks.check_history_csv(history.replace(",0\n", ",1\n", 1), rows)


def test_summary_row_check_separates_the_known_fault():
    terminal = (12, -0.05, 1.2, 1.15, 1.005, 0.0, 0, float("nan"))
    row = {"label": "set1_EucEuc", "iterations": "12", "status": "Converged",
           "Obj": "-0.05", "Total": "np.float64(1.15)", "mshQua": "1.005"}
    assert checks.check_summary_row(row, terminal, "Converged") == ([], ["set1_EucEuc: Total cell 'np.float64(1.15)' does not parse"])
    assert checks.check_summary_row(dict(row, Total="1.15"), terminal, "Converged") == ([], [])
    problems, known = checks.check_summary_row(dict(row, Total="np.float64(1.25)"), terminal, "Converged")
    assert problems and not known
    problems, known = checks.check_summary_row(dict(row, Obj="-0.06"), terminal, "Converged")
    assert problems


def test_run_refuses_a_directory_without_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "exp2-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    tracer = tracing.Tracer()
    reported = set(tracing.layer_metrics(tracer.spans, 1, 0, 0, 0))
    reported |= {"trace.untraced_solve_s", "trace.solve_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert all(run.unit_of(m["name"]) == m["unit"] for m in spec["per_layer"])
    result = {"round": {"solve_s": 1.0, "output_s": 0.0, "iterations": 1, "pace_s": 0.1}, "peak_rss_mb": 1.0}
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end([result], [1.0]))
