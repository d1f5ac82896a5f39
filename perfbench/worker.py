"""Runs one round of a workload in a process of its own; writes ``result.json``.

Started by ``run.py``; not meant to be run by hand.  The first thing it does
is import ``meshshape`` from the checkout, timed, so the import counts
towards set-up, as it does for ``meshshape optimize``.  With ``--setup-only``
it stops at the first optimizer iteration and then samples the pace kernel
twice.  With ``--trace 1`` the round is traced, and the per-layer metrics of
the round and its spans are written too.  The peak resident set reported is that of this process, which runs
the round alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import workloads

    if not workloads.use_checkout_source():
        print("worker: the checkout has no src/meshshape", file=sys.stderr)
        return 2
    start = time.perf_counter()
    import meshshape

    import_s = time.perf_counter() - start

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    displacement = None
    if workload.variant is not None:
        complex, coords = meshshape.make_disc_mesh(workload.rings)
        displacement = workloads.perturbation(workload, args.seed, complex, coords)

    result = {"import_s": import_s}
    if args.setup_only:
        result["build_s"] = workloads.setup_only(workload, displacement, out / "setup")
        result["pace_s"] = (workloads.pace_kernel() + workloads.pace_kernel()) / 2
    else:
        import tracing

        tracer = tracing.Tracer()
        recorder = workloads.Recorder(tracer if args.trace else None)
        with recorder.geodesic_diagnostics(), tracing.instrumented(tracer) if args.trace else nullcontext():
            record = workloads.run_round(workload, displacement, out, recorder)
        workloads.save_arrays(record, out)
        result["round"] = record
        if args.trace:
            runs = record["runs"]
            trials = sum(row[6] + 1 for run in runs for row in run["records"] if row[5] > 0.0)
            steps = sum(g[3] for run in runs for g in run["geodesics"])
            result["layers"] = tracing.layer_metrics(tracer.spans, 1, record["iterations"], trials, steps)
            result["shares"] = tracing.layer_shares(tracer.spans)
            traces = workloads.WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.write(traces / f"{workload.name}-seed{args.seed}-{out.name}.jsonl")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
