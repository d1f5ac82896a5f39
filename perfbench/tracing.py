"""Spans around the calls into each meshshape layer, recorded from outside.

Each traced name is replaced where its caller looks it up, so every call is
counted once: ``meshshape.optimizer.assemble`` for the optimizer's calls into
the FEM layer, ``meshshape.fem.splu`` for the factorizations inside it, and
so on.  A span is ``(name, start, end, parent, ok)``; spans stay in memory
and are written out when the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (owner, attribute, span name); an owner "module:Class" names a class
# attribute, so bound-method calls are traced too.
TARGETS = (
    ("meshshape.cli", "make_disc_mesh", "mesh.make_disc_mesh"),
    ("meshshape.experiments", "make_disc_mesh", "mesh.make_disc_mesh"),
    ("meshshape.optimizer", "assemble", "fem.assemble"),
    ("meshshape.optimizer", "solve_state", "fem.solve_state"),
    ("meshshape.optimizer", "solve_adjoint", "fem.solve_adjoint"),
    ("meshshape.optimizer", "objective_value", "fem.objective_value"),
    ("meshshape.optimizer", "shape_derivative", "fem.shape_derivative"),
    ("meshshape.fem", "splu", "fem.factorize"),
    ("meshshape.optimizer", "penalty_value", "penalty.penalty_value"),
    ("meshshape.optimizer", "penalty_gradient", "penalty.penalty_gradient"),
    ("meshshape.metrics", "penalty_gradient", "penalty.penalty_gradient"),
    ("meshshape.geodesic", "penalty_gradient", "penalty.penalty_gradient"),
    ("meshshape.optimizer", "mesh_quality", "penalty.mesh_quality"),
    ("meshshape.optimizer", "MetricOperator", "metrics.operator"),
    ("meshshape.metrics:MetricOperator", "solve", "metrics.solve"),
    ("meshshape.metrics", "splu", "metrics.factorize"),
    ("meshshape.optimizer", "retract_geodesic", "geodesic.retract"),
    ("meshshape.optimizer", "armijo_search", "optimizer.line_search"),
    ("meshshape.cli", "steepest_descent", "optimizer.steepest_descent"),
    ("meshshape.experiments", "steepest_descent", "optimizer.steepest_descent"),
    ("meshshape.cli", "write_history", "fileio.write"),
    ("meshshape.cli", "write_timing", "fileio.write"),
    ("meshshape.cli", "write_mesh", "fileio.write"),
    ("meshshape.cli", "write_svg", "fileio.write"),
    ("meshshape.experiments", "run_experiment", "experiments.run_experiment"),
)

SOLVE = "optimizer.steepest_descent"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, ok)

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, ok in self.spans:
                fh.write(json.dumps([name, start, end, parent, ok]) + "\n")


def _owner(spec):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextmanager
def instrumented(tracer: Tracer):
    """Trace every name in ``TARGETS`` while the block runs."""
    patched = []
    try:
        for spec, attr, name in TARGETS:
            owner = _owner(spec)
            original = getattr(owner, attr)
            setattr(owner, attr, tracer.wrap(name, original))
            patched.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def _self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, ok in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (name, start, end, parent, ok), c in zip(spans, child)]


def layer_metrics(spans, rounds, iterations, trials, geodesic_steps):
    """Per-layer metrics, each a mean per traced round.

    ``iterations`` and ``trials`` are the accepted steps and the accepted
    steps plus backtracks of the traced rounds, from their history rows;
    ``geodesic_steps`` is the number of integration steps they ran.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    self_total = defaultdict(float)
    merit_evals = 0
    geodesic_grads = 0
    for (name, start, end, parent, ok), own in zip(spans, _self_times(spans)):
        total[name] += end - start
        calls[name] += 1
        self_total[name] += own
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "fem.assemble" and parent_name == "optimizer.line_search":
            merit_evals += 1
        if name == "penalty.penalty_gradient" and parent_name == "geodesic.retract" and spans[parent][4]:
            geodesic_grads += 1

    def per_round(x):
        return x / rounds

    m = {
        "mesh.make_disc_mesh.s": per_round(total["mesh.make_disc_mesh"]),
        "fem.factorizations": per_round(calls["fem.factorize"]),
        "fem.factorize.s": per_round(total["fem.factorize"]),
        "fem.shape_derivative.s": per_round(total["fem.shape_derivative"]),
        "fem.objective_value.s": per_round(total["fem.objective_value"]),
        "penalty.mesh_quality.s": per_round(total["penalty.mesh_quality"]),
        "metrics.operator.calls": per_round(calls["metrics.operator"]),
        "metrics.operator.s": per_round(total["metrics.operator"]),
        "metrics.solve.s": per_round(total["metrics.solve"]),
        "metrics.factorizations": per_round(calls["metrics.factorize"]),
        "metrics.factorize.s": per_round(total["metrics.factorize"]),
        "geodesic.retract.calls": per_round(calls["geodesic.retract"]),
        "geodesic.retract.s": per_round(total["geodesic.retract"]),
        "geodesic.retract.self_s": per_round(self_total["geodesic.retract"]),
        "geodesic.steps": per_round(geodesic_steps),
        "geodesic.grad_evals_per_step": geodesic_grads / geodesic_steps if geodesic_steps else 0.0,
        "optimizer.iterations": per_round(iterations),
        "optimizer.trials": per_round(trials),
        "optimizer.merit_evals": per_round(merit_evals),
        "optimizer.accept_ratio": iterations / trials if trials else 0.0,
        "optimizer.line_search.s": per_round(total["optimizer.line_search"]),
        "optimizer.line_search.self_s": per_round(self_total["optimizer.line_search"]),
        "optimizer.self_s": per_round(self_total[SOLVE]),
        "fileio.write.s": per_round(total["fileio.write"]),
        "experiments.run_experiment.self_s": per_round(self_total["experiments.run_experiment"]),
    }
    for name in ("fem.assemble", "fem.solve_state", "fem.solve_adjoint",
                 "penalty.penalty_value", "penalty.penalty_gradient"):
        m[f"{name}.calls"] = per_round(calls[name])
        m[f"{name}.s"] = per_round(total[name])
    return m


def layer_shares(spans):
    """Each layer's self time inside ``steepest_descent`` as a share of it.

    The layer of a span is the part of its name before the first dot; the
    shares partition the optimizer's time less the benchmark's own
    ``bench.*`` callbacks, as ``solve_s`` does.
    """
    inside = [False] * len(spans)
    solve = 0.0
    by_layer = defaultdict(float)
    for i, ((name, start, end, parent, ok), own) in enumerate(zip(spans, _self_times(spans))):
        inside[i] = name == SOLVE or (parent >= 0 and inside[parent])
        if name == SOLVE:
            solve += end - start
        if inside[i]:
            by_layer[name.split(".", 1)[0]] += own
    solve -= by_layer.pop("bench", 0.0)
    return {layer: seconds / solve for layer, seconds in sorted(by_layer.items())} if solve else {}
