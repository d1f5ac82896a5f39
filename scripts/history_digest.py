#!/usr/bin/env python3
"""Print one sha256 per ``history.csv`` and ``summary.csv`` of a fixed run matrix.

Each case runs through ``meshshape.cli.main`` in a temporary directory; the
runs' own console output goes to standard error.  Two builds write
byte-identical histories exactly when this script prints the same lines for
both, so compare two commits with ``diff``:

    PYTHONPATH=src python scripts/history_digest.py > after.txt
"""
import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

from meshshape.cli import main

CASES = (
    ("exp2", ["experiment", "2"]),
    ("elaseuc-disc50", ["optimize", "--variant", "ElasEuc", "--mesh", "disc:50", "--max-iter", "8"]),
    # a pinned boundary puts the masked elasticity matrix on the drift check
    ("elaseuc-fixed-disc7", ["optimize", "--variant", "ElasEuc", "--mesh", "disc:7", "--fix-boundary",
                             "--max-iter", "20"]),
    ("compcomp-disc1", ["optimize", "--variant", "CompComp", "--mesh", "disc:1", "--max-iter", "2"]),
    # a3 > 0 puts the boundary term in the geodesic's constraint values and gradients
    ("compcomp-a3-disc1", ["optimize", "--variant", "CompComp", "--mesh", "disc:1", "--max-iter", "1",
                           "--metric-alpha", "a1=10,a2=1,a3=0.1,a4=0.01"]),
    # a pinned boundary puts the masked geodesic on the drift check
    ("compcomp-fixed-disc2", ["optimize", "--variant", "CompComp", "--mesh", "disc:2", "--fix-boundary",
                              "--max-iter", "1"]),
    ("compeuc-set1-disc12", ["optimize", "--variant", "CompEuc", "--penalty", "set1", "--mesh", "disc:12"]),
    # the thread pool puts the per-thread geometry cache on the drift check
    ("exp3-parallel", ["experiment", "3", "--rings", "3", "--max-iter", "20", "--parallel"]),
    # the two failure exits (exit 3): the line-search step floor and a singular adjoint system
    ("euceuc-disc5", ["optimize", "--variant", "EucEuc", "--mesh", "disc:5", "--max-iter", "1000", "--tol", "0"]),
    ("euceuc-disc2", ["optimize", "--variant", "EucEuc", "--mesh", "disc:2", "--max-iter", "2000", "--tol", "0"]),
)


def digest_lines():
    os.environ.pop("MESHSHAPE_OUT", None)  # it would override --out
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES:
            out = Path(tmp) / name
            with contextlib.redirect_stdout(sys.stderr):
                code = main([*argv, "--out", str(out)])
            yield f"exit {code}  {name}"
            for path in sorted(out.rglob("*.csv")):
                if path.name in ("history.csv", "summary.csv"):
                    sha = hashlib.sha256(path.read_bytes()).hexdigest()
                    yield f"{sha}  {path.relative_to(tmp)}"


if __name__ == "__main__":
    for line in digest_lines():
        print(line, flush=True)
