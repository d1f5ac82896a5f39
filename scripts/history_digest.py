#!/usr/bin/env python3
"""Print one sha256 per ``history.csv`` and ``summary.csv`` of a fixed run matrix.

Each case runs through ``meshshape.cli.main`` in a temporary directory; the
runs' own console output goes to standard error.  Two builds write
byte-identical histories exactly when this script prints the same lines for
both, so compare two commits with ``diff``:

    PYTHONPATH=src python scripts/history_digest.py > after.txt

``--keep DIR`` runs the cases in ``DIR`` instead and keeps their output: the
CSVs, each case's console output (``console.txt``) and the printed lines
(``digest.txt``).  ``--compare A B`` reads two such directories and prints,
per case and run, the exit codes, the statuses, the iteration counts and the
largest relative difference of ``Obj``, ``Total`` and ``mshQua`` over the
rows both histories have:

    PYTHONPATH=src python scripts/history_digest.py --keep after > after.txt
    python scripts/history_digest.py --compare before after

``--only NAME`` (repeatable) runs only the named cases, for example the
three CompComp ones; ``--compare`` prints only the cases kept in both
directories.  ``--fast`` leaves out the two slow cases and prints the numpy
and scipy versions first: its output is ``tests/data/history_digests.txt``,
which a tier-1 test recomputes in-process:

    PYTHONPATH=src python scripts/history_digest.py --fast > tests/data/history_digests.txt

Run as a script, it sets ``OPENBLAS_NUM_THREADS=1`` before numpy is first
imported, so its lines do not depend on the BLAS thread count:
``elaseuc-disc50``'s metric vectors are long enough for OpenBLAS to split
their dot products by thread, which rounds differently per thread count.
Loaded as a module, as the tier-1 test loads it, it leaves the environment
as it is; the ``--fast`` cases have no vector long enough to split.
"""
import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import os
import re
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # before numpy is imported: OpenBLAS reads it once, at load
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
    # several rings of triangles under the geodesic's penalty evaluator, not only the 7- and 19-vertex discs
    ("compcomp-disc5", ["optimize", "--variant", "CompComp", "--mesh", "disc:5", "--max-iter", "1"]),
    # 4 steps give 2 ladder levels per integration: a trial past them starts a fresh one, and an
    # integration that meets a nonpositive area rejects its trials
    ("compcomp-steps4-disc2", ["optimize", "--variant", "CompComp", "--mesh", "disc:2", "--geodesic-steps", "4",
                               "--max-iter", "6"]),
    # past its first iterations the geodesics are far shorter than unit speed
    ("compcomp-tol0-disc2", ["optimize", "--variant", "CompComp", "--mesh", "disc:2", "--max-iter", "12",
                             "--tol", "0"]),
    ("compeuc-set1-disc12", ["optimize", "--variant", "CompEuc", "--penalty", "set1", "--mesh", "disc:12"]),
    # every penalty set has a3 = 0: this puts the objective's boundary term, with its cutoff, on the record path
    ("compeuc-a3-cutoff-disc5", ["optimize", "--variant", "CompEuc", "--mesh", "disc:5", "--penalty",
                                 "a1=1,a2=0.5,a3=0.01,a4=0.1", "--cutoff", "0.4", "--max-iter", "30"]),
    ("exp3", ["experiment", "3", "--rings", "3", "--max-iter", "20"]),
    # the two failure exits (exit 3): the line-search step floor and a singular adjoint system
    ("euceuc-disc5", ["optimize", "--variant", "EucEuc", "--mesh", "disc:5", "--max-iter", "1000", "--tol", "0"]),
    ("euceuc-disc2", ["optimize", "--variant", "EucEuc", "--mesh", "disc:2", "--max-iter", "2000", "--tol", "0"]),
)
SLOW = ("exp2", "elaseuc-disc50")  # left out by --fast
COMPARED = ("Obj", "Total", "mshQua")


def build_line():
    """The header of ``--fast``'s output: the numpy and scipy the histories were written with."""
    import numpy
    import scipy

    return f"# numpy {numpy.__version__} scipy {scipy.__version__}"


def digest_lines(root, cases):
    from meshshape.cli import main as meshshape

    os.environ.pop("MESHSHAPE_OUT", None)  # it would override --out
    for name, argv in cases:
        out = root / name
        console = io.StringIO()
        with contextlib.redirect_stdout(console):
            code = meshshape([*argv, "--out", str(out)])
        sys.stderr.write(console.getvalue())
        out.mkdir(parents=True, exist_ok=True)
        (out / "console.txt").write_text(console.getvalue())
        yield f"exit {code}  {name}"
        for path in sorted(out.rglob("*.csv")):
            if path.name in ("history.csv", "summary.csv"):
                sha = hashlib.sha256(path.read_bytes()).hexdigest()
                yield f"{sha}  {path.relative_to(root)}"


def _runs(root, name):
    """Status and history rows of each run of one kept case, by run name."""
    case = Path(root) / name
    statuses = {}
    console = case / "console.txt"
    if console.exists():
        match = re.search(r"^status: (\S+)", console.read_text(), re.MULTILINE)
        if match:
            statuses["."] = match.group(1)
    for summary in case.rglob("summary.csv"):
        with summary.open() as f:
            statuses.update((row["label"], row["status"]) for row in csv.DictReader(f))
    runs = {}
    for history in sorted(case.rglob("history.csv")):
        run = str(history.parent.relative_to(case))
        with history.open() as f:
            runs[run] = (statuses.get(run, "-"), list(csv.DictReader(f)))
    for run, status in statuses.items():
        runs.setdefault(run, (status, []))
    return runs


def _relative_difference(a, b):
    a, b = float(a), float(b)
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def compare_lines(before, after):
    exits = ({}, {})
    for root, codes in zip((before, after), exits):
        for line in (Path(root) / "digest.txt").read_text().splitlines():
            if line.startswith("exit "):
                _, code, name = line.split()
                codes[name] = code
    for name, _ in CASES:
        if name not in exits[0] or name not in exits[1]:
            continue
        yield f"{name}: exit {exits[0][name]} -> {exits[1][name]}"
        runs_before, runs_after = _runs(before, name), _runs(after, name)
        for run in sorted(set(runs_before) | set(runs_after)):
            status_b, rows_b = runs_before.get(run, ("-", []))
            status_a, rows_a = runs_after.get(run, ("-", []))
            iters = [rows[-1]["iter"] if rows else "-" for rows in (rows_b, rows_a)]
            common = list(zip(rows_b, rows_a))
            diffs = "  ".join(
                f"{col} {max((_relative_difference(b[col], a[col]) for b, a in common), default=0.0):.1e}"
                for col in COMPARED
            )
            yield (f"  {run}: status {status_b} -> {status_a}  iterations {iters[0]} -> {iters[1]}  "
                   f"max rel diff over {len(common)} rows: {diffs}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--keep", metavar="DIR", help="run the cases in DIR and keep their output")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two kept directories")
    parser.add_argument("--only", action="append", metavar="NAME", choices=[name for name, _ in CASES],
                        help="run only this case (repeatable)")
    parser.add_argument("--fast", action="store_true",
                        help=f"leave out {' and '.join(SLOW)}, and print the numpy and scipy versions first")
    args = parser.parse_args(argv)
    if args.compare:
        for line in compare_lines(*args.compare):
            print(line, flush=True)
        return
    with contextlib.ExitStack() as stack:
        root = Path(args.keep or stack.enter_context(tempfile.TemporaryDirectory()))
        root.mkdir(parents=True, exist_ok=True)
        kept = stack.enter_context((root / "digest.txt").open("w"))
        cases = [case for case in CASES if (not args.only or case[0] in args.only)
                 and not (args.fast and case[0] in SLOW)]
        header = [build_line()] if args.fast else []
        for line in itertools.chain(header, digest_lines(root, cases)):
            print(line, flush=True)
            print(line, file=kept, flush=True)


if __name__ == "__main__":
    main()
