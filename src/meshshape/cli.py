"""Command line interface: check / optimize / experiment / eval."""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import experiments
from .errors import InadmissibleMesh, InvalidValue, MalformedMesh, MeshShapeError
from .fem import (
    assemble,
    constant_rhs,
    model_rhs,
    objective_value,
    shape_derivative,
    solve_state,
    solved,
)
from .fileio import (
    data_lines,
    read_mesh,
    write_history,
    write_mesh,
    write_svg,
    write_timing,
)
from .geodesic import GeodesicConfig
from .mesh import configuration, is_admissible, make_disc_mesh, make_square5_mesh
from .optimizer import (
    CONVERGED,
    MAX_ITER,
    VARIANTS,
    OptimizerConfig,
    PhaseTimer,
    steepest_descent,
)
from .penalty import PenaltyParams, mesh_quality, penalty_gradient, penalty_value

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INADMISSIBLE = 2
EXIT_OPT_FAILURE = 3

PENALTY_PRESETS = {
    "none": (0.0, 0.0, 0.0, 0.0),
    **{f"set{k}": alpha for k, alpha in experiments.PENALTY_SETS.items()},
}


def _switch(text: str) -> bool:
    """``--fix-boundary``'s value: ``1``, ``true`` or ``yes`` is on and ``0``, ``false`` or ``no`` off, in any case."""
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise argparse.ArgumentTypeError(f"expected 1, true, yes, 0, false or no, found {text!r}")
    return word in ("1", "true", "yes")


# One row per option of the command line and of ``--config`` files: its flag, the converter of its text, its default
# under each command that takes it, the library parameter whose range errors it reports, and other argparse settings.
Option = namedtuple("Option", "flag convert defaults param settings", defaults=(None, {}))
OPTION_TABLE = (
    Option("--mesh", str, {"optimize": None}),  # check and eval require it, and declare it themselves
    Option("--variant", str, {"optimize": "CompEuc"}, settings={"choices": VARIANTS}),
    Option("--penalty", str, {"optimize": "none", "eval": "none"}),
    Option("--metric-alpha", str, {"optimize": "ag"}),
    Option("--rhs", str, {"optimize": "model", "eval": "const:1"}),
    Option("--max-iter", int, {"optimize": 500, "experiment": None}, "max_iter"),
    Option("--tol", float, {"optimize": OptimizerConfig.stop_tol}, "stop_tol"),
    Option("--mu", float, {"optimize": PenaltyParams.mu, "eval": PenaltyParams.mu}, "mu"),
    Option("--cutoff", float, {"optimize": None, "eval": None}, "cutoff_threshold"),
    Option("--out", str, {"optimize": "out", "experiment": None}),  # MESHSHAPE_OUT overrides it
    Option("--fix-boundary", _switch, {"optimize": False}, settings={"nargs": "?", "const": True}),
    Option("--snapshot-stride", int, {"optimize": 0}),
    Option("--rings", int, {"experiment": None}, "rings"),
    Option("--geodesic-steps", int, dict.fromkeys(("optimize", "experiment"), GeodesicConfig.num_steps), "num_steps"),
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def load_mesh(source: str | None):
    if not source:
        raise ValueError("no mesh given: pass --mesh or a mesh config line")
    if source == "square5":
        return make_square5_mesh()
    if source.startswith("disc:"):
        with _options_named(rings=f"--mesh {source}"):
            return make_disc_mesh(_number_after_colon(source, "--mesh", int))
    path = source[5:] if source.startswith("file:") else source
    return read_mesh(path)


def parse_alpha(text: str):
    if text in PENALTY_PRESETS:
        return PENALTY_PRESETS[text]
    if text == "ag":
        return experiments.METRIC_ALPHA
    values = {}
    for part in text.split(","):
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in ("a1", "a2", "a3", "a4") or key in values:
            raise InvalidValue("alpha", text, "must set only a1, a2, a3 and a4, each at most once")
        try:
            values[key] = float(raw)
        except ValueError:
            raise InvalidValue("alpha", text, f"must give {key} a number") from None
    return tuple(values.get(k, 0.0) for k in ("a1", "a2", "a3", "a4"))


def parse_rhs(text: str):
    if text == "model":
        return model_rhs()
    if text.startswith("const:"):
        return constant_rhs(_number_after_colon(text, "--rhs", float))
    raise ValueError(f"--rhs {text} must be model or const:C")


def _number_after_colon(text: str, option: str, kind):
    """The number after the colon of ``disc:N`` or ``const:C``, read by ``kind``; it must be
    finite, and an error names ``option`` with ``text`` as typed."""
    try:
        value = kind(text.partition(":")[2])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{option} {text} must give {'an integer' if kind is int else 'a finite number'} "
                         "after the colon")
    return value


def _read_config_file(path, options):
    """The values of a ``--config`` file's ``key = value`` lines by dest: each key names one of ``options``,
    by dest (``max_iter``) or flag (``max-iter``), at most once, and each value is read and checked as its flag's is."""
    values = {}
    for lineno, line in data_lines(path):
        key, equals, text = (part.strip() for part in line.partition("="))
        dest = key.replace("-", "_")
        if not equals or dest not in options:
            raise ValueError(f"{path}:{lineno}: expected 'key = value' with the key an optimize option, "
                             f"found {line!r}")
        if dest in values:
            raise ValueError(f"{path}:{lineno}: {key} is set a second time")
        choices = options[dest].settings.get("choices")
        try:
            values[dest] = options[dest].convert(text)
            if choices is not None and values[dest] not in choices:
                raise ValueError(f"invalid choice {text!r} (choose from {', '.join(choices)})")
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


@contextmanager
def _options_named(**typed):
    """Report an :class:`InvalidValue` under the option that gave the value, as typed: by parameter
    name, ``typed`` holds an option's text (``alpha="--penalty a4=inf"``) and ``OPTION_TABLE`` the rest's flag."""
    try:
        yield
    except InvalidValue as exc:
        flag = next((option.flag for option in OPTION_TABLE if option.param == exc.name), exc.name)
        option = typed.get(exc.name) or f"{flag} {exc.value}"
        raise ValueError(f"{option} {exc.rule}") from None


def _require_admissible(complex, coords):
    if not is_admissible(complex, coords):
        raise InadmissibleMesh("mesh is not admissible")


def _outdir(out) -> Path:
    """The output directory: ``MESHSHAPE_OUT`` if set, else ``out``."""
    return Path(os.environ.get("MESHSHAPE_OUT") or out)


def cmd_check(args) -> int:
    complex, coords = load_mesh(args.mesh)
    record = configuration(coords, complex)
    admissible = is_admissible(complex, coords, check_intersections=True)
    print(f"vertices: {complex.num_vertices}")
    print(f"triangles: {complex.num_triangles}")
    print(f"boundary_edges: {len(complex.boundary_edges)}")
    print(f"boundary_vertices: {len(complex.boundary_vertices)}")
    print(f"min_signed_area: {record.areas.min():.6g}")
    if record.positive:
        print(f"mesh_quality: {mesh_quality(coords, complex):.6g}")
    else:
        print("mesh_quality: nan")
    print(f"admissible: {admissible}")
    return EXIT_OK if admissible else EXIT_INADMISSIBLE


@_options_named()
def _build_config(args, complex):
    with _options_named(alpha=f"--penalty {args.penalty}"):
        penalty = PenaltyParams(parse_alpha(args.penalty), mu=args.mu, cutoff_threshold=args.cutoff)
    mask = None
    if args.fix_boundary:
        mask = np.zeros(complex.num_vertices, dtype=bool)
        mask[complex.boundary_vertices] = True
    with _options_named(alpha=f"--metric-alpha {args.metric_alpha}"):  # also the complete metric's check
        return OptimizerConfig(
            variant=args.variant,
            penalty=penalty,
            metric_penalty=PenaltyParams(parse_alpha(args.metric_alpha), mu=args.mu),
            max_iter=args.max_iter,
            stop_tol=args.tol,
            fixed_vertex_mask=mask,
            geodesic=GeodesicConfig(num_steps=args.geodesic_steps),
        )


def cmd_optimize(args) -> int:
    complex, coords = load_mesh(args.mesh)
    rhs = parse_rhs(args.rhs)
    config = _build_config(args, complex)
    if args.snapshot_stride < 0:
        raise ValueError(f"--snapshot-stride {args.snapshot_stride} must not be negative (0 is off)")
    _require_admissible(complex, coords)
    outdir = _outdir(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    timer = PhaseTimer()

    on_iterate = None
    if args.snapshot_stride:
        def on_iterate(n, snap_coords):
            if n % args.snapshot_stride == 0:
                write_svg(outdir / f"snap_{n:06d}.svg", complex, snap_coords)

    result = steepest_descent(
        complex, coords, rhs, config, timer=timer, on_iterate=on_iterate
    )
    write_history(outdir / "history.csv", result.history)
    write_timing(outdir / "timing.csv", timer)
    write_mesh(outdir / "final.mesh", complex, result.final_coords)
    write_svg(outdir / "final.svg", complex, result.final_coords)
    last = result.history[-1]
    print(
        f"status: {result.status}  iterations: {last.iter}  "
        f"Obj: {last.objective:.6g}  Total: {last.total:.6g}  mshQua: {last.theta:.6g}"
    )
    return EXIT_OK if result.status in (CONVERGED, MAX_ITER) else EXIT_OPT_FAILURE


@_options_named()
def cmd_experiment(args) -> int:
    return experiments.run_experiment(
        args.id,
        _outdir(args.out or f"experiment{args.id}_out"),
        max_iter=args.max_iter,
        rings=args.rings,
        geodesic_steps=args.geodesic_steps,
    )


def cmd_eval(args) -> int:
    complex, coords = load_mesh(args.mesh)
    rhs = parse_rhs(args.rhs)
    with _options_named(alpha=f"--penalty {args.penalty}"):
        alpha = parse_alpha(args.penalty)
        if args.which == "gradcheck" and all(a == 0.0 for a in alpha):
            alpha = (1.0, 0.5, 0.25, 0.1)
        params = PenaltyParams(alpha, mu=args.mu, cutoff_threshold=args.cutoff)
    _require_admissible(complex, coords)
    if args.which == "theta":
        print(f"{mesh_quality(coords, complex)!r}")
        return EXIT_OK
    if args.which == "phi":
        print(f"{float(penalty_value(coords, coords, complex, params))!r}")
        return EXIT_OK
    if args.which == "objective":
        system = assemble(coords, complex, rhs)
        y = solve_state(system)
        print(f"{objective_value(coords, complex, y)!r}")
        return EXIT_OK

    # gradcheck: central finite differences of both derivative paths
    qref = coords.copy()
    err_phi = _fd_error(
        lambda c: penalty_value(c, qref, complex, params),
        penalty_gradient(coords, qref, complex, params),
        coords,
    )
    y, p = solve_state(assemble(coords, complex, rhs), adjoint=True)
    err_shape = _fd_error(
        lambda c: objective_value(c, complex, solve_state(assemble(c, complex, rhs))),
        shape_derivative(coords, complex, y, solved(p), rhs),
        coords,
    )
    print(f"penalty_gradient max relative FD error: {err_phi:.3e}")
    print(f"shape_derivative max relative FD error: {err_shape:.3e}")
    ok = err_phi < 1e-6 and err_shape < 1e-5
    print("gradcheck:", "ok" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_OPT_FAILURE


def _fd_error(value, grad, coords, h=1e-6):
    """Largest central-difference error of ``grad``, the gradient of ``value``
    at ``coords``, relative to the largest entry of ``grad``."""
    fd = np.zeros_like(grad)
    flat = coords.ravel()
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = h
        fd[i] = (
            value((flat + bump).reshape(coords.shape))
            - value((flat - bump).reshape(coords.shape))
        ) / (2 * h)
    scale = np.max(np.abs(grad))
    return float(np.max(np.abs(fd - grad)) / (scale if scale > 0 else 1.0))


def build_parser() -> _Parser:
    """The command line parser: each subcommand takes its own arguments and the rows of ``OPTION_TABLE``
    that name it.  An option that ``argv`` does not give is absent from the namespace."""
    parser = _Parser(prog="meshshape")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", help="validate a mesh and print a report").add_argument("--mesh", required=True)
    p_opt = sub.add_parser("optimize", help="run the shape optimizer")
    p_exp = sub.add_parser("experiment", help="run a scripted experiment batch")
    p_exp.add_argument("id", type=int, choices=(1, 2, 3))
    p_eval = sub.add_parser("eval", help="evaluate a quantity on a mesh")
    p_eval.add_argument("--mesh", required=True)
    p_eval.add_argument("--which", required=True, choices=("phi", "theta", "objective", "gradcheck"))
    commands = {"optimize": p_opt, "experiment": p_exp, "eval": p_eval}
    for option in OPTION_TABLE:
        for command in option.defaults:
            commands[command].add_argument(option.flag, type=option.convert, **option.settings)
    p_opt.add_argument("--config", default=None)
    return parser


def parse_args(argv=None):
    """Parse ``argv`` once.  Each option of the command that ``argv`` does not give takes its value from a
    ``--config`` file's line (``optimize``), else its default: flags beat file values, which beat defaults."""
    given = vars(build_parser().parse_args(argv))
    options = {o.flag[2:].replace("-", "_"): o for o in OPTION_TABLE if given["command"] in o.defaults}
    values = {dest: option.defaults[given["command"]] for dest, option in options.items()}
    if given.get("config"):
        values |= _read_config_file(given["config"], options)
    return argparse.Namespace(**(values | given))


COMMANDS = {"check": cmd_check, "optimize": cmd_optimize, "experiment": cmd_experiment, "eval": cmd_eval}


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The one place where an exception becomes an exit code, reported by one
    ``error:`` line.  Each command reads and checks its inputs before it
    makes an output directory, and an error there exits 1: a bad argument or
    ``--config`` line, a missing or malformed mesh, a bad spec or a
    configuration that does not validate (``ValueError``), or an output
    directory that cannot be made (``OSError``); a later write that fails
    exits 1 too.  An inadmissible mesh exits 2, and any other
    :class:`MeshShapeError`, raised by the computation, 3.
    """
    try:
        args = parse_args(argv)
        return COMMANDS[args.command](args)
    except SystemExit as exc:  # after --help
        return exc.code
    except (OSError, ValueError, MalformedMesh) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InadmissibleMesh as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except MeshShapeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_OPT_FAILURE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
