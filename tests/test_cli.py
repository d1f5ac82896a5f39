import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from meshshape import cli, experiments
from meshshape.cli import EXIT_INADMISSIBLE, EXIT_OPT_FAILURE, EXIT_USAGE, main
from meshshape.errors import NonDescentDirection, SingularSystem
from meshshape.fileio import write_mesh
from meshshape.mesh import make_square5_mesh
from meshshape.optimizer import MAX_ITER


def run(argv):
    return main(argv)


def test_check_square5(capsys):
    assert run(["check", "--mesh", "square5"]) == 0
    out = capsys.readouterr().out
    assert "vertices: 5" in out
    assert "1.1547" in out


def test_check_flipped_mesh(tmp_path, capsys):
    cx, q = make_square5_mesh()
    bad = q.copy()
    bad[4] = (0.0, 2.0)
    path = tmp_path / "bad.mesh"
    write_mesh(path, cx, bad)
    assert run(["check", "--mesh", str(path)]) == 2


def test_check_malformed_file(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("not a mesh\n")
    assert run(["check", "--mesh", str(path)]) == 1


def test_usage_error_exit_code():
    assert run(["optimize", "--variant", "NoSuchVariant"]) == 1
    assert run(["nonsense"]) == 1
    assert run(["experiment", "3", "--parallel"]) == 1


# Each case: argv, with {out} a directory that does not exist yet, {file} a
# regular file, {malformed} a malformed mesh file and {flipped} a mesh with a
# flipped triangle, all in the test's own directory; the exit code; and a text
# the error line holds, the option as typed and its value where the library
# checks the value.  The state solve of `eval` and the optimizer of
# `experiment` raise SingularSystem.
ERROR_CASES = {
    "optimize-no-mesh": (["optimize", "--out", "{out}"], EXIT_USAGE, ""),
    "compeuc-incomplete-metric": (["optimize", "--mesh", "disc:1", "--variant", "CompEuc",
                                   "--metric-alpha", "a1=1,a2=1", "--out", "{out}"], EXIT_USAGE,
                                  "--metric-alpha a1=1,a2=1"),
    "optimize-out-is-a-file": (["optimize", "--mesh", "disc:1", "--out", "{file}"], EXIT_USAGE, ""),
    "optimize-out-below-a-file": (["optimize", "--mesh", "disc:1", "--out", "{file}/sub"], EXIT_USAGE, ""),
    "experiment-no-rings": (["experiment", "1", "--rings", "0", "--out", "{out}"], EXIT_USAGE, "--rings 0"),
    "experiment-out-below-a-file": (["experiment", "2", "--out", "{file}/sub"], EXIT_USAGE, ""),
    "optimize-negative-max-iter": (["optimize", "--mesh", "disc:1", "--max-iter", "-3", "--out", "{out}"],
                                   EXIT_USAGE, "--max-iter -3"),
    "optimize-negative-tol": (["optimize", "--mesh", "disc:1", "--tol", "-1", "--out", "{out}"], EXIT_USAGE,
                              "--tol -1"),
    "optimize-bad-geodesic-steps": (["optimize", "--mesh", "disc:1", "--geodesic-steps", "3", "--out", "{out}"],
                                    EXIT_USAGE, "--geodesic-steps 3"),
    "optimize-negative-snapshot-stride": (["optimize", "--mesh", "disc:1", "--snapshot-stride", "-1",
                                           "--out", "{out}"], EXIT_USAGE, ""),
    "optimize-infinite-penalty": (["optimize", "--mesh", "disc:3", "--variant", "EucEuc", "--penalty", "a4=inf",
                                   "--out", "{out}"], EXIT_USAGE, "--penalty a4=inf"),
    "optimize-nan-metric-alpha": (["optimize", "--mesh", "disc:1", "--variant", "CompEuc", "--metric-alpha",
                                   "a1=nan,a2=1,a4=1", "--out", "{out}"], EXIT_USAGE,
                                  "--metric-alpha a1=nan,a2=1,a4=1"),
    "optimize-nan-mu": (["optimize", "--mesh", "disc:1", "--mu", "nan", "--out", "{out}"], EXIT_USAGE, "--mu nan"),
    "optimize-negative-cutoff": (["optimize", "--mesh", "disc:1", "--cutoff", "-1", "--out", "{out}"], EXIT_USAGE,
                                 "--cutoff -1"),
    "optimize-no-rings": (["optimize", "--mesh", "disc:0", "--out", "{out}"], EXIT_USAGE, "--mesh disc:0"),
    "optimize-malformed-rings": (["optimize", "--mesh", "disc:x", "--out", "{out}"], EXIT_USAGE, "--mesh disc:x"),
    "optimize-nan-rhs": (["optimize", "--mesh", "disc:1", "--rhs", "const:nan", "--out", "{out}"], EXIT_USAGE,
                         "--rhs const:nan"),
    "optimize-infinite-rhs": (["optimize", "--mesh", "disc:1", "--rhs", "const:-inf", "--out", "{out}"], EXIT_USAGE,
                              "--rhs const:-inf"),
    "eval-malformed-rhs": (["eval", "--mesh", "disc:1", "--which", "objective", "--rhs", "const:x"], EXIT_USAGE,
                           "--rhs const:x"),
    "eval-unknown-rhs": (["eval", "--mesh", "disc:1", "--which", "objective", "--rhs", "foo"], EXIT_USAGE,
                         "--rhs foo"),
    "eval-negative-penalty": (["eval", "--mesh", "disc:2", "--which", "phi", "--penalty", "a1=-1"], EXIT_USAGE,
                              "--penalty a1=-1"),
    "check-malformed-mesh": (["check", "--mesh", "{malformed}"], EXIT_USAGE, ""),
    "eval-malformed-penalty": (["eval", "--mesh", "disc:2", "--which", "phi", "--penalty", "a1=x"],
                               EXIT_USAGE, "--penalty a1=x"),
    "eval-repeated-penalty-key": (["eval", "--mesh", "disc:2", "--which", "phi", "--penalty", "a1=1,a1=2"],
                                  EXIT_USAGE, "--penalty a1=1,a1=2"),
    "optimize-inadmissible-mesh": (["optimize", "--mesh", "{flipped}", "--out", "{out}"],
                                   EXIT_INADMISSIBLE, ""),
    "eval-singular-system": (["eval", "--mesh", "disc:2", "--which", "objective"], EXIT_OPT_FAILURE, ""),
    "experiment-singular-system": (["experiment", "2", "--rings", "2", "--out", "{out}"], EXIT_OPT_FAILURE, ""),
}


@pytest.mark.parametrize("argv,code,text", ERROR_CASES.values(), ids=ERROR_CASES.keys())
def test_error_exit_is_one_line(argv, code, text, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise SingularSystem("made to fail")

    monkeypatch.delenv("MESHSHAPE_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "solve_state", fail)
    monkeypatch.setattr(experiments, "steepest_descent", fail)
    paths = {"out": tmp_path / "out", "file": tmp_path / "file", "malformed": tmp_path / "bad.mesh",
             "flipped": tmp_path / "flipped.mesh"}
    paths["file"].write_text("")
    paths["malformed"].write_text("not a mesh\n")
    cx, q = make_square5_mesh()
    q[4] = (0.0, 2.0)
    write_mesh(paths["flipped"], cx, q)
    try:
        got = main([arg.format(**paths) for arg in argv])
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{type(exc).__name__} left main: {exc}")
    err = capsys.readouterr().err.splitlines()
    assert got == code
    assert len(err) == 1 and err[0].startswith("error: ")
    assert text in err[0]
    if code == EXIT_USAGE:
        assert not [p for p in tmp_path.rglob("*") if p.is_dir()]


def test_optimize_has_no_seed_option(tmp_path):
    assert run(["optimize", "--mesh", "square5", "--seed", "1", "--out", str(tmp_path)]) == EXIT_USAGE


def test_eval_objective(capsys):
    assert run(["eval", "--mesh", "square5", "--which", "objective", "--rhs", "const:1"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(4.0 / 9.0, rel=1e-12)


def test_eval_theta_equilateral(capsys):
    assert run(["eval", "--mesh", "disc:1", "--which", "theta"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(1.0, abs=1e-12)


def test_eval_phi_prints_a_float(capsys):
    # a penalty with a1 or a2 nonzero sums numpy scalars; the line is a plain number all the same
    assert run(["eval", "--mesh", "disc:1", "--which", "phi", "--penalty", "a1=1,a2=2"]) == 0
    assert float(capsys.readouterr().out.strip()) > 0.0


def test_eval_gradcheck(capsys):
    assert run(["eval", "--mesh", "disc:3", "--which", "gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "gradcheck: ok" in out


@pytest.mark.parametrize("which,layer", [("objective", "solve_state"), ("gradcheck", "solve_state"),
                                         ("phi", "penalty_value")])
def test_eval_failure_is_one_error_line(which, layer, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise SingularSystem("relative residual 1.000e+00")

    monkeypatch.setattr(cli, layer, fail)
    assert run(["eval", "--mesh", "disc:2", "--which", which]) == EXIT_OPT_FAILURE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: SingularSystem: relative residual 1.000e+00"]
    assert captured.out == ""


def test_eval_malformed_penalty_is_usage_error(capsys):
    assert run(["eval", "--mesh", "disc:2", "--which", "phi", "--penalty", "a1=x"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_inadmissible_mesh(tmp_path):
    cx, q = make_square5_mesh()
    bad = q.copy()
    bad[4] = (0.0, 2.0)
    path = tmp_path / "bad.mesh"
    write_mesh(path, cx, bad)
    assert run(["eval", "--mesh", str(path), "--which", "theta"]) == 2


def test_optimize_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = run([
        "optimize", "--mesh", "disc:2", "--variant", "CompEuc",
        "--penalty", "set1", "--max-iter", "40", "--tol", "1e-5",
        "--out", str(out), "--snapshot-stride", "10",
    ])
    assert code == 0
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "iter,Obj,Penalty,Total,mshQua,step,backtracks"
    assert (out / "final.mesh").exists()
    assert (out / "final.svg").exists()
    assert (out / "snap_000000.svg").exists()
    timing = (out / "timing.csv").read_text().splitlines()
    assert timing[0] == "phase,seconds"
    phases = {line.split(",")[0] for line in timing[1:]}
    assert {"state", "dObjective", "backtracking", "gradient", "assemblyG", "retraction"} <= phases


def test_optimize_deterministic_history(tmp_path):
    args = [
        "optimize", "--mesh", "disc:2", "--variant", "ElasEuc",
        "--penalty", "set2", "--max-iter", "25", "--tol", "1e-6",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()


@pytest.mark.parametrize("metric_alpha", [[], ["--metric-alpha", "a1=10,a2=1,a3=0.1,a4=0.01"]])
def test_compcomp_deterministic_history(tmp_path, monkeypatch, metric_alpha):
    # the geodesic retraction, with and without the boundary term in its penalty
    monkeypatch.delenv("MESHSHAPE_OUT", raising=False)
    args = ["optimize", "--variant", "CompComp", "--mesh", "disc:1", "--max-iter", "2", *metric_alpha]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()


def test_optimize_unpenalized_failure_exit_code(tmp_path):
    code = run([
        "optimize", "--mesh", "disc:2", "--variant", "EucEuc",
        "--penalty", "none", "--max-iter", "2000", "--tol", "0", "--out", str(tmp_path / "f"),
    ])
    assert code == 3


def test_optimize_failure_is_one_error_line(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise NonDescentDirection("pairing 0.5 at iteration 3")

    monkeypatch.setattr(cli, "steepest_descent", fail)
    code = run(["optimize", "--mesh", "square5", "--out", str(tmp_path / "f")])
    assert code == EXIT_OPT_FAILURE
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: NonDescentDirection: pairing 0.5 at iteration 3"]


def test_optimize_failed_metric_writes_history(tmp_path, monkeypatch):
    from meshshape import optimizer

    def fail(*args, **kwargs):
        raise SingularSystem("metric made to fail")

    monkeypatch.delenv("MESHSHAPE_OUT", raising=False)
    monkeypatch.setattr(optimizer, "MetricOperator", fail)
    out = tmp_path / "f"
    code = run(["optimize", "--mesh", "disc:2", "--variant", "ElasEuc", "--out", str(out)])
    assert code == EXIT_OPT_FAILURE
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 2 and history[1].startswith("0,")  # the header and the terminal row


def test_optimize_failure_inside_the_optimizer_writes_outputs(tmp_path, monkeypatch):
    from meshshape import optimizer

    def fail(n, *args):
        raise NonDescentDirection(f"made to fail at iteration {n}")

    monkeypatch.delenv("MESHSHAPE_OUT", raising=False)
    monkeypatch.setattr(optimizer, "initial_step", fail)
    out = tmp_path / "f"
    code = run(["optimize", "--mesh", "disc:2", "--variant", "EucEuc", "--out", str(out)])
    assert code == EXIT_OPT_FAILURE
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 2 and history[1].startswith("0,")  # the header and the terminal row
    assert (out / "timing.csv").read_text().startswith("phase,seconds\n")


def test_optimize_nan_derivative_ends_at_the_step_floor(tmp_path, monkeypatch, capsys):
    from meshshape import optimizer

    def nan_derivative(coords, *args):
        return np.full(coords.size, np.nan)

    monkeypatch.delenv("MESHSHAPE_OUT", raising=False)
    monkeypatch.setattr(optimizer, "shape_derivative", nan_derivative)
    out = tmp_path / "f"
    code = run(["optimize", "--mesh", "disc:2", "--variant", "EucEuc", "--out", str(out)])
    assert code == EXIT_OPT_FAILURE
    assert capsys.readouterr().out.startswith("status: StepFloorFailure  iterations: 0 ")
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 2 and history[1].startswith("0,")  # the header and the terminal row


def test_optimize_fix_boundary_square5(tmp_path, capsys):
    out = tmp_path / "sq"
    code = run([
        "optimize", "--mesh", "square5", "--fix-boundary", "--rhs", "const:1",
        "--penalty", "a1=0.1,a2=0.01,a3=0,a4=0.01", "--max-iter", "100",
        "--out", str(out),
    ])
    assert code == 0
    from meshshape.fileio import read_mesh

    _, coords = read_mesh(out / "final.mesh")
    assert np.max(np.abs(coords[4])) < 1e-3


def test_env_var_overrides_out(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("MESHSHAPE_OUT", str(env_dir))
    code = run([
        "optimize", "--mesh", "disc:2", "--variant", "EucEuc", "--penalty", "set1",
        "--max-iter", "5", "--out", str(tmp_path / "ignored"),
    ])
    assert code == 0
    assert (env_dir / "history.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mesh = disc:2\nmax-iter = 5\npenalty = set1\nvariant = EucEuc\n")
    out = tmp_path / "cfgout"
    code = run(["optimize", "--config", str(cfg), "--out", str(out), "--max-iter", "3"])
    assert code == 0
    history = (out / "history.csv").read_text().splitlines()
    assert history[-1].startswith("3,")  # flag beats config file


# one value per optimize option, each unlike its default
OPTION_VALUES = {
    "mesh": "disc:3",
    "variant": "ElasEuc",
    "penalty": "set2",
    "metric-alpha": "a1=1,a2=2,a4=3",
    "rhs": "const:2",
    "max-iter": "7",
    "tol": "1e-3",
    "mu": "0.25",
    "cutoff": "0.5",
    "out": "elsewhere",
    "snapshot-stride": "4",
    "geodesic-steps": "64",
}


def test_option_values_cover_every_optimize_option():
    options = set(vars(cli.parse_args(["optimize"]))) - {"command", "config"}
    assert options == {key.replace("-", "_") for key in OPTION_VALUES} | {"fix_boundary"}


@pytest.mark.parametrize(
    "line,flags",
    [(f"{key} = {value}", [f"--{key}", value]) for key, value in OPTION_VALUES.items()]
    + [("fix-boundary = yes", ["--fix-boundary"])],
    ids=[*OPTION_VALUES, "fix-boundary"],
)
def test_config_line_resolves_like_its_flag(tmp_path, line, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    from_file = vars(cli.parse_args(["optimize", "--config", str(cfg)]))
    from_flag = vars(cli.parse_args(["optimize", *flags]))
    assert from_file["config"] == str(cfg)
    assert from_file | {"config": None} == from_flag != vars(cli.parse_args(["optimize"]))


@pytest.mark.parametrize("line", ["max-iter = x", "tol = small", "no-such-option = 1", "max-iter 5"])
def test_malformed_config_is_a_usage_error(tmp_path, line, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_malformed_config_line_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment, then a blank line\n\nmax-iter = 5\nmax-iter 5\n")
    assert run(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert f"error: {cfg}:4: expected 'key = value'" in capsys.readouterr().err
# a bad value, a value outside a switch's words or a variant's choices and a repeated key, each named by its line

# a bad value, a value outside a switch's words and a repeated key, each named by its file and line
@pytest.mark.parametrize("text,lineno", [("max-iter = x", 1), ("tol = small", 1), ("fix-boundary = maybe", 1),
                                         ("# twice\nmax-iter = 5\nmax-iter = 7", 3), ("variant = Bogus", 1)],
                         ids=["int", "float", "switch", "repeated-key", "choice"])
def test_bad_config_value_names_its_line(tmp_path, text, lineno, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "\n")
    out = tmp_path / "o"
    assert run(["optimize", "--mesh", "disc:1", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error: ")] == err[-1:]
    assert err[-1].startswith(f"error: {cfg}:{lineno}: ")
    assert not out.exists()


def test_fix_boundary_flag_takes_only_its_words(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["optimize", "--mesh", "disc:1", "--fix-boundary", "maybe", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: ") and err[-1].startswith("error: argument --fix-boundary: ")
    assert not out.exists()
    for word, on in [("1", True), ("True", True), ("YES", True), ("0", False), ("false", False), ("No", False)]:
        assert cli.parse_args(["optimize", "--fix-boundary", word]).fix_boundary is on


# every option's value when the command line gives none: the commands differ on --rhs, --max-iter and --out
DEFAULTS = {
    ("optimize",): {"command": "optimize", "mesh": None, "variant": "CompEuc", "penalty": "none",
                    "metric_alpha": "ag", "rhs": "model", "max_iter": 500, "tol": 1e-6, "mu": 0.1, "cutoff": None,
                    "out": "out", "fix_boundary": False, "snapshot_stride": 0, "geodesic_steps": 1024,
                    "config": None},
    ("experiment", "2"): {"command": "experiment", "id": 2, "out": None, "max_iter": None, "rings": None},
    ("eval", "--mesh", "square5", "--which", "phi"): {"command": "eval", "mesh": "square5", "which": "phi",
                                                       "penalty": "none", "rhs": "const:1", "mu": 0.1,
                                                       "cutoff": None},
}


@pytest.mark.parametrize("argv", DEFAULTS, ids=[argv[0] for argv in DEFAULTS])
def test_every_command_keeps_its_defaults(argv):
    assert vars(cli.parse_args(list(argv))) == DEFAULTS[argv]


def test_experiment_writes_summary(tmp_path):
    out = tmp_path / "exp2"
    code = run([
        "experiment", "2", "--out", str(out), "--max-iter", "8", "--rings", "2",
    ])
    assert code == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("experiment,label,variant")
    assert len(summary) == 1 + 9  # three sets x three variants
    assert (out / "timing_summary.csv").exists()
    assert (out / "set1_CompEuc" / "history.csv").exists()


def test_experiment_1_runs_compcomp_on_the_same_disc(tmp_path):
    out = tmp_path / "exp1"
    code = run([
        "experiment", "1", "--out", str(out), "--rings", "2", "--max-iter", "10",
    ])
    assert code == 0
    rows = {row[1]: row for row in (line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:])}
    assert list(rows) == ["EucEuc", "ElasEuc", "CompComp"]
    assert rows["CompComp"][3] == rows["EucEuc"][3] == "19"  # vertices of disc:2
    assert rows["CompComp"][5:7] == ["10", MAX_ITER]  # reaches the cap


def test_experiment_1_has_no_compcomp_options(tmp_path, capsys):
    # CompComp runs on experiment 1's disc, with its cap and GeodesicConfig's default: no option sets them apart
    out = tmp_path / "o"
    for option in ("--compcomp-cap 6", "--geodesic-steps 64"):
        assert run(["experiment", "1", *option.split(), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: ") and err[-1] == f"error: unrecognized arguments: {option}"
        assert not out.exists()


def _script(name):
    path = Path(__file__).parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DIGEST_CASES = dict(_script("history_digest").CASES)


@pytest.mark.parametrize("argv", DIGEST_CASES.values(), ids=DIGEST_CASES.keys())
def test_digest_cases_parse(argv):
    # the digest runs each case with its own --out; a removed option would exit 1
    cli.parse_args([*argv, "--out", "out"])


def test_point_table_rows_parse(capsys):
    # one repeat on disc:1, this checkout's package against a copy of itself under another name
    _script("point_table").main(["--rings", "1", "--repeat", "1", "--against", str(Path(__file__).parents[1])])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[-3:] == ["against", "µs", "ratio"]
    measures = []
    for row in rows:
        mesh, weights, measure, this, against, ratio, *counts = row.split()
        assert mesh == "disc:1" and float(this) > 0 and float(against) > 0 and float(ratio) > 0
        if measure in ("step", "descent"):  # the value calls per step of each side: each solve takes one or more
            label, per_step = counts
            assert label == "values/step" and all(float(c) >= 1.0 for c in per_step.split("/"))
            counts = []
        assert counts == []
        measures.append((weights, measure))
    assert measures == [("-", "record"), *((w, m) for w in ("10/1/0/0.01", "10/1/0.1/0.01")
                                             for m in ("value", "value+gradient", "step", "descent"))]


def test_superlu_table_rows_parse(capsys):
    # one repeat on disc:3: the reduced P1, elasticity and pinned metric matrices keep their sizes, and
    # SuperLU keeps its fill on them (and its permutations, which the script checks itself)
    _script("superlu_table").main(["--rings", "3", "--repeat", "1"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["mesh", "matrix", "n"]
    matrices = []
    for row in rows:
        mesh, matrix, n, setting, fill, _, fill_set, *times, diff = row.split()
        assert mesh == "disc:3" and setting == "panel_size=1" and fill == fill_set
        assert all(float(t.strip("()")) > 0 for t in times if t != "/") and float(diff) < 1e-12
        matrices.append((matrix, int(n), int(fill)))
    assert matrices == [("P1", 19, 170), ("elasticity", 74, 1652), ("pinned", 38, 672)]


def test_superlu_table_float32_rows_parse(capsys):
    # the metric's matrices in both precisions on disc:3: a float64 LU solves at once, a float32 one in 2 or 3
    _script("superlu_table").main(["--rings", "3", "--repeat", "1", "--dtype", "float32"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["mesh", "matrix", "n"] and header.split()[-3:] == ["float64", "/", "float32"]
    matrices = []
    for row in rows:
        mesh, matrix, n, _, _, _, *times, solves, _, low_solves = row.split()
        assert mesh == "disc:3" and solves == "1" and low_solves in ("2", "3")
        assert all(float(t.strip("()")) > 0 for t in times if t != "/")
        matrices.append((matrix, int(n)))
    assert matrices == [("elasticity", 74), ("pinned", 38)]


def test_roundoff_band_rows_parse(capsys):
    # every case on disc:1, 3 iterations, the unperturbed start and 2 perturbed ones
    band = _script("roundoff_band")
    assert list(band.CASES) == ["criterion6", "criterion7", "exp2", "elaseuc-disc50", "compcomp-disc1",
                                "compcomp-disc5"]
    band.main(["--rings", "1", "--max-iter", "3", "--starts", "2"])
    comment, header, *rows = capsys.readouterr().out.splitlines()
    assert comment.startswith("# 3 starts") and header.split() == ["case", "run", "quantity", "unperturbed", "min", "max"]
    expected = [(case, run[0], quantity) for case, (_, runs) in band.CASES.items() for run in runs
                for quantity in (*band.QUANTITIES, "status")]
    assert [tuple(row.split()[:3]) for row in rows] == expected
    for row in rows:
        _, _, quantity, *values = row.split()
        if quantity == "status":
            status, spread = values
            counts = dict(item.split(":") for item in spread.split(","))
            assert status in counts and sum(map(int, counts.values())) == 3
        else:
            first, low, high = map(float, values)
            assert low <= first <= high and (quantity != "iterations" or first == 3)


def test_fast_histories_have_not_moved(tmp_path, monkeypatch):
    # Recomputed in this process, after other tests have left records in the module's configuration
    # slot, and compared with the lines a fresh process wrote.  A numpy or scipy other than the file's
    # header fails here too, even where the bytes agree: regenerate the file on that build (see README).
    digest = _script("history_digest")
    monkeypatch.delenv("MESHSHAPE_OUT", raising=False)
    want = (Path(__file__).parent / "data" / "history_digests.txt").read_text().splitlines()
    fast = [case for case in digest.CASES if case[0] not in digest.SLOW]
    got = [digest.build_line(), *digest.digest_lines(tmp_path, fast)]
    agree = "agree" if got[1:] == want[1:] else "differ"
    assert got[0] == want[0], f"histories written with {want[0][2:]}, this build is {got[0][2:]}; the lines {agree}"
    assert got == want
