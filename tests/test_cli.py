"""Command line behavior: artifacts, exit codes, determinism."""

import csv
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import torusgeo
from torusgeo import solver
from torusgeo.cli import _parser, main
from torusgeo.config import build_field
from torusgeo.mesh import GridSpec, ScalarField, SpaceField, write_field_bin, write_field_csv
from torusgeo.operator import GMRES_RTOL, LinearSolveError, LinearSystem, cone_quantities
from torusgeo.solver import StepCollapse, TraceRecord

from conftest import fail_newton, fail_newton_once_at


SEPARABLE = """\
[problem]
spatial_dim = 1
nodes_per_axis = 16
time_nodes = 9
a = 1
b = 0
f = 2
u0 = 0
u1 = 0
exact = t*t - t

[sweep]
epsilons = 1, 0.5, 0.25

[scan]
k = 1
n = 2
trials = 2000
seed = 11
comparison_pairs = 500
"""

MANUFACTURED = """\
[problem]
spatial_dim = 1
nodes_per_axis = 16
time_nodes = 9
a = 1
b = 0
f = 2 - 0.2*sin(x)
u0 = 0.1*sin(x)
u1 = 0.1*sin(x)
exact = t*t - t + 0.1*sin(x)

[solver]
refinements = 1
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_summary(outdir):
    with open(os.path.join(outdir, "summary.txt")) as fh:
        pairs = (line.strip().split(" = ", 1) for line in fh if " = " in line)
        return {k: v for k, v in pairs}


def read_text(path):
    with open(path) as fh:
        return fh.read()


def first_line(path):
    with open(path) as fh:
        return fh.readline().rstrip("\n")


def test_solve_writes_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, SEPARABLE)
    out = str(tmp_path / "out")
    assert main(["solve", cfg, "--output", out]) == 0
    # the exact list, so that an artifact nothing reads cannot come back unnoticed
    assert sorted(os.listdir(out)) == [
        "bounds.txt",
        "rejections.csv",
        "solution.bin",
        "solution.csv",
        "summary.txt",
        "trace.csv",
    ]
    header, *rows = read_text(os.path.join(out, "trace.csv")).splitlines()
    assert header == "phase,param,iteration,residual,min_utt,min_B,min_Q,alpha,lin_iters,lin_rtol"
    assert header.split(",") == [f.name for f in fields(TraceRecord)]
    assert rows and all(len(row.split(",")) == len(fields(TraceRecord)) for row in rows)
    assert read_text(os.path.join(out, "rejections.csv")) == "phase,param,reason\n"
    summary = read_summary(out)
    assert summary["command"] == "solve"
    assert summary["converged"] == "true"
    assert summary["bounds_passed"] == "true"
    assert float(summary["residual_sup"]) <= 1e-10
    assert float(summary["exact_sup_error_l0"]) <= 1e-10
    assert float(summary["min_utt"]) > 0
    assert float(summary["min_Q"]) > 0
    assert summary["rungs_rejected"] == "0"


def test_solve_summary_reads_the_last_trace_row(tmp_path):
    cfg = write_cfg(tmp_path, MANUFACTURED.replace("refinements = 1", "refinements = 0"))
    out = str(tmp_path / "out")
    assert main(["solve", cfg, "--output", out]) == 0
    header, *lines = read_text(os.path.join(out, "trace.csv")).splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    summary = read_summary(out)
    for name in ("min_utt", "min_B", "min_Q"):
        assert summary[name] == rows[-1][name]
    assert summary["residual_sup"] == rows[-1]["residual"]
    assert int(summary["newton_iters_total"]) == sum(row["iteration"] != "0" for row in rows) > 0


def test_solve_records_rejected_rung(tmp_path, monkeypatch):
    fail_newton_once_at(monkeypatch, 1.0)
    cfg = write_cfg(tmp_path, MANUFACTURED.replace("refinements = 1", "refinements = 0"))
    out = str(tmp_path / "out")
    assert main(["solve", cfg, "--output", out]) == 0
    rows = read_text(os.path.join(out, "rejections.csv")).splitlines()
    assert rows == ["phase,param,reason", "continuation,1,injected collapse"]
    assert read_summary(out)["rungs_rejected"] == "1"
    # trace.csv keeps the accepted runs only: rungs 0, 0.5 and 1
    params = {line.split(",")[1] for line in read_text(os.path.join(out, "trace.csv")).splitlines()[1:]}
    assert params == {"0", "0.5", "1"}


def test_sweep_records_failed_warm_start(tmp_path, monkeypatch):
    fail_newton_once_at(monkeypatch, 0.5)
    cfg = write_cfg(tmp_path, SEPARABLE)
    out = str(tmp_path / "out")
    assert main(["sweep", cfg, "--output", out]) == 0
    rows = read_text(os.path.join(out, "rejections.csv")).splitlines()
    assert rows == ["phase,param,reason", "sweep,0.5,injected collapse"]
    assert read_summary(out)["rungs_rejected"] == "1"


@pytest.mark.parametrize(
    "command, text, phase, param",
    [
        ("solve", MANUFACTURED.replace("refinements = 1", "refinements = 0"), "continuation", 1.0),
        ("sweep", SEPARABLE, "sweep", 0.5),
    ],
    ids=("solve", "sweep"),
)
def test_rejection_reason_with_commas_round_trips(tmp_path, monkeypatch, command, text, phase, param):
    reason = "cone margin violated at node (1, 2, 3)"
    fail_newton_once_at(monkeypatch, param, reason)
    cfg = write_cfg(tmp_path, text)
    out = str(tmp_path / "out")
    assert main([command, cfg, "--output", out]) == 0
    path = os.path.join(out, "rejections.csv")
    assert read_text(path).splitlines()[1] == f'{phase},{param:g},"{reason}"'
    with open(path, newline="") as fh:
        assert list(csv.reader(fh)) == [["phase", "param", "reason"], [phase, f"{param:g}", reason]]


def test_sweep_records_rung_that_fails_outright(tmp_path, monkeypatch):
    # every run on the eps = 0.5 rung fails but the cold verification rung s = 0; the
    # step is halved down to MIN_PATH_STEP = 1/2048 on the warm path and cold
    fail_newton(monkeypatch, lambda spec, _phase, p: np.max(spec.f.values) == 0.5 and p != 0.0)
    cfg = write_cfg(tmp_path, SEPARABLE)
    out = str(tmp_path / "out")
    assert main(["sweep", cfg, "--output", out]) == 1
    rows = read_text(os.path.join(out, "rejections.csv")).splitlines()
    assert len(rows) == 1 + 24
    assert rows[1] == "sweep,0.5,injected collapse"
    assert rows[13] == "sweep-cold,1,injected collapse"
    assert rows[-1] == "sweep-cold,0.00048828125,injected collapse"
    summary = read_summary(out)
    assert summary["rungs_rejected"] == "24"
    assert summary["failed_rungs"] == "1"
    assert summary["rung_001_error"] == "injected collapse"


def test_solve_refinement_table(tmp_path):
    cfg = write_cfg(tmp_path, MANUFACTURED)
    out = str(tmp_path / "out")
    assert main(["solve", cfg, "--output", out]) == 0
    path = os.path.join(out, "refinements.csv")
    assert first_line(path) == "level,nodes_per_axis,time_nodes,sup_error,order"
    rows = read_text(path).splitlines()[1:]
    assert len(rows) == 2
    level1 = rows[1].split(",")
    assert level1[1] == "32" and level1[2] == "17"
    summary = read_summary(out)
    assert float(summary["refinement_order_l1"]) >= 1.5


def test_solve_failed_refinement_level_leaves_no_directory(tmp_path, monkeypatch):
    # the coarse solve succeeds; every run on the 32-node refinement level fails
    fail_newton(monkeypatch, lambda spec, _phase, _param: spec.grid.nodes_per_axis == 32)
    cfg = write_cfg(tmp_path, MANUFACTURED)
    out = tmp_path / "out"
    assert main(["solve", cfg, "--output", str(out)]) == 1
    assert not os.path.exists(out)


def test_solve_refinements_need_exact(tmp_path):
    text = MANUFACTURED.replace("exact = t*t - t + 0.1*sin(x)\n", "")
    cfg = write_cfg(tmp_path, text)
    assert main(["solve", cfg, "--output", str(tmp_path / "out")]) == 2
    assert not os.path.exists(tmp_path / "out")


def test_solve_config_errors_exit_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    no_problem = write_cfg(tmp_path, "[solver]\nrefinements = 0\n", "p.cfg")
    assert_bad_input(capsys, ["solve", no_problem, "--output", out])
    bad_key = write_cfg(tmp_path, SEPARABLE + "\n[problem2]\nq = 1\n", "k.cfg")
    assert main(["solve", bad_key, "--output", out]) == 2
    bad_expr = write_cfg(tmp_path, SEPARABLE.replace("f = 2", "f = exp(x)"), "e.cfg")
    assert main(["solve", bad_expr, "--output", out]) == 2
    bad_a = write_cfg(tmp_path, SEPARABLE.replace("a = 1", "a = -1"), "a.cfg")
    assert main(["solve", bad_a, "--output", out]) == 2
    assert main(["solve", str(tmp_path / "absent.cfg"), "--output", out]) == 2


def test_solve_nonconvergence_exit_1(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
    cfg = write_cfg(tmp_path, MANUFACTURED)
    assert main(["solve", cfg, "--output", str(tmp_path / "out")]) == 1


def test_solve_linear_solve_failure_exit_1(tmp_path, monkeypatch, capsys):
    def fail(self, g, rtol=GMRES_RTOL):
        raise LinearSolveError("injected failure")

    monkeypatch.setattr(LinearSystem, "solve_interior", fail)
    cfg = write_cfg(tmp_path, MANUFACTURED.replace("refinements = 1", "refinements = 0"))
    assert main(["solve", cfg, "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "solver failure" in err and "injected failure" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "phase, param, where",
    [("continuation", 0.25, " (phase continuation, param 0.25)"), ("", float("nan"), "")],
    ids=("located", "unlocated"),
)
def test_solver_failure_line_names_phase_and_param(tmp_path, monkeypatch, capsys, phase, param, where):
    def newton(*_args, **_kwargs):
        raise StepCollapse("injected collapse", phase=phase, param=param)

    monkeypatch.setattr(solver, "newton_solve", newton)
    cfg = write_cfg(tmp_path, MANUFACTURED.replace("refinements = 1", "refinements = 0"))
    assert main(["solve", cfg, "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"solver failure: injected collapse{where}\n"


def test_solve_output_defaults_to_out(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, SEPARABLE)
    monkeypatch.chdir(tmp_path)
    assert main(["solve", cfg]) == 0
    assert os.path.exists(tmp_path / "out" / "summary.txt")


# Retired knobs: every spatial axis has period 2 pi, and --output alone names the output directory.
@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[sweep]", "[output]\ndirectory = out\n\n[sweep]", "error: unknown section [output]; known: "),
        ("[problem]\n", "[problem]\nspatial_period = 6.283185307179586\n", "error: unknown keys ['spatial_period'] in [problem]; "),
    ],
    ids=["output_section", "spatial_period"],
)
def test_retired_knob_exits_2_without_output(tmp_path, capsys, monkeypatch, old, new, message):
    cfg = write_cfg(tmp_path, SEPARABLE.replace(old, new))
    monkeypatch.chdir(tmp_path)
    assert main(["solve", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1 and "Traceback" not in err, err
    assert not (tmp_path / "out").exists()


def test_sweep_writes_measurements(tmp_path):
    cfg = write_cfg(tmp_path, SEPARABLE)
    out = str(tmp_path / "out")
    assert main(["sweep", cfg, "--output", out]) == 0
    table = os.path.join(out, "sweep_measurements.csv")
    assert first_line(table) == "epsilon,sup_utt,sup_lap_u,sup_grad_ut,drift"
    assert len(read_text(table).splitlines()) == 4
    assert os.path.exists(os.path.join(out, "bounds_000.txt"))
    assert os.path.exists(os.path.join(out, "bounds_002.txt"))
    assert os.path.exists(os.path.join(out, "solution_final.csv"))
    summary = read_summary(out)
    assert summary["rungs"] == "3"
    assert summary["failed_rungs"] == "0"
    assert summary["uniform_sup_utt"] == "true"
    assert summary["sweep_uniform"] == "true"


def test_sweep_without_section_exit_2(tmp_path):
    text = MANUFACTURED  # has no [sweep]
    cfg = write_cfg(tmp_path, text)
    assert main(["sweep", cfg, "--output", str(tmp_path / "out")]) == 2


def test_scan_clean_run(tmp_path):
    cfg = write_cfg(tmp_path, SEPARABLE)
    out = str(tmp_path / "out")
    assert main(["scan", cfg, "--output", out]) == 0
    rec = os.path.join(out, "scan_records.csv")
    assert first_line(rec) == "trial,k,n,variant,margin,f_left,f_right,f_mid"
    assert len(read_text(rec).splitlines()) == 2001
    assert os.path.exists(os.path.join(out, "counterexamples.txt"))
    summary = read_summary(out)
    assert summary["theorem_backed"] == "true"
    assert summary["violation_count"] == "0"
    assert summary["comparison_violations"] == "0"
    assert summary["scan_ok"] == "true"


def test_scan_without_trials_or_pairs(tmp_path):
    text = SEPARABLE.replace("trials = 2000", "trials = 0").replace("comparison_pairs = 500", "comparison_pairs = 0")
    cfg = write_cfg(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["scan", cfg, "--output", out]) == 0
    assert read_text(os.path.join(out, "scan_records.csv")) == "trial,k,n,variant,margin,f_left,f_right,f_mid\n"
    summary = read_summary(out)
    assert summary["worst_trial"] == "-1"
    assert summary["worst_margin"] == "nan"
    assert summary["comparison_worst_segment"] == "nan"
    assert summary["comparison_worst_diff"] == "nan"


def test_scan_conjecture_never_gates(tmp_path):
    text = SEPARABLE.replace("k = 1\nn = 2", "k = 2\nn = 3")
    cfg = write_cfg(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["scan", cfg, "--output", out]) == 0
    summary = read_summary(out)
    assert summary["theorem_backed"] == "false"


def test_verify_accepts_solution_dumps(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SEPARABLE)
    out = str(tmp_path / "out")
    main(["solve", cfg, "--output", out])
    assert main(["verify", os.path.join(out, "solution.csv"), cfg]) == 0
    assert main(["verify", os.path.join(out, "solution.bin"), cfg]) == 0
    printed = capsys.readouterr().out
    assert "verify: ok = true" in printed


def test_verify_output_is_pinned(tmp_path, capsys):
    # Every line verify prints, margins included, for a known solution dump.
    cfg = write_cfg(tmp_path, SEPARABLE)
    out = str(tmp_path / "out")
    main(["solve", cfg, "--output", out])
    capsys.readouterr()
    assert main(["verify", os.path.join(out, "solution.bin"), cfg]) == 0
    assert capsys.readouterr().out == (
        "verify: admissible = true\n"
        "verify: min_utt = 2 min_B = 1 min_Q = 2\n"
        "verify: residual_sup = 0 (tol 1e-08 x 2)\n"
        "verify: boundary_ok = true\n"
        "verify: bounds_passed = true\n"
        "verify: ok = true\n"
    )
    # A wrong right-hand side: Q(u) = 2 against f = 3 misses by exactly 1.
    other = write_cfg(tmp_path, SEPARABLE.replace("f = 2", "f = 3"), "other.cfg")
    assert main(["verify", os.path.join(out, "solution.bin"), other]) == 1
    assert "verify: residual_sup = 1 (tol 1e-08 x 3)\n" in capsys.readouterr().out
    # The separable margins are integers; the manufactured ones are not.
    cfg = write_cfg(tmp_path, MANUFACTURED, "manufactured.cfg")
    out = str(tmp_path / "manufactured")
    main(["solve", cfg, "--output", out])
    capsys.readouterr()
    assert main(["verify", os.path.join(out, "solution.bin"), cfg]) == 0
    assert "verify: min_utt = 1.99745 min_B = 0.900988 min_Q = 1.8\n" in capsys.readouterr().out


def test_verify_evaluates_the_cone_once(tmp_path, monkeypatch, capsys):
    # bounds_report reuses the cone verify already computed for its own lines.
    cfg = write_cfg(tmp_path, SEPARABLE)
    out = str(tmp_path / "out")
    main(["solve", cfg, "--output", out])
    calls = []

    def counted(values, spec):
        calls.append(1)
        return cone_quantities(values, spec)

    monkeypatch.setattr("torusgeo.cli.cone_quantities", counted)
    monkeypatch.setattr("torusgeo.estimates.cone_quantities", counted)
    assert main(["verify", os.path.join(out, "solution.bin"), cfg]) == 0
    assert len(calls) == 1
    assert "verify: bounds_passed = true\n" in capsys.readouterr().out


def test_verify_rejects_wrong_problem(tmp_path):
    cfg = write_cfg(tmp_path, SEPARABLE)
    out = str(tmp_path / "out")
    main(["solve", cfg, "--output", out])
    # different right-hand side: residual check must fail
    other = write_cfg(tmp_path, SEPARABLE.replace("f = 2", "f = 3"), "other.cfg")
    assert main(["verify", os.path.join(out, "solution.csv"), other]) == 1
    # mismatched boundary data also fails, still exit 1
    shifted = write_cfg(tmp_path, SEPARABLE.replace("u0 = 0\n", "u0 = 0.2\n"), "sh.cfg")
    assert main(["verify", os.path.join(out, "solution.csv"), shifted]) == 1


def test_verify_checks_a_sweep_against_its_last_target(tmp_path, capsys):
    # verify checks Q(u) = f of the config's [problem]; a sweep's final solution
    # solves eps f / sup f at the last eps, here 0.0625 * 2 / 2.
    cfg = os.path.join(os.path.dirname(torusgeo.__file__), "configs", "separable.cfg")
    out = str(tmp_path / "out")
    assert main(["sweep", cfg, "--output", out]) == 0
    final = os.path.join(out, "solution_final.csv")
    capsys.readouterr()
    assert main(["verify", final, cfg]) == 1
    assert "verify: residual_sup = 1.9375 (tol 1e-08 x 2)\n" in capsys.readouterr().out
    with open(cfg) as fh:
        last = write_cfg(tmp_path, fh.read().replace("\nf = 2\n", "\nf = 0.0625\n"), "last.cfg")
    assert main(["verify", final, last]) == 0
    assert "verify: ok = true\n" in capsys.readouterr().out


def test_verify_bad_inputs_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, SEPARABLE)
    out = str(tmp_path / "out")
    main(["solve", cfg, "--output", out])
    # grid mismatch between dump and config
    coarse = write_cfg(tmp_path, SEPARABLE.replace("nodes_per_axis = 16", "nodes_per_axis = 32"), "c.cfg")
    assert main(["verify", os.path.join(out, "solution.csv"), coarse]) == 2
    assert main(["verify", os.path.join(out, "solution.bin"), coarse]) == 2
    assert main(["verify", str(tmp_path / "absent.csv"), cfg]) == 2
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"xx")
    assert main(["verify", str(garbage), cfg]) == 2


@pytest.mark.parametrize("ext", ["bin", "csv"])
def test_verify_space_field_dump_exits_2(tmp_path, capsys, ext):
    # A dump of the right grid but of one time layer is not a solution.
    cfg = write_cfg(tmp_path, SEPARABLE)
    grid = GridSpec(spatial_dim=1, nodes_per_axis=16, time_nodes=9)
    path = tmp_path / f"w.{ext}"
    (write_field_bin if ext == "bin" else write_field_csv)(SpaceField(grid, np.zeros(grid.spatial_shape)), path)
    assert_bad_input(capsys, ["verify", str(path), cfg])


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, SEPARABLE)
    out1 = str(tmp_path / "one")
    out2 = str(tmp_path / "two")
    for cmd in ("solve", "sweep", "scan"):
        assert main([cmd, cfg, "--output", out1]) == 0
        assert main([cmd, cfg, "--output", out2]) == 0
    names1 = sorted(os.listdir(out1))
    assert names1 == sorted(os.listdir(out2))
    for name in names1:
        with open(os.path.join(out1, name), "rb") as f1, open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read(), name


# The ROADMAP problem at 2D 32^2 x 17: large enough that OpenBLAS splits a dot
# product or a matrix-vector product over two threads.
ROADMAP_32 = """\
[problem]
spatial_dim = 2
nodes_per_axis = 32
time_nodes = 17
a = 1 + 0.2*sin(x)*cos(y)
b = 0.1
f = 2 - 0.3*cos(x)*sin(y)
u0 = 0.1*sin(x + y)
u1 = -0.1*cos(x - y)
"""


def test_solution_bytes_do_not_depend_on_blas_threads(tmp_path):
    cfg = write_cfg(tmp_path, ROADMAP_32)
    src = os.path.dirname(os.path.dirname(torusgeo.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    solutions = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "torusgeo", "solve", cfg, "--output", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        solutions.append((out / "solution.bin").read_bytes())
    assert solutions[0] == solutions[1]


def assert_bad_input(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# Warnings are errors here, so a bad input must produce the one error line and nothing else.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "old, new",
    [
        ("nodes_per_axis = 16", "nodes_per_axis = 4"),
        ("[sweep]", "[solver]\ndamping_fraction = 1.5\n\n[sweep]"),  # a retired key
        ("[sweep]", "[solver]\nrefinements = -1\n\n[sweep]"),
        ("a = 1\n", "a = 1/sin(x)+3\n"),
        ("f = 2\n", "f = 0\n"),
    ],
    ids=["nodes_per_axis", "damping_fraction", "refinements_negative", "nonfinite_field", "f_zero"],
)
def test_solve_bad_input_exits_2(tmp_path, capsys, old, new):
    cfg = write_cfg(tmp_path, SEPARABLE.replace(old, new))
    out = tmp_path / "out"
    assert_bad_input(capsys, ["solve", cfg, "--output", str(out)])
    # Bad input fails before any output is made.
    assert not out.exists()


# Constant arithmetic out of float range is inf or nan, which the field rejects;
# an integer literal that does not convert to float fails to compile.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("expr", ["1/0", "0**-1", "10**400", "pi**1000", "9" * 400, "(-1)**0.5"])
def test_solve_out_of_range_constant_arithmetic_exits_2(tmp_path, capsys, expr):
    cfg = write_cfg(tmp_path, SEPARABLE.replace("f = 2\n", f"f = {expr}\n"))
    out = tmp_path / "out"
    assert_bad_input(capsys, ["solve", cfg, "--output", str(out)])
    assert not out.exists()


# A file-backed field pins its grid, so a refinement ladder is refused before the level-0 solve.
@pytest.mark.parametrize("key", ["a", "f", "u0", "u1", "exact"])
def test_solve_refusing_to_refine_a_file_backed_field_writes_nothing(tmp_path, capsys, key):
    expr = next(line.split(" = ", 1)[1] for line in MANUFACTURED.splitlines() if line.startswith(f"{key} = "))
    kind = ScalarField if key in ("f", "exact") else SpaceField
    write_field_csv(build_field(expr, kind, GridSpec(1, 16, 9)), tmp_path / f"{key}.csv")
    cfg = write_cfg(tmp_path, MANUFACTURED.replace(f"{key} = {expr}\n", f"{key} = file:{key}.csv\n"))
    out = tmp_path / "out"
    assert_bad_input(capsys, ["solve", cfg, "--output", str(out)])
    assert not out.exists()


# A CSV that is missing or holds no values: one error line naming the file, with a reason
# (numpy's loadtxt once gave the reason None, and warned before the line on an empty file).
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("via", ["file", "verify"])
@pytest.mark.parametrize("name, data", [("nothere.csv", None), ("empty.csv", b"")], ids=["missing", "empty"])
def test_unreadable_csv_exits_2_with_one_line(tmp_path, capsys, monkeypatch, via, name, data):
    monkeypatch.chdir(tmp_path)
    if data is not None:
        (tmp_path / name).write_bytes(data)
    if via == "file":
        argv = ["solve", write_cfg(tmp_path, SEPARABLE.replace("f = 2\n", f"f = file:{name}\n")), "--output", "out"]
    else:
        argv = ["verify", name, write_cfg(tmp_path, SEPARABLE)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert name in err and "None" not in err, err
    assert sorted(os.listdir(tmp_path)) == sorted(["run.cfg"] + [name] * (data is not None))


# a = 1e308 overflows the linearization's 2 B / ht^2; u0 = 1e300 sin(x) overflows
# |grad u0|^2, and 0 * inf makes B nan, which the admissibility check must reject.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "old, new",
    [("a = 1\n", "a = 1e308\n"), ("u0 = 0\n", "u0 = 1e300*sin(x)\n")],
    ids=["a_1e308", "u0_1e300"],
)
def test_solve_extreme_magnitude_data_exits_2(tmp_path, capsys, old, new):
    text = SEPARABLE.replace("nodes_per_axis = 16", "nodes_per_axis = 8").replace("time_nodes = 9", "time_nodes = 5")
    cfg = write_cfg(tmp_path, text.replace("exact = t*t - t\n", "").replace(old, new))
    assert_bad_input(capsys, ["solve", cfg, "--output", str(tmp_path / "out")])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "old, new",
    [
        ("seed = 11", "seed = 11\nbatch_size = -2"),  # a retired key
        ("trials = 2000", "trials = -1"),
        ("comparison_pairs = 500", "comparison_pairs = -1"),
        ("seed = 11", "seed = 11\nthreshold = nan"),  # a retired key
    ],
    ids=["batch_size_negative", "trials_negative", "pairs_negative", "threshold_nan"],
)
def test_scan_bad_config_exits_2(tmp_path, capsys, old, new):
    cfg = write_cfg(tmp_path, SEPARABLE.replace(old, new))
    assert_bad_input(capsys, ["scan", cfg, "--output", str(tmp_path / "out")])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "epsilons", ["1, 2", "1, 1", "-1", "nan", "inf"], ids=["increasing", "repeated", "negative", "nan", "inf"]
)
def test_sweep_bad_epsilons_exit_2(tmp_path, capsys, epsilons):
    cfg = write_cfg(tmp_path, SEPARABLE.replace("epsilons = 1, 0.5, 0.25", f"epsilons = {epsilons}"))
    out = tmp_path / "out"
    assert_bad_input(capsys, ["sweep", cfg, "--output", str(out)])
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "old, new",
    [
        ("nodes_per_axis = 16", "nodes_per_axis = 4"),
        ("a = 1\n", "a = 1/sin(x)+3\n"),
    ],
    ids=["nodes_per_axis", "nonfinite_field"],
)
def test_sweep_bad_problem_exits_2_without_output(tmp_path, capsys, old, new):
    cfg = write_cfg(tmp_path, SEPARABLE.replace(old, new))
    out = tmp_path / "out"
    assert_bad_input(capsys, ["sweep", cfg, "--output", str(out)])
    assert not out.exists()


# Derandomized, no example database; every example rewrites the same files under tmp_path.
_CLI_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _valid_ladder(eps) -> bool:
    return bool(eps) and all(np.isfinite(e) and e > 0.0 for e in eps) and all(b < a for a, b in zip(eps, eps[1:]))


@_CLI_SETTINGS
@given(st.lists(st.floats(), max_size=4))
@example([1.0, 2.0])
@example([float("nan")])
@example([1e308])  # the bounds report's stencils on f overflow: inf and nan, not a crash
@example([1.7976931348623157e308])  # Q of the starting barrier overflows: a solver failure
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_exit_code_over_drawn_epsilons(tmp_path, capsys, eps):
    text = SEPARABLE.replace("nodes_per_axis = 16", "nodes_per_axis = 8").replace("time_nodes = 9", "time_nodes = 5")
    cfg = write_cfg(tmp_path, text.replace("epsilons = 1, 0.5, 0.25", "epsilons = " + ", ".join(map(repr, eps))))
    code = main(["sweep", cfg, "--output", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and "Traceback" not in err
    assert (code == 2) == (not _valid_ladder(eps)), (code, err)


# At eps = 1e200 the Newton residual's 2-norm overflows and the preconditioner
# has non-finite pivots: the rung fails as a linear-solve failure, without a warning.
@pytest.mark.filterwarnings("error")
def test_sweep_overflowing_linear_solve_fails_cleanly(tmp_path, capsys):
    text = SEPARABLE.replace("nodes_per_axis = 16", "nodes_per_axis = 8").replace("time_nodes = 9", "time_nodes = 5")
    cfg = write_cfg(tmp_path, text.replace("epsilons = 1, 0.5, 0.25", "epsilons = 1e200"))
    out = str(tmp_path / "out")
    assert main(["sweep", cfg, "--output", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and "1 failures" in captured.out
    summary = read_summary(out)
    assert summary["failed_rungs"] == "1"
    assert [key for key in summary if key.startswith("rung_")] == ["rung_000_error"]
    assert "linear solve produced non-finite values" in summary["rung_000_error"]


@_CLI_SETTINGS
@given(st.sampled_from(["bin", "csv"]), st.sampled_from(["truncate", "corrupt"]), st.data())
def test_verify_broken_dump_exits_2(tmp_path, capsys, kind, how, data):
    cfg = write_cfg(tmp_path, SEPARABLE)
    grid = GridSpec(spatial_dim=1, nodes_per_axis=16, time_nodes=9)
    t = grid.time_column()
    field = ScalarField(grid, np.broadcast_to(t * t - t, grid.field_shape))
    path = tmp_path / f"u.{kind}"
    (write_field_bin if kind == "bin" else write_field_csv)(field, path)
    raw = path.read_bytes()
    # a CSV cut or stray character inside the last value may leave a valid number
    at = data.draw(st.integers(0, len(raw) - 1) if kind == "bin" else st.integers(1, raw.rstrip(b"\n").rfind(b",")))
    if how == "truncate":
        broken = raw[:at]
    elif kind == "csv":
        broken = raw[:at] + b"x" + raw[at + 1 :]
    elif at < 24:  # the header
        broken = raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1 :]
    else:  # a flipped payload byte may leave a finite value: write a nan instead
        start = at - (at - 24) % 8
        broken = raw[:start] + np.array([np.nan], "<f8").tobytes() + raw[start + 8 :]
    path.write_bytes(broken)
    assert_bad_input(capsys, ["verify", str(path), cfg])


def test_scan_batch_size_zero_exits_2_at_once(tmp_path):
    # batch_size = 0 once looped forever; the key is retired now and must still fail at
    # once. A child process turns a hang into a failure.
    cfg = write_cfg(tmp_path, SEPARABLE.replace("seed = 11", "seed = 11\nbatch_size = 0"))
    src = os.path.dirname(os.path.dirname(torusgeo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "torusgeo", "scan", cfg, "--output", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("key", ["trials", "comparison_pairs"])
def test_scan_too_large_to_allocate_exits_1(tmp_path, capsys, key):
    # 10^15 rows, petabytes past the address space: the allocation fails at once and nothing is written.
    text = SEPARABLE.replace("trials = 2000", "trials = 0").replace("comparison_pairs = 500", "comparison_pairs = 0")
    cfg = write_cfg(tmp_path, text.replace(f"{key} = 0", f"{key} = 1000000000000000"))
    out = tmp_path / "out"
    assert main(["scan", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failure: ") and err.count("\n") == 1 and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "scan"])
def test_output_naming_a_file_exits_2(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, SEPARABLE)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    assert_bad_input(capsys, [command, cfg, "--output", str(afile)])
    assert afile.read_text() == "kept\n"


def test_scan_n_above_6_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SEPARABLE.replace("n = 2", "n = 7"))
    out = tmp_path / "out"
    assert_bad_input(capsys, ["scan", cfg, "--output", str(out)])
    assert not out.exists()


@pytest.mark.parametrize(
    "command, runner",
    [("solve", "continuation_solve"), ("sweep", "epsilon_sweep"), ("scan", "midpoint_concavity_scan")],
)
def test_output_naming_a_file_fails_before_the_run(tmp_path, capsys, monkeypatch, command, runner):
    # The output path is checked up front: the solve, sweep or scan never starts.
    def never(*args, **kwargs):
        raise AssertionError(f"{runner} ran although --output names a file")

    monkeypatch.setattr(f"torusgeo.cli.{runner}", never)
    cfg = write_cfg(tmp_path, SEPARABLE)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    assert main([command, cfg, "--output", str(afile)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot make output directory {str(afile)!r}: File exists\n"
    assert afile.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["afile", "run.cfg"]


def test_parser_is_built_once_per_process(capsys):
    # Every main call reuses one parser, and a bad command line still exits 2 each time.
    assert _parser() is _parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["scan"])
        assert info.value.code == 2
        assert "the following arguments are required: config" in capsys.readouterr().err


def test_verify_has_no_tolerance_flag(tmp_path, capsys):
    # The residual tolerance is fixed at VERIFY_RTOL * max(1, sup f).
    cfg = write_cfg(tmp_path, SEPARABLE)
    with pytest.raises(SystemExit) as info:
        main(["verify", str(tmp_path / "u.csv"), cfg, "--tol", "1e-3"])
    assert info.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_sweep_accepts_vanishing_f(tmp_path):
    # solve rejects f = 0, but the sweep's degenerate path keeps working
    cfg = write_cfg(tmp_path, SEPARABLE.replace("f = 2\n", "f = 0\n"))
    out = str(tmp_path / "out")
    assert main(["sweep", cfg, "--output", out]) == 0
    assert read_summary(out)["sweep_uniform"] == "true"


@pytest.mark.filterwarnings("error")
def test_sweep_rejects_partly_vanishing_f(tmp_path, capsys):
    # f = 1 + cos(x) vanishes at x = pi: only f > 0 or f identically 0 may be swept
    cfg = write_cfg(tmp_path, SEPARABLE.replace("f = 2\n", "f = 1 + cos(x)\n"))
    out = tmp_path / "out"
    assert_bad_input(capsys, ["sweep", cfg, "--output", str(out)])
    assert not out.exists()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "torusgeo", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "verify" in proc.stdout


def test_import_does_not_load_scipy():
    # GMRES is written out in numpy; scipy.sparse.linalg once dominated start-up time.
    code = "import sys, torusgeo, torusgeo.cli; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(torusgeo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Names dropped from the public surface with the functions that only tests called.
DELETED_NAMES = (
    "AdmissibilityReport",
    "ComparisonReport",
    "ConePoint",
    "F_k_eval",
    "TRACE_HEADER",
    "check_c0",
    "check_ut_bounds",
    "comparison_check",
    "d_tt",
    "ellipticity_check",
    "equalize_value",
    "f_dependencies",
    "first_order_data",
    "gamma_k_membership",
    "grad_t",
    "gradient_estimate_probe",
    "identity_suite",
    "inf",
    "log_q_hessian",
    "newton_transform",
    "normalize_shift",
    "q_form",
    "read_scalar_csv",
    "read_space_csv",
    "residual",
    "sample_scalar",
    "sample_space",
    "sigma_k",
    "sup",
    "sup_norm",
    "symbol_matrix",
    "weak_c2_report",
    "write_bounds_report",
)


def test_public_surface():
    names = torusgeo.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(torusgeo, name)
    assert [name for name in DELETED_NAMES if hasattr(torusgeo, name)] == []
