"""Command line behavior: artifacts, exit codes, determinism."""

import os
import subprocess
import sys

import numpy as np
import pytest

from torusgeo.cli import main
from torusgeo.operator import LinearSolveError, LinearSystem


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

[solver]
continuation_steps = 4

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
continuation_steps = 4
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


def first_line(path):
    with open(path) as fh:
        return fh.readline().rstrip("\n")


def test_solve_writes_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, SEPARABLE)
    out = str(tmp_path / "out")
    assert main(["solve", cfg, "--output", out]) == 0
    for name in (
        "solution.csv",
        "solution.bin",
        "bounds.txt",
        "trace.csv",
        "newton_residual.csv",
        "continuation_residual.csv",
        "summary.txt",
    ):
        assert os.path.exists(os.path.join(out, name)), name
    assert first_line(os.path.join(out, "trace.csv")) == (
        "phase,param,iteration,residual,min_utt,min_B,min_Q,alpha,lin_iters"
    )
    assert first_line(os.path.join(out, "newton_residual.csv")) == "iteration,residual"
    assert first_line(os.path.join(out, "continuation_residual.csv")) == "s,residual"
    summary = read_summary(out)
    assert summary["command"] == "solve"
    assert summary["converged"] == "true"
    assert summary["bounds_passed"] == "true"
    assert float(summary["residual_sup"]) <= 1e-10
    assert float(summary["exact_sup_error_l0"]) <= 1e-10
    assert float(summary["min_utt"]) > 0
    assert float(summary["min_Q"]) > 0


def test_solve_refinement_table(tmp_path):
    cfg = write_cfg(tmp_path, MANUFACTURED)
    out = str(tmp_path / "out")
    assert main(["solve", cfg, "--output", out]) == 0
    path = os.path.join(out, "refinements.csv")
    assert first_line(path) == "level,nodes_per_axis,time_nodes,sup_error,order"
    rows = open(path).read().splitlines()[1:]
    assert len(rows) == 2
    level1 = rows[1].split(",")
    assert level1[1] == "32" and level1[2] == "17"
    summary = read_summary(out)
    assert float(summary["refinement_order_l1"]) >= 1.5


def test_solve_refinements_need_exact(tmp_path):
    text = MANUFACTURED.replace("exact = t*t - t + 0.1*sin(x)\n", "")
    cfg = write_cfg(tmp_path, text)
    assert main(["solve", cfg, "--output", str(tmp_path / "out")]) == 2
    assert not os.path.exists(tmp_path / "out")


def test_solve_config_errors_exit_2(tmp_path):
    out = str(tmp_path / "out")
    bad_key = write_cfg(tmp_path, SEPARABLE + "\n[problem2]\nq = 1\n", "k.cfg")
    assert main(["solve", bad_key, "--output", out]) == 2
    bad_expr = write_cfg(tmp_path, SEPARABLE.replace("f = 2", "f = exp(x)"), "e.cfg")
    assert main(["solve", bad_expr, "--output", out]) == 2
    bad_a = write_cfg(tmp_path, SEPARABLE.replace("a = 1", "a = -1"), "a.cfg")
    assert main(["solve", bad_a, "--output", out]) == 2
    assert main(["solve", str(tmp_path / "absent.cfg"), "--output", out]) == 2


def test_solve_nonconvergence_exit_1(tmp_path):
    text = MANUFACTURED.replace("refinements = 1", "max_newton_iters = 1")
    cfg = write_cfg(tmp_path, text)
    assert main(["solve", cfg, "--output", str(tmp_path / "out")]) == 1


def test_solve_linear_solve_failure_exit_1(tmp_path, monkeypatch, capsys):
    def fail(self, g=None):
        raise LinearSolveError("injected failure")

    monkeypatch.setattr(LinearSystem, "solve_interior", fail)
    cfg = write_cfg(tmp_path, MANUFACTURED.replace("refinements = 1", "refinements = 0"))
    assert main(["solve", cfg, "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "solver failure" in err and "injected failure" in err
    assert "Traceback" not in err


def test_solve_output_defaults_to_config_directory(tmp_path, monkeypatch):
    text = SEPARABLE + "\n[output]\ndirectory = nested/res\n"
    cfg = write_cfg(tmp_path, text)
    monkeypatch.chdir(tmp_path)
    assert main(["solve", cfg]) == 0
    assert os.path.exists(tmp_path / "nested" / "res" / "summary.txt")


def test_sweep_writes_measurements(tmp_path):
    cfg = write_cfg(tmp_path, SEPARABLE)
    out = str(tmp_path / "out")
    assert main(["sweep", cfg, "--output", out]) == 0
    table = os.path.join(out, "sweep_measurements.csv")
    assert first_line(table) == "epsilon,sup_utt,sup_lap_u,sup_grad_ut,drift"
    assert len(open(table).read().splitlines()) == 4
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
    assert len(open(rec).read().splitlines()) == 2001
    assert os.path.exists(os.path.join(out, "counterexamples.txt"))
    summary = read_summary(out)
    assert summary["theorem_backed"] == "true"
    assert summary["violation_count"] == "0"
    assert summary["comparison_violations"] == "0"
    assert summary["scan_ok"] == "true"


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


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "torusgeo", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "verify" in proc.stdout
