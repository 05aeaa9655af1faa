"""Command line front end.

Subcommands:

* ``solve``   run the continuation solver on a configured problem and write
              the solution, bounds report, trace, rejected attempts and plot
              data.
* ``sweep``   walk the right-hand side down an epsilon ladder and check that
              the second-order measurements stay uniformly bounded.
* ``scan``    randomized midpoint concavity scan plus the segment comparison
              battery on the model cone.
* ``verify``  re-check a solution dump against a configured problem.

Exit codes: 0 success, 1 run failure (non-convergence, failed verification,
violated theorem-backed scan), 2 bad input (config, shapes, inadmissible
problem data). All output files are deterministic: rerunning a command with
the same inputs writes byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, build_exact, build_problem, load_config
from .estimates import _fmt_bool, bounds_report, write_bounds_report
from .mesh import (
    ScalarField,
    read_field_bin,
    read_scalar_csv,
    sup_norm,
    write_field_bin,
    write_field_csv,
)
from .operator import AdmissibilityReport, InvalidProblem, cone_quantities
from .solver import (
    TRACE_HEADER,
    SolverError,
    compute_c_star,
    continuation_solve,
    epsilon_sweep,
)
from .symcone import (
    comparison_scan,
    midpoint_concavity_scan,
    write_counterexamples,
    write_scan_records,
)


# verify accepts a residual sup-norm up to VERIFY_RTOL * max(1, sup f).
VERIFY_RTOL = 1e-8


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_trace(records, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec in records:
            fh.write(rec.render() + "\n")


def _write_rejections(rejected, path: str) -> None:
    # The reason is free text; the csv module quotes it when it holds commas.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("phase", "param", "reason"))
        for phase, param, reason in rejected:
            writer.writerow((phase, _fmt(param), reason))


def emit_plot_data(result, outdir: str) -> None:
    """Per-iteration and per-rung residual tables for plotting.

    ``newton_residual.csv`` numbers every trace record consecutively;
    ``continuation_residual.csv`` has one row per accepted ladder rung.
    """
    with open(os.path.join(outdir, "newton_residual.csv"), "w") as fh:
        fh.write("iteration,residual\n")
        for i, rec in enumerate(result.records):
            fh.write(f"{i},{rec.residual:.17g}\n")
    with open(os.path.join(outdir, "continuation_residual.csv"), "w") as fh:
        fh.write("s,residual\n")
        for param, res, _mins in result.continuation_trace:
            fh.write(f"{param:.17g},{res:.17g}\n")


def _outdir(args, cfg: RunConfig, make: bool = True) -> str:
    """The output directory, made after the run; make=False, before it, fails early on a path naming a file."""
    outdir = args.output if args.output is not None else cfg.output.directory
    try:
        if make or (os.path.exists(outdir) and not os.path.isdir(outdir)):
            os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {outdir!r}: {exc.strerror}") from None
    return outdir


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if cfg.solver.refinements > 0 and (cfg.problem is None or cfg.problem.exact is None):
        raise ConfigError("refinements > 0 requires an 'exact' expression in [problem]")
    _outdir(args, cfg, make=False)
    spec = build_problem(cfg)

    result = continuation_solve(spec)
    c_star = compute_c_star(spec)
    bounds = bounds_report(result.u, spec, c_star)
    outdir = _outdir(args, cfg)

    write_field_csv(result.u, os.path.join(outdir, "solution.csv"))
    write_field_bin(result.u, os.path.join(outdir, "solution.bin"))
    write_bounds_report(bounds, os.path.join(outdir, "bounds.txt"))
    _write_trace(result.records, os.path.join(outdir, "trace.csv"))
    _write_rejections(result.rejected, os.path.join(outdir, "rejections.csv"))
    emit_plot_data(result, outdir)

    grid = spec.grid
    # continuation_solve raises on every failure, so a run that gets here converged.
    lines = [
        "command = solve",
        f"spatial_dim = {grid.spatial_dim}",
        f"nodes_per_axis = {grid.nodes_per_axis}",
        f"time_nodes = {grid.time_nodes}",
        f"c_star = {_fmt(c_star)}",
        "converged = true",
        f"residual_sup = {_fmt(result.final_residual_sup)}",
        f"newton_iters_total = {result.newton_iters_total}",
        f"rungs_rejected = {len(result.rejected)}",
        f"bounds_passed = {_fmt_bool(bounds.passed)}",
    ]
    if result.continuation_trace:
        _s, _res, mins = result.continuation_trace[-1]
        lines += [
            f"min_utt = {_fmt(mins[0])}",
            f"min_B = {_fmt(mins[1])}",
            f"min_Q = {_fmt(mins[2])}",
        ]

    exact = build_exact(cfg)
    if exact is not None:
        err0 = sup_norm(ScalarField(grid, result.u.values - exact.values))
        lines.append(f"exact_sup_error_l0 = {_fmt(err0)}")
        if cfg.solver.refinements > 0:
            errors = [err0]
            rows = [
                f"0,{grid.nodes_per_axis},{grid.time_nodes},{_fmt(err0)},nan",
            ]
            for level in range(1, cfg.solver.refinements + 1):
                spec_r = build_problem(cfg, refine=level)
                exact_r = build_exact(cfg, refine=level)
                result_r = continuation_solve(spec_r)
                err = sup_norm(ScalarField(spec_r.grid, result_r.u.values - exact_r.values))
                order = (
                    math.log2(errors[-1] / err)
                    if err > 0.0 and errors[-1] > 0.0
                    else math.nan
                )
                errors.append(err)
                rows.append(
                    f"{level},{spec_r.grid.nodes_per_axis},{spec_r.grid.time_nodes},"
                    f"{_fmt(err)},{_fmt(order)}"
                )
                lines.append(f"exact_sup_error_l{level} = {_fmt(err)}")
                lines.append(f"refinement_order_l{level} = {_fmt(order)}")
            with open(os.path.join(outdir, "refinements.csv"), "w") as fh:
                fh.write("level,nodes_per_axis,time_nodes,sup_error,order\n")
                fh.write("\n".join(rows) + "\n")

    _write_lines(os.path.join(outdir, "summary.txt"), lines)
    print(f"solve: converged=true residual={result.final_residual_sup:.6g}")
    print(f"solve: bounds {'passed' if bounds.passed else 'FAILED'}; output in {outdir}")
    return 0 if bounds.passed else 1


def _uniform_over_rungs(values: list[float]) -> bool:
    # Uniformity claim: no measurement may grow past twice its first-rung
    # value (plus an absolute floor for identically-zero measurements) as the
    # ladder descends.
    ref = 2.0 * values[0] + 1e-9 * max(1.0, values[0])
    return max(values) <= ref


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if not cfg.sweep.epsilons:
        raise ConfigError("sweep requires a [sweep] section with an epsilons list")
    _outdir(args, cfg, make=False)
    spec = build_problem(cfg)

    records = []
    entries = epsilon_sweep(spec, cfg.sweep.epsilons, on_record=records.append)
    outdir = _outdir(args, cfg)
    _write_trace(records, os.path.join(outdir, "trace.csv"))
    rejected = [row for entry in entries for row in entry.rejected]
    _write_rejections(rejected, os.path.join(outdir, "rejections.csv"))

    measurements = []
    lines = [
        "command = sweep",
        f"rungs = {len(entries)}",
        f"rungs_rejected = {len(rejected)}",
    ]
    with open(os.path.join(outdir, "sweep_measurements.csv"), "w") as fh:
        fh.write("epsilon,sup_utt,sup_lap_u,sup_grad_ut,drift\n")
        for i, entry in enumerate(entries):
            if entry.result is None:
                continue
            bnd = entry.bounds
            fh.write(
                f"{entry.epsilon:.17g},{bnd.sup_utt:.17g},{bnd.sup_lap_u:.17g},"
                f"{bnd.sup_grad_ut:.17g},{entry.drift:.17g}\n"
            )
            measurements.append((entry.epsilon, bnd.sup_utt, bnd.sup_lap_u, bnd.sup_grad_ut))
            write_bounds_report(entry.bounds, os.path.join(outdir, f"bounds_{i:03d}.txt"))

    failures = [(i, e) for i, e in enumerate(entries) if e.result is None]
    lines.append(f"failed_rungs = {len(failures)}")
    for i, entry in enumerate(entries):
        if entry.error is not None:
            lines.append(f"rung_{i:03d}_error = {entry.error}")

    ok = not failures and bool(measurements)
    if measurements:
        last = entries[-1]
        for name, col in (("sup_utt", 1), ("sup_lap_u", 2), ("sup_grad_ut", 3)):
            vals = [m[col] for m in measurements]
            uniform = _uniform_over_rungs(vals)
            ok = ok and uniform
            lines.append(f"uniform_{name} = {_fmt_bool(uniform)}")
            lines.append(f"first_{name} = {_fmt(vals[0])}")
            lines.append(f"last_{name} = {_fmt(vals[-1])}")
        if last.result is not None:
            write_field_csv(last.result.u, os.path.join(outdir, "solution_final.csv"))
            lines.append(f"final_residual_sup = {_fmt(last.result.final_residual_sup)}")
            lines.append(f"final_bounds_passed = {_fmt_bool(last.bounds.passed)}")
            ok = ok and last.bounds.passed
    lines.append(f"sweep_uniform = {_fmt_bool(ok)}")
    _write_lines(os.path.join(outdir, "summary.txt"), lines)
    print(f"sweep: {len(entries)} rungs, {len(failures)} failures, uniform={_fmt_bool(ok)}")
    return 0 if ok else 1


def cmd_scan(args) -> int:
    cfg = load_config(args.config)
    sc = cfg.scan
    _outdir(args, cfg, make=False)

    report = midpoint_concavity_scan(sc.k, sc.n, sc.trials, sc.seed, hermitian=sc.hermitian)
    comparison = comparison_scan(sc.n, sc.comparison_pairs, sc.seed + 1)
    outdir = _outdir(args, cfg)
    write_scan_records(report, os.path.join(outdir, "scan_records.csv"))
    write_counterexamples(report, os.path.join(outdir, "counterexamples.txt"))

    scan_ok = report.violation_count == 0 or not report.theorem_backed
    comparison_ok = comparison.violation_count == 0
    lines = [
        "command = scan",
        f"k = {report.k}",
        f"n = {report.n}",
        f"variant = {report.variant}",
        f"trials = {report.trials}",
        f"seed = {report.seed}",
        f"theorem_backed = {_fmt_bool(report.theorem_backed)}",
        f"threshold = {_fmt(report.threshold)}",
        f"worst_margin = {_fmt(report.worst_margin)}",
        f"worst_trial = {report.worst_trial}",
        f"violation_count = {report.violation_count}",
        f"sampling_failures = {report.sampling_failures}",
        f"comparison_pairs = {comparison.pairs}",
        f"comparison_violations = {comparison.violation_count}",
        f"comparison_worst_segment = {_fmt(comparison.worst_segment_margin)}",
        f"comparison_worst_diff = {_fmt(comparison.worst_diff_value)}",
        f"scan_ok = {_fmt_bool(scan_ok and comparison_ok)}",
    ]
    _write_lines(os.path.join(outdir, "summary.txt"), lines)
    gate = "theorem" if report.theorem_backed else "conjecture"
    print(
        f"scan: k={report.k} n={report.n} {report.variant} ({gate}), "
        f"{report.violation_count} violations in {report.trials} trials, "
        f"worst margin {report.worst_margin:.6g}"
    )
    print(
        f"scan: comparison battery {comparison.violation_count} violations "
        f"in {comparison.pairs} pairs"
    )
    return 0 if scan_ok and comparison_ok else 1


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    spec = build_problem(cfg)
    path = args.solution
    try:
        if path.endswith(".bin"):
            field = read_field_bin(path, spec.grid)
        else:
            field = read_scalar_csv(path, spec.grid)
    except OSError as exc:
        raise ConfigError(f"cannot read solution {path!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not isinstance(field, ScalarField):
        raise ConfigError(f"solution {path!r} holds a space-only field, expected a spacetime field")

    cone = cone_quantities(field.values, spec)
    report = AdmissibilityReport.from_cone(cone)
    res_sup = float(np.max(np.abs(cone.q - spec.f.values[1:-1])))
    scale = max(1.0, sup_norm(spec.f))
    bnd0 = float(np.max(np.abs(field.values[0] - spec.u0.values)))
    bnd1 = float(np.max(np.abs(field.values[-1] - spec.u1.values)))
    boundary_ok = max(bnd0, bnd1) <= 1e-10 * max(1.0, sup_norm(field))
    residual_ok = res_sup <= VERIFY_RTOL * scale
    bounds = bounds_report(field, spec, compute_c_star(spec))
    ok = report.admissible and residual_ok and boundary_ok and bounds.passed

    print(f"verify: admissible = {_fmt_bool(report.admissible)}")
    print(f"verify: min_utt = {report.min_utt:.6g} min_B = {report.min_b:.6g} min_Q = {report.min_q:.6g}")
    print(f"verify: residual_sup = {res_sup:.6g} (tol {VERIFY_RTOL:.6g} x {scale:.6g})")
    print(f"verify: boundary_ok = {_fmt_bool(boundary_ok)}")
    print(f"verify: bounds_passed = {_fmt_bool(bounds.passed)}")
    print(f"verify: ok = {_fmt_bool(ok)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="torusgeo",
        description="Degenerate fully nonlinear solver and cone scanners on flat tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the continuation solver on a configured problem")
    p_solve.add_argument("config", help="INI configuration file")
    p_solve.add_argument("--output", help="output directory (overrides [output] directory)")

    p_sweep = sub.add_parser("sweep", help="epsilon ladder toward the degenerate limit")
    p_sweep.add_argument("config", help="INI configuration file")
    p_sweep.add_argument("--output", help="output directory (overrides [output] directory)")

    p_scan = sub.add_parser("scan", help="randomized concavity scan on the model cone")
    p_scan.add_argument("config", help="INI configuration file")
    p_scan.add_argument("--output", help="output directory (overrides [output] directory)")

    p_verify = sub.add_parser("verify", help="re-check a solution dump against a problem")
    p_verify.add_argument("solution", help="solution file (.csv or .bin)")
    p_verify.add_argument("config", help="INI configuration file")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "scan":
            return cmd_scan(args)
        if args.command == "verify":
            return cmd_verify(args)
    except (ConfigError, InvalidProblem) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
