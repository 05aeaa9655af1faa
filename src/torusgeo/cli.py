"""Command line front end.

Subcommands:

* ``solve``   run the continuation solver on a configured problem and write
              the solution, bounds report, trace and rejected attempts.
* ``sweep``   walk the right-hand side down an epsilon ladder and check that
              the second-order measurements stay uniformly bounded.
* ``scan``    randomized midpoint concavity scan plus the segment comparison
              battery on the model cone.
* ``verify``  re-check a solution dump against a configured problem.

Exit codes: 0 success, 1 run failure (non-convergence, failed verification,
violated theorem-backed scan, out of memory), 2 bad input (config, shapes,
inadmissible problem data). All output files are deterministic: rerunning a
command with the same inputs writes byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .config import ConfigError, build_exact, build_grid, build_problem, load_config
from .estimates import bounds_report
from .mesh import ScalarField, read_field_bin, read_field_csv, write_field_bin, write_field_csv
from .operator import InvalidProblem, cone_quantities
from .solver import SolverError, TraceRecord, compute_c_star, continuation_solve, epsilon_sweep
from .symcone import (
    comparison_scan,
    midpoint_concavity_scan,
    write_counterexamples,
    write_scan_records,
)


# verify accepts a residual sup-norm up to VERIFY_RTOL * max(1, sup f).
VERIFY_RTOL = 1e-8


def _text(value) -> str:
    """How a value prints in summary, bounds and CSV files.

    Bools (numpy's included) as true/false, floats (numpy's included) to 17
    significant digits in printf's %g style, node tuples as (i,j,k), anything
    else with str.
    """
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return "(" + ",".join(str(int(i)) for i in value) + ")"
    return str(value)


def _write_pairs(path: str, pairs) -> None:
    """One ``key = value`` line per pair."""
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {_text(value)}\n" for key, value in pairs)


def _write_table(path: str, header, rows) -> None:
    # The csv module quotes a field that holds a comma, such as a rejection reason.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_text(value) for value in row] for row in rows)


def _bounds_pairs(report) -> list:
    """``bounds.txt``: the report's fields in order, then ``checks_passed``."""
    return [(f.name, getattr(report, f.name)) for f in fields(report)] + [("checks_passed", report.passed)]


def _write_run(outdir: str, records, rejected) -> None:
    """``trace.csv``, whose columns are the fields of TraceRecord, and ``rejections.csv``."""
    names = [f.name for f in fields(TraceRecord)]
    _write_table(os.path.join(outdir, "trace.csv"), names, ([getattr(rec, n) for n in names] for rec in records))
    _write_table(os.path.join(outdir, "rejections.csv"), ("phase", "param", "reason"), rejected)


def _outdir(outdir: str, make: bool = True) -> str:
    """The output directory, made after the run; make=False, before it, fails early on a path naming a file."""
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
    _outdir(args.output, make=False)
    build_grid(cfg, cfg.solver.refinements)  # refuses to refine file-backed fields before any solve
    spec = build_problem(cfg)

    result = continuation_solve(spec)
    c_star = compute_c_star(spec)
    bounds = bounds_report(result.u, spec, c_star, cone=result.cone)

    grid = spec.grid
    # continuation_solve raises on every failure, so a run that gets here converged.
    summary = [
        ("command", "solve"),
        ("spatial_dim", grid.spatial_dim),
        ("nodes_per_axis", grid.nodes_per_axis),
        ("time_nodes", grid.time_nodes),
        ("c_star", c_star),
        ("converged", True),
        ("residual_sup", result.final_residual_sup),
        ("newton_iters_total", result.newton_iters_total),
        ("rungs_rejected", len(result.rejected)),
        ("bounds_passed", bounds.passed),
        *((name, getattr(result.records[-1], name)) for name in ("min_utt", "min_B", "min_Q")),
    ]

    # Every refinement level runs before the output directory exists, so a
    # level that fails leaves no directory behind.
    refinements = []
    exact = build_exact(cfg)
    if exact is not None:
        err0 = float(np.max(np.abs(result.u.values - exact.values)))
        summary.append(("exact_sup_error_l0", err0))
        if cfg.solver.refinements > 0:
            refinements.append((0, grid.nodes_per_axis, grid.time_nodes, err0, math.nan))
            for level in range(1, cfg.solver.refinements + 1):
                spec_r = build_problem(cfg, refine=level)
                exact_r = build_exact(cfg, refine=level)
                result_r = continuation_solve(spec_r)
                err = float(np.max(np.abs(result_r.u.values - exact_r.values)))
                prev = refinements[-1][3]
                order = math.log2(prev / err) if err > 0.0 and prev > 0.0 else math.nan
                refinements.append((level, spec_r.grid.nodes_per_axis, spec_r.grid.time_nodes, err, order))
                summary += [(f"exact_sup_error_l{level}", err), (f"refinement_order_l{level}", order)]

    outdir = _outdir(args.output)
    write_field_csv(result.u, os.path.join(outdir, "solution.csv"))
    write_field_bin(result.u, os.path.join(outdir, "solution.bin"))
    _write_pairs(os.path.join(outdir, "bounds.txt"), _bounds_pairs(bounds))
    _write_run(outdir, result.records, result.rejected)
    if refinements:
        header = ("level", "nodes_per_axis", "time_nodes", "sup_error", "order")
        _write_table(os.path.join(outdir, "refinements.csv"), header, refinements)
    _write_pairs(os.path.join(outdir, "summary.txt"), summary)
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
    _outdir(args.output, make=False)
    spec = build_problem(cfg)

    records = []
    entries = epsilon_sweep(spec, cfg.sweep.epsilons, on_record=records.append)
    outdir = _outdir(args.output)
    rejected = [row for entry in entries for row in entry.rejected]
    _write_run(outdir, records, rejected)

    # The BoundsReport fields that must stay bounded uniformly in eps: the
    # columns of sweep_measurements.csv and the uniform_/first_/last_ keys.
    measured = ("sup_utt", "sup_lap_u", "sup_grad_ut")
    solved = [(i, entry) for i, entry in enumerate(entries) if entry.result is not None]
    columns = [[getattr(entry.bounds, name) for _, entry in solved] for name in measured]
    rows = zip([entry.epsilon for _, entry in solved], *columns, [entry.drift for _, entry in solved])
    _write_table(os.path.join(outdir, "sweep_measurements.csv"), ("epsilon", *measured, "drift"), rows)
    for i, entry in solved:
        _write_pairs(os.path.join(outdir, f"bounds_{i:03d}.txt"), _bounds_pairs(entry.bounds))

    failures = len(entries) - len(solved)
    summary = [
        ("command", "sweep"),
        ("rungs", len(entries)),
        ("rungs_rejected", len(rejected)),
        ("failed_rungs", failures),
        *((f"rung_{i:03d}_error", entry.error) for i, entry in enumerate(entries) if entry.error is not None),
    ]
    ok = not failures and bool(solved)
    if solved:
        for name, values in zip(measured, columns):
            uniform = _uniform_over_rungs(values)
            ok = ok and uniform
            summary += [(f"uniform_{name}", uniform), (f"first_{name}", values[0]), (f"last_{name}", values[-1])]
        last = entries[-1]
        if last.result is not None:
            write_field_csv(last.result.u, os.path.join(outdir, "solution_final.csv"))
            summary.append(("final_residual_sup", last.result.final_residual_sup))
            summary.append(("final_bounds_passed", last.bounds.passed))
            ok = ok and last.bounds.passed
    summary.append(("sweep_uniform", ok))
    _write_pairs(os.path.join(outdir, "summary.txt"), summary)
    print(f"sweep: {len(entries)} rungs, {failures} failures, uniform={_text(ok)}")
    return 0 if ok else 1


def cmd_scan(args) -> int:
    cfg = load_config(args.config)
    sc = cfg.scan
    _outdir(args.output, make=False)

    report = midpoint_concavity_scan(sc.k, sc.n, sc.trials, sc.seed, hermitian=sc.hermitian)
    comparison = comparison_scan(sc.n, sc.comparison_pairs, sc.seed + 1)
    outdir = _outdir(args.output)
    write_scan_records(report, os.path.join(outdir, "scan_records.csv"))
    write_counterexamples(report, os.path.join(outdir, "counterexamples.txt"))

    scan_ok = report.violation_count == 0 or not report.theorem_backed
    comparison_ok = comparison.violation_count == 0
    summary = [
        ("command", "scan"),
        *((name, getattr(report, name)) for name in (
            "k", "n", "variant", "trials", "seed", "theorem_backed", "threshold",
            "worst_margin", "worst_trial", "violation_count", "sampling_failures",
        )),
        ("comparison_pairs", comparison.pairs),
        ("comparison_violations", comparison.violation_count),
        ("comparison_worst_segment", comparison.worst_segment_margin),
        ("comparison_worst_diff", comparison.worst_diff_value),
        ("scan_ok", scan_ok and comparison_ok),
    ]
    _write_pairs(os.path.join(outdir, "summary.txt"), summary)
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
        read = read_field_bin if path.endswith(".bin") else read_field_csv
        field = read(path, ScalarField, spec.grid)
    except OSError as exc:
        raise ConfigError(f"cannot read solution {path!r}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    cone = cone_quantities(field.values, spec)
    res_sup = float(np.max(np.abs(cone.q - spec.f.values[1:-1])))
    scale = max(1.0, float(np.max(np.abs(spec.f.values))))
    bnd0 = float(np.max(np.abs(field.values[0] - spec.u0.values)))
    bnd1 = float(np.max(np.abs(field.values[-1] - spec.u1.values)))
    boundary_ok = max(bnd0, bnd1) <= 1e-10 * max(1.0, float(np.max(np.abs(field.values))))
    residual_ok = res_sup <= VERIFY_RTOL * scale
    bounds = bounds_report(field, spec, compute_c_star(spec), cone=cone)
    ok = cone.admissible and residual_ok and boundary_ok and bounds.passed

    print(f"verify: admissible = {_text(cone.admissible)}")
    print("verify: min_utt = {:.6g} min_B = {:.6g} min_Q = {:.6g}".format(*cone.mins))
    print(f"verify: residual_sup = {res_sup:.6g} (tol {VERIFY_RTOL:.6g} x {scale:.6g})")
    print(f"verify: boundary_ok = {_text(boundary_ok)}")
    print(f"verify: bounds_passed = {_text(bounds.passed)}")
    print(f"verify: ok = {_text(ok)}")
    return 0 if ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:  # built once per process
    parser = argparse.ArgumentParser(
        prog="torusgeo",
        description="Degenerate fully nonlinear solver and cone scanners on flat tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "run the continuation solver on a configured problem"),
        ("sweep", "epsilon ladder toward the degenerate limit"),
        ("scan", "randomized concavity scan on the model cone"),
    ):
        p_run = sub.add_parser(name, help=help_text)
        p_run.add_argument("config", help="INI configuration file")
        p_run.add_argument("--output", default="out", help="output directory (default: out)")

    p_verify = sub.add_parser("verify", help="re-check a solution dump against a problem")
    p_verify.add_argument("solution", help="solution file (.csv or .bin)")
    p_verify.add_argument("config", help="INI configuration file")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    commands = {"solve": cmd_solve, "sweep": cmd_sweep, "scan": cmd_scan, "verify": cmd_verify}
    try:
        return commands[args.command](args)
    except (ConfigError, InvalidProblem) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        where = [f"phase {exc.phase}"] if exc.phase else []
        where += [] if math.isnan(exc.param) else [f"param {_text(exc.param)}"]
        print(f"solver failure: {exc}" + (f" ({', '.join(where)})" if where else ""), file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's array allocation errors among them
        print(f"run failure: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
