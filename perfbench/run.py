"""Benchmark harness for torusgeo.

Usage, from the root of a checkout (the directory holding src/torusgeo and
BENCHMARK.json):

    python3 perfbench/run.py --workload solve-2d|sweep-2d|scan --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one process each

Each operation calls ``torusgeo.cli.main`` in-process on config files
generated from the seed (see workloads.py) and checks what it wrote with the
independent oracle (oracle.py). One warm-up operation runs first; then
operations run back to back, each started only while a typical one still
ends within ``--seconds`` (untraced runs time at least five).

With ``--trace 0`` the end-to-end metrics are reported: median wall and CPU
time per operation (per CLI command, summed over an operation's commands),
the median set-up time over fresh processes, and the process's peak resident
memory. With ``--trace 1`` untraced and traced
operations alternate and the per-layer metrics of the traced ones are
reported (see tracer.py), with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch outputs go to
``.perfbench-out/`` under the checkout; a JSON record of each run (metrics,
samples, environment and, when traced, every span) stays in
``.perfbench-out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
SETUP_PROBES = 7
# Untraced runs time at least this many operations, even past --seconds, so
# every workload's median rests on five samples.
MIN_TIMED_OPS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 600


@dataclasses.dataclass
class OpResult:
    walls: list  # per CLI command of the operation
    cpus: list
    failures: list
    artifact_bytes: int

    @property
    def wall(self) -> float:
        return sum(self.walls)


def _pin_blas_threads(limit: int) -> None:
    """BLAS threads <= nproc: keep a smaller setting, replace a larger or missing one."""
    for var in BLAS_THREAD_VARS:
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            value = limit
        os.environ[var] = str(value if 0 < value <= limit else limit)


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def run_operation(cli_main, commands) -> OpResult:
    """Run one operation (its CLI commands in order), then check its outputs."""
    for command in commands:
        shutil.rmtree(command.outdir, ignore_errors=True)
    log = io.StringIO()
    codes, walls, cpus = [], [], []
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for command in commands:
            start_wall, start_cpu = time.perf_counter(), time.process_time()
            try:
                codes.append(cli_main(command.argv))
            except Exception:  # a traceback out of the CLI is a failed command
                codes.append(traceback.format_exc())
            walls.append(time.perf_counter() - start_wall)
            cpus.append(time.process_time() - start_cpu)

    failures = []
    for command, code in zip(commands, codes):
        where = " ".join(command.argv[:2])
        if code != 0:
            failures.append(f"{where}: exit {code}")
            continue
        try:
            failures += [f"{where}: {msg}" for msg in command.check(command.outdir)]
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"{where}: unreadable output: {exc!r}")
    if failures:
        print("\n".join(failures) + "\n" + log.getvalue(), file=sys.stderr)
    nbytes = sum(_dir_bytes(c.outdir) for c in commands)
    return OpResult(walls, cpus, failures, nbytes)


def run_traced(cli_main, workload, spans: list, missing: set) -> tuple[OpResult, dict]:
    """One operation with every layer wrapped; returns it with its per-layer metrics."""
    import tracer

    t = tracer.Tracer()
    with t.installed(eigh=workload.name == "scan"):
        result = run_operation(cli_main, workload.operation)
    metrics = tracer.layer_metrics(t.spans)
    metrics["cli.artifact_bytes"] = result.artifact_bytes
    metrics["trace.wall_s"] = result.wall
    result.failures += workload.cross_check(metrics, t.missing)
    spans.append([dataclasses.asdict(s) for s in t.spans])
    missing.update(t.missing)
    return result, metrics


def measure_setup(src: str, configs: list[str]) -> list[float]:
    """Set-up seconds in fresh processes; the first probe warms the file cache."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), src, *configs]
    times = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        if i:
            times.append(float(out.stdout.split()[-1]))
    return times


def per_operation(samples: list[list[float]]) -> float:
    """Median time of one operation: the sum over its commands of each one's median.

    For a one-command operation this is the plain median. For the scan's five
    commands it keeps a burst of timing noise in one command of one pass
    from moving the whole pass.
    """
    return sum(statistics.median(column) for column in zip(*samples))


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4g}..{q3:.4g}"


def run_workload(args, root: str, src: str, spec: dict) -> int:
    import envinfo
    import tracer
    import workloads
    from torusgeo import cli
    from torusgeo.config import build_problem, load_config

    run_dir = os.path.join(
        root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    )

    def accepts(config_path: str) -> bool:
        try:
            build_problem(load_config(config_path))
        except ValueError:  # ConfigError and InvalidProblem
            return False
        return True

    workload = workloads.prepare(args.workload, args.seed, run_dir, accepts)
    env = envinfo.environment(root, src)
    setup = [] if args.trace else measure_setup(src, workload.configs)

    ops = [run_operation(cli.main, workload.warmup)]
    plain: list[OpResult] = []
    traced: list[tuple[OpResult, dict]] = []
    spans = []
    missing: set[str] = set()
    rounds: list[float] = []
    min_rounds = 1 if args.trace else MIN_TIMED_OPS
    start = time.perf_counter()
    # Start a round only if a typical round still ends within --seconds.
    while (
        len(rounds) < min_rounds
        or time.perf_counter() - start + statistics.median(rounds) <= args.seconds
    ):
        round_start = time.perf_counter()
        plain.append(run_operation(cli.main, workload.operation))
        if args.trace:
            traced.append(run_traced(cli.main, workload, spans, missing))
        rounds.append(time.perf_counter() - round_start)
    ops += plain + [r for r, _m in traced]

    walls = [r.wall for r in plain]
    if args.trace:
        values = tracer.median_metrics([m for _r, m in traced])
        plain_wall = statistics.median(walls)
        values["trace.overhead_frac"] = (values["trace.wall_s"] - plain_wall) / plain_wall
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": per_operation([r.walls for r in plain]),
            "cpu_s": per_operation([r.cpus for r in plain]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    failed = sum(1 for r in ops if r.failures)
    outcome = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "samples": {
            "wall_s": walls,
            "command_wall_s": [r.walls for r in plain],
            "command_cpu_s": [r.cpus for r in plain],
            "setup_s": setup,
            "traced_wall_s": [r.wall for r, _m in traced],
        },
        "failures": [f for r in ops for f in r.failures],
        "missing_layers": sorted(missing),
        "spans": spans,
        **outcome,
    }
    results = os.path.join(root, OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(run_dir, ignore_errors=True)

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations ({len(walls)} timed), {failed} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  wall_s samples: {_quartiles(walls)}")
    if missing:
        print(f"  missing layers: {', '.join(sorted(missing))}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(outcome))
    return 0


def run_all(args, root: str) -> int:
    """Each workload in its own process; print every metric by name and unit."""
    import workloads

    ok = True
    for name in workloads.NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: harness exited {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:9s} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name:9s} fail_frac = {result['failed'] / result['attempted']:.6g} ratio "
              f"({result['failed']}/{result['attempted']})")
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "torusgeo", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"perfbench: {root} holds no src/torusgeo or BENCHMARK.json; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("solve-2d", "sweep-2d", "scan", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import envinfo

    _pin_blas_threads(envinfo.nproc())
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    if args.workload == "all":
        return run_all(args, root)
    sys.path.insert(0, src)
    import torusgeo

    if os.path.dirname(os.path.abspath(torusgeo.__file__)) != os.path.join(src, "torusgeo"):
        print(f"perfbench: imported torusgeo from {torusgeo.__file__}, not {src}", file=sys.stderr)
        return 2
    return run_workload(args, root, src, spec)


if __name__ == "__main__":
    sys.exit(main())
