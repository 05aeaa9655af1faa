"""Write every deterministic artifact of the CLI, to compare two source trees byte for byte.

Usage, from the root of a checkout:

    python tools/artifact_check.py SRC OUTDIR

SRC is a directory holding the ``torusgeo`` package (``src`` of this or of any
other checkout); OUTDIR must not exist yet. The script runs ``solve``,
``sweep`` and ``scan`` on the bundled configs of SRC and on the perfbench
solve-2d, sweep-2d and scan configs of seeds 0-3 (written by
``perfbench/workloads.prepare``), then ``verify`` on every ``solution*`` dump.
Artifacts land under OUTDIR; ``OUTDIR/commands.log`` holds each command with
its exit code and its stdout and stderr, the paths of OUTDIR and SRC replaced
by placeholders. Two trees give the same results when ``diff -r`` finds their
OUTDIRs identical. BLAS builds may differ in the last digit, so compare two
trees on one machine.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
SEEDS = (0, 1, 2, 3)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, outdir = (os.path.abspath(p) for p in argv)
    if os.path.exists(outdir):
        print(f"artifact_check: {outdir} exists; give a new directory", file=sys.stderr)
        return 2
    sys.path[:0] = [src, PERFBENCH]
    import torusgeo
    from torusgeo import cli
    from torusgeo.config import build_problem, load_config

    import workloads

    if os.path.dirname(os.path.abspath(torusgeo.__file__)) != os.path.join(src, "torusgeo"):
        print(f"artifact_check: imported torusgeo from {torusgeo.__file__}, not {src}", file=sys.stderr)
        return 2
    log: list[str] = []

    def run(args: list[str]) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = cli.main(args)
            except Exception as exc:  # noqa: BLE001 - a traceback is a result to compare
                code = f"traceback {type(exc).__name__}: {exc}"
        text = f"$ {' '.join(args)}\nexit {code}\n{out.getvalue()}"
        log.append(text.replace(outdir, "OUTDIR").replace(src, "SRC"))

    def verify_dumps(made: str, cfg: str) -> None:
        """``verify`` each solution dump a command left in ``made`` against the config that made it."""
        if os.path.isdir(made):
            for name in sorted(os.listdir(made)):
                if name.startswith("solution"):
                    run(["verify", os.path.join(made, name), cfg])

    def accepts(path: str) -> bool:
        try:
            build_problem(load_config(path))
        except ValueError:  # ConfigError and InvalidProblem
            return False
        return True

    configs = os.path.join(src, "torusgeo", "configs")
    for name in sorted(os.listdir(configs)):
        cfg = os.path.join(configs, name)
        for command in ("solve", "sweep", "scan"):
            made = os.path.join(outdir, "bundled", f"{name[:-4]}-{command}")
            run([command, cfg, "--output", made])
            verify_dumps(made, cfg)
    for seed in SEEDS:
        for name in workloads.NAMES:
            workload = workloads.prepare(name, seed, os.path.join(outdir, f"seed{seed}", name), accepts)
            for command in workload.operation:
                run(command.argv)
                verify_dumps(command.outdir, command.argv[1])

    with open(os.path.join(outdir, "commands.log"), "w") as fh:
        fh.write("\n".join(log))
    print(f"artifact_check: {len(log)} commands, artifacts in {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
