"""Write every deterministic artifact of the CLI, to compare two source trees byte for byte.

Usage, from the root of a checkout:

    python tools/artifact_check.py SRC OUTDIR

SRC is a directory holding the ``torusgeo`` package (``src`` of this or of any
other checkout); OUTDIR must not exist yet. The script runs ``solve``,
``sweep`` and ``scan`` on the bundled configs of SRC and on the perfbench
solve-2d, sweep-2d and scan configs of seeds 0-3 (written by
``perfbench/workloads.prepare``), ``solve`` on the bundled ``separable.cfg``
once more without ``--output``, from inside ``OUTDIR/default-output``, so
that the default output directory ``out`` is compared too, ``solve`` and
two ``sweep`` runs on the near-degenerate 20^2x11 problem, ``sweep`` on the perfbench
seed-0 problem (f > 0) at 20^2x11 from eps = 1 down to 1e-8, one ``sweep`` that fails and
two Hermitian ``scan`` runs at 20000 trials, two ``scan`` runs with the
violation threshold ``symcone.SCAN_THRESHOLD`` raised to 1.0, then ``verify``
on every ``solution*`` dump. The failing sweep (1D 8x5 grid, eps = 1e200) writes
rejection rows and a ``rung_000_error`` summary line, which no passing run
reaches. The Hermitian scans, (k, n) = (5, 6) and (6, 6) with seed 7, send 459
and 14865 sampled matrices whose cone shift fails its certificate to eigvalsh:
the first reaches the 1 < k < n root finder on the spectrum, the second the
k = n closed form. No scan at the shipped threshold finds a violation, so the
raised threshold is the only way a non-empty ``counterexamples.txt`` is
compared: (1, 2) real and (2, 3) Hermitian at 3000 trials and seed 35 each
dump 25 violations, and the first, a theorem-backed pair, exits 1.
The near-degenerate problem is the perfbench seed-0 problem with
f = 1 + cos(x) + 1e-4, which comes within 1e-4 of zero on the line x = pi;
its sweep runs eps = 1 down to 1e-6. It is where GMRES and the preconditioner
do most of their work, so a change there shows in its ``lin_iters``. A second
sweep of that problem jumps from eps = 1 straight to 1e-6: the full step and
the half step fail, so the homotopy driver bisects in eps and then reaches
1e-6 through accepted intermediate rungs, the later ones started from its
secant prediction. It is the only run whose path bisects and then succeeds.
The long f > 0 ladder is almost linear in eps, so most of its rungs start from
the driver's secant prediction; a change to that predictor shows in its trace.
Artifacts land under OUTDIR; ``OUTDIR/commands.log`` holds each command with
its exit code and its stdout and stderr, the paths of OUTDIR and SRC replaced
by placeholders. Two trees give the same results when ``diff -r`` finds their
OUTDIRs identical. The trees do not depend on the BLAS thread count
(``OPENBLAS_NUM_THREADS``); other numpy or BLAS builds may differ in the last
digit, so compare two trees on one machine.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
SEEDS = (0, 1, 2, 3)

# A sweep whose only rung fails on every attempt: at eps = 1e200 its Newton
# runs cannot succeed, so each retry lands in rejections.csv.
FAILING_SWEEP = """\
[problem]
spatial_dim = 1
nodes_per_axis = 8
time_nodes = 5
a = 1
b = 0
f = 2
u0 = 0
u1 = 0

[sweep]
epsilons = 1e200
"""

# The ROADMAP problem on perfbench's 20^2x11 grid with an f that nearly
# vanishes on the line x = pi, solved and swept down to 1e-6, once along the
# ladder and once in a single jump.
NEAR_DEGENERATE = """\
[problem]
spatial_dim = 2
nodes_per_axis = 20
time_nodes = 11
a = 1 + 0.2*sin(x)*cos(y)
b = 0.1
f = 1 + cos(x) + 1e-4
u0 = 0.1*sin(x + y)
u1 = -0.1*cos(x - y)

[sweep]
epsilons = 1, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6
"""

# The perfbench seed-0 problem on its 20^2x11 grid, swept from eps = 1 down to 1e-8.
LONG_LADDER = """\
[problem]
spatial_dim = 2
nodes_per_axis = 20
time_nodes = 11
a = 1 + 0.2*sin(x)*cos(y)
b = 0.1
f = 2 - 0.3*cos(x)*sin(y)
u0 = 0.1*sin(x + y)
u1 = -0.1*cos(x - y)

[sweep]
epsilons = 1, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8
"""

# The Hermitian scans: (k, n) pairs whose cone shifts reach the eigvalsh fallback.
FALLBACK_SCANS = ((5, 6), (6, 6))
# The scans run with SCAN_THRESHOLD = 1.0, so that they record violations.
VIOLATION_SCANS = ((1, 2, "false"), (2, 3, "true"))
SCAN = """\
[scan]
k = {k}
n = {n}
trials = {trials}
seed = {seed}
hermitian = {hermitian}
"""


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
    from torusgeo import cli, symcone
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

    def config(group: str, name: str, text: str) -> str:
        """Write ``text`` to ``OUTDIR/group/name`` and return that path."""
        made = os.path.join(outdir, group)
        os.makedirs(made, exist_ok=True)
        path = os.path.join(made, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

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
    separable = os.path.join(configs, "separable.cfg")
    default = os.path.join(outdir, "default-output")
    os.makedirs(default)
    cwd = os.getcwd()
    os.chdir(default)  # contextlib.chdir needs Python 3.11
    try:
        run(["solve", separable])
    finally:
        os.chdir(cwd)
    verify_dumps(os.path.join(default, "out"), separable)
    cfg = config("near-degenerate", "problem.cfg", NEAR_DEGENERATE)
    for command in ("solve", "sweep"):
        made = os.path.join(outdir, "near-degenerate", command)
        run([command, cfg, "--output", made])
        verify_dumps(made, cfg)
    jump = NEAR_DEGENERATE.replace("1, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6", "1, 1e-6")
    cfg = config("near-degenerate", "bisect.cfg", jump)
    run(["sweep", cfg, "--output", os.path.join(outdir, "near-degenerate", "sweep-bisect")])
    cfg = config("long-ladder", "problem.cfg", LONG_LADDER)
    made = os.path.join(outdir, "long-ladder", "sweep")
    run(["sweep", cfg, "--output", made])
    verify_dumps(made, cfg)
    cfg = config("failing", "sweep.cfg", FAILING_SWEEP)
    run(["sweep", cfg, "--output", os.path.join(outdir, "failing", "sweep")])

    def scan(group: str, k: int, n: int, **fields) -> None:
        """``scan`` (k, n) from a config written under OUTDIR/``group``."""
        cfg = config(group, f"scan-{k}-{n}.cfg", SCAN.format(k=k, n=n, **fields))
        run(["scan", cfg, "--output", os.path.join(outdir, group, f"scan-{k}-{n}")])

    for k, n in FALLBACK_SCANS:
        scan("fallback", k, n, trials=20000, seed=7, hermitian="true")
    threshold = symcone.SCAN_THRESHOLD
    symcone.SCAN_THRESHOLD = 1.0
    try:
        for k, n, hermitian in VIOLATION_SCANS:
            scan("violations", k, n, trials=3000, seed=35, hermitian=hermitian)
    finally:
        symcone.SCAN_THRESHOLD = threshold

    with open(os.path.join(outdir, "commands.log"), "w") as fh:
        fh.write("\n".join(log))
    print(f"artifact_check: {len(log)} commands, artifacts in {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
