"""Per-layer spans timed from outside the program.

``Tracer.installed()`` wraps the public functions each layer exposes, in every
torusgeo module that imported them, records one span per call and restores
the originals on exit. Nothing under ``src/`` changes. Spans stay in memory;
the run writes them out when it ends. A wrapped name that no longer exists is
reported in ``Tracer.missing`` and its metrics read zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field

from oracle import backtracks


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_interior_attrs(args, kwargs, result) -> dict:
    self = args[0]
    g = args[1] if len(args) > 1 else kwargs.get("g")
    return {"unknowns": int(getattr(self, "rhs", ()).size if g is None else len(g))}


def _newton_attrs(args, kwargs, result) -> dict:
    return {
        "iters": int(result.newton_iters_total),
        "alphas": [float(rec.alpha) for rec in result.records],
    }


def _scan_attrs(args, kwargs, result) -> dict:
    return {
        "trials": int(result.trials),
        "failures": int(result.sampling_failures),
        "theorem": bool(result.theorem_backed),
    }


def _eigh_attrs(args, kwargs, result) -> dict:
    shape = args[0].shape[:-2]
    count = 1
    for dim in shape:
        count *= int(dim)
    return {"matrices": count}


# (defining module, attribute, span name, attrs hook). Functions are wrapped in
# every loaded torusgeo module that holds them, so each call site is seen.
LAYERS = (
    ("torusgeo.config", "load_config", "config.load", None),
    ("torusgeo.config", "build_problem", "config.load", None),
    ("torusgeo.mesh", "write_field_csv", "mesh.field_io", None),
    ("torusgeo.mesh", "write_field_bin", "mesh.field_io", None),
    ("torusgeo.operator", "LinearSystem.solve_interior", "operator.linear_solve", _solve_interior_attrs),
    ("torusgeo.operator", "assemble_dQ", "operator.assemble_dQ", None),
    ("torusgeo.operator", "cone_quantities", "operator.cone_quantities", None),
    ("torusgeo.solver", "newton_solve", "solver.newton_solve", _newton_attrs),
    ("torusgeo.solver", "continuation_solve", "solver.continuation_solve", None),
    ("torusgeo.solver", "epsilon_sweep", "solver.epsilon_sweep", None),
    ("torusgeo.estimates", "bounds_report", "estimates.bounds_report", None),
    ("torusgeo.symcone", "midpoint_concavity_scan", "symcone.midpoint_scan", _scan_attrs),
    ("torusgeo.symcone", "comparison_scan", "symcone.comparison_scan", None),
    ("torusgeo.symcone", "write_scan_records", "symcone.write_records", None),
    ("torusgeo.symcone", "write_counterexamples", "symcone.write_records", None),
)
EIGH = ("numpy.linalg", "eigh", "symcone.eigh", _eigh_attrs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), parent=parent, attrs=attrs)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except BaseException as exc:
            record.attrs["error"] = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, hook=None, **attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **attrs) as record:
                result = fn(*args, **kwargs)
                if hook is not None:
                    try:
                        record.attrs.update(hook(args, kwargs, result))
                    except (AttributeError, TypeError, IndexError):
                        # The result changed shape: its counts read 0, the program runs on.
                        if f"{name} result fields" not in self.missing:
                            self.missing.append(f"{name} result fields")
                return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, eigh: bool = False):
        """Wrap every layer (and numpy's eigh when ``eigh``) for the duration."""
        undo = []
        try:
            for layer in LAYERS + ((EIGH,) if eigh else ()):
                self._install(layer, undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, layer, undo) -> None:
        module_name, path, name, hook = layer
        owner_path, _, attr = path.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{path}")
            return
        if owner_path:  # a method: patch the class once
            targets = [(owner, "")]
        else:
            targets = [
                (mod, mod_name.rpartition(".")[2])
                for mod_name, mod in list(sys.modules.items())
                if (mod_name == "torusgeo" or mod_name.startswith("torusgeo.") or mod is owner)
                and getattr(mod, attr, None) is original
            ]
        for target, via in targets:
            undo.append((target, attr, original))
            setattr(target, attr, self.wrap(original, name, hook, via=via))


def _ancestors(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent >= 0:
        yield parent
        parent = spans[parent].parent


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced operation."""
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def of(name: str) -> list[Span]:
        return [spans[i] for i in by_name.get(name, ())]

    def total(name: str) -> float:
        return sum(s.duration for s in of(name))

    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    newton = of("solver.newton_solve")
    accepted = [s for s in newton if "error" not in s.attrs]
    iters = sum(s.attrs.get("iters", 0) for s in accepted)
    cones = of("operator.cone_quantities")
    solver_cones = sum(1 for s in cones if s.attrs["via"] == "solver")
    trials = solver_cones - len(newton)
    bounds_ids = set(by_name.get("estimates.bounds_report", ()))
    cone_evals = sum(
        1
        for i in by_name.get("operator.cone_quantities", ())
        if not bounds_ids.isdisjoint(_ancestors(spans, i))
    )
    scans = of("symcone.midpoint_scan")
    scan_s = sum(s.duration for s in scans)
    scan_trials = sum(s.attrs.get("trials", 0) for s in scans)
    linear = of("operator.linear_solve")
    return {
        "operator.linear_solve.calls": len(linear),
        "operator.linear_solve.s": total("operator.linear_solve"),
        "operator.linear_solve.unknowns": sum(s.attrs.get("unknowns", 0) for s in linear),
        "operator.assemble_dQ.calls": len(of("operator.assemble_dQ")),
        "operator.assemble_dQ.s": total("operator.assemble_dQ"),
        "operator.cone_quantities.calls": len(cones),
        "operator.cone_quantities.s": total("operator.cone_quantities"),
        "solver.newton_iters": iters,
        "solver.rungs_accepted": len(accepted),
        "solver.rungs_rejected": len(newton) - len(accepted),
        "solver.sweep_cold_fallbacks": _sweep_cold_fallbacks(spans),
        "solver.line_search.trials": trials,
        "solver.line_search.backtracks": sum(backtracks(s.attrs.get("alphas", ())) for s in accepted),
        "solver.line_search.accept_ratio": iters / trials if trials > 0 else 0.0,
        "solver.newton_solve.self_s": sum(
            spans[i].duration - child_time[i] for i in by_name.get("solver.newton_solve", ())
        ),
        "solver.continuation_solve.s": total("solver.continuation_solve"),
        "solver.epsilon_sweep.s": total("solver.epsilon_sweep"),
        "estimates.bounds_report.calls": len(bounds_ids),
        "estimates.bounds_report.s": total("estimates.bounds_report"),
        "estimates.cone_evals": cone_evals,
        "symcone.scan_theorem.s": sum(s.duration for s in scans if s.attrs.get("theorem")),
        "symcone.scan_conjecture.s": sum(s.duration for s in scans if not s.attrs.get("theorem")),
        "symcone.comparison_scan.s": total("symcone.comparison_scan"),
        "symcone.eigh.matrices": sum(s.attrs.get("matrices", 0) for s in of("symcone.eigh")),
        "symcone.eigh.s": total("symcone.eigh"),
        "symcone.trials_per_s": scan_trials / scan_s if scan_s > 0.0 else 0.0,
        "symcone.sample_accept_ratio": (
            1.0 - sum(s.attrs.get("failures", 0) for s in scans) / scan_trials if scan_trials else 0.0
        ),
        "mesh.field_io_s": total("mesh.field_io"),
        "symcone.write_records_s": total("symcone.write_records"),
        "config.load_s": total("config.load"),
    }


def _sweep_cold_fallbacks(spans: list[Span]) -> int:
    """Cold continuations inside a sweep that follow a failed warm Newton start."""
    count = 0
    previous: dict[int, Span] = {}
    for s in spans:
        parent = s.parent
        if parent < 0 or spans[parent].name != "solver.epsilon_sweep":
            continue
        before = previous.get(parent)
        if (
            s.name == "solver.continuation_solve"
            and before is not None
            and before.name == "solver.newton_solve"
            and "error" in before.attrs
        ):
            count += 1
        previous[parent] = s
    return count


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
