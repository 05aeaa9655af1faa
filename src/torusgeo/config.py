"""Run configuration: INI parsing and a small whitelisted expression language.

Field-valued entries (``a``, ``f``, ``u0``, ``u1``, ``exact``) are either
arithmetic expressions in the grid coordinates or ``file:PATH`` references to
CSV dumps, both built by :func:`build_field`. Expressions admit the
coordinate names of their field (``t`` for a spacetime field, then ``x`` and,
in 2D, ``y``), ``pi``, the functions ``sin`` and ``cos``, numeric literals,
``+ - * / **`` and unary minus; nothing else parses. Evaluation is vectorized
over the grid in float64, constants included, so out-of-range arithmetic
gives inf or nan, which the field rejects.
"""

from __future__ import annotations

import ast
import configparser
import contextlib
import os
import typing
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .mesh import GridSpec, ScalarField, SpaceField, read_field_csv
from .operator import ProblemSpec
from .solver import epsilon_ladder
from .symcone import _SCAN_MAX_N, _check_k


class ConfigError(ValueError):
    """Malformed configuration file or expression."""


_ALLOWED_FUNCS = {"sin": np.sin, "cos": np.cos}
_ALLOWED_CONSTS = {"pi": np.float64(np.pi)}
_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a**b,
}


def compile_expression(text: str, variables: tuple[str, ...]):
    """Compile a whitelisted arithmetic expression to a vectorized callable.

    ``variables`` lists the coordinate names the expression may reference
    (e.g. ``("t", "x")``). The returned callable takes those names as keyword
    arguments (numpy arrays or scalars) and evaluates the expression.
    Anything outside the whitelist raises ConfigError at compile time.
    """
    names = set(variables)

    def build(node: ast.AST):
        """Check ``node`` against the whitelist and return its evaluator, a function of the variables."""
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, float):
                raise ConfigError(f"literal {node.value!r} not allowed in {text!r}")
            try:  # numpy scalars: out-of-range arithmetic gives inf or nan
                value = np.float64(node.value)
            except OverflowError:
                raise ConfigError(f"integer literal out of float range in {text!r}") from None
            return lambda env: value
        if isinstance(node, ast.Name):
            if node.id in names:
                return lambda env: env[node.id]
            if node.id in _ALLOWED_CONSTS:
                return lambda env: _ALLOWED_CONSTS[node.id]
            raise ConfigError(
                f"name {node.id!r} not allowed in {text!r}; "
                f"allowed names: {sorted(names | set(_ALLOWED_CONSTS))}"
            )
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS:
                raise ConfigError(f"operator {type(node.op).__name__} not allowed in {text!r}")
            op, left, right = _BINOPS[type(node.op)], build(node.left), build(node.right)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, (ast.USub, ast.UAdd)):
                raise ConfigError(f"operator {type(node.op).__name__} not allowed in {text!r}")
            operand = build(node.operand)
            if isinstance(node.op, ast.USub):
                return lambda env: -operand(env)
            return lambda env: +operand(env)
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
                raise ConfigError(f"only {sorted(_ALLOWED_FUNCS)} calls are allowed in {text!r}")
            if node.keywords or len(node.args) != 1:
                raise ConfigError(f"{node.func.id} takes exactly one positional argument in {text!r}")
            func, arg = _ALLOWED_FUNCS[node.func.id], build(node.args[0])
            return lambda env: func(arg(env))
        raise ConfigError(f"syntax {type(node).__name__} not allowed in {text!r}")

    if "#" in text:
        raise ConfigError(f"comments are not allowed in expression {text!r}")
    try:
        evaluate = build(ast.parse(text, mode="eval").body)
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):
        raise ConfigError(f"expression nests too deeply: {text[:40]!r}...") from None

    def fn(**kwargs):
        unknown = set(kwargs) - names
        if unknown:
            raise ConfigError(f"unexpected variables {sorted(unknown)} for expression {text!r}")
        return evaluate(kwargs)

    return fn


@dataclass(kw_only=True)
class ProblemConfig:
    """The [problem] section; the fields without a default are its required keys."""

    spatial_dim: int
    nodes_per_axis: int
    time_nodes: int
    a: str
    b: float = 0.0
    f: str
    u0: str
    u1: str
    exact: str | None = None


@dataclass(frozen=True)
class SolverConfig:
    """The [solver] section: ``solve``'s dyadic refinement levels."""

    refinements: int = 0


@dataclass
class SweepConfig:
    epsilons: tuple[float, ...] = ()


@dataclass
class ScanConfig:
    k: int = 1
    n: int = 3
    trials: int = 100000
    seed: int = 42
    hermitian: bool = False
    comparison_pairs: int = 10000


@dataclass
class RunConfig:
    problem: ProblemConfig | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    scan: ScanConfig = field(default_factory=ScanConfig)
    base_dir: str = "."


_SECTIONS = {
    name: {f.name for f in fields(cls)}
    for name, cls in (
        ("problem", ProblemConfig),
        ("solver", SolverConfig),
        ("sweep", SweepConfig),
        ("scan", ScanConfig),
    )
}


def _get_typed(section, key: str, kind, where: str):
    raw = section[key]
    try:
        return section.getboolean(key) if kind is bool else kind(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"key {key!r} in [{where}] must be {kind.__name__}, got {raw!r}"
        ) from None


def _typed_section(section, cls, where: str) -> dict:
    """The keys of ``cls`` present in ``section``, each parsed as its field's type (T for ``T | None``).

    The fields without a default are required keys.
    """
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in section]
    if missing:
        raise ConfigError(f"missing required keys {missing} in [{where}]")
    hints = typing.get_type_hints(cls)
    kinds = {name: (typing.get_args(hint) or (hint,))[0] for name, hint in hints.items()}
    return {f.name: _get_typed(section, f.name, kinds[f.name], where) for f in fields(cls) if f.name in section}


def load_config(path) -> RunConfig:
    """Parse an INI run configuration; unknown sections or keys are errors."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]; known: {sorted(_SECTIONS)}")
        extra = set(parser[section]) - _SECTIONS[section]
        if extra:
            raise ConfigError(
                f"unknown keys {sorted(extra)} in [{section}]; "
                f"known: {sorted(_SECTIONS[section])}"
            )

    cfg = RunConfig(base_dir=os.path.dirname(os.path.abspath(path)))

    if parser.has_section("problem"):
        cfg.problem = ProblemConfig(**_typed_section(parser["problem"], ProblemConfig, "problem"))

    if parser.has_section("solver"):
        cfg.solver = SolverConfig(**_typed_section(parser["solver"], SolverConfig, "solver"))
        if cfg.solver.refinements < 0:
            raise ConfigError("refinements must be nonnegative")

    if parser.has_section("sweep"):
        sec = parser["sweep"]
        if "epsilons" not in sec:
            raise ConfigError("section [sweep] requires key 'epsilons'")
        parts = [p for chunk in sec["epsilons"].split(",") for p in chunk.split()]
        try:
            eps = tuple(float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"epsilons must be a list of floats, got {sec['epsilons']!r}") from None
        with _bad_input("[sweep]"):
            cfg.sweep = SweepConfig(epsilons=epsilon_ladder(eps))

    if parser.has_section("scan"):
        cfg.scan = sc = ScanConfig(**_typed_section(parser["scan"], ScanConfig, "scan"))
        with _bad_input("[scan]"):
            _check_k(sc.k, sc.n, _SCAN_MAX_N)
        for key in ("trials", "seed", "comparison_pairs"):
            if getattr(sc, key) < 0:
                raise ConfigError(f"{key} in [scan] must be nonnegative, got {getattr(sc, key)}")

    return cfg


@contextlib.contextmanager
def _bad_input(what: str):
    """Re-raise a ValueError or OSError from building ``what`` as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"{what}: {exc.strerror or exc}") from None


def build_field(expr: str, kind: type, grid: GridSpec, base_dir: str = "."):
    """A ``kind`` field on ``grid``: an expression in its coordinates ([t,] x[, y]) or a file reference."""
    with _bad_input(f"field {expr!r}"):
        if expr.startswith("file:"):
            return read_field_csv(os.path.join(base_dir, expr[5:].strip()), kind, grid)  # an absolute path stays
        names = ("t",) * kind.timed + ("x", "y")[: grid.spatial_dim]
        fn = compile_expression(expr, names)
        with np.errstate(all="ignore"):  # the field rejects non-finite values
            return kind.sample(grid, lambda *meshes: fn(**dict(zip(names, meshes))))


def build_grid(cfg: RunConfig, refine: int = 0) -> GridSpec:
    """Grid for the configured problem, dyadically refined ``refine`` times.

    File-backed fields pin the grid they were written on, so a refined grid
    is refused when any field is one; expression fields evaluate on any grid.
    """
    if cfg.problem is None:
        raise ConfigError("configuration has no [problem] section")
    prob = cfg.problem
    if refine > 0:
        for key in ("a", "f", "u0", "u1", "exact"):
            if (getattr(prob, key) or "").startswith("file:"):
                raise ConfigError(f"field {key!r} is file-backed and cannot be refined")
    factor = 2**refine
    with _bad_input("[problem]"):
        return GridSpec(
            spatial_dim=prob.spatial_dim,
            nodes_per_axis=prob.nodes_per_axis * factor,
            time_nodes=(prob.time_nodes - 1) * factor + 1,
        )


def build_problem(cfg: RunConfig, refine: int = 0) -> ProblemSpec:
    """Instantiate the configured problem on its (possibly refined) grid."""
    grid = build_grid(cfg, refine)
    prob = cfg.problem
    return ProblemSpec(
        grid=grid,
        a=build_field(prob.a, SpaceField, grid, cfg.base_dir),
        b=prob.b,
        f=build_field(prob.f, ScalarField, grid, cfg.base_dir),
        u0=build_field(prob.u0, SpaceField, grid, cfg.base_dir),
        u1=build_field(prob.u1, SpaceField, grid, cfg.base_dir),
    )


def build_exact(cfg: RunConfig, refine: int = 0) -> ScalarField | None:
    """Reference solution field when the config provides one."""
    if cfg.problem is None or cfg.problem.exact is None:
        return None
    return build_field(cfg.problem.exact, ScalarField, build_grid(cfg, refine), cfg.base_dir)
