"""Configuration parsing, the expression whitelist, and problem assembly."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusgeo
from torusgeo.config import (
    _SECTIONS,
    ConfigError,
    build_exact,
    build_grid,
    build_field,
    build_problem,
    compile_expression,
    load_config,
)
from torusgeo.mesh import GridSpec, ScalarField, SpaceField, write_field_csv


GOOD_CFG = """\
[problem]
spatial_dim = 1
nodes_per_axis = 16
time_nodes = 9
a = 1 + 0.5*sin(x)
b = 0.25
f = 2 - 0.2*sin(x)
u0 = 0.1*sin(x)
u1 = 0.1*sin(x)
exact = t*t - t + 0.1*sin(x)

[solver]
refinements = 2

[sweep]
epsilons = 1, 0.1, 0.01

[scan]
k = 1
n = 4
trials = 500
seed = 7
hermitian = yes

[output]
directory = results
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------- expressions


def test_expression_evaluates_vectorized():
    fn = compile_expression("t*t - t + 0.1*sin(x)", ("t", "x"))
    t = np.linspace(0, 1, 5)[:, None]
    x = np.linspace(0, 2 * math.pi, 7)[None, :]
    got = fn(t=t, x=x)
    assert np.allclose(got, t * t - t + 0.1 * np.sin(x), atol=1e-15)


def test_expression_constants_and_unary():
    assert compile_expression("pi", ())() == pytest.approx(math.pi)
    assert compile_expression("-2**2", ())() == pytest.approx(-4.0)
    assert compile_expression("+3.5", ())() == pytest.approx(3.5)
    assert compile_expression("cos(0)", ())() == pytest.approx(1.0)


@pytest.mark.parametrize(
    "bad",
    [
        "z",  # unknown name
        "exp(x)",  # function outside whitelist
        "__import__('os')",
        "x.real",  # attribute access
        "x < 1",  # comparison
        "'abc'",  # string literal
        "lambda v: v",
        "x[0]",  # subscript
        "sin(x, x)",  # arity
        "sin(x=1)",  # keyword call
        "x // 2",  # floor division not whitelisted
        "x if x else x",
        "x; x",  # statements never parse in eval mode
        "True",  # bool literals are not numbers
        "2#x",  # a comment would hide the rest from the whitelist
        "~x",  # unary operators other than + and -
        "not x",
    ],
)
def test_expression_rejects(bad):
    with pytest.raises(ConfigError):
        compile_expression(bad, ("t", "x"))


_WHITELIST = st.one_of(
    st.sampled_from(["sin", "cos", "pi", "t", "x", "y", "+", "-", "*", "/", "**", "(", ")"]),
    st.integers(0, 10**6).map(str),
    st.floats(0.0, 1e6).map(repr),
)
_FOREIGN = st.one_of(
    st.sampled_from(
        ["exp", "e", "True", "None", "lambda", "if", "not", "import", "__import__", "1j", "...", "'a'"]
        + list("'\"[]{},.:;=<>%@&|^~!?$`\\#\x00")
        + ["//", "==", ":=", "->", "<<"]
    ),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True).filter(
        lambda word: word not in ("sin", "cos", "pi", "t", "x", "y")
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_WHITELIST, max_size=8), _FOREIGN, st.lists(_WHITELIST, max_size=8))
def test_expression_outside_whitelist_raises_config_error(before, foreign, after):
    # One token outside the whitelist anywhere in an expression makes it a
    # ConfigError, never another exception.
    text = " ".join(before + [foreign] + after)
    with pytest.raises(ConfigError):
        compile_expression(text, ("t", "x", "y"))


# Well-formed expressions over the whole whitelist grammar, literals at the edges of the float range included.
_LITERALS = st.one_of(
    st.sampled_from(["0", "1", "0.5", "1e308", "1e-320", "9" * 400]),
    st.integers(0, 10**400).map(str),
    st.floats(0.0, allow_infinity=False).map(repr),
)
_EXPRESSIONS = st.recursive(
    st.one_of(_LITERALS, st.sampled_from(["t", "x", "y", "pi"])),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "**"]), inner).map(lambda p: f"({p[0]}) {p[1]} ({p[2]})"),
        inner.map(lambda e: f"-({e})"),
        st.tuples(st.sampled_from(["sin", "cos"]), inner).map(lambda p: f"{p[0]}({p[1]})"),
    ),
    max_leaves=6,
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_EXPRESSIONS, st.sampled_from([ScalarField, SpaceField]), st.sampled_from([1, 2]))
def test_well_formed_expression_builds_a_field_or_raises_config_error(text, kind, dim):
    # Out-of-range constant arithmetic (1/0, 10**400, (-1)**0.5) included: never another exception.
    grid = GridSpec(spatial_dim=dim, nodes_per_axis=8, time_nodes=5)
    try:
        fld = build_field(text, kind, grid)
    except ConfigError:
        return
    assert isinstance(fld, kind) and np.all(np.isfinite(fld.values))


@pytest.mark.parametrize("text", ["-" * 100000 + "1", "+".join(["1"] * 100000)], ids=["unary", "sum"])
def test_expression_nesting_too_deep_is_config_error(text):
    with pytest.raises(ConfigError):
        compile_expression(text, ("x",))


def test_expression_rejects_unknown_kwargs():
    fn = compile_expression("t", ("t",))
    with pytest.raises(ConfigError):
        fn(t=1.0, x=2.0)


# --------------------------------------------------------------- load_config


def test_load_good_config(tmp_path):
    cfg = load_config(write_cfg(tmp_path, GOOD_CFG))
    assert cfg.problem.spatial_dim == 1
    assert cfg.problem.nodes_per_axis == 16
    assert cfg.problem.time_nodes == 9
    assert cfg.problem.b == pytest.approx(0.25)
    assert cfg.problem.spatial_period == pytest.approx(2 * math.pi)
    assert cfg.problem.exact == "t*t - t + 0.1*sin(x)"
    assert cfg.solver.refinements == 2
    assert cfg.sweep.epsilons == (1.0, 0.1, 0.01)
    assert cfg.scan.k == 1 and cfg.scan.n == 4
    assert cfg.scan.trials == 500 and cfg.scan.seed == 7
    assert cfg.scan.hermitian is True
    assert cfg.output.directory == "results"
    assert cfg.base_dir == str(tmp_path)


def test_load_defaults_without_optional_sections(tmp_path):
    text = "[problem]\nspatial_dim = 1\nnodes_per_axis = 8\ntime_nodes = 5\na = 1\nf = 2\nu0 = 0\nu1 = 0\n"
    cfg = load_config(write_cfg(tmp_path, text))
    assert cfg.problem.b == 0.0
    assert cfg.problem.exact is None
    assert cfg.solver.refinements == 0
    assert cfg.sweep.epsilons == ()
    assert cfg.scan.trials == 100000
    assert cfg.output.directory == "out"


def test_load_output_section_defaults_its_directory(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "[output]\n"))
    assert cfg.output.directory == "out"


def test_readme_config_sample_loads(tmp_path):
    # The README's [ini] sample documents every key; it must stay a working config.
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        sample = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = load_config(write_cfg(tmp_path, sample))
    spec = build_problem(cfg)
    assert spec.grid.field_shape == (cfg.problem.time_nodes, cfg.problem.nodes_per_axis)
    assert set(sample.replace(" ", "").split("\n")) >= {f"[{name}]" for name in _SECTIONS}


def test_config_sections_accept_the_same_keys():
    # Each section's key set is derived from its dataclass; this pins the accepted keys.
    assert _SECTIONS == {
        "problem": {"spatial_dim", "nodes_per_axis", "time_nodes", "spatial_period", "a", "b", "f", "u0", "u1", "exact"},
        "solver": {"refinements"},
        "sweep": {"epsilons"},
        "scan": {"k", "n", "trials", "seed", "hermitian", "comparison_pairs"},
        "output": {"directory"},
    }


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")
    with pytest.raises(ConfigError, match="malformed config"):
        load_config(write_cfg(tmp_path, "spatial_dim = 1\n"))  # a key before any section header


def test_load_unknown_section(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(write_cfg(tmp_path, GOOD_CFG + "\n[extras]\nfoo = 1\n"))


def test_load_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(write_cfg(tmp_path, GOOD_CFG.replace("b = 0.25", "b = 0.25\nbb = 1")))


def test_load_missing_required(tmp_path):
    text = "[problem]\nspatial_dim = 1\nnodes_per_axis = 8\ntime_nodes = 5\na = 1\nf = 2\nu0 = 0\n"
    with pytest.raises(ConfigError, match="missing required"):
        load_config(write_cfg(tmp_path, text))


def test_load_bad_types(tmp_path):
    with pytest.raises(ConfigError, match="must be int"):
        load_config(write_cfg(tmp_path, GOOD_CFG.replace("nodes_per_axis = 16", "nodes_per_axis = many")))
    with pytest.raises(ConfigError, match="must be float"):
        load_config(write_cfg(tmp_path, GOOD_CFG.replace("b = 0.25", "b = quarter")))
    with pytest.raises(ConfigError, match="must be bool"):
        load_config(write_cfg(tmp_path, GOOD_CFG.replace("hermitian = yes", "hermitian = maybe")))


def test_load_bad_epsilons(tmp_path):
    with pytest.raises(ConfigError, match="floats"):
        load_config(write_cfg(tmp_path, GOOD_CFG.replace("epsilons = 1, 0.1, 0.01", "epsilons = 1, x")))
    with pytest.raises(ConfigError, match="nonempty"):
        load_config(write_cfg(tmp_path, GOOD_CFG.replace("epsilons = 1, 0.1, 0.01", "epsilons =")))
    with pytest.raises(ConfigError, match="requires key 'epsilons'"):
        load_config(write_cfg(tmp_path, GOOD_CFG.replace("epsilons = 1, 0.1, 0.01", "")))
    for bad in ("1, 2", "1, 1", "-1", "0", "nan", "inf", "1, nan"):
        with pytest.raises(ConfigError, match="finite, positive and strictly decreasing"):
            load_config(write_cfg(tmp_path, GOOD_CFG.replace("epsilons = 1, 0.1, 0.01", f"epsilons = {bad}")))


def test_load_epsilons_space_separated(tmp_path):
    cfg = load_config(write_cfg(tmp_path, GOOD_CFG.replace("epsilons = 1, 0.1, 0.01", "epsilons = 1 0.5 0.25")))
    assert cfg.sweep.epsilons == (1.0, 0.5, 0.25)


def test_load_scan_k_range(tmp_path):
    with pytest.raises(ConfigError, match="1 <= k <= n"):
        load_config(write_cfg(tmp_path, GOOD_CFG.replace("k = 1", "k = 5")))


def test_load_scan_n_at_most_6(tmp_path):
    # The Newton recursion loses accuracy from n = 7 on, so scans stop at n = 6.
    assert load_config(write_cfg(tmp_path, GOOD_CFG.replace("n = 4", "n = 6"))).scan.n == 6
    for n in ("7", "12"):
        with pytest.raises(ConfigError, match=rf"^\[scan\]: n must be at most 6, got n={n}$"):
            load_config(write_cfg(tmp_path, GOOD_CFG.replace("n = 4", f"n = {n}")))


@pytest.mark.parametrize(
    "key, value, match",
    [
        ("trials", "-1", "nonnegative"),
        ("comparison_pairs", "-1", "nonnegative"),
        ("seed", "-1", "nonnegative"),
    ],
)
def test_load_scan_rejects_bad_values(tmp_path, key, value, match):
    present = {"trials": "trials = 500", "seed": "seed = 7"}
    if key in present:
        text = GOOD_CFG.replace(present[key], f"{key} = {value}")
    else:
        text = GOOD_CFG.replace("hermitian = yes", f"hermitian = yes\n{key} = {value}")
    with pytest.raises(ConfigError, match=match):
        load_config(write_cfg(tmp_path, text))


# Retired keys: the Newton options and the scan's block size are constants, so a
# config that still names one fails to load, at the old default value and at the
# values the old range check refused alike.
@pytest.mark.parametrize(
    "section, key, value",
    [
        ("solver", "newton_tol", "1e-10"),
        ("solver", "max_newton_iters", "50"),
        ("solver", "damping_fraction", "0.95"),
        ("solver", "continuation_steps", "10"),
        ("solver", "min_step_shrink", "1e-4"),
        ("scan", "batch_size", "4096"),
        ("scan", "batch_size", "0"),
        ("scan", "batch_size", "-4"),
        ("scan", "threshold", "nan"),
        ("scan", "threshold", "-inf"),
    ],
)
def test_load_rejects_retired_keys(tmp_path, section, key, value):
    text = f"[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"^unknown keys \['{key}'\] in \[{section}\]; known: "):
        load_config(write_cfg(tmp_path, text))


def test_load_negative_refinements(tmp_path):
    with pytest.raises(ConfigError, match="nonnegative"):
        load_config(write_cfg(tmp_path, GOOD_CFG.replace("refinements = 2", "refinements = -1")))


def test_inline_comments_stripped(tmp_path):
    cfg = load_config(write_cfg(tmp_path, GOOD_CFG.replace("b = 0.25", "b = 0.25  ; slope term")))
    assert cfg.problem.b == pytest.approx(0.25)


# ------------------------------------------------------------------ assembly


def test_build_grid_refinement(tmp_path):
    cfg = load_config(write_cfg(tmp_path, GOOD_CFG))
    g0 = build_grid(cfg)
    assert (g0.nodes_per_axis, g0.time_nodes) == (16, 9)
    g2 = build_grid(cfg, refine=2)
    assert (g2.nodes_per_axis, g2.time_nodes) == (64, 33)
    # refined grids nest: same endpoints, quartered spacing
    assert g2.hx == pytest.approx(g0.hx / 4)
    assert g2.ht == pytest.approx(g0.ht / 4)


def test_build_problem_from_expressions(tmp_path):
    cfg = load_config(write_cfg(tmp_path, GOOD_CFG))
    spec = build_problem(cfg)
    x = spec.grid.axis_coords()
    assert np.allclose(spec.a.values, 1 + 0.5 * np.sin(x), atol=1e-15)
    assert spec.b == pytest.approx(0.25)
    assert np.allclose(spec.u0.values, 0.1 * np.sin(x), atol=1e-15)
    exact = build_exact(cfg)
    t = spec.grid.time_column()
    assert np.allclose(exact.values, t * t - t + 0.1 * np.sin(x)[None, :], atol=1e-14)


def test_build_exact_absent(tmp_path):
    text = "[problem]\nspatial_dim = 1\nnodes_per_axis = 8\ntime_nodes = 5\na = 1\nf = 2\nu0 = 0\nu1 = 0\n"
    cfg = load_config(write_cfg(tmp_path, text))
    assert build_exact(cfg) is None


def test_constant_expression_broadcasts(tmp_path):
    grid = GridSpec(spatial_dim=2, nodes_per_axis=8, time_nodes=5)
    fld = build_field("2", ScalarField, grid)
    assert fld.values.shape == grid.field_shape
    assert np.all(fld.values == 2.0)
    sp = build_field("1", SpaceField, grid)
    assert sp.values.shape == grid.spatial_shape


def test_file_backed_fields_round_trip(tmp_path):
    grid = GridSpec(spatial_dim=1, nodes_per_axis=8, time_nodes=5)
    rng = np.random.default_rng(0)
    a_vals = 1.0 + 0.1 * rng.random(grid.spatial_shape)
    f_vals = 2.0 + 0.1 * rng.random(grid.field_shape)
    write_field_csv(SpaceField(grid, a_vals), tmp_path / "a.csv")
    write_field_csv(ScalarField(grid, f_vals), tmp_path / "f.csv")
    text = (
        "[problem]\nspatial_dim = 1\nnodes_per_axis = 8\ntime_nodes = 5\n"
        "a = file:a.csv\nf = file:f.csv\nu0 = 0\nu1 = 0\n"
    )
    cfg = load_config(write_cfg(tmp_path, text))
    spec = build_problem(cfg)
    assert np.allclose(spec.a.values, a_vals, atol=1e-12)
    assert np.allclose(spec.f.values, f_vals, atol=1e-12)
    # file-backed fields pin their grid
    with pytest.raises(ConfigError, match="file-backed"):
        build_problem(cfg, refine=1)


def test_file_reference_resolves_relative_to_config(tmp_path):
    grid = GridSpec(spatial_dim=1, nodes_per_axis=8, time_nodes=5)
    sub = tmp_path / "data"
    sub.mkdir()
    write_field_csv(SpaceField(grid, np.full(grid.spatial_shape, 3.0)), sub / "a.csv")
    text = (
        "[problem]\nspatial_dim = 1\nnodes_per_axis = 8\ntime_nodes = 5\n"
        "a = file:data/a.csv\nf = 2\nu0 = 0\nu1 = 0\n"
    )
    cwd = os.getcwd()
    cfg = load_config(write_cfg(tmp_path, text))
    assert os.getcwd() == cwd
    spec = build_problem(cfg)
    assert np.all(spec.a.values == 3.0)


def test_bundled_configs_load_and_build():
    base = os.path.join(os.path.dirname(torusgeo.__file__), "configs")
    for name in ("separable.cfg", "manufactured.cfg", "scan_default.cfg"):
        cfg = load_config(os.path.join(base, name))
        if cfg.problem is not None:
            spec = build_problem(cfg)
            assert spec.grid.time_nodes >= 3
    sep = load_config(os.path.join(base, "separable.cfg"))
    assert sep.sweep.epsilons
    assert build_exact(sep) is not None
