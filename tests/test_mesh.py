"""Grid, stencil, and serialization tests against symbolic oracles."""

import numpy as np
import pytest
import sympy as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import torusgeo as tg
from torusgeo.mesh import (
    GridSpec,
    ScalarField,
    SpaceField,
    argmax_node,
    argmin_node,
    d_t,
    d_tt_interior,
    grad_t_interior,
    gradient,
    laplacian,
    read_field_bin,
    read_scalar_csv,
    read_space_csv,
    sample_scalar,
    sample_space,
    sup,
    sup_norm,
    write_field_bin,
    write_field_csv,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(spatial_dim=3, nodes_per_axis=16, time_nodes=9)
    with pytest.raises(ValueError):
        GridSpec(spatial_dim=1, nodes_per_axis=4, time_nodes=9)
    with pytest.raises(ValueError):
        GridSpec(spatial_dim=1, nodes_per_axis=16, time_nodes=3)
    with pytest.raises(ValueError):
        GridSpec(spatial_dim=1, nodes_per_axis=16, time_nodes=9, spatial_period=-1.0)


def test_grid_geometry():
    grid = GridSpec(spatial_dim=2, nodes_per_axis=8, time_nodes=5)
    assert grid.field_shape == (5, 8, 8)
    assert grid.spatial_shape == (8, 8)
    assert grid.num_spatial == 64
    assert grid.interior_layers == 3
    assert grid.ht == pytest.approx(0.25)
    assert grid.hx == pytest.approx(2.0 * np.pi / 8.0)
    t = grid.time_coords()
    assert t[0] == 0.0 and t[-1] == 1.0


def test_field_validation():
    grid = GridSpec(spatial_dim=1, nodes_per_axis=8, time_nodes=5)
    with pytest.raises(ValueError):
        ScalarField(grid, np.zeros((5, 9)))
    with pytest.raises(ValueError):
        SpaceField(grid, np.zeros(5))
    bad = np.zeros((5, 8))
    bad[2, 3] = np.nan
    with pytest.raises(ValueError):
        ScalarField(grid, bad)


@pytest.mark.parametrize("dim", [1, 2])
def test_laplacian_gradient_order(dim):
    # second-order convergence to the symbolic derivative of a trig function
    if dim == 1:
        xs = sp.symbols("x")
        expr = sp.sin(xs) + sp.cos(2 * xs) / 3
        variables = (xs,)
    else:
        xs, ys = sp.symbols("x y")
        expr = sp.sin(xs) * sp.cos(ys) + sp.cos(2 * xs + ys) / 4
        variables = (xs, ys)
    lap_expr = sum(sp.diff(expr, v, 2) for v in variables)
    grad_exprs = [sp.diff(expr, v) for v in variables]
    fn = sp.lambdify(variables, expr, "numpy")
    lap_fn = sp.lambdify(variables, lap_expr, "numpy")
    grad_fns = [sp.lambdify(variables, g, "numpy") for g in grad_exprs]

    errs_lap = []
    errs_grad = []
    for n in (16, 32):
        grid = GridSpec(spatial_dim=dim, nodes_per_axis=n, time_nodes=5)
        w = sample_space(grid, fn)
        lap = laplacian(w)
        errs_lap.append(float(np.max(np.abs(lap.values - lap_fn(*grid.spatial_meshes())))))
        gerr = 0.0
        for g, gfn in zip(gradient(w), grad_fns):
            gerr = max(gerr, float(np.max(np.abs(g.values - gfn(*grid.spatial_meshes())))))
        errs_grad.append(gerr)
    assert np.log2(errs_lap[0] / errs_lap[1]) >= 1.8
    assert np.log2(errs_grad[0] / errs_grad[1]) >= 1.8


def test_time_stencils_exact_on_quadratics():
    grid = GridSpec(spatial_dim=1, nodes_per_axis=8, time_nodes=9)
    u = sample_scalar(grid, lambda t, x: 3.0 * t * t - 2.0 * t + 0.5)
    utt = d_tt_interior(u.values, grid.ht)
    assert utt.shape == (grid.time_nodes - 2, grid.nodes_per_axis)
    assert np.max(np.abs(utt - 6.0)) <= 1e-12
    ut = d_t(u)
    expected = 6.0 * grid.time_column() - 2.0
    assert np.max(np.abs(ut.values - expected)) <= 1e-12


def test_operator_linearity_and_commutation():
    grid = GridSpec(spatial_dim=2, nodes_per_axis=12, time_nodes=7)
    rng = np.random.default_rng(5)
    u = ScalarField(grid, rng.standard_normal(grid.field_shape))
    v = ScalarField(grid, rng.standard_normal(grid.field_shape))
    al, be = 1.7, -0.4
    combo = ScalarField(grid, al * u.values + be * v.values)
    lin = laplacian(combo).values - al * laplacian(u).values - be * laplacian(v).values
    assert np.max(np.abs(lin)) <= 1e-12
    # shift-invariant linear stencils commute
    lhs = laplacian(d_t(u)).values
    rhs = d_t(laplacian(u)).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_grad_t_matches_composition():
    grid = GridSpec(spatial_dim=1, nodes_per_axis=16, time_nodes=9)
    u = sample_scalar(grid, lambda t, x: np.sin(x) * t * t + np.cos(x))
    comp = gradient(d_t(u))[0].values[1:-1]
    (direct,) = grad_t_interior(u.values, grid)
    assert np.max(np.abs(comp - direct)) <= 1e-12


def test_sup_inf_and_locations():
    grid = GridSpec(spatial_dim=1, nodes_per_axis=8, time_nodes=5)
    vals = np.zeros(grid.field_shape)
    vals[2, 3] = 4.0
    vals[1, 6] = -9.0
    u = ScalarField(grid, vals)
    assert sup(u) == 4.0
    assert tg.inf(u) == -9.0
    assert sup_norm(u) == 9.0
    assert argmax_node(vals) == (2, 3)
    assert argmin_node(vals) == (1, 6)


@pytest.mark.parametrize("dim", [1, 2])
def test_csv_round_trip(tmp_path, dim):
    grid = GridSpec(spatial_dim=dim, nodes_per_axis=8, time_nodes=5)
    rng = np.random.default_rng(11)
    u = ScalarField(grid, rng.standard_normal(grid.field_shape))
    w = SpaceField(grid, rng.standard_normal(grid.spatial_shape))
    pu = tmp_path / "u.csv"
    pw = tmp_path / "w.csv"
    write_field_csv(u, pu)
    write_field_csv(w, pw)
    assert np.array_equal(read_scalar_csv(pu, grid).values, u.values)
    assert np.array_equal(read_space_csv(pw, grid).values, w.values)


def test_csv_grid_mismatch(tmp_path):
    grid = GridSpec(spatial_dim=1, nodes_per_axis=8, time_nodes=5)
    other = GridSpec(spatial_dim=1, nodes_per_axis=16, time_nodes=5)
    u = ScalarField(grid, np.zeros(grid.field_shape))
    p = tmp_path / "u.csv"
    write_field_csv(u, p)
    with pytest.raises(ValueError):
        read_scalar_csv(p, other)


@pytest.mark.parametrize("dim", [1, 2])
def test_binary_round_trip(tmp_path, dim):
    grid = GridSpec(spatial_dim=dim, nodes_per_axis=8, time_nodes=5)
    rng = np.random.default_rng(12)
    u = ScalarField(grid, rng.standard_normal(grid.field_shape))
    w = SpaceField(grid, rng.standard_normal(grid.spatial_shape))
    pu = tmp_path / "u.bin"
    pw = tmp_path / "w.bin"
    write_field_bin(u, pu)
    write_field_bin(w, pw)
    ru = read_field_bin(pu, grid)
    rw = read_field_bin(pw, grid)
    assert isinstance(ru, ScalarField) and np.array_equal(ru.values, u.values)
    assert isinstance(rw, SpaceField) and np.array_equal(rw.values, w.values)
    # header carries the grid, so reading without one reconstructs it
    auto = read_field_bin(pu, None, spatial_period=grid.spatial_period)
    assert auto.grid == grid
    assert np.array_equal(auto.values, u.values)


def test_binary_grid_mismatch(tmp_path):
    grid = GridSpec(spatial_dim=1, nodes_per_axis=8, time_nodes=5)
    other = GridSpec(spatial_dim=1, nodes_per_axis=8, time_nodes=7)
    u = ScalarField(grid, np.zeros(grid.field_shape))
    p = tmp_path / "u.bin"
    write_field_bin(u, p)
    with pytest.raises(ValueError):
        read_field_bin(p, other)


# Derandomized, no example database; every example rewrites the same files under tmp_path.
_IO_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def dumped_fields(draw):
    """A ScalarField or SpaceField of arbitrary finite float64 values on a small grid."""
    grid = GridSpec(draw(st.sampled_from([1, 2])), draw(st.integers(8, 10)), draw(st.integers(5, 7)))
    scalar = draw(st.booleans())
    shape = grid.field_shape if scalar else grid.spatial_shape
    values = draw(hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)))
    return (ScalarField if scalar else SpaceField)(grid, values)


@_IO_SETTINGS
@given(dumped_fields())
def test_field_io_round_trips_are_bit_exact(tmp_path, field):
    grid = field.grid
    write_field_bin(field, tmp_path / "f.bin")
    back = read_field_bin(tmp_path / "f.bin", grid)
    assert type(back) is type(field) and back.values.tobytes() == field.values.tobytes()
    write_field_csv(field, tmp_path / "f.csv")
    read_csv = read_scalar_csv if isinstance(field, ScalarField) else read_space_csv
    assert read_csv(tmp_path / "f.csv", grid).values.tobytes() == field.values.tobytes()


@_IO_SETTINGS
@given(dumped_fields(), st.data())
def test_truncated_binary_dump_raises(tmp_path, field, data):
    path = tmp_path / "f.bin"
    write_field_bin(field, path)
    raw = path.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    path.write_bytes(raw[:cut])
    if isinstance(field, ScalarField) and cut == 24 + 8 * field.grid.num_spatial:
        # the payload length is the only type tag: this cut leaves a valid space-field dump
        assert isinstance(read_field_bin(path, field.grid), SpaceField)
        return
    with pytest.raises(ValueError):
        read_field_bin(path, field.grid)


@_IO_SETTINGS
@given(dumped_fields(), st.integers(0, 23), st.integers(1, 255))
def test_corrupted_binary_header_raises(tmp_path, field, index, mask):
    path = tmp_path / "f.bin"
    write_field_bin(field, path)
    raw = bytearray(path.read_bytes())
    raw[index] ^= mask
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_field_bin(path, field.grid)


@_IO_SETTINGS
@given(dumped_fields(), st.data(), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_payload_raises(tmp_path, field, data, bad):
    values = field.values.copy()
    flat = values.reshape(-1)
    flat[data.draw(st.integers(0, flat.size - 1), label="node")] = bad
    grid = field.grid
    header = np.array([grid.spatial_dim, grid.nodes_per_axis, grid.time_nodes], "<i8")
    path = tmp_path / "f.bin"
    path.write_bytes(header.tobytes() + values.astype("<f8").tobytes())
    with pytest.raises(ValueError):
        read_field_bin(path, grid)


@_IO_SETTINGS
@given(dumped_fields(), st.data())
def test_truncated_or_corrupted_csv_raises(tmp_path, field, data):
    path = tmp_path / "f.csv"
    write_field_csv(field, path)
    text = path.read_text()
    # any cut before the start of the last value drops a value; a cut inside it may not
    last_value = text.rstrip("\n").rfind(",") + 1
    at = data.draw(st.integers(1, last_value - 1), label="at")
    broken = text[:at] if data.draw(st.booleans(), label="truncate") else text[:at] + "x" + text[at + 1 :]
    path.write_text(broken)
    read_csv = read_scalar_csv if isinstance(field, ScalarField) else read_space_csv
    with pytest.raises(ValueError):
        read_csv(path, field.grid)


def test_sample_shapes():
    grid = GridSpec(spatial_dim=2, nodes_per_axis=8, time_nodes=5)
    u = sample_scalar(grid, lambda t, x, y: t + np.sin(x) + np.cos(y))
    assert u.values.shape == grid.field_shape
    w = sample_space(grid, lambda x, y: np.sin(x + y))
    assert w.values.shape == grid.spatial_shape
