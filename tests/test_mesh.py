"""Grid, stencil, and serialization tests against symbolic oracles."""

import numpy as np
import pytest
import sympy as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from torusgeo.mesh import (
    GridSpec,
    ScalarField,
    SpaceField,
    _write_17g,
    argmax_node,
    argmin_node,
    d_t,
    d_t_interior,
    d_tt_interior,
    gradient,
    laplacian,
    read_field_bin,
    read_field_csv,
    write_field_bin,
    write_field_csv,
)

from conftest import CountingWriter


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(spatial_dim=3, nodes_per_axis=16, time_nodes=9)
    with pytest.raises(ValueError):
        GridSpec(spatial_dim=1, nodes_per_axis=4, time_nodes=9)
    with pytest.raises(ValueError):
        GridSpec(spatial_dim=1, nodes_per_axis=16, time_nodes=3)


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
        w = SpaceField.sample(grid, fn).values
        lap = laplacian(w, grid)
        errs_lap.append(float(np.max(np.abs(lap - lap_fn(*grid.spatial_meshes())))))
        gerr = 0.0
        for g, gfn in zip(gradient(w, grid), grad_fns):
            gerr = max(gerr, float(np.max(np.abs(g - gfn(*grid.spatial_meshes())))))
        errs_grad.append(gerr)
    assert np.log2(errs_lap[0] / errs_lap[1]) >= 1.8
    assert np.log2(errs_grad[0] / errs_grad[1]) >= 1.8


def test_time_stencils_exact_on_quadratics():
    grid = GridSpec(spatial_dim=1, nodes_per_axis=8, time_nodes=9)
    u = ScalarField.sample(grid, lambda t, x: 3.0 * t * t - 2.0 * t + 0.5)
    utt = d_tt_interior(u.values, grid.ht)
    assert utt.shape == (grid.time_nodes - 2, grid.nodes_per_axis)
    assert np.max(np.abs(utt - 6.0)) <= 1e-12
    ut = d_t(u.values, grid.ht)
    expected = 6.0 * grid.time_column() - 2.0
    assert np.max(np.abs(ut - expected)) <= 1e-12


def test_operator_linearity_and_commutation():
    grid = GridSpec(spatial_dim=2, nodes_per_axis=12, time_nodes=7)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(grid.field_shape)
    v = rng.standard_normal(grid.field_shape)
    al, be = 1.7, -0.4
    lin = laplacian(al * u + be * v, grid) - al * laplacian(u, grid) - be * laplacian(v, grid)
    assert np.max(np.abs(lin)) <= 1e-12
    # shift-invariant linear stencils commute
    lhs = laplacian(d_t(u, grid.ht), grid)
    rhs = d_t(laplacian(u, grid), grid.ht)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_stencils_act_on_trailing_axes(dim):
    # a spacetime array and each of its time slices go through the same stencil, bit for bit
    grid = GridSpec(spatial_dim=dim, nodes_per_axis=9, time_nodes=6)
    u = np.random.default_rng(dim).standard_normal(grid.field_shape)
    lap, grads = laplacian(u, grid), gradient(u, grid)
    assert len(grads) == dim
    for k in range(grid.time_nodes):
        assert laplacian(u[k], grid).tobytes() == lap[k].tobytes()
        for g_slice, g in zip(gradient(u[k], grid), grads):
            assert g_slice.tobytes() == g[k].tobytes()


def test_grad_t_matches_composition():
    grid = GridSpec(spatial_dim=1, nodes_per_axis=16, time_nodes=9)
    u = ScalarField.sample(grid, lambda t, x: np.sin(x) * t * t + np.cos(x)).values
    (comp,) = gradient(d_t(u, grid.ht), grid)
    (direct,) = gradient(d_t_interior(u, grid.ht), grid)
    assert np.max(np.abs(comp[1:-1] - direct)) <= 1e-12


def test_sup_inf_and_locations():
    grid = GridSpec(spatial_dim=1, nodes_per_axis=8, time_nodes=5)
    vals = np.zeros(grid.field_shape)
    vals[2, 3] = 4.0
    vals[1, 6] = -9.0
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
    assert np.array_equal(read_field_csv(pu, ScalarField, grid).values, u.values)
    assert np.array_equal(read_field_csv(pw, SpaceField, grid).values, w.values)


# Values at the edges of the "%.17g" kernel behind the CSV writer: +-0, its fixed-notation
# range [1e-4, 1e17) and the neighbours of both ends, subnormals and 1e300, which printf writes.
CSV_EDGES = [
    0.0,
    -0.0,
    1e-4,
    float(np.nextafter(1e-4, 0.0)),
    float(np.nextafter(1e-4, 1.0)),
    1e17,
    float(np.nextafter(1e17, 0.0)),
    5e-324,
    1e-310,
    2.2250738585072014e-308,
    1e300,
    -1e300,
]


@pytest.mark.parametrize("dim", [1, 2])
def test_csv_matches_savetxt(tmp_path, dim):
    # Byte for byte what np.savetxt(fmt="%.17g", delimiter=",") writes: rows with an edge
    # value (printf's) between rows the kernel writes, and a SpaceField's single row.
    grid = GridSpec(spatial_dim=dim, nodes_per_axis=12, time_nodes=5)
    rng = np.random.default_rng(12)
    values = rng.choice([-1.0, 1.0], grid.field_shape) * 10.0 ** rng.uniform(-4.0, 17.0, grid.field_shape)
    flat = values.reshape(grid.time_nodes, -1)
    flat[0, :6] = [0.5, -2.0, 100.25, 1234.5, 1e16, 0.001]  # the kernel's: trailing zeros in D
    flat[1, : len(CSV_EDGES)] = CSV_EDGES
    flat[3, -len(CSV_EDGES) :] = [-x for x in CSV_EDGES]
    for field in (ScalarField(grid, values), SpaceField(grid, values[2])):
        path, want = tmp_path / "kernel.csv", tmp_path / "savetxt.csv"
        write_field_csv(field, path)
        np.savetxt(want, field.values.reshape(-1, grid.num_spatial), fmt="%.17g", delimiter=",")
        assert path.read_bytes() == want.read_bytes()


def test_csv_values_outside_the_kernel_range_match_printf(tmp_path):
    # Every line holds values the fixed-notation kernel does not certify (+-0, 1e-17, other values
    # below 1e-4, 1e17 and above), among values it does: printf's bytes, written in one piece.
    grid = GridSpec(spatial_dim=2, nodes_per_axis=8, time_nodes=6)
    outside = [0.0, -0.0, 1e-17, 3.5e-5, 9.999999999999999e-5, 1e-300, 5e-324, 1e17, 2.5e18, 1e300]
    rng = np.random.default_rng(13)
    values = rng.choice([-1.0, 1.0], grid.field_shape) * 10.0 ** rng.uniform(-4.0, 17.0, grid.field_shape)
    flat = values.reshape(grid.time_nodes, -1)
    for row in flat:
        row[rng.choice(row.size, len(outside), replace=False)] = outside
    path, want = tmp_path / "kernel.csv", tmp_path / "savetxt.csv"
    write_field_csv(ScalarField(grid, values), path)
    np.savetxt(want, flat, fmt="%.17g", delimiter=",")
    assert path.read_bytes() == want.read_bytes()
    fh = CountingWriter()
    _write_17g(fh, flat.T)
    assert fh.writes == 1 and fh.getvalue() == want.read_bytes()


def test_csv_grid_mismatch(tmp_path):
    grid = GridSpec(spatial_dim=1, nodes_per_axis=8, time_nodes=5)
    other = GridSpec(spatial_dim=1, nodes_per_axis=16, time_nodes=5)
    u = ScalarField(grid, np.zeros(grid.field_shape))
    p = tmp_path / "u.csv"
    write_field_csv(u, p)
    with pytest.raises(ValueError):
        read_field_csv(p, ScalarField, other)


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
    ru = read_field_bin(pu, ScalarField, grid)
    rw = read_field_bin(pw, SpaceField, grid)
    assert isinstance(ru, ScalarField) and np.array_equal(ru.values, u.values)
    assert isinstance(rw, SpaceField) and np.array_equal(rw.values, w.values)


def test_binary_grid_mismatch(tmp_path):
    grid = GridSpec(spatial_dim=1, nodes_per_axis=8, time_nodes=5)
    other = GridSpec(spatial_dim=1, nodes_per_axis=8, time_nodes=7)
    u = ScalarField(grid, np.zeros(grid.field_shape))
    p = tmp_path / "u.bin"
    write_field_bin(u, p)
    with pytest.raises(ValueError):
        read_field_bin(p, ScalarField, other)


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
    back = read_field_bin(tmp_path / "f.bin", type(field), grid)
    assert type(back) is type(field) and back.values.tobytes() == field.values.tobytes()
    write_field_csv(field, tmp_path / "f.csv")
    assert read_field_csv(tmp_path / "f.csv", type(field), grid).values.tobytes() == field.values.tobytes()


@_IO_SETTINGS
@given(dumped_fields(), st.data())
def test_truncated_binary_dump_raises(tmp_path, field, data):
    path = tmp_path / "f.bin"
    write_field_bin(field, path)
    raw = path.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    path.write_bytes(raw[:cut])
    with pytest.raises(ValueError):
        read_field_bin(path, type(field), field.grid)


@_IO_SETTINGS
@given(dumped_fields(), st.integers(0, 23), st.integers(1, 255))
def test_corrupted_binary_header_raises(tmp_path, field, index, mask):
    path = tmp_path / "f.bin"
    write_field_bin(field, path)
    raw = bytearray(path.read_bytes())
    raw[index] ^= mask
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_field_bin(path, type(field), field.grid)


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
        read_field_bin(path, type(field), grid)


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
    with pytest.raises(ValueError):
        read_field_csv(path, type(field), field.grid)


def test_sample_shapes():
    grid = GridSpec(spatial_dim=2, nodes_per_axis=8, time_nodes=5)
    u = ScalarField.sample(grid, lambda t, x, y: t + np.sin(x) + np.cos(y))
    assert u.values.shape == grid.field_shape
    w = SpaceField.sample(grid, lambda x, y: np.sin(x + y))
    assert w.values.shape == grid.spatial_shape
