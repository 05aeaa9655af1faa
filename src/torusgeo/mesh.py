"""Space-time lattices on flat tori and the discrete operators living on them.

The computational domain is T^d x [0, 1] with d = 1 or 2. Spatial axes are
periodic with a common period and node count, so every spatial stencil wraps
around via index arithmetic. The time axis is an ordinary closed interval:
layer 0 and layer Nt-1 hold Dirichlet data and are never differentiated
across.

Fields come in two flavours. A :class:`ScalarField` stores one value per
space-time node, shape ``(Nt, N)`` or ``(Nt, N, N)``. A :class:`SpaceField`
stores one value per spatial node only and is used for boundary data and for
time-independent coefficients.

Operators that involve a time derivative (:func:`d_tt`, :func:`d_t`,
:func:`grad_t`) cannot produce meaningful centered values on the two boundary
layers. By convention they return full-shape fields whose boundary layers are
padded: :func:`d_tt` and :func:`grad_t` copy the adjacent interior layer,
while :func:`d_t` fills the boundary layers with second-order one-sided
differences. The padding keeps every stored value finite and makes global
extrema of padded fields agree with interior extrema; consumers that need the
interior only should slice with :func:`interior`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

_BIN_HEADER_DTYPE = np.dtype("<i8")
_BIN_VALUE_DTYPE = np.dtype("<f8")
_CSV_FMT = "%.17g"


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice on T^d x [0, 1].

    Parameters
    ----------
    spatial_dim
        Number of spatial axes, 1 or 2.
    nodes_per_axis
        Node count N per spatial axis, at least 8. The spatial mesh width is
        ``spatial_period / N`` because node N would coincide with node 0.
    time_nodes
        Node count Nt on the time axis including both boundary layers, at
        least 5. The time step is ``1 / (Nt - 1)``.
    spatial_period
        Period L of every spatial axis, positive. Defaults to 2*pi.
    """

    spatial_dim: int
    nodes_per_axis: int
    time_nodes: int
    spatial_period: float = TWO_PI

    def __post_init__(self) -> None:
        if self.spatial_dim not in (1, 2):
            raise ValueError(f"spatial_dim must be 1 or 2, got {self.spatial_dim}")
        if int(self.nodes_per_axis) != self.nodes_per_axis or self.nodes_per_axis < 8:
            raise ValueError(f"nodes_per_axis must be an integer >= 8, got {self.nodes_per_axis}")
        if int(self.time_nodes) != self.time_nodes or self.time_nodes < 5:
            raise ValueError(f"time_nodes must be an integer >= 5, got {self.time_nodes}")
        period = float(self.spatial_period)
        if not np.isfinite(period) or period <= 0.0:
            raise ValueError(f"spatial_period must be positive and finite, got {self.spatial_period}")

    @property
    def hx(self) -> float:
        return self.spatial_period / self.nodes_per_axis

    @property
    def ht(self) -> float:
        return 1.0 / (self.time_nodes - 1)

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return (self.nodes_per_axis,) * self.spatial_dim

    @property
    def field_shape(self) -> tuple[int, ...]:
        return (self.time_nodes,) + self.spatial_shape

    @property
    def num_spatial(self) -> int:
        return self.nodes_per_axis**self.spatial_dim

    @property
    def interior_layers(self) -> int:
        return self.time_nodes - 2

    def time_coords(self) -> np.ndarray:
        """Time nodes t_k = k * ht, shape (Nt,)."""
        return np.arange(self.time_nodes) * self.ht

    def time_column(self) -> np.ndarray:
        """Time nodes reshaped to broadcast against spatial axes."""
        return self.time_coords().reshape((self.time_nodes,) + (1,) * self.spatial_dim)

    def axis_coords(self) -> np.ndarray:
        """Spatial nodes x_i = i * hx along one axis, shape (N,)."""
        return np.arange(self.nodes_per_axis) * self.hx

    def spatial_meshes(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of spatial shape, one per spatial axis."""
        axes = (self.axis_coords(),) * self.spatial_dim
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def field_meshes(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of field shape: (T, X) or (T, X, Y)."""
        axes = (self.time_coords(),) + (self.axis_coords(),) * self.spatial_dim
        return tuple(np.meshgrid(*axes, indexing="ij"))


def _check_values(values: np.ndarray, shape: tuple[int, ...], kind: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{kind} values must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"{kind} contains a non-finite value at node {tuple(int(i) for i in bad)}")
    return arr


@dataclass
class ScalarField:
    """One real value per space-time node, shape ``(Nt,) + spatial_shape``."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _check_values(self.values, self.grid.field_shape, "ScalarField")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class SpaceField:
    """One real value per spatial node, shape ``spatial_shape``."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _check_values(self.values, self.grid.spatial_shape, "SpaceField")

    def copy(self) -> "SpaceField":
        return SpaceField(self.grid, self.values.copy())


def sample_scalar(grid: GridSpec, fn) -> ScalarField:
    """Sample ``fn(t, x[, y])`` on the full space-time lattice."""
    meshes = grid.field_meshes()
    return ScalarField(grid, np.asarray(fn(*meshes), dtype=float) + np.zeros(grid.field_shape))


def sample_space(grid: GridSpec, fn) -> SpaceField:
    """Sample ``fn(x[, y])`` on the spatial lattice."""
    meshes = grid.spatial_meshes()
    return SpaceField(grid, np.asarray(fn(*meshes), dtype=float) + np.zeros(grid.spatial_shape))


def _spatial_axes(field) -> tuple[int, ...]:
    dim = field.grid.spatial_dim
    if isinstance(field, ScalarField):
        return tuple(range(1, 1 + dim))
    return tuple(range(dim))


def _lap_array(vals: np.ndarray, axes: tuple[int, ...], hx: float) -> np.ndarray:
    out = np.zeros_like(vals)
    for ax in axes:
        out += np.roll(vals, -1, axis=ax) - 2.0 * vals + np.roll(vals, 1, axis=ax)
    return out / (hx * hx)


def _grad_arrays(vals: np.ndarray, axes: tuple[int, ...], hx: float) -> list[np.ndarray]:
    return [(np.roll(vals, -1, axis=ax) - np.roll(vals, 1, axis=ax)) / (2.0 * hx) for ax in axes]


def laplacian(field):
    """Periodic second-difference Laplacian, layer by layer.

    Accepts a :class:`ScalarField` or :class:`SpaceField` and returns the same
    kind. Each spatial axis contributes the standard three-point stencil
    ``(v[i+1] - 2 v[i] + v[i-1]) / hx**2`` with wrap-around indexing.
    """
    out = _lap_array(field.values, _spatial_axes(field), field.grid.hx)
    return type(field)(field.grid, out)


def gradient(field) -> list:
    """Periodic centered gradient, one field per spatial axis."""
    grads = _grad_arrays(field.values, _spatial_axes(field), field.grid.hx)
    return [type(field)(field.grid, g) for g in grads]


def grad_sq(components: list, start: np.ndarray | None = None) -> np.ndarray:
    """Sum of the squared component arrays, added in order onto ``start`` (in place) or zeros."""
    total = np.zeros_like(components[0]) if start is None else start
    for g in components:
        total += g * g
    return total


def _pad_edge(interior_vals: np.ndarray) -> np.ndarray:
    """Extend an interior-layer array to full shape by copying the end layers."""
    out = np.empty((interior_vals.shape[0] + 2,) + interior_vals.shape[1:])
    out[1:-1] = interior_vals
    out[0] = interior_vals[0]
    out[-1] = interior_vals[-1]
    return out


def d_tt_interior(values: np.ndarray, ht: float) -> np.ndarray:
    """Second time difference on the interior layers, shape (Nt-2, ...)."""
    return (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (ht * ht)


def d_t_interior(values: np.ndarray, ht: float) -> np.ndarray:
    """Centered first time difference on the interior layers."""
    return (values[2:] - values[:-2]) / (2.0 * ht)


def d_tt(field: ScalarField) -> ScalarField:
    """Second time difference; boundary layers are copies of the adjacent interior layer."""
    inner = d_tt_interior(field.values, field.grid.ht)
    return ScalarField(field.grid, _pad_edge(inner))


def d_t(field: ScalarField) -> ScalarField:
    """First time difference, centered inside, second-order one-sided on the boundary layers.

    Layer 0 uses ``(-3 v[0] + 4 v[1] - v[2]) / (2 ht)`` and layer Nt-1 its
    mirror image, so the operator is exact on quadratics in t everywhere.
    """
    return ScalarField(field.grid, _d_t_array(field.values, field.grid.ht))


def _d_t_array(v: np.ndarray, ht: float) -> np.ndarray:
    out = np.empty_like(v)
    out[1:-1] = d_t_interior(v, ht)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * ht)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * ht)
    return out


def grad_t_interior(values: np.ndarray, grid: GridSpec) -> list[np.ndarray]:
    """Spatial gradient of the centered time derivative on interior layers."""
    ut = d_t_interior(values, grid.ht)
    axes = tuple(range(1, 1 + grid.spatial_dim))
    return _grad_arrays(ut, axes, grid.hx)


def grad_t(field: ScalarField) -> list[ScalarField]:
    """Mixed derivative fields d/dx_a (du/dt); boundary layers edge-padded."""
    inner = grad_t_interior(field.values, field.grid)
    return [ScalarField(field.grid, _pad_edge(g)) for g in inner]


def interior(field) -> np.ndarray:
    """View of the interior time layers of a field or full-shape array."""
    vals = field.values if hasattr(field, "values") else np.asarray(field)
    return vals[1:-1]


def sup(field) -> float:
    """Exact maximum over stored values."""
    vals = field.values if hasattr(field, "values") else np.asarray(field)
    return float(np.max(vals))


def inf(field) -> float:
    """Exact minimum over stored values."""
    vals = field.values if hasattr(field, "values") else np.asarray(field)
    return float(np.min(vals))


def sup_norm(field) -> float:
    """Exact maximum of absolute values."""
    vals = field.values if hasattr(field, "values") else np.asarray(field)
    return float(np.max(np.abs(vals)))


def argmax_node(values: np.ndarray) -> tuple:
    """Multi-index of the maximum entry, first occurrence in row-major order."""
    flat = int(np.argmax(values))
    return tuple(int(i) for i in np.unravel_index(flat, values.shape))


def argmin_node(values: np.ndarray) -> tuple:
    flat = int(np.argmin(values))
    return tuple(int(i) for i in np.unravel_index(flat, values.shape))


def full_node(node: tuple) -> tuple:
    """Full-time-axis index of a node indexed on the interior layers."""
    return (node[0] + 1,) + node[1:]


# ---------------------------------------------------------------------------
# Serialization.
#
# CSV: one row per time layer (a single row for a SpaceField), spatial nodes
# flattened in row-major order, full float64 precision.
#
# Binary: header of three little-endian int64 (spatial_dim, nodes_per_axis,
# time_nodes) followed by the values as little-endian float64 in row-major
# order. The payload length distinguishes a ScalarField (Nt * N^d values)
# from a SpaceField (N^d values).
# ---------------------------------------------------------------------------


def write_field_csv(field, path) -> None:
    vals = field.values
    if isinstance(field, SpaceField):
        rows = vals.reshape(1, -1)
    else:
        rows = vals.reshape(vals.shape[0], -1)
    np.savetxt(path, rows, fmt=_CSV_FMT, delimiter=",")


def read_scalar_csv(path, grid: GridSpec) -> ScalarField:
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    expected = (grid.time_nodes, grid.num_spatial)
    if rows.shape != expected:
        raise ValueError(f"CSV layout {rows.shape} does not match grid layout {expected}")
    return ScalarField(grid, rows.reshape(grid.field_shape))


def read_space_csv(path, grid: GridSpec) -> SpaceField:
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    expected = (1, grid.num_spatial)
    if rows.shape != expected:
        raise ValueError(f"CSV layout {rows.shape} does not match grid layout {expected}")
    return SpaceField(grid, rows.reshape(grid.spatial_shape))


def write_field_bin(field, path) -> None:
    grid = field.grid
    header = np.array([grid.spatial_dim, grid.nodes_per_axis, grid.time_nodes], dtype=_BIN_HEADER_DTYPE)
    payload = np.ascontiguousarray(field.values, dtype=float).ravel().astype(_BIN_VALUE_DTYPE)
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(payload.tobytes())


def read_field_bin(path, grid: GridSpec | None = None, spatial_period: float = TWO_PI):
    """Read a field dump written by :func:`write_field_bin`.

    When ``grid`` is given its layout must match the header and its spatial
    period is kept; otherwise a grid with the default period is built from
    the header. Returns a :class:`ScalarField` or :class:`SpaceField`
    depending on the payload length, which is the format's only field-kind
    tag: a spacetime dump truncated to exactly ``24 + 8 N^d`` bytes reads
    back as a :class:`SpaceField` holding its first time layer.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    header_bytes = 3 * _BIN_HEADER_DTYPE.itemsize
    if len(raw) < header_bytes:
        raise ValueError(f"field dump {path} is truncated: no header")
    dim, n, nt = (int(v) for v in np.frombuffer(raw[:header_bytes], dtype=_BIN_HEADER_DTYPE))
    if grid is not None:
        if (grid.spatial_dim, grid.nodes_per_axis, grid.time_nodes) != (dim, n, nt):
            raise ValueError(
                f"field dump layout (dim={dim}, n={n}, nt={nt}) does not match grid "
                f"(dim={grid.spatial_dim}, n={grid.nodes_per_axis}, nt={grid.time_nodes})"
            )
        target = grid
    else:
        target = GridSpec(dim, n, nt, spatial_period)
    payload = np.frombuffer(raw[header_bytes:], dtype=_BIN_VALUE_DTYPE)
    nsp = target.num_spatial
    if payload.size == nt * nsp:
        return ScalarField(target, payload.reshape(target.field_shape).copy())
    if payload.size == nsp:
        return SpaceField(target, payload.reshape(target.spatial_shape).copy())
    raise ValueError(
        f"field dump payload has {payload.size} values, expected {nt * nsp} (scalar) or {nsp} (space)"
    )
