"""Space-time lattices on flat tori and the discrete operators living on them.

The computational domain is T^d x [0, 1] with d = 1 or 2. Spatial axes are
periodic with a common period and node count, so every spatial stencil wraps
around; :func:`_wrap_neighbours` supplies the neighbours of Q and of its
linearization alike. The time axis is an ordinary closed interval:
layer 0 and layer Nt-1 hold Dirichlet data and are never differentiated
across.

Every stencil here takes a plain array and acts on its trailing
``spatial_dim`` axes; t, when present, is the leading axis. So
:func:`laplacian` and :func:`gradient` serve a space slice and a spacetime
array alike, and :func:`d_t` differences along axis 0.

Fields come in two flavours, which differ only in that leading axis. A
:class:`ScalarField` stores one value per space-time node, shape ``(Nt, N)``
or ``(Nt, N, N)``. A :class:`SpaceField` stores one value per spatial node
only and is used for boundary data and for time-independent coefficients.
Both share one body: shape and finiteness checks, ``sample`` and the readers
:func:`read_field_csv` and :func:`read_field_bin`, which take the kind.

Centered time differences have no values on the two boundary layers.
:func:`d_tt_interior` and :func:`d_t_interior` return the interior layers
only, shape ``(Nt - 2, ...)``. :func:`d_t` returns a full-shape array whose
boundary layers hold second-order one-sided differences. Interior arrays
that must be stored as fields are padded with :func:`_pad_edge`, which copies
the adjacent interior layer, so every stored value is finite and global
extrema agree with interior extrema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .symcone import _write_17g

TWO_PI = 2.0 * np.pi

_BIN_HEADER_DTYPE = np.dtype("<i8")
_BIN_VALUE_DTYPE = np.dtype("<f8")


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


@dataclass
class _Field:
    """Values on the lattice; ``timed`` says whether axis 0 is t, the spatial axes trail."""

    timed: ClassVar[bool]
    grid: GridSpec
    values: np.ndarray

    @classmethod
    def shape(cls, grid: GridSpec) -> tuple[int, ...]:
        return grid.field_shape if cls.timed else grid.spatial_shape

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        kind, shape = type(self).__name__, self.shape(self.grid)
        if arr.shape != shape:
            raise ValueError(f"{kind} values must have shape {shape}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"{kind} contains a non-finite value at node {tuple(int(i) for i in bad)}")
        self.values = arr

    @classmethod
    def sample(cls, grid: GridSpec, fn):
        """Sample ``fn([t,] x[, y])`` on the field's coordinate meshes."""
        meshes = grid.field_meshes() if cls.timed else grid.spatial_meshes()
        values = np.asarray(fn(*meshes), dtype=float)
        return cls(grid, np.broadcast_to(values, cls.shape(grid)).copy())


class ScalarField(_Field):
    """One real value per space-time node, shape ``(Nt,) + spatial_shape``."""

    timed = True


class SpaceField(_Field):
    """One real value per spatial node, shape ``spatial_shape``."""

    timed = False


def _wrap_neighbours(vals: np.ndarray, dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Wrap-around (plus, minus) neighbour views of ``vals`` along each of its trailing ``dim`` axes.

    ``vals`` is copied once into an array with one periodic ghost node on
    both ends of each of those axes; every view has the shape of ``vals``.
    """
    lead = vals.ndim - dim
    padded = np.empty(vals.shape[:lead] + tuple(n + 2 for n in vals.shape[lead:]), dtype=vals.dtype)
    inner = slice(1, -1)
    padded[(...,) + (inner,) * dim] = vals
    views = []
    for ax in range(dim):
        before, after = (...,) + (inner,) * ax, (inner,) * (dim - 1 - ax)
        padded[before + (0,) + after] = padded[before + (-2,) + after]
        padded[before + (-1,) + after] = padded[before + (1,) + after]
        views.append((padded[before + (slice(2, None),) + after], padded[before + (slice(None, -2),) + after]))
    return views


def laplacian(vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Periodic second-difference Laplacian over the trailing ``spatial_dim`` axes of ``vals``.

    Each spatial axis contributes the standard three-point stencil
    ``(v[i+1] - 2 v[i] + v[i-1]) / hx**2`` with wrap-around indexing.
    """
    out = np.zeros_like(vals)
    for plus, minus in _wrap_neighbours(vals, grid.spatial_dim):
        out += plus - 2.0 * vals + minus
    return out / (grid.hx * grid.hx)


def gradient(vals: np.ndarray, grid: GridSpec) -> list[np.ndarray]:
    """Periodic centered gradient over the trailing ``spatial_dim`` axes, one array per axis."""
    return [(plus - minus) / (2.0 * grid.hx) for plus, minus in _wrap_neighbours(vals, grid.spatial_dim)]


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


def d_t(vals: np.ndarray, ht: float) -> np.ndarray:
    """First time difference along axis 0, centered inside, second-order one-sided on the boundary layers.

    Layer 0 uses ``(-3 v[0] + 4 v[1] - v[2]) / (2 ht)`` and layer Nt-1 its
    mirror image, so the operator is exact on quadratics in t everywhere.
    """
    out = np.empty_like(vals)
    out[1:-1] = d_t_interior(vals, ht)
    out[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * ht)
    out[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * ht)
    return out


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
# flattened in row-major order, each value as C "%.17g" (full float64 precision).
#
# Binary: header of three little-endian int64 (spatial_dim, nodes_per_axis,
# time_nodes) followed by the values as little-endian float64 in row-major
# order: Nt * N^d for a ScalarField, N^d for a SpaceField.
#
# Neither format tags the kind of field; both readers take it, and the grid,
# from the caller, and refuse a dump whose layout does not match them.
# ---------------------------------------------------------------------------


def write_field_csv(field, path) -> None:
    rows = field.values.reshape(-1, field.grid.num_spatial)
    with open(path, "wb") as fh:
        _write_17g(fh, rows.T)


def read_field_csv(path, kind: type[_Field], grid: GridSpec):
    """Read a dump written by :func:`write_field_csv` as a ``kind`` field on ``grid``."""
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    expected = (grid.time_nodes if kind.timed else 1, grid.num_spatial)
    if rows.shape != expected:
        raise ValueError(f"CSV layout {rows.shape} does not match grid layout {expected}")
    return kind(grid, rows.reshape(kind.shape(grid)))


def write_field_bin(field, path) -> None:
    grid = field.grid
    header = np.array([grid.spatial_dim, grid.nodes_per_axis, grid.time_nodes], dtype=_BIN_HEADER_DTYPE)
    payload = np.ascontiguousarray(field.values, dtype=float).ravel().astype(_BIN_VALUE_DTYPE)
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(payload.tobytes())


def read_field_bin(path, kind: type[_Field], grid: GridSpec):
    """Read a dump written by :func:`write_field_bin` as a ``kind`` field on ``grid``.

    The header must match the layout of ``grid`` and the payload must hold
    exactly the values of a ``kind`` field; anything else raises.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    header_bytes = 3 * _BIN_HEADER_DTYPE.itemsize
    if len(raw) < header_bytes:
        raise ValueError(f"field dump {path} is truncated: no header")
    dim, n, nt = (int(v) for v in np.frombuffer(raw[:header_bytes], dtype=_BIN_HEADER_DTYPE))
    if (grid.spatial_dim, grid.nodes_per_axis, grid.time_nodes) != (dim, n, nt):
        raise ValueError(
            f"field dump layout (dim={dim}, n={n}, nt={nt}) does not match grid "
            f"(dim={grid.spatial_dim}, n={grid.nodes_per_axis}, nt={grid.time_nodes})"
        )
    payload = np.frombuffer(raw[header_bytes:], dtype=_BIN_VALUE_DTYPE)
    shape = kind.shape(grid)
    if payload.size != np.prod(shape):
        raise ValueError(
            f"field dump payload has {payload.size} values, expected {np.prod(shape)} for a {kind.__name__}"
        )
    return kind(grid, payload.reshape(shape).copy())
