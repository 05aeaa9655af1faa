"""Space-time lattices on flat tori and the discrete operators living on them.

The computational domain is T^d x [0, 1] with T = R / 2 pi Z and d = 1 or 2.
Spatial axes are periodic with period 2 pi and a common node count, so every
spatial stencil wraps around; :func:`_wrap_neighbours` supplies the
neighbours of Q and of its linearization alike. The time axis is an ordinary
closed interval: layer 0 and layer Nt-1 hold Dirichlet data and are never
differentiated across.

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

TWO_PI = 2.0 * np.pi

_BIN_HEADER_DTYPE = np.dtype("<i8")
_BIN_VALUE_DTYPE = np.dtype("<f8")


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice on T^d x [0, 1], every spatial axis of period 2 pi.

    Parameters
    ----------
    spatial_dim
        Number of spatial axes, 1 or 2.
    nodes_per_axis
        Node count N per spatial axis, at least 8. The spatial mesh width is
        ``2 pi / N`` because node N would coincide with node 0.
    time_nodes
        Node count Nt on the time axis including both boundary layers, at
        least 5. The time step is ``1 / (Nt - 1)``.
    """

    spatial_dim: int
    nodes_per_axis: int
    time_nodes: int

    def __post_init__(self) -> None:
        if self.spatial_dim not in (1, 2):
            raise ValueError(f"spatial_dim must be 1 or 2, got {self.spatial_dim}")
        if int(self.nodes_per_axis) != self.nodes_per_axis or self.nodes_per_axis < 8:
            raise ValueError(f"nodes_per_axis must be an integer >= 8, got {self.nodes_per_axis}")
        if int(self.time_nodes) != self.time_nodes or self.time_nodes < 5:
            raise ValueError(f"time_nodes must be an integer >= 5, got {self.time_nodes}")

    @property
    def hx(self) -> float:
        return TWO_PI / self.nodes_per_axis

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


def _wrap_neighbours(
    vals: np.ndarray, dim: int, padded: np.ndarray | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Wrap-around (plus, minus) neighbour views of ``vals`` along each of its trailing ``dim`` axes.

    ``vals`` is copied once into an array with one periodic ghost node on
    both ends of each of those axes, ``padded`` when given (a caller's work
    array of that shape), a new one otherwise; every view has the shape of
    ``vals``.
    """
    lead = vals.ndim - dim
    if padded is None:
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


def laplacian(vals: np.ndarray, grid: GridSpec, neighbours: list | None = None) -> np.ndarray:
    """Periodic second-difference Laplacian over the trailing ``spatial_dim`` axes of ``vals``.

    Each spatial axis contributes the standard three-point stencil
    ``(v[i+1] - 2 v[i] + v[i-1]) / hx**2`` with wrap-around indexing.
    ``neighbours``, the :func:`_wrap_neighbours` views of ``vals``, can be shared with :func:`gradient`.
    """
    out = np.zeros_like(vals)
    for plus, minus in neighbours or _wrap_neighbours(vals, grid.spatial_dim):
        out += plus - 2.0 * vals + minus
    return out / (grid.hx * grid.hx)


def gradient(vals: np.ndarray, grid: GridSpec, neighbours: list | None = None) -> list[np.ndarray]:
    """Periodic centered gradient over the trailing ``spatial_dim`` axes, one array per axis."""
    return [(plus - minus) / (2.0 * grid.hx) for plus, minus in neighbours or _wrap_neighbours(vals, grid.spatial_dim)]


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
#
# Every "%.17g" CSV of the package, these dumps and symcone's scan records, is
# written by one vectorized kernel, _write_17g, every line of it.
# ---------------------------------------------------------------------------


def _split(a: np.ndarray):
    """Veltkamp's split: hi + lo = a exactly, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _slot_table() -> np.ndarray:
    """Word-major (11, 714) masks of a value's slot, column (negative * 21 + X + 4) * 17 + trailing zeros of D.

    A slot is [,][-][0][T] (T the top digit of D), D's other 16 digits, [.] and three zero bytes, then
    D's zero-padded 20-digit block; the masks keep what "%.17g" prints.
    """
    x = np.arange(-4, 17)[:, None, None]
    pos = np.arange(20)  # digit j of D sits at block position 3 + j
    integer = np.where(x >= 0, (pos >= 3) & (pos <= 3 + x), pos == 2) | (pos == 0)  # with the separator
    fraction = (pos >= 4 + x) & (pos <= 19 - np.arange(17)[:, None])
    parts = (integer, fraction.any(axis=-1, keepdims=True), np.zeros(3, bool), fraction)
    keep = np.concatenate([np.broadcast_to(a, (2, 21, 17, a.shape[-1])) for a in parts], axis=-1)
    keep = keep * np.frombuffer(b"\xff" * 20 + b".\0\0\0" + b"\xff" * 20, np.uint8)
    keep[1, ..., 1] = ord("-")
    return np.ascontiguousarray(keep.view("<u4").reshape(-1, 11).T)


_RECORD_CHUNK = 4096  # rows of four values per chunk of the "%.17g" kernel; wider rows take fewer
# The "%.17g" kernel. From 1e-4 to 1e17, C "%.17g" prints D 10^(X - 16) in fixed
# notation (D the 17-digit correctly rounded significand, X the decimal exponent):
# a column of _SLOT_TABLE ANDed with D's ASCII digits; printf writes other values into their slots.
_DIGITS4 = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48).view("<u4").ravel()  # "0000"...
_TRAILING_ZEROS4 = np.count_nonzero(np.arange(10**4) % 10 ** np.arange(1, 5)[:, None] == 0, axis=0).astype(np.int8)
_SLOT_TABLE = _slot_table()
_POW10 = np.array([float(10**s) for s in range(21)])  # exact doubles
_POW10_HI, _POW10_LO = _split(_POW10)


def _significand(mag: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """mag * 10^(16 - exp) rounded half to even, exact where the result is at least 2^53.

    Dekker's two-product gives it as p + e exactly, p even and |e| <= ulp(p) / 2 there.
    """
    s = 16 - exp
    p = mag * _POW10[s]
    (ah, al), bh, bl = _split(mag), _POW10_HI[s], _POW10_LO[s]
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _fixed_17g(values: np.ndarray):
    """Slots (11, C, m) "<u4" of "," and "%.17g" for values (C, m), and where the kernel wrote them (else printf)."""
    mag = np.abs(values)
    ok = (mag >= 1e-4) & (mag < 1e17)
    mag = np.where(ok, mag, 1.0)
    exp = np.clip(np.floor(np.log10(mag)), -4, 16).astype(np.int64)
    digits = _significand(mag, exp)
    # log10 may be one off near a power of ten, and rounding may carry to 10^17:
    # recompute at the next exponent, never divide D by 10 (that rounds twice).
    step = (digits >= 10**17).astype(np.int64) - (digits < 10**16)
    if step.any():
        exp = np.clip(exp + step, -4, 16)
        digits = _significand(mag, exp)
        ok &= (digits >= 10**16) & (digits < 10**17)
    high, low = (digits % 10**16 // 10**8).astype(np.int32), (digits % 10**8).astype(np.int32)
    groups = np.stack([(digits // 10**16).astype(np.int32), high // 10**4, high % 10**4, low // 10**4, low % 10**4])
    zeros = _TRAILING_ZEROS4[groups[4]]
    for j in (3, 2, 1):  # where every later group is zero, this one's trailing zeros count too
        more = zeros == 16 - 4 * j
        zeros[more] += _TRAILING_ZEROS4[groups[j][more]]
    slots = _SLOT_TABLE.take(((values < 0) * 21 + exp + 4) * 17 + zeros, axis=1)
    block = _DIGITS4[groups]
    slots[0] &= (block[0] & 0xFFFF0000) | ord(",") | 0xFF00
    slots[1:5] &= block[1:]
    slots[6:] &= block
    if not ok.all():
        slots[:, ~ok] = np.char.mod(b",%.17g", values[~ok]).astype("S44").view("<u4").reshape(-1, 11).T
    return slots, ok


def _lead_words(index: np.ndarray, head: str) -> np.ndarray:
    """``"%d" % i + head`` per row i < 10^19 as (W, n) "<u4" words, zero-padded to the largest i's digit words."""
    shifts = 4 * np.arange(-(-len(str(index.max())) // 4))[::-1, None]
    shown = np.clip(np.searchsorted(10 ** np.arange(1, 19), index, side="right") + 1 - shifts, 0, 4)
    masks = (np.uint64(0xFFFFFFFF) << (32 - 8 * shown).astype(np.uint64)).astype("<u4")  # its last digits
    head_words = np.frombuffer((head + "\0" * (-len(head) % 4)).encode(), "<u4")[:, None]
    return np.concatenate([_DIGITS4[index // 10**shifts % 10**4] & masks, np.repeat(head_words, index.size, axis=1)])


def _write_17g(fh, columns: np.ndarray, head: str | None = None) -> None:
    """Write line i as ``"%.17g,...,%.17g\\n" % columns[:, i]`` for columns (C, N), led by ``"%d" % i + head`` if given.

    A chunk is built position-major, one vector over its lines per four bytes (:func:`_lead_words`,
    :func:`_fixed_17g` slots), transposed once, and its zero bytes dropped; one write per chunk.
    """
    n_cols, n_rows = columns.shape
    chunk = max(1, _RECORD_CHUNK * 4 // n_cols)
    for start in range(0, n_rows, chunk):
        slots = _fixed_17g(columns[:, start : start + chunk])[0]
        n = slots.shape[-1]
        words = [slots.transpose(1, 0, 2).reshape(-1, n), np.full((1, n), ord("\n"), "<u4")]
        words[0][0] &= 0xFFFFFF00  # no separator before the first value
        if head is not None:
            words.insert(0, _lead_words(np.arange(start, start + n), head))
        words = np.concatenate(words)
        fh.write(np.ascontiguousarray(words[words.any(axis=1)].T).tobytes().translate(None, b"\0"))


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
