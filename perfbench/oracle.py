"""Independent checks of the program's outputs.

Nothing here imports torusgeo. The residual and the three cone margins are
recomputed from the written solution with this module's own file readers and
stencils (periodic padding and slicing), against fields the benchmark
evaluates itself.
"""

from __future__ import annotations

import math

import numpy as np

RESIDUAL_TOL = 1e-9
BOUNDARY_TOL = 1e-12


def read_field_bin(path: str, shape: tuple[int, ...]) -> np.ndarray:
    """Read the 24-byte int64 header (dim, n, nt) and the float64 payload."""
    with open(path, "rb") as fh:
        raw = fh.read()
    dim, n, nt = (int(v) for v in np.frombuffer(raw[:24], dtype="<i8"))
    if (nt,) + (n,) * dim != tuple(shape):
        raise ValueError(f"{path}: header (dim={dim}, n={n}, nt={nt}) does not match {shape}")
    return np.frombuffer(raw[24:], dtype="<f8").reshape(shape).copy()


def read_field_csv(path: str, shape: tuple[int, ...]) -> np.ndarray:
    """One time layer per row, spatial nodes flattened row-major."""
    return np.loadtxt(path, delimiter=",", ndmin=2).reshape(shape)


def _neighbours(v: np.ndarray, dim: int):
    """(plus, minus) periodic neighbours of v along each of its last ``dim`` axes."""
    lead = v.ndim - dim
    padded = np.pad(v, [(0, 0)] * lead + [(1, 1)] * dim, mode="wrap")
    core = [slice(None)] * lead + [slice(1, -1)] * dim
    for ax in range(lead, v.ndim):
        plus, minus = list(core), list(core)
        plus[ax] = slice(2, None)
        minus[ax] = slice(None, -2)
        yield padded[tuple(plus)], padded[tuple(minus)]


def cone_margins(u: np.ndarray, a: np.ndarray, b: float, hx: float, ht: float):
    """(u_tt, B_u, Q(u)): u_tt and Q on interior layers, B_u on every layer."""
    dim = u.ndim - 1
    lap = np.zeros_like(u)
    grad_sq = np.zeros_like(u)
    for plus, minus in _neighbours(u, dim):
        lap += (plus - 2.0 * u + minus) / (hx * hx)
        grad_sq += ((plus - minus) / (2.0 * hx)) ** 2
    b_u = lap - b * grad_sq + a
    utt = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (ht * ht)
    ut = (u[2:] - u[:-2]) / (2.0 * ht)
    grad_ut_sq = np.zeros_like(ut)
    for plus, minus in _neighbours(ut, dim):
        grad_ut_sq += ((plus - minus) / (2.0 * hx)) ** 2
    return utt, b_u, utt * b_u[1:-1] - grad_ut_sq


def check_solution(u: np.ndarray, fields: dict, b: float, target: np.ndarray, time_nodes: int) -> list[str]:
    """Failures of u as a solution of Q(u) = target with data ``fields``.

    ``fields`` holds space-only arrays a, u0 and u1 on a 2*pi-periodic grid;
    ``target`` is a space-only right-hand side. Requires finite values, the
    Dirichlet layers, all three cone margins positive and a residual sup of at
    most 1e-9 * max(1, sup target).
    """
    if u.shape[0] != time_nodes or not np.all(np.isfinite(u)):
        return [f"solution has shape {u.shape} or non-finite values"]
    fails = []
    scale = max(1.0, float(np.max(np.abs(u))))
    for layer, name in ((0, "u0"), (-1, "u1")):
        defect = float(np.max(np.abs(u[layer] - fields[name])))
        if defect > BOUNDARY_TOL * scale:
            fails.append(f"boundary layer {name} off by {defect!r}")
    hx = 2.0 * math.pi / u.shape[1]
    ht = 1.0 / (time_nodes - 1)
    utt, b_u, q = cone_margins(u, fields["a"], b, hx, ht)
    for name, values in (("u_tt", utt), ("B", b_u), ("Q", q)):
        low = float(np.min(values))
        if not low > 0.0:
            fails.append(f"cone margin {name} not positive: min {low!r}")
    res = float(np.max(np.abs(q - target)))
    tol = RESIDUAL_TOL * max(1.0, float(np.max(target)))
    if not res <= tol:
        fails.append(f"residual sup {res!r} exceeds {tol!r}")
    return fails


def read_summary(path: str) -> dict[str, str]:
    """``key = value`` lines of a summary.txt."""
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.partition("=")
            if sep:
                out[key.strip()] = value.strip()
    return out


def expect(summary: dict[str, str], wanted: dict[str, str]) -> list[str]:
    return [
        f"summary {key} = {summary.get(key)!r}, expected {value!r}"
        for key, value in wanted.items()
        if summary.get(key) != value
    ]


def trace_alphas(text: str) -> list[float]:
    """The ``alpha`` column of a trace.csv."""
    lines = text.splitlines()
    col = lines[0].split(",").index("alpha")
    return [float(line.split(",")[col]) for line in lines[1:] if line]


def backtracks(alphas) -> int:
    """Step halvings behind accepted steps: sum of log2(1/alpha) over alpha > 0.

    Rows with alpha = 0 open a Newton run and took no step.
    """
    return sum(round(-math.log2(a)) for a in alphas if a > 0.0)


def count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")
