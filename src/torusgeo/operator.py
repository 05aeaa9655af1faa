"""The nonlinear operator, its linearization, and cone admissibility.

The equation solved by this package is

    Q(u) := u_tt * B_u - |grad u_t|^2 = f,      B_u := lap u - b |grad u|^2 + a(x),

for a scalar field u on T^d x [0, 1] with Dirichlet data at t = 0 and t = 1.
A field is admissible when u_tt > 0, B_u > 0 and Q(u) > 0 at every node;
these three margins are exactly the quantities the damped Newton iteration
keeps positive.

The linearization of Q at u acting on a perturbation h is

    dQ(h) = u_tt * (lap h - 2 b <grad u, grad h>) + B_u * h_tt - 2 <grad h_t, grad u_t>,

applied here matrix-free as a space-time stencil whose weights are cached
per Newton step. Newton corrections solve dQ(h) = g on the interior nodes by
restarted GMRES (modified Gram-Schmidt, Givens rotations; Saad and Schultz
1986), written out here in numpy and left-preconditioned by the same stencil
with each weight averaged over its time layer: FFT in space turns that
operator into one tridiagonal system in t per Fourier mode, solved by a
batched Thomas sweep. The caller picks the relative tolerance of each solve;
the Newton iteration passes its forcing term, so early corrections are only
solved as far as the nonlinear residual warrants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import (
    GridSpec,
    ScalarField,
    SpaceField,
    _grad_arrays,
    _lap_array,
    _pad_edge,
    argmax_node,
    argmin_node,
    d_tt_interior,
    full_node,
    grad_sq,
    grad_t_interior,
)


class InvalidProblem(ValueError):
    """Raised when problem data violates a structural requirement.

    Carries ``node``, the offending lattice node, when one exists.
    """

    def __init__(self, message: str, node: tuple | None = None):
        super().__init__(message)
        self.node = node


def _space_b_values(w: np.ndarray, a: np.ndarray, b: float, grid: GridSpec) -> np.ndarray:
    """B of a single time slice: lap w - b |grad w|^2 + a; data out of float range give inf or nan."""
    axes = tuple(range(grid.spatial_dim))
    with np.errstate(over="ignore", invalid="ignore"):
        lap = _lap_array(w, axes, grid.hx)
        return lap - b * grad_sq(_grad_arrays(w, axes, grid.hx)) + a


@dataclass
class ProblemSpec:
    """Problem data: coefficients, right-hand side and Dirichlet layers.

    Invariants checked on construction:

    * ``a > 0`` at every spatial node,
    * ``b >= 0`` and finite,
    * ``f >= 0`` at every node (strict positivity is recorded, not required),
    * both Dirichlet layers satisfy ``lap w - b |grad w|^2 + a > 0``, i.e.
      they belong to the discrete membrane of admissible slices.
    """

    grid: GridSpec
    a: SpaceField
    b: float
    f: ScalarField
    u0: SpaceField
    u1: SpaceField

    def __post_init__(self) -> None:
        for name, fld, kind in (
            ("a", self.a, SpaceField),
            ("f", self.f, ScalarField),
            ("u0", self.u0, SpaceField),
            ("u1", self.u1, SpaceField),
        ):
            if not isinstance(fld, kind):
                raise InvalidProblem(f"{name} must be a {kind.__name__}")
            if fld.grid != self.grid:
                raise InvalidProblem(f"{name} lives on a different grid than the problem")
        self.b = float(self.b)
        if not np.isfinite(self.b) or self.b < 0.0:
            raise InvalidProblem(f"b must be finite and nonnegative, got {self.b}")
        if np.min(self.a.values) <= 0.0:
            node = argmin_node(self.a.values)
            raise InvalidProblem(
                f"a must be positive everywhere; a={float(self.a.values[node])!r} at node {node}", node
            )
        if np.min(self.f.values) < 0.0:
            node = argmin_node(self.f.values)
            raise InvalidProblem(
                f"f must be nonnegative everywhere; f={float(self.f.values[node])!r} at node {node}", node
            )
        for name, w in (("u0", self.u0), ("u1", self.u1)):
            bvals = _space_b_values(w.values, self.a.values, self.b, self.grid)
            if not np.min(bvals) > 0.0:  # nan included
                node = argmin_node(bvals)
                raise InvalidProblem(
                    f"{name} is not an admissible slice: lap {name} - b|grad {name}|^2 + a = "
                    f"{float(bvals[node])!r} at node {node}",
                    node,
                )
            b_max = float(np.max(bvals))
            if math.isinf(2.0 * b_max / self.grid.ht**2):  # -2 B / ht^2 is in the linearization
                node = argmax_node(bvals)
                raise InvalidProblem(
                    f"{name} is out of float range: 2 B / ht^2 overflows at B = {b_max!r}, node {node}", node
                )

    @property
    def nondegenerate(self) -> bool:
        """True when f is strictly positive at every node."""
        return bool(np.min(self.f.values) > 0.0)

    def boundary_b(self, which: str) -> np.ndarray:
        """B values of one Dirichlet slice ('u0' or 'u1')."""
        w = self.u0 if which == "u0" else self.u1
        return _space_b_values(w.values, self.a.values, self.b, self.grid)


@dataclass
class ConeData:
    """Per-node quantities entering the operator, cached for reuse.

    All interior arrays have shape ``(Nt - 2,) + spatial_shape``; ``b_full``
    covers every time layer. ``grad_u`` holds the spatial gradient of u at
    the interior layers, ``grad_ut`` the mixed derivatives there.
    """

    utt: np.ndarray
    b_full: np.ndarray
    grad_u: list
    grad_ut: list
    q: np.ndarray

    @property
    def b_interior(self) -> np.ndarray:
        return self.b_full[1:-1]


def cone_quantities(u_values: np.ndarray, spec: ProblemSpec) -> ConeData:
    """Compute u_tt, B_u, grad u, grad u_t and Q for a full-shape value array."""
    grid = spec.grid
    axes = tuple(range(1, 1 + grid.spatial_dim))
    lap = _lap_array(u_values, axes, grid.hx)
    grads = _grad_arrays(u_values, axes, grid.hx)
    b_full = lap - spec.b * grad_sq(grads) + spec.a.values
    utt = d_tt_interior(u_values, grid.ht)
    grad_ut = grad_t_interior(u_values, grid)
    q = utt * b_full[1:-1]
    for g in grad_ut:
        q -= g * g
    return ConeData(
        utt=utt,
        b_full=b_full,
        grad_u=[g[1:-1] for g in grads],
        grad_ut=grad_ut,
        q=q,
    )


def compute_B(u: ScalarField, spec: ProblemSpec) -> ScalarField:
    """B_u = lap u - b |grad u|^2 + a, defined on every time layer."""
    cone = cone_quantities(u.values, spec)
    return ScalarField(spec.grid, cone.b_full)


def apply_Q(u: ScalarField, spec: ProblemSpec) -> ScalarField:
    """Q(u) on the interior layers, returned edge-padded to full shape."""
    cone = cone_quantities(u.values, spec)
    return ScalarField(spec.grid, _pad_edge(cone.q))


@dataclass
class AdmissibilityReport:
    """Pointwise minima of the three cone margins with their locations.

    ``min_utt`` and ``min_q`` are taken over interior layers (layer indices
    refer to the full time axis); ``min_b`` is taken over every layer since
    B is defined on the Dirichlet layers too.
    """

    min_utt: float
    loc_utt: tuple
    min_b: float
    loc_b: tuple
    min_q: float
    loc_q: tuple
    admissible: bool

    @classmethod
    def from_cone(cls, cone: ConeData) -> "AdmissibilityReport":
        iu = argmin_node(cone.utt)
        ib = argmin_node(cone.b_full)
        iq = argmin_node(cone.q)
        min_utt = float(cone.utt[iu])
        min_b = float(cone.b_full[ib])
        min_q = float(cone.q[iq])
        return cls(
            min_utt=min_utt,
            loc_utt=full_node(iu),
            min_b=min_b,
            loc_b=ib,
            min_q=min_q,
            loc_q=full_node(iq),
            admissible=bool(min_utt > 0.0 and min_b > 0.0 and min_q > 0.0),
        )

    @property
    def mins(self) -> tuple[float, float, float]:
        return (self.min_utt, self.min_b, self.min_q)

    def worst(self) -> tuple[str, tuple, float]:
        """(name, node, value) of the smallest of the three margins."""
        margins = (("u_tt", self.loc_utt, self.min_utt), ("B", self.loc_b, self.min_b), ("Q", self.loc_q, self.min_q))
        return min(margins, key=lambda m: m[2])


# ---------------------------------------------------------------------------
# Matrix-free linearization and its preconditioned Krylov solve.
# ---------------------------------------------------------------------------

# GMRES_RTOL is the default relative tolerance of a solve and the floor of the
# Newton forcing term. GMRES restarts every GMRES_RESTART iterations for at most
# GMRES_MAXITER cycles; an answer whose true residual exceeds the requested
# tolerance is rejected.
GMRES_RTOL = 1e-12
GMRES_RESTART = 40
GMRES_MAXITER = 5


class LinearSolveError(RuntimeError):
    """The Krylov solve of the linearization failed or returned a bad answer."""


def _finite(norm) -> float:
    """``norm`` as a float; a nan or inf raises :class:`LinearSolveError`."""
    norm = float(norm)
    if not math.isfinite(norm):
        raise LinearSolveError("linear solve produced non-finite values")
    return norm


def _wrap_pad(vals: np.ndarray, dim: int) -> np.ndarray:
    """Copy of ``vals`` with one periodic ghost node on both ends of each spatial axis."""
    padded = np.empty((vals.shape[0],) + tuple(n + 2 for n in vals.shape[1:]))
    padded[(slice(None),) + (slice(1, -1),) * dim] = vals
    for ax in range(1, dim + 1):
        lead = (slice(None),) * ax
        padded[lead + (0,)] = padded[lead + (-2,)]
        padded[lead + (-1,)] = padded[lead + (1,)]
    return padded


def _shifted(padded: np.ndarray, dim: int, ax: int, offset: int) -> np.ndarray:
    """View of a padded array at spatial offset ``offset`` along axis ``ax``."""
    index = [slice(None)] + [slice(1, -1)] * dim
    index[ax] = slice(1 + offset, padded.shape[ax] - 1 + offset)
    return padded[tuple(index)]


@dataclass
class LinearSystem:
    """Matrix-free linearization of Q at a fixed field, with its preconditioner.

    The stencil weights live on the interior layers: ``center`` on the node,
    ``tcoef`` = B_u / ht^2 on both time neighbors, and per spatial axis a the
    triple ``spatial[a]`` = (weight on the +1 neighbor, on the -1 neighbor,
    u_{x_a t} / (2 hx ht) on the (t, x_a) corners). ``apply`` evaluates the
    stencil on a full-shape field, Dirichlet layers included.
    ``solve_interior`` runs GMRES on the time-major interior unknowns,
    preconditioned by the stencil with each weight averaged over its layer;
    ``thomas`` holds that operator's per-Fourier-mode tridiagonal factors.
    ``iterations`` counts GMRES iterations of the latest solve.
    """

    grid: GridSpec
    center: np.ndarray
    tcoef: np.ndarray
    spatial: list
    thomas: tuple
    iterations: int = 0

    def _action(self, vals: np.ndarray) -> np.ndarray:
        dim = self.grid.spatial_dim
        padded = _wrap_pad(vals, dim)
        inner = padded[1:-1]
        dt = padded[2:] - padded[:-2]
        out = self.center * vals[1:-1] + self.tcoef * (vals[2:] + vals[:-2])
        for ax, (plus, minus, mixed) in enumerate(self.spatial, start=1):
            out += plus * _shifted(inner, dim, ax, 1)
            out += minus * _shifted(inner, dim, ax, -1)
            out -= mixed * (_shifted(dt, dim, ax, 1) - _shifted(dt, dim, ax, -1))
        return out

    @np.errstate(over="ignore", invalid="ignore")
    def apply(self, h) -> np.ndarray:
        """Stencil action on a full-shape field, returned as interior layers; overflow gives inf or nan."""
        vals = h.values if hasattr(h, "values") else np.asarray(h, dtype=float)
        if vals.shape != self.grid.field_shape:
            raise ValueError(f"expected full field shape {self.grid.field_shape}, got {vals.shape}")
        return self._action(vals)

    def _embed(self, x: np.ndarray) -> np.ndarray:
        full = np.zeros(self.grid.field_shape)
        full[1:-1] = x.reshape(full[1:-1].shape)
        return full

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        grid = self.grid
        axes = tuple(range(1, 1 + grid.spatial_dim))
        lower, upper_ratio, inv_pivot = self.thomas
        y = np.fft.rfftn(r.reshape((grid.interior_layers,) + grid.spatial_shape), axes=axes)
        y[0] *= inv_pivot[0]
        for k in range(1, y.shape[0]):
            y[k] = (y[k] - lower[k] * y[k - 1]) * inv_pivot[k]
        for k in range(y.shape[0] - 2, -1, -1):
            y[k] -= upper_ratio[k] * y[k + 1]
        return np.fft.irfftn(y, s=grid.spatial_shape, axes=axes).ravel()

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")  # checked: see _finite
    def _gmres(self, b: np.ndarray, rtol: float) -> tuple[np.ndarray, float]:
        """Restarted GMRES from x = 0, left-preconditioned; returns x and its true residual norm.

        A cycle ends on breakdown or once the preconditioned residual estimate
        reaches ``ptol`` (rtol ||M b||, refreshed per cycle as in scipy's
        ``gmres``); restarts end once the true residual reaches rtol ||b||.
        A cycle restarts from the preconditioned residual of the Arnoldi relation.
        A non-finite ||b||, ||M r|| or Krylov vector norm (non-finite data, a
        singular preconditioner pivot, overflow) raises at once.
        """
        x = np.zeros_like(b)
        self.iterations = 0
        bnorm = _finite(np.linalg.norm(b))
        if bnorm == 0.0:
            return x, 0.0
        atol, eps, m = rtol * bnorm, np.finfo(float).eps, min(GMRES_RESTART, b.size)
        basis, tri = np.empty((m + 1, b.size)), np.zeros((m, m))
        z = self._precondition(b)
        beta = _finite(np.linalg.norm(z))
        ptol, factor = beta * rtol, 1.0
        for _ in range(GMRES_MAXITER):
            basis[0] = z * (1.0 / beta)
            s_vec, rotations = [beta], []
            for col in range(m):
                w = self._precondition(self._action(self._embed(basis[col])).ravel())
                h0, hcol = _finite(np.linalg.norm(w)), []
                for k in range(col + 1):  # modified Gram-Schmidt
                    hcol.append(basis[k] @ w)
                    w -= hcol[k] * basis[k]
                h1 = np.linalg.norm(w)
                breakdown = h1 <= eps * h0  # exact solution in the current basis
                basis[col + 1] = w if breakdown else w * (1.0 / h1)
                hcol.append(0.0 if breakdown else h1)
                for k, (c, s) in enumerate(rotations):
                    hcol[k], hcol[k + 1] = c * hcol[k] + s * hcol[k + 1], c * hcol[k + 1] - s * hcol[k]
                f, g = hcol[col], hcol[col + 1]
                r = math.copysign(math.hypot(f, g), f) if g else f
                c, s = (abs(f) / abs(r), g / r) if g else (1.0, 0.0)
                rotations.append((c, s))
                tri[: col + 1, col] = hcol[:col] + [r]
                s_vec[col:] = [c * s_vec[col], -s * s_vec[col]]
                presid = abs(s_vec[-1])
                self.iterations += 1
                if presid <= ptol or breakdown:
                    break
            y = np.array(s_vec[:-1])
            for k in range(col, -1, -1):  # back substitution; a zero pivot (breakdown) drops its term
                y[k] = y[k] / tri[k, k] if tri[k, k] else 0.0
                y[:k] -= y[k] * tri[:k, k]
            x += y @ basis[: col + 1]
            rnorm = _finite(np.linalg.norm(b - self._action(self._embed(x)).ravel()))
            if rnorm <= atol or breakdown:
                break
            factor = max(eps, 0.25 * factor) if presid <= ptol else min(1.0, 1.5 * factor)
            ptol = presid * min(factor, atol / rnorm)
            # The preconditioned residual is the last unit vector rotated back into the basis.
            resid = np.zeros(col + 2)
            resid[-1] = s_vec[-1]
            for k, (c, s) in reversed(list(enumerate(rotations))):
                resid[k : k + 2] = c * resid[k] - s * resid[k + 1], s * resid[k] + c * resid[k + 1]
            z = resid @ basis[: col + 2]
            beta = _finite(np.linalg.norm(z))
        return x, rnorm

    def solve_interior(self, g, rtol: float = GMRES_RTOL) -> np.ndarray:
        """Solve for the interior correction with zero Dirichlet layers.

        ``g`` is an interior-layer array; the answer is accepted once its true
        residual is at most ``rtol ||g||``. Returns a full-shape array whose
        boundary layers are zero. Raises :class:`LinearSolveError` when GMRES
        meets non-finite values or does not reach ``rtol``.
        """
        target = np.asarray(g, dtype=float).ravel()
        x, resid = self._gmres(target, rtol)
        if not np.all(np.isfinite(x)):
            raise LinearSolveError("linear solve produced non-finite values")
        if not resid <= rtol * np.linalg.norm(target):
            raise LinearSolveError(f"GMRES did not converge in {self.iterations} iterations")
        return self._embed(x)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def assemble_dQ(u: ScalarField, spec: ProblemSpec, cone: ConeData | None = None) -> LinearSystem:
    """Linearization of Q at u: stencil weights and preconditioner factors, no matrix.

    The weights come from ``cone`` (computed from u when not given). Data
    near the top of the float range give non-finite weights or pivots without
    a warning; ``solve_interior`` then raises a LinearSolveError.
    """
    grid = spec.grid
    if cone is None:
        cone = cone_quantities(u.values, spec)
    hx, ht, dim = grid.hx, grid.ht, grid.spatial_dim

    tcoef = cone.b_interior / (ht * ht)
    center = (-2.0 * dim / (hx * hx)) * cone.utt - 2.0 * tcoef
    base = cone.utt / (hx * hx)
    spatial = []
    for g, gt in zip(cone.grad_u, cone.grad_ut):
        drift = (spec.b / hx) * cone.utt * g
        spatial.append((base - drift, base + drift, gt / (2.0 * hx * ht)))

    # Symbol of the layer-averaged stencil at every rfft mode: a shift by
    # +1 along axis a multiplies a mode by exp(i theta_a).
    axes = tuple(range(1, 1 + dim))

    def layer_mean(w: np.ndarray) -> np.ndarray:
        return w.mean(axis=axes).reshape((-1,) + (1,) * dim)

    n = grid.nodes_per_axis
    thetas = [2.0 * np.pi * np.fft.fftfreq(n)] * (dim - 1) + [2.0 * np.pi * np.fft.rfftfreq(n)]
    diag = layer_mean(center) + 0j
    skew = 0j
    for theta, (plus, minus, mixed) in zip(np.meshgrid(*thetas, indexing="ij"), spatial):
        diag = diag + layer_mean(plus) * np.exp(1j * theta) + layer_mean(minus) * np.exp(-1j * theta)
        skew = skew + 2j * layer_mean(mixed) * np.sin(theta)
    lower = layer_mean(tcoef) + skew
    upper = layer_mean(tcoef) - skew

    # Thomas factorization, batched over modes.
    inv_pivot = np.empty(diag.shape, dtype=complex)
    upper_ratio = np.empty(diag.shape, dtype=complex)
    inv_pivot[0] = 1.0 / diag[0]
    for k in range(1, diag.shape[0]):
        upper_ratio[k - 1] = upper[k - 1] * inv_pivot[k - 1]
        inv_pivot[k] = 1.0 / (diag[k] - lower[k] * upper_ratio[k - 1])
    return LinearSystem(grid, center, tcoef, spatial, (lower, upper_ratio, inv_pivot))
