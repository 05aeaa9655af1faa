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
1986), written out here in numpy and right-preconditioned by M^-1 D: M is the
stencil with each weight averaged over its time layer, one tridiagonal system
in t per Fourier mode after FFT in space, factored once per solve and applied
by a batched Thomas sweep; D rescales each row of M to the stencil's diagonal.
Right preconditioning makes the residual GMRES minimizes the true residual,
which is what the caller's relative tolerance bounds; the Newton iteration
passes its forcing term, so early corrections are only solved as far as the
nonlinear residual warrants. Every Krylov reduction runs in numpy's own
loops, not in BLAS, so results do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import (
    GridSpec,
    ScalarField,
    SpaceField,
    _pad_edge,
    _wrap_neighbours,
    argmax_node,
    argmin_node,
    d_t_interior,
    d_tt_interior,
    full_node,
    grad_sq,
    gradient,
    laplacian,
)


class InvalidProblem(ValueError):
    """Raised when problem data violates a structural requirement.

    Carries ``node``, the offending lattice node, when one exists.
    """

    def __init__(self, message: str, node: tuple | None = None):
        super().__init__(message)
        self.node = node


def _b_values(w: np.ndarray, spec: ProblemSpec) -> tuple[np.ndarray, list]:
    """(B, grad w) with B = lap w - b |grad w|^2 + a, for a slice or a full field.

    Data out of float range give inf or nan, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        neighbours = _wrap_neighbours(w, spec.grid.spatial_dim)
        grads = gradient(w, spec.grid, neighbours)
        return laplacian(w, spec.grid, neighbours) - spec.b * grad_sq(grads) + spec.a.values, grads


@dataclass
class ProblemSpec:
    """Problem data: coefficients, right-hand side and Dirichlet layers.

    Invariants checked on construction:

    * ``a > 0`` at every spatial node,
    * ``b >= 0`` and finite,
    * ``f >= 0`` at every node (f may vanish),
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
            bvals = _b_values(w.values, self)[0]
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


@dataclass
class ConeData:
    """Per-node quantities entering the operator, cached for reuse.

    All interior arrays have shape ``(Nt - 2,) + spatial_shape``; ``b_full``
    and ``grad_full``, the spatial gradient of u, cover every time layer.
    ``grad_u`` is that gradient at the interior layers, ``grad_ut`` the mixed
    derivatives there. The three
    cone margins are reported here: ``margins`` as arrays, ``mins`` and
    ``worst()`` as their minima, ``admissible`` as their sign.
    """

    utt: np.ndarray
    b_full: np.ndarray
    grad_full: list
    grad_ut: list
    q: np.ndarray

    @property
    def b_interior(self) -> np.ndarray:
        return self.b_full[1:-1]

    @property
    def grad_u(self) -> list:
        return [g[1:-1] for g in self.grad_full]

    @property
    def margins(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The interior arrays (u_tt, B, Q) that the fraction-to-boundary rule compares."""
        return (self.utt, self.b_interior, self.q)

    @property
    def mins(self) -> tuple[float, float, float]:
        """(min u_tt, min B, min Q): u_tt and Q over interior layers, B over every layer."""
        return tuple(float(np.min(m)) for m in (self.utt, self.b_full, self.q))

    @property
    def admissible(self) -> bool:
        """All three minima are positive; a nan minimum is not."""
        return all(m > 0.0 for m in self.mins)

    def worst(self) -> tuple[str, tuple, float]:
        """(name, full-axis node, value) of the smallest margin; ties go to u_tt, then B, then Q, nan first."""
        name, values = (("u_tt", self.utt), ("B", self.b_full), ("Q", self.q))[int(np.argmin(self.mins))]
        node = argmin_node(values)
        return name, node if name == "B" else full_node(node), float(values[node])


def cone_quantities(u_values: np.ndarray, spec: ProblemSpec) -> ConeData:
    """Compute u_tt, B_u, grad u, grad u_t and Q for a full-shape value array."""
    grid = spec.grid
    b_full, grads = _b_values(u_values, spec)
    utt = d_tt_interior(u_values, grid.ht)
    grad_ut = gradient(d_t_interior(u_values, grid.ht), grid)
    q = utt * b_full[1:-1]
    for g in grad_ut:
        q -= g * g
    return ConeData(utt=utt, b_full=b_full, grad_full=grads, grad_ut=grad_ut, q=q)


def compute_B(u: ScalarField, spec: ProblemSpec) -> ScalarField:
    """B_u = lap u - b |grad u|^2 + a, defined on every time layer."""
    return ScalarField(spec.grid, _b_values(u.values, spec)[0])


def apply_Q(u: ScalarField, spec: ProblemSpec) -> ScalarField:
    """Q(u) on the interior layers, returned edge-padded to full shape."""
    cone = cone_quantities(u.values, spec)
    return ScalarField(spec.grid, _pad_edge(cone.q))


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


def _norm(v: np.ndarray, scratch: np.ndarray | None = None) -> float:
    """2-norm from numpy's own summation loop, so the result does not depend on the BLAS thread count.

    The squares go to ``scratch`` (an array of ``v``'s shape) when given.
    """
    return math.sqrt(np.sum(np.multiply(v, v, out=scratch)))


def _finite(norm) -> float:
    """``norm`` as a float; a nan or inf raises :class:`LinearSolveError`."""
    norm = float(norm)
    if not math.isfinite(norm):
        raise LinearSolveError("linear solve produced non-finite values")
    return norm


@dataclass
class LinearSystem:
    """Matrix-free linearization of Q at a fixed field: the stencil weights and their action.

    The stencil weights live on the interior layers: ``center`` on the node,
    ``tcoef`` = B_u / ht^2 on both time neighbors, and per spatial axis a the
    triple ``spatial[a]`` = (weight on the +1 neighbor, on the -1 neighbor,
    u_{x_a t} / (2 hx ht) on the (t, x_a) corners). ``apply`` evaluates the
    stencil on a full-shape field, Dirichlet layers included.
    ``solve_interior`` runs GMRES on the time-major interior unknowns,
    right-preconditioned by :func:`_layer_mean_inverse` of these weights.
    ``iterations`` counts GMRES iterations of the latest solve.
    """

    grid: GridSpec
    center: np.ndarray
    tcoef: np.ndarray
    spatial: list
    iterations: int = 0
    # Work arrays of apply: the wrap-padded field and two interior-shape temporaries.
    _padded: np.ndarray = field(init=False, repr=False, compare=False)
    _scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nt, *spatial = self.grid.field_shape
        self._padded = np.empty((nt, *(n + 2 for n in spatial)))
        self._scratch = np.empty((2, nt - 2, *spatial))

    @np.errstate(over="ignore", invalid="ignore")
    def apply(self, h) -> np.ndarray:
        """Stencil action on a full-shape field, returned as interior layers; overflow gives inf or nan."""
        vals = np.asarray(h, dtype=float)
        if vals.shape != self.grid.field_shape:
            raise ValueError(f"expected full field shape {self.grid.field_shape}, got {vals.shape}")
        tmp, diff = self._scratch
        out = np.multiply(self.center, vals[1:-1])
        out += np.multiply(self.tcoef, np.add(vals[2:], vals[:-2], out=tmp), out=tmp)
        neighbours = _wrap_neighbours(vals, self.grid.spatial_dim, self._padded)
        for (w_plus, w_minus, mixed), (plus, minus) in zip(self.spatial, neighbours):
            out += np.multiply(w_plus, plus[1:-1], out=tmp)
            out += np.multiply(w_minus, minus[1:-1], out=tmp)
            # mixed * ((plus[2:] - plus[:-2]) - (minus[2:] - minus[:-2]))
            np.subtract(plus[2:], plus[:-2], out=tmp)
            tmp -= np.subtract(minus[2:], minus[:-2], out=diff)
            out -= np.multiply(mixed, tmp, out=tmp)
        return out

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")  # checked: see _finite
    def solve_interior(self, g, rtol: float = GMRES_RTOL) -> np.ndarray:
        """Solve for the interior correction with zero Dirichlet layers.

        ``g`` is an interior-layer array. Restarted GMRES from x = 0,
        right-preconditioned by M^-1, factored once per call: each iteration
        applies the stencil to M^-1 v, so the Givens residual estimate is the
        true residual ||g - A x||, and a cycle ends once it reaches rtol ||g||.
        A cycle adds M^-1 (V y) to x and the next one restarts from the true
        residual g - A x. Returns a full-shape array whose boundary layers are
        zero. Raises :class:`LinearSolveError` at once on a non-finite norm
        (non-finite data, a singular preconditioner pivot, overflow), and when
        ``GMRES_MAXITER`` cycles do not reach ``rtol``.
        """
        precondition = _layer_mean_inverse(self)
        b = np.asarray(g, dtype=float).ravel()
        x = np.zeros(self.grid.field_shape)
        self.iterations = 0
        beta = _finite(_norm(b))
        atol, eps, m = rtol * beta, np.finfo(float).eps, min(GMRES_RESTART, b.size)
        basis, tri, scratch = np.empty((m + 1, b.size)), np.zeros((m, m)), np.empty(b.size)
        basis[0] = b
        cycles = 0
        while beta > atol:
            if cycles == GMRES_MAXITER:
                raise LinearSolveError(f"GMRES did not converge in {self.iterations} iterations")
            cycles += 1
            basis[0] *= 1.0 / beta
            s_vec, rotations = [beta], []
            for col in range(m):
                w = self.apply(precondition(basis[col])).ravel()
                h0, hcol = _finite(_norm(w, scratch)), []
                for k in range(col + 1):  # modified Gram-Schmidt
                    hcol.append(float(np.sum(np.multiply(basis[k], w, out=scratch))))
                    w -= np.multiply(basis[k], hcol[k], out=scratch)
                h1 = _norm(w, scratch)
                breakdown = h1 <= eps * h0  # exact solution in the current basis: the estimate below is 0
                np.multiply(w, 1.0 if breakdown else 1.0 / h1, out=basis[col + 1])
                hcol.append(0.0 if breakdown else h1)
                for k, (c, s) in enumerate(rotations):
                    hcol[k], hcol[k + 1] = c * hcol[k] + s * hcol[k + 1], c * hcol[k + 1] - s * hcol[k]
                p, q = hcol[col], hcol[col + 1]
                r = math.copysign(math.hypot(p, q), p) if q else p
                c, s = (abs(p) / abs(r), q / r) if q else (1.0, 0.0)
                rotations.append((c, s))
                tri[: col + 1, col] = hcol[:col] + [r]
                s_vec[col:] = [c * s_vec[col], -s * s_vec[col]]
                self.iterations += 1
                if abs(s_vec[-1]) <= atol:
                    break
            y = np.array(s_vec[:-1])
            for k in range(col, -1, -1):  # back substitution; a zero pivot (breakdown) drops its term
                y[k] = y[k] / tri[k, k] if tri[k, k] else 0.0
                y[:k] -= y[k] * tri[:k, k]
            x += precondition(np.einsum("i,ij->j", y, basis[: col + 1]))
            np.subtract(b, self.apply(x).ravel(), out=basis[0])
            beta = _finite(_norm(basis[0], scratch))
        if not np.all(np.isfinite(x)):
            raise LinearSolveError("linear solve produced non-finite values")
        return x


def _layer_mean_inverse(ls: LinearSystem):
    """Factor M, the stencil of ``ls`` with each weight averaged over its layer, and return v -> M^-1 D v.

    FFT in space turns M into one tridiagonal system in t per Fourier mode,
    Thomas-factored here for all modes at once. D = layer_mean(center) /
    center rescales each row of M to the stencil's own diagonal, so M^-1 D
    inverts a stencil whose row weights are one positive factor times weights
    constant on their layer. The returned step maps a time-major interior
    vector v to M^-1 D v as a full-shape field with zero Dirichlet layers,
    written into one buffer that every call of the step reuses. A singular
    pivot or a zero center weight gives non-finite values.
    """
    grid = ls.grid
    dim, layers, shape = grid.spatial_dim, grid.interior_layers, grid.spatial_shape
    axes = tuple(range(1, 1 + dim))

    def layer_mean(w: np.ndarray) -> np.ndarray:
        return np.add.reduce(w, axis=axes, keepdims=True) / grid.num_spatial

    # Symbol of the layer-averaged stencil at every rfft mode.
    diag = layer_mean(ls.center) + 0j
    scale = diag.real / ls.center
    skew = 0j
    # A shift by +1 along axis a multiplies a mode by e^{i theta_a}.
    n = grid.nodes_per_axis
    thetas = [2.0 * np.pi * np.fft.fftfreq(n)] * (dim - 1) + [2.0 * np.pi * np.fft.rfftfreq(n)]
    for theta, (plus, minus, mixed) in zip(np.meshgrid(*thetas, indexing="ij", sparse=True), ls.spatial):
        diag = diag + layer_mean(plus) * np.exp(1j * theta) + layer_mean(minus) * np.exp(-1j * theta)
        skew = skew + layer_mean(mixed) * (2j * np.sin(theta))
    tcoef = layer_mean(ls.tcoef)
    lower, upper = tcoef + skew, tcoef - skew

    inv_pivot, upper_ratio = np.empty((2,) + diag.shape, dtype=complex)
    inv_pivot[0] = 1.0 / diag[0]
    for k in range(1, layers):
        upper_ratio[k - 1] = upper[k - 1] * inv_pivot[k - 1]
        inv_pivot[k] = 1.0 / (diag[k] - lower[k] * upper_ratio[k - 1])
    scratch = np.empty(diag.shape[1:], dtype=complex)
    scaled, y = np.empty((layers,) + shape), np.empty(diag.shape, dtype=complex)
    x = np.zeros(grid.field_shape)

    def solve(v: np.ndarray) -> np.ndarray:
        np.fft.rfft(np.multiply(v.reshape((layers,) + shape), scale, out=scaled), out=y)
        for ax in axes[:-1]:
            np.fft.fft(y, axis=ax, out=y)
        y[0] *= inv_pivot[0]
        for k in range(1, layers):
            y[k] -= np.multiply(lower[k], y[k - 1], out=scratch)
            y[k] *= inv_pivot[k]
        for k in range(layers - 2, -1, -1):
            y[k] -= np.multiply(upper_ratio[k], y[k + 1], out=scratch)
        for ax in axes[:-1]:
            np.fft.ifft(y, axis=ax, out=y)
        np.fft.irfft(y, n, out=x[1:-1])
        return x

    return solve


@np.errstate(over="ignore", invalid="ignore")
def assemble_dQ(cone: ConeData, spec: ProblemSpec) -> LinearSystem:
    """Linearization of Q at the field whose :func:`cone_quantities` are ``cone``: the stencil weights only.

    No matrix and no preconditioner. Data near the top of the float range give
    non-finite weights without a warning; ``solve_interior`` then raises a
    LinearSolveError.
    """
    grid = spec.grid
    hx, ht, dim = grid.hx, grid.ht, grid.spatial_dim

    tcoef = cone.b_interior / (ht * ht)
    center = (-2.0 * dim / (hx * hx)) * cone.utt - 2.0 * tcoef
    base = cone.utt / (hx * hx)
    spatial = []
    for g, gt in zip(cone.grad_u, cone.grad_ut):
        drift = (spec.b / hx) * cone.utt * g
        spatial.append((base - drift, base + drift, gt / (2.0 * hx * ht)))
    return LinearSystem(grid, center, tcoef, spatial)
