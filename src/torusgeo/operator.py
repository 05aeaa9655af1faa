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
GMRES, preconditioned by the same stencil with each weight averaged over its
time layer: FFT in space turns that operator into one tridiagonal system in
t per Fourier mode, solved by a batched Thomas sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .mesh import (
    GridSpec,
    ScalarField,
    SpaceField,
    _grad_arrays,
    _lap_array,
    _pad_edge,
    argmin_node,
    d_t_interior,
    d_tt_interior,
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
    """B of a single time slice: lap w - b |grad w|^2 + a."""
    axes = tuple(range(grid.spatial_dim))
    lap = _lap_array(w, axes, grid.hx)
    grads = _grad_arrays(w, axes, grid.hx)
    gsq = np.zeros_like(w)
    for g in grads:
        gsq += g * g
    return lap - b * gsq + a


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
            if np.min(bvals) <= 0.0:
                node = argmin_node(bvals)
                raise InvalidProblem(
                    f"{name} is not an admissible slice: lap {name} - b|grad {name}|^2 + a = "
                    f"{float(bvals[node])!r} at node {node}",
                    node,
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

    def admissible(self) -> bool:
        return (
            float(np.min(self.utt)) > 0.0
            and float(np.min(self.b_full)) > 0.0
            and float(np.min(self.q)) > 0.0
        )


def cone_quantities(u_values: np.ndarray, spec: ProblemSpec) -> ConeData:
    """Compute u_tt, B_u, grad u, grad u_t and Q for a full-shape value array."""
    grid = spec.grid
    axes = tuple(range(1, 1 + grid.spatial_dim))
    lap = _lap_array(u_values, axes, grid.hx)
    grads = _grad_arrays(u_values, axes, grid.hx)
    gsq = np.zeros_like(u_values)
    for g in grads:
        gsq += g * g
    b_full = lap - spec.b * gsq + spec.a.values
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


def residual(u: ScalarField, spec: ProblemSpec, rhs: ScalarField) -> tuple[ScalarField, float]:
    """Q(u) - rhs on the interior layers and its sup-norm.

    The returned field is edge-padded, so its sup-norm equals the interior
    sup-norm reported alongside it.
    """
    cone = cone_quantities(u.values, spec)
    res = cone.q - rhs.values[1:-1]
    return ScalarField(spec.grid, _pad_edge(res)), float(np.max(np.abs(res)))


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
            loc_utt=(iu[0] + 1,) + iu[1:],
            min_b=min_b,
            loc_b=ib,
            min_q=min_q,
            loc_q=(iq[0] + 1,) + iq[1:],
            admissible=bool(min_utt > 0.0 and min_b > 0.0 and min_q > 0.0),
        )


def symbol_matrix(utt: float, b_value: float, grad_ut) -> np.ndarray:
    """Symbol of the linearization at one node: [[B, -g^T], [-g, utt * I]]."""
    g = np.atleast_1d(np.asarray(grad_ut, dtype=float))
    d = g.size
    m = np.empty((d + 1, d + 1))
    m[0, 0] = b_value
    m[0, 1:] = -g
    m[1:, 0] = -g
    m[1:, 1:] = utt * np.eye(d)
    return m


def ellipticity_check(u: ScalarField, spec: ProblemSpec) -> tuple[AdmissibilityReport, np.ndarray]:
    """Admissibility report plus the per-node symbol verdict.

    The symbol matrix ``[[B, -grad u_t^T], [-grad u_t, u_tt I]]`` is positive
    definite exactly when ``u_tt > 0`` and its Schur complement
    ``B - |grad u_t|^2 / u_tt`` is positive, i.e. when ``u_tt > 0`` and
    ``Q > 0``. The verdict array marks interior nodes where both hold.
    """
    cone = cone_quantities(u.values, spec)
    report = AdmissibilityReport.from_cone(cone)
    verdict = (cone.utt > 0.0) & (cone.q > 0.0)
    return report, verdict


def first_order_data(phi: ScalarField) -> tuple[np.ndarray, list[np.ndarray]]:
    """(phi_t, grad phi) on the interior layers, for use with :func:`q_form`."""
    grid = phi.grid
    phi_t = d_t_interior(phi.values, grid.ht)
    axes = tuple(range(1, 1 + grid.spatial_dim))
    grads = [g[1:-1] for g in _grad_arrays(phi.values, axes, grid.hx)]
    return phi_t, grads


def q_form(u: ScalarField, spec: ProblemSpec, dphi, dpsi) -> ScalarField:
    """Polarized quadratic form of the linearization at u.

    ``dphi`` and ``dpsi`` are ``(phi_t, [phi_x, ...])`` pairs of interior
    arrays as produced by :func:`first_order_data`. The value at each node is

        u_tt <grad phi, grad psi> + B_u phi_t psi_t
        - <grad u_t, phi_t grad psi + psi_t grad phi>,

    which is nonnegative for ``dphi == dpsi`` at admissible u because it is
    the symbol matrix applied to the pair. Returned edge-padded.
    """
    cone = cone_quantities(u.values, spec)
    phi_t, phi_g = dphi
    psi_t, psi_g = dpsi
    dim = spec.grid.spatial_dim
    if len(phi_g) != dim or len(psi_g) != dim:
        raise ValueError(f"first-order data must carry {dim} gradient components")
    out = cone.b_interior * (phi_t * psi_t)
    for ga, gb, gut in zip(phi_g, psi_g, cone.grad_ut):
        out += cone.utt * (ga * gb)
        out -= gut * (phi_t * gb + psi_t * ga)
    return ScalarField(spec.grid, _pad_edge(out))


# ---------------------------------------------------------------------------
# Matrix-free linearization and its preconditioned Krylov solve.
# ---------------------------------------------------------------------------

# GMRES stops at relative residual GMRES_RTOL, restarting every GMRES_RESTART
# iterations for at most GMRES_MAXITER cycles; answers above TRUE_RESIDUAL_TOL are rejected.
GMRES_RTOL = 1e-12
GMRES_RESTART = 40
GMRES_MAXITER = 5
TRUE_RESIDUAL_TOL = 1e-10


class LinearSolveError(RuntimeError):
    """The Krylov solve of the linearization failed or returned a bad answer."""


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
    ``rhs`` is the right-hand side over interior nodes (zero unless a target
    was given); ``iterations`` counts GMRES iterations of the latest solve.
    """

    grid: GridSpec
    center: np.ndarray
    tcoef: np.ndarray
    spatial: list
    thomas: tuple
    rhs: np.ndarray
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

    def apply(self, h) -> np.ndarray:
        """Stencil action on a full-shape field, returned as interior layers."""
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

    def solve_interior(self, g=None) -> np.ndarray:
        """Solve for the interior correction with zero Dirichlet layers.

        ``g`` is an interior-layer array (defaults to ``rhs``). Returns a
        full-shape array whose boundary layers are zero. Raises
        :class:`LinearSolveError` when GMRES does not converge or its answer
        is not finite or has a true relative residual above ``TRUE_RESIDUAL_TOL``.
        """
        target = self.rhs if g is None else np.asarray(g, dtype=float).ravel()
        n = target.size
        matvec = spla.LinearOperator((n, n), lambda x: self._action(self._embed(x)).ravel(), dtype=float)
        precond = spla.LinearOperator((n, n), self._precondition, dtype=float)
        residuals: list[float] = []
        x, info = spla.gmres(
            matvec, target, rtol=GMRES_RTOL, atol=0.0, restart=GMRES_RESTART, maxiter=GMRES_MAXITER,
            M=precond, callback=residuals.append, callback_type="pr_norm",
        )
        self.iterations = len(residuals)
        if not np.all(np.isfinite(x)):
            raise LinearSolveError("linear solve produced non-finite values")
        if info != 0:
            raise LinearSolveError(f"GMRES did not converge in {self.iterations} iterations")
        resid, scale = np.linalg.norm(target - matvec @ x), np.linalg.norm(target)
        if resid > TRUE_RESIDUAL_TOL * scale:
            raise LinearSolveError(f"GMRES true relative residual {resid / scale:.3g} exceeds {TRUE_RESIDUAL_TOL:g}")
        return self._embed(x)


def assemble_dQ(
    u: ScalarField,
    spec: ProblemSpec,
    rhs: ScalarField | None = None,
    cone: ConeData | None = None,
) -> LinearSystem:
    """Linearization of Q at u: stencil weights and preconditioner factors, no matrix.

    The weights come from ``cone`` (computed from u when not given). When
    ``rhs`` is given, the system right-hand side is ``rhs - Q(u)`` on the
    interior, so ``solve_interior()`` returns the Newton correction toward ``Q = rhs``.
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

    rhs_vec = np.zeros(cone.q.size) if rhs is None else (rhs.values[1:-1] - cone.q).ravel()
    return LinearSystem(grid, center, tcoef, spatial, (lower, upper_ratio, inv_pivot), rhs_vec)
