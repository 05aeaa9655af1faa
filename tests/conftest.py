"""Shared builders for randomized problem instances and admissible fields."""

import io

import numpy as np
import pytest

import torusgeo as tg
from torusgeo import solver
from torusgeo.operator import cone_quantities


def trig_space_values(grid, rng, amp, modes=2):
    """Random trigonometric polynomial on the spatial torus, sup ~ amp."""
    meshes = grid.spatial_meshes()
    vals = np.zeros(grid.spatial_shape)
    for m in range(1, modes + 1):
        for mesh in meshes:
            c1, c2 = rng.uniform(-1.0, 1.0, 2)
            vals = vals + (c1 * np.sin(m * mesh) + c2 * np.cos(m * mesh)) / m
    peak = float(np.max(np.abs(vals)))
    if peak > 0.0:
        vals = vals * (amp / max(peak, 1.0))
    return vals


def random_problem(seed, dim=1, n=32, nt=17, f_base=None, equal_boundary=False):
    """Randomized admissible problem instance; deterministic in the seed.

    Draws trigonometric data until the admissibility validation accepts it.
    ``equal_boundary`` makes u0 = u1 a random constant (so the degenerate
    limit is the constant chord).
    """
    rng = np.random.default_rng(seed)
    grid = tg.GridSpec(spatial_dim=dim, nodes_per_axis=n, time_nodes=nt)
    for _ in range(80):
        a = tg.SpaceField(grid, 1.0 + trig_space_values(grid, rng, 0.25))
        b = float(rng.uniform(0.0, 0.5))
        if equal_boundary:
            const = float(rng.uniform(-0.3, 0.3))
            g0 = np.full(grid.spatial_shape, const)
            g1 = g0.copy()
        else:
            g0 = trig_space_values(grid, rng, 0.2) + rng.uniform(-0.2, 0.2)
            g1 = trig_space_values(grid, rng, 0.2) + rng.uniform(-0.2, 0.2)
        u0 = tg.SpaceField(grid, g0)
        u1 = tg.SpaceField(grid, g1)
        mesh_t = grid.field_meshes()
        t = mesh_t[0]
        x = mesh_t[1]
        ph = rng.uniform(0.0, 2.0 * np.pi)
        base = float(rng.uniform(0.5, 2.0)) if f_base is None else f_base
        amp = rng.uniform(0.0, 0.4) * base
        f = tg.ScalarField(grid, base + amp * np.sin(x + ph) * np.cos(np.pi * t))
        try:
            return tg.ProblemSpec(grid=grid, a=a, b=b, f=f, u0=u0, u1=u1)
        except tg.InvalidProblem:
            continue
    raise RuntimeError(f"no admissible instance for seed {seed}")


def random_admissible_field(seed, dim=1, n=10, nt=7):
    """(field, problem) pair with the field strictly inside the cone.

    The field is a barrier-shaped profile plus interior noise scaled by
    ht^2 so the second time difference stays small against the cone margins.
    """
    rng = np.random.default_rng(seed)
    grid = tg.GridSpec(spatial_dim=dim, nodes_per_axis=n, time_nodes=nt)
    for _ in range(100):
        a = tg.SpaceField(grid, 1.0 + trig_space_values(grid, rng, 0.2))
        g0 = trig_space_values(grid, rng, 0.1)
        g1 = trig_space_values(grid, rng, 0.1)
        u0 = tg.SpaceField(grid, g0)
        u1 = tg.SpaceField(grid, g1)
        t = grid.time_column()
        c = rng.uniform(0.5, 2.0)
        uvals = -c * t * (1.0 - t) + (1.0 - t) * g0 + t * g1
        pert = 0.1 * grid.ht**2 * rng.standard_normal(grid.field_shape)
        pert[0] = 0.0
        pert[-1] = 0.0
        uvals = uvals + pert
        f = tg.ScalarField(grid, np.ones(grid.field_shape))
        try:
            spec = tg.ProblemSpec(
                grid=grid, a=a, b=float(rng.uniform(0.0, 0.5)), f=f, u0=u0, u1=u1
            )
        except tg.InvalidProblem:
            continue
        if cone_quantities(uvals, spec).admissible:
            return tg.ScalarField(grid, uvals), spec
    raise RuntimeError(f"no admissible field for seed {seed}")


@pytest.fixture
def separable_spec():
    """f = 2, a = 1, b = 0, zero boundary data; discrete solution t^2 - t."""
    grid = tg.GridSpec(spatial_dim=1, nodes_per_axis=32, time_nodes=17)
    a = tg.SpaceField(grid, np.ones(grid.spatial_shape))
    zero = tg.SpaceField(grid, np.zeros(grid.spatial_shape))
    f = tg.ScalarField(grid, np.full(grid.field_shape, 2.0))
    return tg.ProblemSpec(grid=grid, a=a, b=0.0, f=f, u0=zero, u1=zero)


def manufactured_spec(n=32, nt=17):
    """1D instance whose continuum solution is t^2 - t + 0.1 sin x."""
    grid = tg.GridSpec(spatial_dim=1, nodes_per_axis=n, time_nodes=nt)
    x, = grid.spatial_meshes()
    a = tg.SpaceField(grid, np.ones(grid.spatial_shape))
    g = tg.SpaceField(grid, 0.1 * np.sin(x))
    tt, xx = grid.field_meshes()
    f = tg.ScalarField(grid, 2.0 - 0.2 * np.sin(xx))
    spec = tg.ProblemSpec(grid=grid, a=a, b=0.0, f=f, u0=g, u1=g)
    exact = tg.ScalarField(grid, tt * tt - tt + 0.1 * np.sin(xx))
    return spec, exact


def degenerate_u0(y):
    """(u0, u0', u0'') at y for the degenerate reference."""
    return 0.3 * np.sin(y), 0.3 * np.cos(y), -0.3 * np.sin(y)


def degenerate_u1(y):
    """(u1, u1', u1'') at y for the degenerate reference."""
    s, c = np.sin(y), np.cos(y)
    return 0.2 * c + 0.05 * np.sin(2.0 * y), -0.2 * s + 0.1 * np.cos(2.0 * y), -0.2 * c - 0.2 * np.sin(2.0 * y)


def degenerate_spec(n, nt, eps, dim=1):
    """Instance a = 1, b = 0, u0 = 0.3 sin x, u1 = 0.2 cos x + 0.05 sin 2x, f = eps; in 2D the data ignore y."""
    grid = tg.GridSpec(spatial_dim=dim, nodes_per_axis=n, time_nodes=nt)
    x = grid.spatial_meshes()[0]
    u0, u1 = degenerate_u0(x)[0], degenerate_u1(x)[0]
    return tg.ProblemSpec(
        grid=grid,
        a=tg.SpaceField(grid, np.ones(grid.spatial_shape)),
        b=0.0,
        f=tg.ScalarField(grid, np.full(grid.field_shape, eps)),
        u0=tg.SpaceField(grid, u0),
        u1=tg.SpaceField(grid, u1),
    )


def degenerate_reference(grid):
    """The f = 0 limit of :func:`degenerate_spec` at the grid's nodes.

    With a = 1 and b = 0, Q(u) is the Monge-Ampere determinant of phi = x^2/2
    + u in (t, x), and the limit interpolates the Legendre transforms of the
    boundary layers: u(t, x) = (1 - t) phi0(x0) + t phi1(x1) - x^2 / 2 where
    phi0'(x0) = phi1'(x1) and x = (1 - t) x0 + t x1. Writing x0 = x - t d and
    x1 = x + (1 - t) d, the displacement d solves the increasing equation
    h(d) = d + u1'(x1) - u0'(x0) = 0, whose root lies in [-1, 1] since
    |u0'|, |u1'| <= 0.3; then u = (1 - t) u0(x0) + t u1(x1) + t (1 - t) d^2 / 2.
    The root is found by a Newton iteration kept inside a shrinking bracket.
    """
    t, x = grid.field_meshes()
    lo, hi, d = np.full(x.shape, -1.0), np.full(x.shape, 1.0), np.zeros(x.shape)
    for _ in range(60):
        x0, x1 = x - t * d, x + (1.0 - t) * d
        _, du0, ddu0 = degenerate_u0(x0)
        _, du1, ddu1 = degenerate_u1(x1)
        h = d + du1 - du0
        if np.max(np.abs(h)) <= 1e-14:
            break
        lo, hi = np.where(h < 0.0, d, lo), np.where(h > 0.0, d, hi)
        d = d - h / (1.0 + (1.0 - t) * ddu1 + t * ddu0)
        outside = (d <= lo) | (d >= hi)
        d = np.where(outside, 0.5 * (lo + hi), d)
    else:
        raise RuntimeError("degenerate reference: displacement did not converge")
    x0, x1 = x - t * d, x + (1.0 - t) * d
    u = (1.0 - t) * degenerate_u0(x0)[0] + t * degenerate_u1(x1)[0] + 0.5 * t * (1.0 - t) * d * d
    return tg.ScalarField(grid, u)


def fail_newton(monkeypatch, when, reason="injected collapse"):
    """Make every Newton run for which ``when(spec, phase, param)`` holds collapse with ``reason``."""
    real = solver.newton_solve

    def newton(spec, rhs, u_init, **kwargs):
        phase, param = kwargs.get("phase", ""), kwargs.get("param")
        if when(spec, phase, param):
            raise tg.StepCollapse(reason, phase=phase, param=param)
        return real(spec, rhs, u_init, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", newton)


def fail_newton_once_at(monkeypatch, param, reason="injected collapse"):
    """Make the first Newton run at continuation or sweep parameter ``param`` collapse."""
    failed = []

    def once(_spec, _phase, p):
        if p == param and not failed:
            failed.append(p)
            return True
        return False

    fail_newton(monkeypatch, once, reason)


class CountingWriter(io.BytesIO):
    """An in-memory binary file that counts its ``write`` calls."""

    writes = 0

    def write(self, data):
        self.writes += 1
        return super().write(data)
