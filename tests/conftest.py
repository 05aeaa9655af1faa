"""Shared builders for randomized problem instances and admissible fields."""

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


def fail_newton(monkeypatch, when):
    """Make every Newton run for which ``when(spec, phase, param)`` holds collapse."""
    real = solver.newton_solve

    def newton(spec, rhs, u_init, **kwargs):
        phase, param = kwargs.get("phase", ""), kwargs.get("param")
        if when(spec, phase, param):
            raise tg.StepCollapse("injected collapse", phase=phase, param=param)
        return real(spec, rhs, u_init, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", newton)


def fail_newton_once_at(monkeypatch, param):
    """Make the first Newton run at continuation or sweep parameter ``param`` collapse."""
    failed = []

    def once(_spec, _phase, p):
        if p == param and not failed:
            failed.append(p)
            return True
        return False

    fail_newton(monkeypatch, once)
