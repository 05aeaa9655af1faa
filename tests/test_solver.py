"""Barrier, Newton, continuation, sweep, and uniqueness tests."""

import numpy as np
import pytest

import torusgeo as tg
from torusgeo.mesh import GridSpec, ScalarField, SpaceField, sample_scalar
from torusgeo.operator import LinearSolveError, LinearSystem, ProblemSpec, apply_Q, cone_quantities
from torusgeo.solver import (
    TRACE_HEADER,
    LinearSolveFailure,
    LostAdmissibility,
    NonConvergence,
    SolveOptions,
    barrier,
    compute_c_star,
    continuation_solve,
    epsilon_sweep,
    newton_solve,
    normalize_shift,
    uniqueness_probe,
)

from conftest import random_problem


def test_barrier_endpoints_and_profile(separable_spec):
    spec = separable_spec
    u = barrier(spec, 2.5)
    assert np.array_equal(u.values[0], spec.u0.values)
    assert np.array_equal(u.values[-1], spec.u1.values)
    t = spec.grid.time_column()
    want = 2.5 * t * (1.0 - t)
    assert np.max(np.abs(u.values - want)) <= 1e-14


def test_c_star_separable(separable_spec):
    # sup f = 2, boundary gradients vanish, min B = 1: c* = max(sup f, 1) / 2 = 1
    assert compute_c_star(separable_spec) == pytest.approx(1.0)


def test_c_star_barrier_is_subsolution():
    for seed in (0, 1, 2, 3):
        spec = random_problem(seed, n=24, nt=13)
        c = compute_c_star(spec)
        u = barrier(spec, -c)
        cone = cone_quantities(u.values, spec)
        assert cone.admissible()
        # Q at the barrier dominates f on the interior
        q = apply_Q(u, spec).values[1:-1]
        assert np.min(q - spec.f.values[1:-1]) >= -1e-9


def test_separable_solved_by_barrier_exactly(separable_spec):
    res = continuation_solve(separable_spec)
    assert res.converged
    assert res.newton_iters_total == 0
    assert res.final_residual_sup <= 1e-12
    exact = sample_scalar(separable_spec.grid, lambda t, x: t * t - t)
    assert np.max(np.abs(res.u.values - exact.values)) <= 1e-10


def test_manufactured_inverse_crime():
    # take an admissible profile, use its operator value as the target
    grid = GridSpec(spatial_dim=1, nodes_per_axis=24, time_nodes=13)
    x, = grid.spatial_meshes()
    a = SpaceField(grid, 1.0 + 0.2 * np.cos(x))
    star = sample_scalar(grid, lambda t, xx: -1.1 * t * (1 - t) + 0.1 * np.sin(xx) * (1 - t))
    u0 = SpaceField(grid, star.values[0].copy())
    u1 = SpaceField(grid, star.values[-1].copy())
    probe = ProblemSpec(
        grid=grid, a=a, b=0.3, f=ScalarField(grid, np.ones(grid.field_shape)), u0=u0, u1=u1
    )
    fvals = apply_Q(star, probe).values
    assert np.min(fvals[1:-1]) > 0.0
    spec = ProblemSpec(grid=grid, a=a, b=0.3, f=ScalarField(grid, fvals), u0=u0, u1=u1)
    res = continuation_solve(spec)
    assert res.converged
    assert np.max(np.abs(res.u.values - star.values)) <= 1e-8


def test_continuation_trace_structure():
    spec = random_problem(5, n=24, nt=13)
    opts = SolveOptions(continuation_steps=6)
    res = continuation_solve(spec, opts)
    assert res.converged
    params = [p for p, _res, _m in res.continuation_trace]
    assert params[0] == 0.0
    assert params[-1] == 1.0
    assert all(b > a for a, b in zip(params, params[1:]))
    for _p, r, mins in res.continuation_trace:
        assert r <= opts.newton_tol
        assert min(mins) > 0.0
    # records render into the documented column layout
    cols = TRACE_HEADER.split(",")
    for rec in res.records:
        assert len(rec.render().split(",")) == len(cols)
        # opening rows took no linear solve; every Newton step took some
        assert (rec.lin_iters == 0) == (rec.iteration == 0)


def test_continuation_bisects_then_reraises_linear_solve_failure(monkeypatch):
    calls = []

    def fail(self, g=None):
        calls.append(1)
        raise LinearSolveError("injected failure")

    monkeypatch.setattr(LinearSystem, "solve_interior", fail)
    spec = random_problem(5, n=12, nt=7)
    with pytest.raises(LinearSolveFailure) as info:
        continuation_solve(spec)
    # rung s = 0 needs no step; the first rung is then halved 8 times
    # before the step falls below 1/256 of the uniform step
    assert len(calls) == 9
    assert info.value.phase == "continuation"
    assert info.value.param == pytest.approx(0.1 / 256)
    assert isinstance(info.value.__cause__, LinearSolveError)


def test_newton_requires_positive_rhs(separable_spec):
    spec = separable_spec
    u = barrier(spec, -1.0)
    bad = ScalarField(spec.grid, np.zeros(spec.grid.field_shape))
    with pytest.raises(ValueError):
        newton_solve(spec, bad, u)


def test_newton_requires_matching_boundary(separable_spec):
    spec = separable_spec
    u = barrier(spec, -1.0)
    shifted = ScalarField(spec.grid, u.values + 0.5)
    with pytest.raises(ValueError):
        newton_solve(spec, spec.f, shifted)


def test_newton_requires_admissible_start(separable_spec):
    spec = separable_spec
    u = barrier(spec, 1.0)  # concave in time: u_tt < 0
    with pytest.raises(LostAdmissibility):
        newton_solve(spec, spec.f, u)


def test_newton_budget_exhaustion():
    spec = random_problem(6, n=24, nt=13)
    u = barrier(spec, -compute_c_star(spec))
    opts = SolveOptions(max_newton_iters=1, newton_tol=1e-12)
    with pytest.raises(NonConvergence):
        newton_solve(spec, spec.f, u, opts)


def test_newton_reconverges_after_perturbation():
    spec = random_problem(7, n=24, nt=13)
    res = continuation_solve(spec)
    rng = np.random.default_rng(70)
    pert = np.zeros(spec.grid.field_shape)
    pert[1:-1] = 1e-4 * spec.grid.ht**2 * rng.standard_normal(
        (spec.grid.interior_layers,) + spec.grid.spatial_shape
    )
    start = ScalarField(spec.grid, res.u.values + pert)
    assert cone_quantities(start.values, spec).admissible()
    res2 = newton_solve(spec, spec.f, start)
    assert res2.converged
    assert np.max(np.abs(res2.u.values - res.u.values)) <= 1e-9


def test_epsilon_sweep_validation(separable_spec):
    with pytest.raises(ValueError):
        epsilon_sweep(separable_spec, [])
    with pytest.raises(ValueError):
        epsilon_sweep(separable_spec, [1.0, 2.0])
    with pytest.raises(ValueError):
        epsilon_sweep(separable_spec, [1.0, -0.5])


def test_epsilon_sweep_homogeneous_scaling(separable_spec):
    # spatially flat data: the rung solution is eps (t^2 - t) / 2, so the
    # minimum of u_tt is exactly linear in eps
    eps = [1.0, 0.5, 0.25, 0.125]
    entries = epsilon_sweep(separable_spec, eps)
    assert all(e.result is not None for e in entries)
    for e in entries:
        cone = cone_quantities(e.result.u.values, _respec(separable_spec, e.epsilon))
        assert float(np.min(cone.utt)) == pytest.approx(e.epsilon, rel=1e-8)
    drifts = [e.drift for e in entries[1:]]
    assert all(b < a for a, b in zip(drifts, drifts[1:]))


def _respec(spec, eps):
    fhat = spec.f.values / np.max(spec.f.values)
    return ProblemSpec(
        grid=spec.grid,
        a=spec.a,
        b=spec.b,
        f=ScalarField(spec.grid, eps * fhat),
        u0=spec.u0,
        u1=spec.u1,
    )


def test_epsilon_sweep_reports_bounds(separable_spec):
    entries = epsilon_sweep(separable_spec, [1.0, 0.5])
    for e in entries:
        assert e.bounds is not None
        assert e.bounds.passed
    assert np.isnan(entries[0].drift)
    assert entries[1].drift > 0.0


def test_uniqueness_probe(separable_spec):
    assert uniqueness_probe(separable_spec) <= 1e-9


def test_uniqueness_probe_requires_positive_f(separable_spec):
    spec = separable_spec
    f0 = ScalarField(spec.grid, np.zeros(spec.grid.field_shape))
    degenerate = ProblemSpec(grid=spec.grid, a=spec.a, b=spec.b, f=f0, u0=spec.u0, u1=spec.u1)
    with pytest.raises(ValueError):
        uniqueness_probe(degenerate)


def test_normalize_shift_is_exact_symmetry():
    spec = random_problem(8, n=24, nt=17)
    res = continuation_solve(spec)
    q_before = apply_Q(res.u, spec).values[1:-1]
    shifted = normalize_shift(res.u, 0.3, -0.2)
    t = spec.grid.time_column()
    want = res.u.values + 0.3 * t + (-0.2)
    assert np.max(np.abs(shifted.values - want)) <= 1e-14
    q_after = apply_Q(shifted, spec).values[1:-1]
    scale = 1.0 + float(np.max(np.abs(q_before)))
    assert np.max(np.abs(q_after - q_before)) <= 1e-12 * scale


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(newton_tol=-1.0)
    with pytest.raises(ValueError):
        SolveOptions(damping_fraction=1.5)
    with pytest.raises(ValueError):
        SolveOptions(continuation_steps=0)
