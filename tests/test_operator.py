"""Operator, cone, and linearization tests with independent oracles."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import torusgeo as tg
from torusgeo.mesh import GridSpec, ScalarField, SpaceField
import torusgeo.operator as operator_module
from torusgeo.operator import (
    InvalidProblem,
    LinearSolveError,
    ProblemSpec,
    apply_Q,
    assemble_dQ,
    compute_B,
    cone_quantities,
)

from conftest import random_admissible_field, random_problem


def _basic_spec(n=16, nt=9, b=0.3):
    grid = GridSpec(spatial_dim=1, nodes_per_axis=n, time_nodes=nt)
    x, = grid.spatial_meshes()
    a = SpaceField(grid, 1.0 + 0.2 * np.cos(x))
    u0 = SpaceField(grid, 0.1 * np.sin(x))
    u1 = SpaceField(grid, 0.1 * np.cos(x))
    f = ScalarField(grid, np.ones(grid.field_shape))
    return ProblemSpec(grid=grid, a=a, b=b, f=f, u0=u0, u1=u1)


def test_spec_validation_errors():
    grid = GridSpec(spatial_dim=1, nodes_per_axis=16, time_nodes=9)
    ones = SpaceField(grid, np.ones(grid.spatial_shape))
    zero = SpaceField(grid, np.zeros(grid.spatial_shape))
    f = ScalarField(grid, np.ones(grid.field_shape))
    with pytest.raises(InvalidProblem):
        ProblemSpec(grid=grid, a=SpaceField(grid, -np.ones(grid.spatial_shape)), b=0.0, f=f, u0=zero, u1=zero)
    with pytest.raises(InvalidProblem):
        ProblemSpec(grid=grid, a=ones, b=-0.5, f=f, u0=zero, u1=zero)
    with pytest.raises(InvalidProblem):
        bad_f = ScalarField(grid, -np.ones(grid.field_shape))
        ProblemSpec(grid=grid, a=ones, b=0.0, f=bad_f, u0=zero, u1=zero)
    with pytest.raises(InvalidProblem):
        # boundary slice with lap u0 + a dipping below zero
        x, = grid.spatial_meshes()
        steep = SpaceField(grid, 3.0 * np.sin(x))
        ProblemSpec(grid=grid, a=ones, b=0.0, f=f, u0=steep, u1=zero)
    other = GridSpec(spatial_dim=1, nodes_per_axis=8, time_nodes=9)
    with pytest.raises(InvalidProblem):
        ProblemSpec(grid=grid, a=SpaceField(other, np.ones(other.spatial_shape)), b=0.0, f=f, u0=zero, u1=zero)


def test_spec_rejects_a_field_of_the_wrong_kind():
    spec = _basic_spec()
    with pytest.raises(InvalidProblem, match="a must be a SpaceField"):
        replace(spec, a=spec.f)


def test_problem_spec_accepts_vanishing_f():
    spec = _basic_spec()
    grid = spec.grid
    f0 = ScalarField(grid, np.zeros(grid.field_shape))
    spec0 = ProblemSpec(grid=grid, a=spec.a, b=spec.b, f=f0, u0=spec.u0, u1=spec.u1)
    assert np.all(spec0.f.values == 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_cone_b_on_dirichlet_layers_is_the_slice_b_the_spec_checks(dim):
    spec = random_problem(3, dim=dim, n=12, nt=7)
    grid = spec.grid
    u = 0.01 * np.random.default_rng(dim).standard_normal(grid.field_shape)
    u[0], u[-1] = spec.u0.values, spec.u1.values
    cone = cone_quantities(u, spec)
    for layer, w in ((0, spec.u0), (-1, spec.u1)):
        assert cone.b_full[layer].tobytes() == operator_module._b_values(w.values, spec)[0].tobytes()
    # an inadmissible slice: ProblemSpec reports the very value cone_quantities computes there
    steep = SpaceField(grid, 3.0 * np.sin(grid.spatial_meshes()[0]))
    with pytest.raises(InvalidProblem) as info:
        ProblemSpec(grid=grid, a=spec.a, b=spec.b, f=spec.f, u0=steep, u1=spec.u1)
    u[0] = steep.values
    b0 = cone_quantities(u, spec).b_full[0]
    assert info.value.node == tg.mesh.argmin_node(b0)
    assert f"= {float(b0[info.value.node])!r} at node" in str(info.value)


def _roll_lap(vals, hx):
    return (np.roll(vals, -1, -1) - 2.0 * vals + np.roll(vals, 1, -1)) / hx**2


def _roll_grad(vals, hx):
    return (np.roll(vals, -1, -1) - np.roll(vals, 1, -1)) / (2.0 * hx)


def test_compute_B_against_direct_rolls():
    spec = _basic_spec(b=0.4)
    grid = spec.grid
    u = ScalarField.sample(grid, lambda t, x: (t * t - t) * np.cos(x) * 0.2 + 0.1 * np.sin(x))
    got = compute_B(u, spec).values
    want = (
        _roll_lap(u.values, grid.hx)
        - 0.4 * _roll_grad(u.values, grid.hx) ** 2
        + spec.a.values[None, :]
    )
    assert np.max(np.abs(got - want)) <= 1e-12


def test_apply_Q_against_direct_rolls():
    spec = _basic_spec(b=0.25)
    grid = spec.grid
    u = ScalarField.sample(grid, lambda t, x: -1.3 * t * (1 - t) + 0.1 * np.sin(x) * t)
    got = apply_Q(u, spec).values[1:-1]
    vals = u.values
    utt = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / grid.ht**2
    bu = (
        _roll_lap(vals, grid.hx)
        - 0.25 * _roll_grad(vals, grid.hx) ** 2
        + spec.a.values[None, :]
    )[1:-1]
    ut = (vals[2:] - vals[:-2]) / (2.0 * grid.ht)
    grad_ut = _roll_grad(ut, grid.hx)
    want = utt * bu - grad_ut**2
    assert np.max(np.abs(got - want)) <= 1e-12


def test_apply_Q_matches_analytic_for_quadratic_profile():
    # u = t^2 - t is spatially flat: Q(u) = 2 a(x) exactly on the grid
    spec = _basic_spec(b=0.7)
    u = ScalarField.sample(spec.grid, lambda t, x: t * t - t)
    got = apply_Q(u, spec).values[1:-1]
    assert np.max(np.abs(got - 2.0 * spec.a.values[None, :])) <= 1e-12


def test_cone_quantities_and_admissibility():
    field, spec = random_admissible_field(3)
    cone = cone_quantities(field.values, spec)
    assert cone.admissible
    assert np.all(cone.utt > 0.0) and np.all(cone.b_full > 0.0) and np.all(cone.q > 0.0)
    # flipping time convexity breaks the cone
    flipped = cone_quantities(-field.values, spec)
    assert not flipped.admissible
    assert not np.all((flipped.utt > 0.0) & (flipped.q > 0.0))


def test_cone_margin_minima_and_worst():
    field, spec = random_admissible_field(4)
    cone = cone_quantities(field.values, spec)
    utt, b, q = cone.margins
    assert utt is cone.utt and q is cone.q and np.array_equal(b, cone.b_full[1:-1])
    assert cone.mins == (float(np.min(cone.utt)), float(np.min(cone.b_full)), float(np.min(cone.q)))
    name, node, value = cone.worst()
    assert value == min(cone.mins)
    # u_tt and Q are indexed on interior layers, worst() reports the full time axis
    full = {"u_tt": _pad_layers(cone.utt), "B": cone.b_full, "Q": _pad_layers(cone.q)}[name]
    assert full[node] == value

    def with_values(**points):
        arrays = {"utt": cone.utt.copy(), "b_full": cone.b_full.copy(), "q": cone.q.copy()}
        for key, (index, v) in points.items():
            arrays[key][index] = v
        return replace(cone, **arrays)

    assert with_values(q=((1, 3), -1.0)).worst() == ("Q", (2, 3), -1.0)
    # B is reported over every layer, the Dirichlet layers included
    assert with_values(b_full=((0, 5), -1.0)).worst() == ("B", (0, 5), -1.0)
    # ties resolve u_tt, then B, then Q
    tie = with_values(utt=((0, 0), -1.0), b_full=((3, 1), -1.0), q=((2, 2), -1.0))
    assert tie.worst() == ("u_tt", (1, 0), -1.0) and not tie.admissible
    assert with_values(b_full=((3, 1), -1.0), q=((2, 2), -1.0)).worst()[0] == "B"
    # a nan minimum is the worst and never admissible, whichever margin holds it
    for key, name in (("utt", "u_tt"), ("b_full", "B"), ("q", "Q")):
        broken = with_values(**{key: ((1, 1), np.nan)})
        assert not broken.admissible
        assert broken.worst()[0] == name and np.isnan(broken.worst()[2])


def _pad_layers(interior):
    return np.pad(interior, [(1, 1)] + [(0, 0)] * (interior.ndim - 1), constant_values=np.inf)


@pytest.mark.parametrize("dim,n,nt", [(1, 10, 7), (2, 8, 7)])
def test_jacobian_matches_finite_differences(dim, n, nt):
    field, spec = random_admissible_field(20 + dim, dim=dim, n=n, nt=nt)
    system = assemble_dQ(field, spec)
    rng = np.random.default_rng(77)
    for _ in range(4):
        h = np.zeros(spec.grid.field_shape)
        h[1:-1] = rng.standard_normal((spec.grid.interior_layers,) + spec.grid.spatial_shape)
        eps = 1e-6
        up = ScalarField(spec.grid, field.values + eps * h)
        um = ScalarField(spec.grid, field.values - eps * h)
        fd = (apply_Q(up, spec).values[1:-1] - apply_Q(um, spec).values[1:-1]) / (2.0 * eps)
        an = system.apply(h)
        rel = np.max(np.abs(fd - an)) / max(1.0, np.max(np.abs(an)))
        assert rel <= 1e-6


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**16),
    st.sampled_from([1, 2]),
    st.integers(-3, 3),
    hnp.arrays(float, (6, 8, 8), elements=st.floats(-1.0, 1.0, allow_subnormal=False)),
)
# A constant h this small makes s about 5e159, beyond where s**2 fits in a float.
@example(0, 1, 0, np.full((6, 8, 8), 1.86e-164))
# The smallest normal h at the smallest exponent makes s about 4.5e306; a subnormal
# h would make s = 1e-4 / size overflow, so the step is undefined and not drawn.
@example(0, 1, -3, np.full((6, 8, 8), 2.2250738585072014e-308))
def test_apply_matches_centered_differences_of_q(seed, dim, exponent, h_unit):
    # Q is cubic in u: the centered difference along h is dQ(h) - s^2 b h_tt |grad h|^2
    # up to rounding, which is about eps / s times the stencils' absolute sum K on u +- s h.
    # h_unit has the 2D field shape; a 1D field takes its first column.
    field, spec = random_admissible_field(seed, dim=dim, n=8, nt=6)
    grid = spec.grid
    h = (h_unit if dim == 2 else h_unit[..., 0]) * 10.0**exponent
    size = float(np.max(np.abs(h)))
    if size == 0.0:
        return
    s = 1e-4 / size
    hx2, ht2, d = grid.hx**2, grid.ht**2, grid.spatial_dim
    big_u = float(np.max(np.abs(field.values))) + s * size
    big_k = (4 * big_u / ht2) * (4 * d * big_u / hx2 + spec.b * d * big_u**2 / hx2 + float(np.max(spec.a.values)))
    big_k += d * big_u**2 / (hx2 * ht2)
    tol = (s * size) ** 2 * spec.b * (4 * size / ht2) * d / hx2 + 16 * np.finfo(float).eps * big_k / s
    q_plus = apply_Q(ScalarField(grid, field.values + s * h), spec).values[1:-1]
    q_minus = apply_Q(ScalarField(grid, field.values - s * h), spec).values[1:-1]
    fd = (q_plus - q_minus) / (2.0 * s)
    assert np.max(np.abs(fd - assemble_dQ(field, spec).apply(h))) <= tol


def test_jacobian_boundary_blocks():
    # entries reaching the Dirichlet layers act through the boundary blocks
    field, spec = random_admissible_field(30)
    system = assemble_dQ(field, spec)
    rng = np.random.default_rng(78)
    h = np.zeros(spec.grid.field_shape)
    h[0] = rng.standard_normal(spec.grid.spatial_shape)
    h[-1] = rng.standard_normal(spec.grid.spatial_shape)
    eps = 1e-6
    up = field.values + eps * h
    um = field.values - eps * h
    qp = apply_Q(ScalarField(spec.grid, up), spec).values[1:-1]
    qm = apply_Q(ScalarField(spec.grid, um), spec).values[1:-1]
    fd = (qp - qm) / (2.0 * eps)
    an = system.apply(h)
    rel = np.max(np.abs(fd - an)) / max(1.0, np.max(np.abs(an)))
    assert rel <= 1e-6


def test_exact_identities_at_rounding_floor():
    for seed in (1, 2, 3):
        field, spec = random_admissible_field(seed, n=12, nt=9)
        grid = spec.grid
        system = assemble_dQ(field, spec)
        scale = 1.0 + float(np.max(np.abs(apply_Q(field, spec).values)))
        t = grid.time_column()
        ht = np.broadcast_to(t, grid.field_shape)
        assert np.max(np.abs(system.apply(ht))) <= 1e-10 * scale
        ht2 = np.broadcast_to(t * t, grid.field_shape)
        cone = cone_quantities(field.values, spec)
        want = 2.0 * cone.b_interior
        assert np.max(np.abs(system.apply(ht2) - want)) <= 1e-10 * scale


def test_solve_interior_solves():
    field, spec = random_admissible_field(6)
    system = assemble_dQ(field, spec)
    rng = np.random.default_rng(60)
    g = rng.standard_normal((spec.grid.interior_layers,) + spec.grid.spatial_shape)
    h = system.solve_interior(g)
    assert h[0].max() == 0.0 and h[-1].max() == 0.0
    back = system.apply(h)
    assert np.max(np.abs(back - g)) <= 1e-8 * max(1.0, np.max(np.abs(g)))


def _dense_jacobian(system, grid):
    """Interior Jacobian built column by column from the stencil action."""
    n = grid.interior_layers * grid.num_spatial
    dense = np.empty((n, n))
    for j in range(n):
        h = np.zeros(grid.field_shape)
        h[1:-1].flat[j] = 1.0
        dense[:, j] = system.apply(h).ravel()
    return dense


@pytest.mark.parametrize("dim,n,nt", [(1, 10, 7), (2, 8, 6)])
def test_solve_interior_matches_dense_solve(dim, n, nt):
    field, spec = random_admissible_field(40 + dim, dim=dim, n=n, nt=nt)
    system = assemble_dQ(field, spec)
    dense = _dense_jacobian(system, spec.grid)
    g = np.random.default_rng(61).standard_normal(dense.shape[0])
    want = np.linalg.solve(dense, g)
    got = system.solve_interior(g)[1:-1].ravel()
    assert system.iterations > 0
    assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("rtol", [1e-1, 1e-4])
def test_solve_interior_stops_at_the_requested_tolerance(rtol):
    field, spec = random_admissible_field(42, dim=2, n=8, nt=6)
    system = assemble_dQ(field, spec)
    g = np.random.default_rng(61).standard_normal(spec.grid.interior_layers * spec.grid.num_spatial)
    system.solve_interior(g)
    tight = system.iterations
    h = system.solve_interior(g, rtol)
    assert 0 < system.iterations < tight
    assert np.linalg.norm(system.apply(h).ravel() - g) <= rtol * np.linalg.norm(g)


@pytest.mark.parametrize("dim", [1, 2])
def test_preconditioner_exact_for_layerwise_constant_coefficients(dim):
    # u depends on t only and a is constant, so every stencil weight is
    # constant on each layer and the layer-mean preconditioner is the inverse
    grid = GridSpec(spatial_dim=dim, nodes_per_axis=12, time_nodes=9)
    a = SpaceField(grid, np.full(grid.spatial_shape, 1.3))
    zero = SpaceField(grid, np.zeros(grid.spatial_shape))
    f = ScalarField(grid, np.ones(grid.field_shape))
    spec = ProblemSpec(grid=grid, a=a, b=0.4, f=f, u0=zero, u1=zero)
    u = ScalarField.sample(grid, lambda t, *xs: -t * (1.0 - t) - 0.3 * t**3 * (1.0 - t))
    system = assemble_dQ(u, spec)
    g = np.random.default_rng(62).standard_normal(grid.interior_layers * grid.num_spatial)
    h = system.solve_interior(g)
    assert system.iterations <= 2
    assert np.max(np.abs(system.apply(h).ravel() - g)) <= 1e-10 * np.max(np.abs(g))


@pytest.mark.parametrize("dim", [1, 2])
def test_preconditioner_exact_for_row_scaled_layerwise_coefficients(dim):
    # Every weight of a row is c > 0, which varies from node to node, times a
    # weight that is constant on its layer (drift and corner weights included).
    # The stencil is then C M with M layerwise constant, which the row-scaled
    # layer-mean preconditioner inverts; without the scaling GMRES needs more
    # iterations here (15 in 1D and 29 in 2D).
    grid = GridSpec(spatial_dim=dim, nodes_per_axis=12, time_nodes=9)
    a = SpaceField(grid, np.full(grid.spatial_shape, 1.3))
    zero = SpaceField(grid, np.zeros(grid.spatial_shape))
    f = ScalarField(grid, np.ones(grid.field_shape))
    spec = ProblemSpec(grid=grid, a=a, b=0.4, f=f, u0=zero, u1=zero)
    u = ScalarField.sample(grid, lambda t, *xs: -t * (1.0 - t) - 0.3 * t**3 * (1.0 - t))
    layered = assemble_dQ(u, spec)
    c = ScalarField.sample(grid, lambda t, *xs: 1.5 + np.sin(xs[0] + 2.0 * t) * np.cos(xs[-1])).values[1:-1]
    spatial = [(c * 1.2 * plus, c * 0.8 * minus, c * 0.1 * layered.tcoef) for plus, minus, _ in layered.spatial]
    system = operator_module.LinearSystem(grid, c * layered.center, c * layered.tcoef, spatial)
    g = np.random.default_rng(63).standard_normal(grid.interior_layers * grid.num_spatial)
    h = system.solve_interior(g)
    assert system.iterations <= 2
    assert np.max(np.abs(system.apply(h).ravel() - g)) <= 1e-10 * np.max(np.abs(g))


def _record_calls(system, monkeypatch) -> list:
    """Log ("P", iterations) per preconditioner step and ("A", iterations) per stencil action on ``system``."""
    calls = []
    apply, factor = system.apply, operator_module._layer_mean_inverse

    def logged_inverse(ls):
        step = factor(ls)
        return lambda v: (calls.append(("P", system.iterations)), step(v))[1]

    monkeypatch.setattr(system, "apply", lambda h: (calls.append(("A", system.iterations)), apply(h))[1])
    monkeypatch.setattr(operator_module, "_layer_mean_inverse", logged_inverse)
    return calls


def test_solve_interior_zero_rhs_returns_zeros(monkeypatch):
    field, spec = random_admissible_field(11, n=8, nt=6)
    system = assemble_dQ(field, spec)
    calls = _record_calls(system, monkeypatch)
    h = system.solve_interior(np.zeros(spec.grid.interior_layers * spec.grid.num_spatial))
    assert system.iterations == 0 and not calls
    assert h.shape == spec.grid.field_shape and not np.any(h)


@pytest.mark.parametrize("dim,n,nt", [(1, 10, 7), (2, 8, 6)])
@pytest.mark.parametrize("restart", [operator_module.GMRES_RESTART, 3])
def test_gmres_call_counts(monkeypatch, dim, n, nt, restart):
    # Right preconditioning: one preconditioner call and one stencil action per
    # iteration; per cycle, one preconditioner call for the update and one stencil
    # action for the true residual; nothing before the first iteration.
    monkeypatch.setattr(operator_module, "GMRES_RESTART", restart)
    field, spec = random_admissible_field(40 + dim, dim=dim, n=n, nt=nt)
    system = assemble_dQ(field, spec)
    calls = _record_calls(system, monkeypatch)
    system.solve_interior(np.random.default_rng(61).standard_normal(spec.grid.interior_layers * spec.grid.num_spatial))
    iters = system.iterations
    cycles = -(-iters // restart)  # only the last cycle stops short of the restart
    at_p = [i for tag, i in calls if tag == "P"]  # the iteration count at each preconditioner call
    assert "".join(tag for tag, _ in calls) == "PA" * (iters + cycles)
    # cycle c preconditions its basis vectors at counts c*restart, ..., then its update
    assert at_p == [i for c in range(cycles) for i in range(c * restart, min(c * restart + restart, iters) + 1)]
    if restart == 3:
        assert cycles >= 3


@pytest.mark.parametrize("dim,n,nt", [(1, 10, 7), (2, 8, 6)])
def test_restarted_solve_matches_dense_solve(monkeypatch, dim, n, nt):
    monkeypatch.setattr(operator_module, "GMRES_RESTART", 3)
    field, spec = random_admissible_field(40 + dim, dim=dim, n=n, nt=nt)
    system = assemble_dQ(field, spec)
    dense = _dense_jacobian(system, spec.grid)
    g = np.random.default_rng(61).standard_normal(dense.shape[0])
    want = np.linalg.solve(dense, g)
    got = system.solve_interior(g)[1:-1].ravel()
    assert system.iterations > 6  # at least three cycles of at most three iterations
    assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


@pytest.mark.filterwarnings("error")
def test_solve_interior_rejects_bad_answers(monkeypatch):
    field, spec = random_admissible_field(10, n=8, nt=6)
    system = assemble_dQ(field, spec)
    n = spec.grid.interior_layers * spec.grid.num_spatial
    # a nan right-hand side, or one whose 2-norm overflows, fails before the first iteration
    for bad in (np.full(n, np.nan), np.full(n, 1e200)):
        with pytest.raises(LinearSolveError, match="non-finite"):
            system.solve_interior(bad)
        assert system.iterations == 0
    g = np.random.default_rng(63).standard_normal(n)
    step = operator_module._layer_mean_inverse(system)

    def singular(v):  # a zero first pivot, as coefficients near the top of the float range leave
        x = step(v)
        x[1] = np.inf
        return x

    monkeypatch.setattr(operator_module, "_layer_mean_inverse", lambda ls: singular)
    with pytest.raises(LinearSolveError, match="non-finite"):
        system.solve_interior(g)
    assert system.iterations == 0
    monkeypatch.undo()
    monkeypatch.setattr(operator_module, "GMRES_RESTART", 2)
    monkeypatch.setattr(operator_module, "GMRES_MAXITER", 1)
    with pytest.raises(LinearSolveError, match="did not converge"):
        system.solve_interior(g)


def test_matrix_pattern_symmetric():
    field, spec = random_admissible_field(8, n=8, nt=6)
    system = assemble_dQ(field, spec)
    pattern = _dense_jacobian(system, spec.grid) != 0.0
    assert np.array_equal(pattern, pattern.T)


def test_apply_requires_full_shape():
    field, spec = random_admissible_field(9, n=8, nt=6)
    system = assemble_dQ(field, spec)
    with pytest.raises(ValueError):
        system.apply(np.zeros((2, 2)))
