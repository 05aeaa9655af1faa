"""Bound checks, identity suite, and report rendering tests."""

import numpy as np
import pytest

import torusgeo as tg
from torusgeo.estimates import bounds_report, write_bounds_report
from torusgeo.mesh import GridSpec, ScalarField, SpaceField
from torusgeo.operator import ProblemSpec, apply_Q

from conftest import random_admissible_field, random_problem


def _flat_spec(n=16, nt=9):
    grid = GridSpec(spatial_dim=1, nodes_per_axis=n, time_nodes=nt)
    a = SpaceField(grid, np.ones(grid.spatial_shape))
    zero = SpaceField(grid, np.zeros(grid.spatial_shape))
    f = ScalarField(grid, np.full(grid.field_shape, 2.0))
    return ProblemSpec(grid=grid, a=a, b=0.0, f=f, u0=zero, u1=zero)


def test_c0_on_exact_profile():
    spec = _flat_spec()
    u = ScalarField.sample(spec.grid, lambda t, x: t * t - t)
    chk = bounds_report(u, spec, c=1.0)
    assert chk.c0_lower_ok and chk.c0_upper_ok
    # u equals the lower envelope exactly, so the margin is zero not negative
    assert chk.c0_worst_lower <= chk.c0_tol
    assert chk.c0_worst_upper <= chk.c0_tol


def test_c0_detects_undershoot():
    spec = _flat_spec()
    u = ScalarField.sample(spec.grid, lambda t, x: 5.0 * (t * t - t))
    chk = bounds_report(u, spec, c=1.0)
    assert not chk.c0_lower_ok
    assert chk.c0_worst_lower > 0.1


def test_c0_detects_overshoot():
    spec = _flat_spec()
    u = ScalarField.sample(spec.grid, lambda t, x: 0.5 * t * (1.0 - t))
    chk = bounds_report(u, spec, c=1.0)
    assert not chk.c0_upper_ok


def test_ut_chain_on_exact_profile():
    spec = _flat_spec()
    u = ScalarField.sample(spec.grid, lambda t, x: t * t - t)
    chk = bounds_report(u, spec, c=1.0)
    assert chk.ut_bounds_ok
    assert chk.ut_boundary_extremal
    # delta = 0, c = 1: the one-sided stencils are exact on quadratics, so the
    # boundary derivatives land exactly on the endpoints of the allowed ranges
    assert chk.ut_min_t0 == pytest.approx(-1.0, abs=1e-12)
    assert chk.ut_max_t0 == pytest.approx(-1.0, abs=1e-12)
    assert chk.ut_min_t1 == pytest.approx(1.0, abs=1e-12)
    assert chk.ut_max_t1 == pytest.approx(1.0, abs=1e-12)


def test_ut_chain_detects_interior_extremum():
    spec = _flat_spec(nt=17)
    u = ScalarField.sample(spec.grid, lambda t, x: -np.cos(2.0 * np.pi * t) / (2.0 * np.pi))
    chk = bounds_report(u, spec, c=0.05)
    # u_t peaks at quarter period, strictly inside the time interval
    assert not chk.ut_boundary_extremal


def test_ut_chain_detects_range_violation():
    spec = _flat_spec(nt=17)
    u = ScalarField.sample(spec.grid, lambda t, x: t * t - t - 0.3 * np.sin(np.pi * t))
    chk = bounds_report(u, spec, c=0.5)
    # u_t(1) = 1 + 0.3 pi, far beyond delta + c = 0.5
    assert not chk.ut_bounds_ok
    assert chk.ut_worst_violation > 1.0


def test_ut_chain_on_solved_instances():
    for seed in (0, 1):
        spec = random_problem(seed, n=24, nt=13)
        res = tg.continuation_solve(spec)
        chk = bounds_report(res.u, spec, tg.compute_c_star(spec))
        assert chk.ut_bounds_ok
        assert chk.ut_boundary_extremal
        assert chk.ut_worst_violation <= chk.ut_slack


def test_weak_c2_oracle_values():
    grid = GridSpec(spatial_dim=1, nodes_per_axis=16, time_nodes=9)
    a = SpaceField(grid, np.ones(grid.spatial_shape))
    zero = SpaceField(grid, np.zeros(grid.spatial_shape))
    f = ScalarField(grid, np.full(grid.field_shape, 2.0))
    spec = ProblemSpec(grid=grid, a=a, b=0.0, f=f, u0=zero, u1=zero)
    u = ScalarField.sample(grid, lambda t, x: 3.0 * (t * t - t))
    rep = bounds_report(u, spec, c=1.0)
    assert rep.sup_utt == pytest.approx(6.0, abs=1e-12)
    assert rep.sup_lap_u <= 1e-12
    assert rep.sup_grad_ut <= 1e-12
    assert rep.sup_grad_u <= 1e-12
    # sinusoidal profile: discrete laplacian of sin is -(2 - 2 cos hx)/hx^2 sin
    v = ScalarField.sample(grid, lambda t, x: 0.2 * np.sin(x))
    rep2 = bounds_report(v, spec, c=1.0)
    factor = (2.0 - 2.0 * np.cos(grid.hx)) / grid.hx**2
    assert rep2.sup_lap_u == pytest.approx(0.2 * factor * np.max(np.abs(np.sin(grid.axis_coords()))), rel=1e-10)


def test_identity_suite_at_rounding_floor():
    for seed in (11, 12):
        field, spec = random_admissible_field(seed, n=12, nt=9)
        ids = bounds_report(field, spec, tg.compute_c_star(spec), rhs=apply_Q(field, spec))
        scale = 1.0 + float(np.max(np.abs(apply_Q(field, spec).values)))
        assert ids.identity_err_dq_t <= 1e-10 * scale
        assert ids.identity_err_dq_t2 <= 1e-10 * scale
        assert ids.identity_err_dq_u <= 1e-10 * scale


def test_f_dependencies_values():
    grid = GridSpec(spatial_dim=1, nodes_per_axis=16, time_nodes=9)
    a = SpaceField(grid, np.ones(grid.spatial_shape))
    zero = SpaceField(grid, np.zeros(grid.spatial_shape))
    tt, xx = grid.field_meshes()
    fvals = 2.0 + np.sin(xx) * np.cos(np.pi * tt)
    spec = ProblemSpec(grid=grid, a=a, b=0.0, f=ScalarField(grid, fvals), u0=zero, u1=zero)
    deps = bounds_report(ScalarField.sample(grid, lambda t, x: t * t - t), spec, c=1.0)
    assert deps.dep_sup_f == pytest.approx(float(np.max(fvals)))
    assert deps.dep_sup_neg_f_tt >= 0.0
    assert np.isfinite(deps.dep_sup_ft_sq_over_f)
    assert deps.dep_sup_grad_sqrt_f >= 0.0
    # strictly positive f keeps every functional finite
    assert all(
        np.isfinite(v)
        for v in (
            deps.dep_sup_f,
            deps.dep_sup_neg_f_tt,
            deps.dep_sup_ft_sq_over_f,
            deps.dep_sup_neg_lap_f,
            deps.dep_sup_grad_sqrt_f,
        )
    )


# Every key of bounds.txt, in file order.
BOUNDS_KEYS = [
    "c_used",
    "c0_lower_ok",
    "c0_upper_ok",
    "c0_worst_lower",
    "c0_worst_upper",
    "c0_tol",
    "ut_bounds_ok",
    "ut_min_t0",
    "ut_max_t0",
    "ut_min_t1",
    "ut_max_t1",
    "ut_range_t0_lo",
    "ut_range_t0_hi",
    "ut_range_t1_lo",
    "ut_range_t1_hi",
    "ut_worst_violation",
    "ut_boundary_extremal",
    "ut_slack",
    "sup_utt",
    "sup_utt_loc",
    "sup_lap_u",
    "sup_lap_u_loc",
    "sup_grad_ut",
    "sup_grad_ut_loc",
    "sup_grad_u",
    "sup_grad_u_loc",
    "identity_err_dq_t",
    "identity_err_dq_t2",
    "identity_err_dq_u",
    "dep_sup_f",
    "dep_sup_neg_f_tt",
    "dep_sup_ft_sq_over_f",
    "dep_sup_neg_lap_f",
    "dep_sup_grad_sqrt_f",
    "checks_passed",
]


def test_bounds_report_render_and_write(tmp_path):
    spec = _flat_spec()
    u = ScalarField.sample(spec.grid, lambda t, x: t * t - t)
    rep = bounds_report(u, spec, c=1.0)
    assert rep.passed
    text = rep.render()
    assert [line.split(" = ")[0] for line in text.splitlines()] == BOUNDS_KEYS
    path = tmp_path / "bounds.txt"
    write_bounds_report(rep, path)
    assert path.read_text() == text
    # stable under re-rendering
    assert rep.render() == text


def test_bounds_report_uses_supplied_rhs():
    spec = _flat_spec()
    u = ScalarField.sample(spec.grid, lambda t, x: t * t - t)
    rep = bounds_report(u, spec, c=1.0, rhs=spec.f)
    assert rep.identity_err_dq_u <= 1e-10
