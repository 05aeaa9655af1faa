"""Barrier, Newton, continuation, sweep, and uniqueness tests."""

import functools
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torusgeo as tg
from torusgeo import solver
from torusgeo.config import build_problem, load_config
from torusgeo.mesh import GridSpec, ScalarField, SpaceField, argmax_node, full_node
import torusgeo.operator as operator_module
from torusgeo.operator import (
    GMRES_RTOL,
    LinearSolveError,
    LinearSystem,
    ProblemSpec,
    apply_Q,
    cone_quantities,
)
from torusgeo.solver import (
    LinearSolveFailure,
    LostAdmissibility,
    NEWTON_TOL,
    NonConvergence,
    SolveResult,
    StepCollapse,
    TraceRecord,
    barrier,
    compute_c_star,
    continuation_solve,
    epsilon_sweep,
    newton_solve,
    uniqueness_probe,
)

from conftest import fail_newton, fail_newton_once_at, random_problem


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
        assert cone_quantities(u.values, spec).admissible
        # Q at the barrier dominates f on the interior
        q = apply_Q(u, spec).values[1:-1]
        assert np.min(q - spec.f.values[1:-1]) >= -1e-9


def test_separable_solved_by_barrier_exactly(separable_spec):
    res = continuation_solve(separable_spec)
    assert res.final_residual_sup <= NEWTON_TOL
    assert res.newton_iters_total == 0
    assert res.final_residual_sup <= 1e-12
    exact = ScalarField.sample(separable_spec.grid, lambda t, x: t * t - t)
    assert np.max(np.abs(res.u.values - exact.values)) <= 1e-10


def test_manufactured_inverse_crime():
    # take an admissible profile, use its operator value as the target
    grid = GridSpec(spatial_dim=1, nodes_per_axis=24, time_nodes=13)
    x, = grid.spatial_meshes()
    a = SpaceField(grid, 1.0 + 0.2 * np.cos(x))
    star = ScalarField.sample(grid, lambda t, xx: -1.1 * t * (1 - t) + 0.1 * np.sin(xx) * (1 - t))
    u0 = SpaceField(grid, star.values[0].copy())
    u1 = SpaceField(grid, star.values[-1].copy())
    probe = ProblemSpec(
        grid=grid, a=a, b=0.3, f=ScalarField(grid, np.ones(grid.field_shape)), u0=u0, u1=u1
    )
    fvals = apply_Q(star, probe).values
    assert np.min(fvals[1:-1]) > 0.0
    spec = ProblemSpec(grid=grid, a=a, b=0.3, f=ScalarField(grid, fvals), u0=u0, u1=u1)
    res = continuation_solve(spec)
    assert res.final_residual_sup <= NEWTON_TOL
    assert np.max(np.abs(res.u.values - star.values)) <= 1e-8


def test_continuation_trace_structure():
    spec = random_problem(5, n=24, nt=13)
    res = continuation_solve(spec)
    assert res.final_residual_sup <= NEWTON_TOL
    params = [p for p, _res, _m in res.continuation_trace]
    assert params[0] == 0.0
    assert params[-1] == 1.0
    assert all(b > a for a, b in zip(params, params[1:]))
    for _p, r, mins in res.continuation_trace:
        assert r <= NEWTON_TOL
        assert min(mins) > 0.0
    for rec in res.records:
        # opening rows took no linear solve; every Newton step took some, at a
        # forcing term between the GMRES floor and its cap
        assert (rec.lin_iters == 0) == (rec.iteration == 0)
        if rec.iteration == 0:
            assert rec.lin_rtol == 0.0
        else:
            assert GMRES_RTOL <= rec.lin_rtol <= 0.1


def test_continuation_bisects_then_reraises_linear_solve_failure(monkeypatch):
    calls = []

    def fail(self, g, rtol=GMRES_RTOL):
        calls.append(1)
        raise LinearSolveError("injected failure")

    monkeypatch.setattr(LinearSystem, "solve_interior", fail)
    spec = random_problem(5, n=12, nt=7)
    with pytest.raises(LinearSolveFailure) as info:
        continuation_solve(spec)
    # rung s = 0 needs no step; the full step s = 1 is then halved 11 times
    # (to 1/2048) before the step falls below MIN_PATH_STEP
    assert len(calls) == 12
    assert info.value.phase == "continuation"
    assert info.value.param == 1.0 / 2048
    assert isinstance(info.value.__cause__, LinearSolveError)


def test_continuation_grows_the_step_after_a_bisection(monkeypatch):
    fail_newton_once_at(monkeypatch, 1.0)
    res = continuation_solve(random_problem(5, n=12, nt=7))
    assert [p for p, _res, _m in res.continuation_trace] == [0.0, 0.5, 1.0]
    assert res.rejected == [("continuation", 1.0, "injected collapse")]


@functools.cache
def _driver_problem():
    """A 1D 12x7 problem and its continuation solution with no failure (from the barrier in one step)."""
    spec = random_problem(5, n=12, nt=7)
    return spec, continuation_solve(spec).u.values


def _log_runs(monkeypatch) -> list:
    """Log ``[param, predicted, accepted]`` for each run of the current ``solver.newton_solve``."""
    wrapped, runs = solver.newton_solve, []

    def spy(spec, rhs, u_init, **kwargs):
        runs.append([kwargs["param"], kwargs.get("cone") is not None, False])
        result = wrapped(spec, rhs, u_init, **kwargs)
        runs[-1][2] = True
        return result

    monkeypatch.setattr(solver, "newton_solve", spy)
    return runs


def test_driver_does_not_repeat_a_failed_warm_run(monkeypatch):
    # Runs fail once at s = 0.5 and at every s >= 1, whatever their start (as on a
    # target out of float range). After 0.25 and 0.75 the predicted run at 1 fails,
    # then the warm one; a second warm run from 0.75 at 1 would fail the same way,
    # so the step halves twice, to 0.875.
    fail_newton_once_at(monkeypatch, 0.5)
    fail_newton(monkeypatch, lambda _spec, _phase, p: p >= 1.0)
    runs = _log_runs(monkeypatch)
    with pytest.raises(StepCollapse):
        continuation_solve(random_problem(5, n=12, nt=7))
    assert runs[:8] == [
        [0.0, False, True],
        [1.0, False, False],
        [0.5, False, False],
        [0.25, False, True],
        [0.75, True, True],
        [1.0, True, False],
        [1.0, False, False],
        [0.875, False, True],
    ]


_DYADIC = st.integers(1, 16).map(lambda k: k / 16)


# The homotopy driver's contract, on the continuation path s: 0 -> 1. Newton runs
# fail at drawn dyadic points, each a drawn number of times (at most 10 failures,
# which halve the step at most 10 times, so the path still succeeds), and, when a
# wall is drawn, at every point from the wall on, which the path can never pass.
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(_DYADIC, st.integers(1, 2), max_size=5), st.none() | _DYADIC)
@example({0.5: 1}, 1.0)  # test_driver_does_not_repeat_a_failed_warm_run's failures
def test_driver_contract_under_injected_failures(counts, wall):
    spec, u_clean = _driver_problem()
    counts, injected = dict(counts), []

    def when(_spec, phase, p):
        fails = counts.get(p, 0) > 0 or (wall is not None and p >= wall)
        if fails:
            counts[p] = counts.get(p, 0) - 1
            injected.append((phase, p, "injected collapse"))
        return fails

    with pytest.MonkeyPatch.context() as mp:
        fail_newton(mp, when)
        runs = _log_runs(mp)
        rejected = []
        if wall is None:
            res = continuation_solve(spec, rejected=rejected)
        else:
            with pytest.raises(StepCollapse) as info:
                continuation_solve(spec, rejected=rejected)

    assert rejected == injected
    # One failure rule: a failed run, predicted or warm, halves the step and the
    # next run starts warm; an accepted one doubles it. A halved step that still
    # passes p = 1 is cut short there, so a warm run can follow a failed predicted
    # one at 1; after a failed warm run the step halves until p moves.
    s, ds = 0.0, 1.0  # the driver's state after the verification rung s = 0
    for i, (p, predicted, accepted) in enumerate(runs[1:], 1):
        assert p == min(s + ds, 1.0)
        if predicted:
            assert runs[i - 1][2] and sum(ok for _p, _pred, ok in runs[:i]) >= 2
        assert runs[i - 1] != [p, False, False]  # no warm run repeats a failed one
        s, ds = (p, 2.0 * ds) if accepted else (s, 0.5 * ds)
        while not (accepted or predicted) and s + ds >= 1.0:
            ds *= 0.5
    accepted_params = [p for p, _pred, ok in runs if ok]
    assert accepted_params[0] == 0.0 and all(b > a for a, b in zip(accepted_params, accepted_params[1:]))
    if wall is None:
        assert accepted_params[-1] == 1.0
        assert [p for p, _res, _m in res.continuation_trace] == accepted_params
        assert np.max(np.abs(res.u.values - u_clean)) <= 1e-10
    else:
        # the run that re-raises is the warm one at the smallest step past the last accepted point
        assert (info.value.phase, info.value.param) == injected[-1][:2]
        assert info.value.param == accepted_params[-1] + solver.MIN_PATH_STEP >= wall


def test_sweep_warm_path_bisects_in_eps(monkeypatch, separable_spec):
    # the full warm step to 0.5 fails once; half the step reaches 0.75, the doubled step 0.5
    fail_newton_once_at(monkeypatch, 0.5)
    entries = epsilon_sweep(separable_spec, [1.0, 0.5])
    assert entries[0].result.rejected == []
    assert entries[1].result.rejected == [("sweep", 0.5, "injected collapse")]
    assert entries[1].rejected == entries[1].result.rejected
    assert [p for p, _res, _m in entries[1].result.continuation_trace] == [0.75, 0.5]
    assert {rec.phase for rec in entries[1].result.records} == {"sweep"}


def test_sweep_records_failed_warm_start_on_cold_result(monkeypatch, separable_spec):
    # every warm attempt fails: the step is halved down to 1/2048, then the rung falls back cold
    fail_newton(monkeypatch, lambda _spec, phase, _p: phase == "sweep")
    entries = epsilon_sweep(separable_spec, [1.0, 0.5])
    cold = entries[1].result
    assert [p for p, _res, _m in cold.continuation_trace] == [0.0, 1.0]
    assert {rec.phase for rec in cold.records} == {"sweep-cold"}
    assert cold.rejected == [("sweep", 0.5, "injected collapse")] + [
        ("sweep", 1.0 - 0.5 * 2.0**-k, "injected collapse") for k in range(1, 12)
    ]
    assert entries[1].rejected == cold.rejected


def test_sweep_keeps_attempts_of_a_rung_that_fails_outright(monkeypatch, separable_spec):
    # on the eps = 0.5 rung every run fails but the cold verification rung s = 0
    fail_newton(monkeypatch, lambda spec, _phase, p: np.max(spec.f.values) == 0.5 and p != 0.0)
    entries = epsilon_sweep(separable_spec, [1.0, 0.5, 0.25])
    failed = entries[1]
    assert failed.result is None and failed.error == "injected collapse"
    assert [(phase, p) for phase, p, _reason in failed.rejected] == [
        ("sweep", 0.5),
        *(("sweep", 1.0 - 0.5 * 2.0**-k) for k in range(1, 12)),
        *(("sweep-cold", 2.0**-k) for k in range(12)),
    ]
    # the next rung restarts cold
    assert [p for p, _res, _m in entries[2].result.continuation_trace] == [0.0, 1.0]


def _spy_predicted_runs(monkeypatch, fail=False) -> list:
    """Log the param of each Newton run handed a predicted start's cone; with ``fail``, make those runs collapse."""
    real, predicted = solver.newton_solve, []

    def newton(spec, rhs, u_init, **kwargs):
        if kwargs.get("cone") is not None:
            predicted.append(kwargs["param"])
            if fail:
                raise tg.StepCollapse("injected collapse", phase=kwargs["phase"], param=kwargs["param"])
        return real(spec, rhs, u_init, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", newton)
    return predicted


def test_sweep_predicts_rungs_after_two_solved_ones(monkeypatch):
    # The bundled separable sweep solves eps (t^2 - t): linear in eps, so the
    # secant start of every rung from the third on already solves it.
    cfg = load_config(os.path.join(os.path.dirname(tg.__file__), "configs", "separable.cfg"))
    predicted = _spy_predicted_runs(monkeypatch)
    entries = epsilon_sweep(build_problem(cfg), cfg.sweep.epsilons)
    assert predicted == [0.25, 0.125, 0.0625]
    assert [e.result.newton_iters_total for e in entries] == [0, 1, 0, 0, 0]
    assert all(e.rejected == [] for e in entries)
    assert all({rec.phase for rec in e.result.records} == {"sweep"} for e in entries[1:])


def test_sweep_failed_predicted_run_falls_back_to_the_warm_path(monkeypatch, separable_spec):
    predicted = _spy_predicted_runs(monkeypatch, fail=True)
    entries = epsilon_sweep(separable_spec, [1.0, 0.5, 0.25])
    # each failed prediction of 0.25 halves the step; the warm half step from
    # eps = 0.5 reaches 0.375, whose doubled step is predicted and fails again,
    # and the warm half step from 0.375 reaches 0.25
    assert predicted == [0.25, 0.25]
    assert entries[2].rejected == [("sweep", 0.25, "injected collapse")] * 2
    assert entries[2].result.rejected is entries[2].rejected
    assert [p for p, _res, _m in entries[2].result.continuation_trace] == [0.375, 0.25]
    assert entries[2].result.newton_iters_total > 0


def _roadmap_spec(n=16, nt=9, f=lambda x, y: 2.0 - 0.3 * np.cos(x) * np.sin(y)) -> ProblemSpec:
    """The 2D n^2 x nt instance of a = 1 + 0.2 sin x cos y, b = 0.1, u0 = 0.1 sin(x + y),
    u1 = -0.1 cos(x - y) and f(x, y), by default 2 - 0.3 cos x sin y."""
    grid = GridSpec(spatial_dim=2, nodes_per_axis=n, time_nodes=nt)
    x, y = grid.spatial_meshes()
    f = np.broadcast_to(f(x, y), grid.field_shape)
    return ProblemSpec(
        grid=grid,
        a=SpaceField(grid, 1.0 + 0.2 * np.sin(x) * np.cos(y)),
        b=0.1,
        f=ScalarField(grid, f.copy()),
        u0=SpaceField(grid, 0.1 * np.sin(x + y)),
        u1=SpaceField(grid, -0.1 * np.cos(x - y)),
    )


def _lin_iters(result) -> int:
    return sum(rec.lin_iters for rec in result.records)


# Deterministic count gates on the ROADMAP problem. Solving every Newton step
# to a fixed relative residual of 1e-12 took 4 Newton steps and 49 GMRES
# iterations for the continuation solve, and 15 Newton steps and 215 GMRES
# iterations for the sweep below; the forcing terms must at least halve the
# GMRES work and cost at most one more Newton step on the solve.
def test_roadmap_problem_takes_the_full_step():
    res = continuation_solve(_roadmap_spec())
    assert [p for p, _res, _m in res.continuation_trace] == [0.0, 1.0]
    assert res.newton_iters_total <= 5
    assert _lin_iters(res) <= 49 // 2
    assert res.rejected == []


# GMRES work with the row-scaled layer-mean preconditioner: each bound is the
# measured count plus 10%, 49 for the secant-started sweep (57 with every rung
# started from the previous solution) and 66 for the near-degenerate
# continuation solve (76 and 96 without the row scaling).
def test_roadmap_sweep_gmres_work():
    entries = epsilon_sweep(_roadmap_spec(), [1.0, 1e-1, 1e-2, 1e-3, 1e-4])
    assert all(e.result is not None and e.rejected == [] for e in entries)
    assert sum(_lin_iters(e.result) for e in entries) <= 53


# The secant start on a long ladder: the ROADMAP problem from eps = 1 to 1e-8
# takes 15 Newton steps (24 with every rung started from the previous solution),
# none on the last three rungs.
def test_roadmap_long_ladder_newton_steps():
    entries = epsilon_sweep(_roadmap_spec(20, 11), [10.0**-k for k in range(9)])
    assert all(e.result is not None and e.rejected == [] for e in entries)
    assert sum(e.result.newton_iters_total for e in entries) <= 16


def test_near_degenerate_solve_gmres_work():
    res = continuation_solve(_roadmap_spec(20, 11, f=lambda x, y: 1.0 + np.cos(x) + 1e-4))
    assert res.rejected == []
    assert _lin_iters(res) <= 72


# Memory per unknown: the traced peak of a near-degenerate solve, in interior arrays
# of (Nt - 2) N^2 float64 values. It read 86.69-86.78 after other solves in the
# process and 89.27-89.30 as the first solve of a process, which also imports
# numpy.fft and fills the cache of Fourier factors.
def test_near_degenerate_solve_memory():
    spec = _roadmap_spec(24, 13, f=lambda x, y: 1.0 + np.cos(x) + 1e-4)
    interior_bytes = spec.grid.interior_layers * spec.grid.num_spatial * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = continuation_solve(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.rejected == []
    assert (peak - base) / interior_bytes <= 90


# Near a zero of the target, the forcing term must not allow a linear residual
# larger than the target itself. With a relative 2-norm tolerance of up to 0.1
# alone, the sweep below took 957 Newton iterations and rejected 225 rungs, and
# the diagonal-data solve 353 Newton steps; capping the tolerance at half the
# smallest target in RMS gives 37 (39 before the secant start) and 0, and 24.
# The secant starts of the eps = 1e-2 and 1e-3 rungs leave the cone, so those
# rungs start from the previous solution and record nothing.
@pytest.mark.filterwarnings("error")
def test_near_degenerate_sweep_rejects_no_rung(monkeypatch):
    spec = _roadmap_spec(20, 11, f=lambda x, y: 1.0 + np.cos(x) + 1e-4)
    predicted = _spy_predicted_runs(monkeypatch)
    entries = epsilon_sweep(spec, [10.0**-k for k in range(7)])
    assert predicted == [10.0**-k for k in (4, 5, 6)]
    assert all(e.result is not None and e.rejected == [] for e in entries)
    assert sum(e.result.newton_iters_total for e in entries) <= 40


def test_first_step_solves_to_the_oversolving_floor_near_the_solution():
    # the floor 0.5 NEWTON_TOL / ||g|| passes FORCING_FLOOR_SWITCH = 1e-6 below ||g|| = 5e-5;
    # from there up the first step keeps FORCING_START
    assert solver._forcing_term(1e-4, np.nan, 1.0) == solver.FORCING_START
    assert solver._forcing_term(5e-5, np.nan, 1.0) == solver.FORCING_START
    assert solver._forcing_term(1e-6, np.nan, 1.0) == 0.5 * NEWTON_TOL / 1e-6
    # later steps keep the Eisenstat-Walker term
    assert solver._forcing_term(1e-6, 1e-5, 1.0) == solver.FORCING_GAMMA * (1e-6 / 1e-5) ** 2
    # the RMS cap still applies
    assert solver._forcing_term(1e-6, np.nan, 1e-12) == 1e-12 / 1e-6


# GMRES restarts inside Newton: with a restart every 6 iterations the near-degenerate
# continuation restarts at its hard steps, and must still take the same Newton steps
# to the same solution as the unrestarted run.
def test_restarted_gmres_inside_newton(monkeypatch):
    spec = _roadmap_spec(20, 11, f=lambda x, y: 1.0 + np.cos(x) + 1e-4)
    full = continuation_solve(spec)
    monkeypatch.setattr(operator_module, "GMRES_RESTART", 6)
    restarted = continuation_solve(spec)
    assert full.rejected == [] and restarted.rejected == []
    assert max(rec.lin_iters for rec in restarted.records) > 6
    assert restarted.newton_iters_total == full.newton_iters_total
    assert np.max(np.abs(restarted.u.values - full.u.values)) <= 1e-10


@pytest.mark.filterwarnings("error")
def test_diagonal_data_solve_with_tiny_f():
    grid = GridSpec(spatial_dim=2, nodes_per_axis=32, time_nodes=17)
    x, y = grid.spatial_meshes()
    spec = ProblemSpec(
        grid=grid,
        a=SpaceField(grid, np.ones(grid.spatial_shape)),
        b=0.0,
        f=ScalarField(grid, np.full(grid.field_shape, 1e-6)),
        u0=SpaceField(grid, 0.3 * np.sin(x + y)),
        u1=SpaceField(grid, 0.2 * np.cos(x + y) + 0.05 * np.sin(2.0 * (x + y))),
    )
    steps = []  # every Newton step, failed runs included
    continuation_solve(spec, on_record=lambda rec: steps.append(rec.iteration > 0))
    assert sum(steps) <= 30


def _row(param, iteration, residual, mins=(1.0, 2.0, 3.0)):
    return TraceRecord("continuation", param, iteration, residual, *mins, float(iteration > 0), iteration, 0.0)


def test_solve_result_totals_come_from_records():
    two_runs = SolveResult(
        None,
        [_row(0.0, 0, 1e-14), _row(1.0, 0, 0.5), _row(1.0, 1, 1e-3, (4.0, 5.0, 6.0)), _row(1.0, 2, 1e-11, (7.0, 8.0, 9.0))],
    )
    assert two_runs.final_residual_sup == 1e-11
    assert two_runs.newton_iters_total == 2
    assert two_runs.continuation_trace == [(0.0, 1e-14, (1.0, 2.0, 3.0)), (1.0, 1e-11, (7.0, 8.0, 9.0))]
    # a run that converged at its start is one row
    at_start = SolveResult(None, [_row(0.0, 0, 0.0)])
    assert at_start.final_residual_sup == 0.0
    assert at_start.newton_iters_total == 0
    assert at_start.continuation_trace == [(0.0, 0.0, (1.0, 2.0, 3.0))]


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


def test_newton_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
    spec = random_problem(6, n=24, nt=13)
    u = barrier(spec, -compute_c_star(spec))
    with pytest.raises(NonConvergence, match="after 1 iterations"):
        newton_solve(spec, spec.f, u)


def test_line_search_collapse_names_the_node_that_leaves_the_cone(monkeypatch, separable_spec):
    # The correction is one spike. Scaled by any alpha >= MIN_ALPHA it lowers
    # u_tt at its node by 2 alpha spike / ht^2 >= 2 u_tt, while every other
    # node keeps all three margins, so the search collapses on that node.
    spec = separable_spec
    u = barrier(spec, -2.0)  # u_tt = 4, B = 1, Q = 4 > f = 2
    node = (5, 11)
    spike = np.zeros(spec.grid.field_shape)
    spike[node] = 2.0 * 4.0 * spec.grid.ht**2 / solver.MIN_ALPHA
    monkeypatch.setattr(LinearSystem, "solve_interior", lambda self, g, rtol=GMRES_RTOL: spike)
    with pytest.raises(StepCollapse, match=r"cone margin violated at node \(5, 11\)") as info:
        newton_solve(spec, spec.f, u)
    assert info.value.node == node


def test_line_search_stall_names_the_node_of_the_largest_residual(monkeypatch, separable_spec):
    # A zero correction keeps every margin and never lowers the residual.
    spec = separable_spec
    u = barrier(spec, -2.0)
    monkeypatch.setattr(
        LinearSystem, "solve_interior", lambda self, g, rtol=GMRES_RTOL: np.zeros(spec.grid.field_shape)
    )
    with pytest.raises(StepCollapse, match=r"line search stalled: residual .* near node") as info:
        newton_solve(spec, spec.f, u)
    res = np.abs(apply_Q(u, spec).values - spec.f.values)[1:-1]
    assert info.value.node == full_node(argmax_node(res))


def test_newton_reconverges_after_perturbation():
    spec = random_problem(7, n=24, nt=13)
    res = continuation_solve(spec)
    rng = np.random.default_rng(70)
    pert = np.zeros(spec.grid.field_shape)
    pert[1:-1] = 1e-4 * spec.grid.ht**2 * rng.standard_normal(
        (spec.grid.interior_layers,) + spec.grid.spatial_shape
    )
    start = ScalarField(spec.grid, res.u.values + pert)
    assert cone_quantities(start.values, spec).admissible
    res2 = newton_solve(spec, spec.f, start)
    assert res2.final_residual_sup <= NEWTON_TOL
    assert np.max(np.abs(res2.u.values - res.u.values)) <= 1e-9


def test_epsilon_sweep_validation(separable_spec):
    with pytest.raises(ValueError):
        epsilon_sweep(separable_spec, [])
    with pytest.raises(ValueError):
        epsilon_sweep(separable_spec, [1.0, 2.0])
    with pytest.raises(ValueError):
        epsilon_sweep(separable_spec, [1.0, -0.5])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            epsilon_sweep(separable_spec, [bad])


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
    # u + alpha t + beta: linear in t and constant in space, so Q cannot see it
    t = spec.grid.time_column()
    shifted = ScalarField(spec.grid, res.u.values + 0.3 * t - 0.2)
    q_after = apply_Q(shifted, spec).values[1:-1]
    scale = 1.0 + float(np.max(np.abs(q_before)))
    assert np.max(np.abs(q_after - q_before)) <= 1e-12 * scale
