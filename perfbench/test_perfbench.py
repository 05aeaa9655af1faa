"""Tests of the benchmark's own code: the oracle, the generator and the tracer.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle  # noqa: E402
import torusgeo as tg  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

N, NT = 8, 7


def small_spec(problem: workloads.Problem) -> tg.ProblemSpec:
    grid = tg.GridSpec(spatial_dim=2, nodes_per_axis=N, time_nodes=NT)
    fields = problem.fields(N)
    return tg.ProblemSpec(
        grid=grid,
        a=tg.SpaceField(grid, fields["a"]),
        b=workloads.B,
        f=tg.ScalarField(grid, np.broadcast_to(fields["f"], grid.field_shape).copy()),
        u0=tg.SpaceField(grid, fields["u0"]),
        u1=tg.SpaceField(grid, fields["u1"]),
    )


@pytest.fixture(scope="module")
def solved():
    problem = workloads.Problem((0.3, 1.1, 2.0, 4.4, 0.7, 5.9))
    spec = small_spec(problem)
    return problem, spec, tg.continuation_solve(spec)


def test_oracle_q_matches_apply_q_to_rounding(solved):
    _problem, spec, result = solved
    rng = np.random.default_rng(7)
    u = result.u.values + 1e-3 * rng.standard_normal(result.u.values.shape)
    _utt, b_u, q = oracle.cone_margins(u, spec.a.values, spec.b, spec.grid.hx, spec.grid.ht)
    expected = tg.apply_Q(tg.ScalarField(spec.grid, u), spec).values[1:-1]
    assert np.max(np.abs(q - expected)) <= 1e-12 * np.max(np.abs(expected))
    expected_b = tg.compute_B(tg.ScalarField(spec.grid, u), spec).values
    assert np.max(np.abs(b_u - expected_b)) <= 1e-12 * np.max(np.abs(expected_b))


def test_oracle_accepts_solution_and_rejects_perturbation(solved):
    problem, _spec, result = solved
    fields = problem.fields(N)
    u = result.u.values
    assert oracle.check_solution(u, fields, workloads.B, fields["f"], NT) == []

    bumped = u.copy()
    bumped[NT // 2, 3, 4] += 1e-6
    fails = oracle.check_solution(bumped, fields, workloads.B, fields["f"], NT)
    assert any("residual" in f for f in fails)

    moved = u.copy()
    moved[0] += 1e-9
    assert any("boundary" in f for f in oracle.check_solution(moved, fields, workloads.B, fields["f"], NT))


def test_oracle_reads_what_the_program_writes(solved, tmp_path):
    _problem, _spec, result = solved
    tg.write_field_bin(result.u, tmp_path / "u.bin")
    tg.write_field_csv(result.u, tmp_path / "u.csv")
    shape = result.u.values.shape
    np.testing.assert_array_equal(oracle.read_field_bin(str(tmp_path / "u.bin"), shape), result.u.values)
    np.testing.assert_array_equal(oracle.read_field_csv(str(tmp_path / "u.csv"), shape), result.u.values)


def test_backtracks_from_hand_written_trace():
    text = (
        "phase,param,iteration,residual,min_utt,min_B,min_Q,alpha\n"
        "continuation,0,0,0.5,1,1,1,0\n"
        "continuation,0.5,1,0.25,1,1,1,1\n"
        "continuation,0.5,2,0.125,1,1,1,0.5\n"
        "continuation,0.5,3,0.0625,1,1,1,0.125\n"
        "continuation,1,0,0.5,1,1,1,0\n"
    )
    alphas = oracle.trace_alphas(text)
    assert alphas == [0.0, 1.0, 0.5, 0.125, 0.0]
    assert oracle.backtracks(alphas) == 4


def test_default_seed_is_the_roadmap_problem():
    text = workloads.draw_problem(0, lambda p: True).config_text()
    for line in (
        "a = 1 + 0.2*sin(x)*cos(y)",
        "b = 0.1",
        "f = 2 - 0.3*cos(x)*sin(y)",
        "u0 = 0.1*sin(x + y)",
        "u1 = -0.1*cos(x - y)",
        "nodes_per_axis = 20",
        "time_nodes = 11",
    ):
        assert line in text.splitlines()


def test_seeds_are_reproducible_and_redrawn_until_accepted():
    first = workloads.draw_problem(5, lambda p: True)
    assert workloads.draw_problem(5, lambda p: True) == first
    assert workloads.draw_problem(6, lambda p: True) != first
    seen = []
    redrawn = workloads.draw_problem(5, lambda p: seen.append(p) or len(seen) > 2)
    assert redrawn == seen[-1] and len(seen) == 3 and redrawn != first
    assert workloads.scan_seeds(3) == workloads.scan_seeds(3) != workloads.scan_seeds(4)


def test_generated_config_is_what_the_oracle_evaluates(tmp_path):
    problem = workloads.draw_problem(9, lambda p: True)
    path = tmp_path / "p.cfg"
    path.write_text(problem.config_text(epsilons=workloads.EPSILONS))
    cfg = tg.load_config(str(path))
    spec = tg.build_problem(cfg)
    fields = problem.fields(workloads.GRID["nodes_per_axis"])
    for name in ("a", "u0", "u1"):
        np.testing.assert_allclose(getattr(spec, name).values, fields[name], rtol=0, atol=1e-15)
    np.testing.assert_allclose(spec.f.values, np.broadcast_to(fields["f"], spec.f.values.shape), atol=1e-15)
    assert cfg.sweep.epsilons == workloads.EPSILONS


def test_traced_counts_match_the_solver(solved):
    _problem, spec, _result = solved
    t = tracer.Tracer()
    with t.installed():
        result = tg.solver.continuation_solve(spec)
    assert tg.solver.newton_solve.__name__ == "newton_solve"
    assert not hasattr(tg.solver.newton_solve, "__wrapped__")  # restored
    m = tracer.layer_metrics(t.spans)
    assert t.missing == []
    assert m["solver.newton_iters"] == result.newton_iters_total
    assert m["operator.linear_solve.calls"] == result.newton_iters_total
    assert m["operator.linear_solve.unknowns"] == result.newton_iters_total * (NT - 2) * N * N
    assert m["solver.rungs_accepted"] == len(result.continuation_trace)
    assert m["solver.line_search.trials"] >= m["solver.newton_iters"]
    assert m["solver.continuation_solve.s"] > m["operator.linear_solve.s"] > 0.0


def test_missing_layer_is_reported_and_the_rest_still_traced(monkeypatch, solved):
    _problem, spec, _result = solved
    gone = ("torusgeo.operator", "assemble_dQ_matrix_free", "operator.gone", None)
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + (gone,))
    t = tracer.Tracer()
    with t.installed():
        tg.solver.newton_solve(spec, spec.f, tg.solver.continuation_solve(spec).u)
    assert t.missing == ["torusgeo.operator.assemble_dQ_matrix_free"]
    m = tracer.layer_metrics(t.spans)
    assert m["solver.rungs_accepted"] > 1 and m["operator.linear_solve.calls"] > 0


def test_rejected_rungs_and_sweep_fallbacks_are_counted():
    t = tracer.Tracer()

    def fail():
        raise tg.StepCollapse("stalled")

    newton = t.wrap(fail, "solver.newton_solve")
    cold = t.wrap(lambda: None, "solver.continuation_solve")
    with t.span("solver.epsilon_sweep"):
        cold()  # first rung: cold by design, not a fallback
        with pytest.raises(tg.StepCollapse):
            newton()
        cold()  # after a failed warm start: a fallback
    m = tracer.layer_metrics(t.spans)
    assert m["solver.rungs_rejected"] == 1
    assert m["solver.sweep_cold_fallbacks"] == 1


def test_changed_result_fields_are_reported_not_raised():
    t = tracer.Tracer()
    newton = t.wrap(lambda: None, "solver.newton_solve", tracer._newton_attrs)
    for _ in range(2):
        assert newton() is None
    assert t.missing == ["solver.newton_solve result fields"]
    m = tracer.layer_metrics(t.spans)
    assert m["solver.rungs_accepted"] == 2 and m["solver.newton_iters"] == 0
