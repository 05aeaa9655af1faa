"""Barrier construction, damped Newton iteration and continuation drivers.

The solve strategy is interior-point flavoured: every iterate keeps the three
cone margins u_tt, B_u and Q strictly positive. A fraction-to-boundary line
search first shrinks the step until the trial keeps at least a fixed fraction
of each current margin at every node, then keeps halving until the residual
sup-norm strictly decreases.

The continuation driver connects the explicitly admissible quadratic barrier
U_{-c*} to the target equation through the family

    Q(u) = (1 - s) Q(U_{-c*}) + s f,      s: 0 -> 1,

warm-starting each rung at the previous solution. The epsilon sweep reuses
the same machinery to walk the right-hand side toward the degenerate limit
f -> 0 while recording the weak second-order measurements that are expected
to stay bounded uniformly in epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .estimates import BoundsReport, bounds_report
from .mesh import GridSpec, ScalarField, argmax_node, argmin_node, gradient
from .operator import (
    ConeData,
    InvalidProblem,
    LinearSolveError,
    ProblemSpec,
    apply_Q,
    assemble_dQ,
    cone_quantities,
)


class SolverError(RuntimeError):
    """Base class for solver failures.

    Attributes: ``node`` is the offending lattice node (full-axis layer index
    plus spatial multi-index) when one is identified, ``phase`` and ``param``
    locate the failure inside a continuation or sweep ladder.
    """

    def __init__(self, message: str, node: tuple | None = None, phase: str = "", param: float = math.nan):
        super().__init__(message)
        self.node = node
        self.phase = phase
        self.param = param


class NonConvergence(SolverError):
    """Newton iteration exhausted its iteration budget."""


class StepCollapse(SolverError):
    """Line search shrank the step below the configured floor."""


class LostAdmissibility(SolverError):
    """An iterate left the admissible cone."""


class LinearSolveFailure(SolverError):
    """The linear solve for a Newton correction failed."""


@dataclass(frozen=True)
class SolveOptions:
    """Newton and continuation tuning knobs.

    ``damping_fraction`` is the fraction-to-boundary parameter tau: a trial
    step is accepted only if every cone margin stays above ``(1 - tau)``
    times its current value pointwise.
    """

    newton_tol: float = 1e-10
    max_newton_iters: int = 50
    damping_fraction: float = 0.95
    continuation_steps: int = 10
    min_step_shrink: float = 1e-4

    def __post_init__(self) -> None:
        if not (self.newton_tol > 0.0 and math.isfinite(self.newton_tol)):
            raise ValueError(f"newton_tol must be positive, got {self.newton_tol}")
        if self.max_newton_iters < 1:
            raise ValueError(f"max_newton_iters must be at least 1, got {self.max_newton_iters}")
        if not (0.0 < self.damping_fraction < 1.0):
            raise ValueError(f"damping_fraction must lie in (0, 1), got {self.damping_fraction}")
        if self.continuation_steps < 1:
            raise ValueError(f"continuation_steps must be at least 1, got {self.continuation_steps}")
        if not (0.0 < self.min_step_shrink <= 1.0):
            raise ValueError(f"min_step_shrink must lie in (0, 1], got {self.min_step_shrink}")


@dataclass
class TraceRecord:
    """One line of the solver trace; ``lin_iters`` counts the step's GMRES iterations."""

    phase: str
    param: float
    iteration: int
    residual: float
    min_utt: float
    min_b: float
    min_q: float
    alpha: float
    lin_iters: int

    def render(self) -> str:
        return (
            f"{self.phase},{self.param:.17g},{self.iteration},{self.residual:.17g},"
            f"{self.min_utt:.17g},{self.min_b:.17g},{self.min_q:.17g},{self.alpha:.17g},"
            f"{self.lin_iters}"
        )


TRACE_HEADER = "phase,param,iteration,residual,min_utt,min_B,min_Q,alpha,lin_iters"


@dataclass
class SolveResult:
    """Outcome of a Newton or continuation run.

    ``continuation_trace`` holds one entry per accepted ladder rung:
    ``(s_or_eps, final_residual, (min_utt, min_B, min_Q))``. ``records`` is
    the full per-iteration trace.
    """

    u: ScalarField
    final_residual_sup: float
    newton_iters_total: int
    converged: bool
    continuation_trace: list = field(default_factory=list)
    records: list = field(default_factory=list)


def barrier(spec: ProblemSpec, c: float) -> ScalarField:
    """Quadratic time barrier c t (1 - t) + (1 - t) u0 + t u1.

    Negative ``c`` bends the barrier below the linear interpolation of the
    Dirichlet layers; the continuation driver starts from ``barrier(spec,
    -compute_c_star(spec))``, which is admissible by construction.
    """
    t = spec.grid.time_column()
    vals = float(c) * t * (1.0 - t) + (1.0 - t) * spec.u0.values + t * spec.u1.values
    return ScalarField(spec.grid, vals)


def compute_c_star(spec: ProblemSpec) -> float:
    """Smallest c making the barrier U_{-c} dominate the target equation.

    Returns the smallest c with

        2 c min((1 - t) B_{u0} + t B_{u1}) - sup |grad u0 - grad u1|^2 >= max(sup f, 1).

    Since the convex combination is linear in t, its minimum over nodes is
    the smaller of the two endpoint minima. For quadratic-in-t fields the
    second time difference is exact, so the barrier built with this c
    satisfies Q(U_{-c}) >= max(sup f, 1) >= f at every interior node on the
    lattice, not merely in the continuum.
    """
    b0 = spec.boundary_b("u0")
    b1 = spec.boundary_b("u1")
    m = min(float(np.min(b0)), float(np.min(b1)))
    if m <= 0.0:
        raise InvalidProblem(f"convex combination of boundary B values is not positive (min {m!r})")
    g0 = gradient(spec.u0)
    g1 = gradient(spec.u1)
    gd = np.zeros(spec.grid.spatial_shape)
    for ga, gb in zip(g0, g1):
        d = ga.values - gb.values
        gd += d * d
    g = float(np.max(gd))
    target = max(float(np.max(spec.f.values)), 1.0)
    return (target + g) / (2.0 * m)


def normalize_shift(u: ScalarField, a_slope: float, b_offset: float) -> ScalarField:
    """Return u + a_slope * t + b_offset.

    The operator value is invariant under this shift because the added field
    is linear in t and spatially constant; boundary data move to
    ``u0 + b_offset`` and ``u1 + a_slope + b_offset``.
    """
    t = u.grid.time_column()
    return ScalarField(u.grid, u.values + float(a_slope) * t + float(b_offset))


def _require_rhs_positive(rhs: ScalarField) -> np.ndarray:
    rhs_int = rhs.values[1:-1]
    m = float(np.min(rhs_int))
    if m <= 0.0:
        node = argmin_node(rhs_int)
        raise ValueError(
            f"Newton target must be positive on interior layers; rhs={m!r} at node "
            f"({node[0] + 1},{node[1:]})"
        )
    return rhs_int


def _admissibility_failure_node(cone: ConeData) -> tuple[str, tuple, float]:
    candidates = []
    iu = argmin_node(cone.utt)
    candidates.append(("u_tt", (iu[0] + 1,) + iu[1:], float(cone.utt[iu])))
    ib = argmin_node(cone.b_full)
    candidates.append(("B", ib, float(cone.b_full[ib])))
    iq = argmin_node(cone.q)
    candidates.append(("Q", (iq[0] + 1,) + iq[1:], float(cone.q[iq])))
    return min(candidates, key=lambda c: c[2])


def _mins(cone: ConeData) -> tuple[float, float, float]:
    return (float(np.min(cone.utt)), float(np.min(cone.b_full)), float(np.min(cone.q)))


def newton_solve(
    spec: ProblemSpec,
    rhs: ScalarField,
    u_init: ScalarField,
    opts: SolveOptions | None = None,
    *,
    phase: str = "newton",
    param: float = math.nan,
    on_record=None,
) -> SolveResult:
    """Damped Newton iteration for Q(u) = rhs with fixed Dirichlet layers.

    Requirements: ``rhs > 0`` on the interior layers, ``u_init`` admissible
    with boundary layers equal to the problem data. Each step solves the
    linearization for the full correction by preconditioned GMRES, then
    backtracks: first until every cone margin stays above
    ``(1 - damping_fraction)`` times its current value, then until the
    residual sup-norm strictly decreases.

    Raises :class:`LostAdmissibility`, :class:`StepCollapse` or
    :class:`NonConvergence`, each carrying the offending node, or
    :class:`LinearSolveFailure` when a correction cannot be computed.
    """
    opts = opts or SolveOptions()
    grid = spec.grid
    rhs_int = _require_rhs_positive(rhs)

    u = u_init.values.copy()
    bscale = max(1.0, float(np.max(np.abs(u[0]))), float(np.max(np.abs(u[-1]))))
    if (
        float(np.max(np.abs(u[0] - spec.u0.values))) > 1e-12 * bscale
        or float(np.max(np.abs(u[-1] - spec.u1.values))) > 1e-12 * bscale
    ):
        raise ValueError("u_init boundary layers do not match the problem's Dirichlet data")

    cone = cone_quantities(u, spec)
    if not cone.admissible():
        what, node, value = _admissibility_failure_node(cone)
        raise LostAdmissibility(
            f"initial iterate is not admissible: {what} = {value!r} at node {node}",
            node=node,
            phase=phase,
            param=param,
        )

    res = cone.q - rhs_int
    res_sup = float(np.max(np.abs(res)))
    floor = 1.0 - opts.damping_fraction
    records: list[TraceRecord] = []

    def emit(iteration: int, alpha: float, lin_iters: int) -> None:
        mu, mb, mq = _mins(cone)
        rec = TraceRecord(phase, param, iteration, res_sup, mu, mb, mq, alpha, lin_iters)
        records.append(rec)
        if on_record is not None:
            on_record(rec)

    emit(0, 0.0, 0)
    iters = 0
    while res_sup > opts.newton_tol:
        if iters >= opts.max_newton_iters:
            node = argmax_node(np.abs(res))
            raise NonConvergence(
                f"no convergence after {iters} iterations; residual {res_sup!r} at node "
                f"({node[0] + 1},{node[1:]})",
                node=(node[0] + 1,) + node[1:],
                phase=phase,
                param=param,
            )
        ls = assemble_dQ(ScalarField(grid, u), spec, cone=cone)
        try:
            h = ls.solve_interior((rhs_int - cone.q).reshape(-1))
        except LinearSolveError as err:
            raise LinearSolveFailure(f"Newton step {iters + 1}: {err}", phase=phase, param=param) from err

        alpha = 1.0
        trial_cone = None
        while True:
            trial = u + alpha * h
            t_cone = cone_quantities(trial, spec)
            margin_ok = (
                np.all(t_cone.utt >= floor * cone.utt)
                and np.all(t_cone.b_interior >= floor * cone.b_interior)
                and np.all(t_cone.q >= floor * cone.q)
            )
            if margin_ok:
                t_res = t_cone.q - rhs_int
                t_sup = float(np.max(np.abs(t_res)))
                if t_sup < res_sup:
                    trial_cone = t_cone
                    break
            alpha *= 0.5
            if alpha < opts.min_step_shrink:
                if margin_ok:
                    node = argmax_node(np.abs(t_res))
                    raise StepCollapse(
                        f"line search stalled: residual {t_sup!r} does not drop below {res_sup!r} "
                        f"near node ({node[0] + 1},{node[1:]})",
                        node=(node[0] + 1,) + node[1:],
                        phase=phase,
                        param=param,
                    )
                defects = np.minimum(
                    t_cone.utt - floor * cone.utt,
                    np.minimum(t_cone.b_interior - floor * cone.b_interior, t_cone.q - floor * cone.q),
                )
                node = argmin_node(defects)
                raise StepCollapse(
                    f"line search collapsed below {opts.min_step_shrink}: cone margin violated at node "
                    f"({node[0] + 1},{node[1:]})",
                    node=(node[0] + 1,) + node[1:],
                    phase=phase,
                    param=param,
                )

        u = trial
        cone = trial_cone
        res = cone.q - rhs_int
        res_sup = float(np.max(np.abs(res)))
        iters += 1
        emit(iters, alpha, ls.iterations)

    mu, mb, mq = _mins(cone)
    return SolveResult(
        u=ScalarField(grid, u),
        final_residual_sup=res_sup,
        newton_iters_total=iters,
        converged=True,
        continuation_trace=[(param, res_sup, (mu, mb, mq))],
        records=records,
    )


def continuation_solve(
    spec: ProblemSpec,
    opts: SolveOptions | None = None,
    *,
    on_record=None,
    phase: str = "continuation",
) -> SolveResult:
    """Solve Q(u) = f by continuation from the barrier.

    Requires ``f > 0`` on the interior layers. The homotopy target at
    parameter s is ``(1 - s) Q(U_{-c*}) + s f``, which stays positive for all
    s in [0, 1]. The ladder is uniform with ``continuation_steps`` rungs;
    on a Newton failure the step is halved (down to 1/256 of the uniform
    step) and the rung is retried from the last accepted solution.
    """
    opts = opts or SolveOptions()
    if float(np.min(spec.f.values[1:-1])) <= 0.0:
        node = argmin_node(spec.f.values[1:-1])
        raise ValueError(
            f"continuation requires f > 0 on interior layers; node ({node[0] + 1},{node[1:]})"
        )
    c_star = compute_c_star(spec)
    u = barrier(spec, -c_star)
    q_barrier = apply_Q(u, spec).values

    records: list[TraceRecord] = []
    trace: list = []
    total = 0

    def run_rung(s_value: float, u_start: ScalarField) -> SolveResult:
        rhs = ScalarField(spec.grid, (1.0 - s_value) * q_barrier + s_value * spec.f.values)
        return newton_solve(
            spec, rhs, u_start, opts, phase=phase, param=s_value, on_record=on_record
        )

    # Rung s = 0 verifies that the barrier itself solves the starting problem.
    step0 = run_rung(0.0, u)
    u = step0.u
    total += step0.newton_iters_total
    records.extend(step0.records)
    trace.append(step0.continuation_trace[0])

    ds_uniform = 1.0 / opts.continuation_steps
    ds_min = ds_uniform / 256.0
    ds = ds_uniform
    s = 0.0
    while s < 1.0:
        s_next = 1.0 if s + ds >= 1.0 - 1e-12 else s + ds
        try:
            step = run_rung(s_next, u)
        except SolverError:
            ds *= 0.5
            if ds < ds_min:
                raise
            continue
        u = step.u
        total += step.newton_iters_total
        records.extend(step.records)
        trace.append(step.continuation_trace[0])
        s = s_next
        ds = min(2.0 * ds, ds_uniform)

    return SolveResult(
        u=u,
        final_residual_sup=trace[-1][1],
        newton_iters_total=total,
        converged=True,
        continuation_trace=trace,
        records=records,
    )


@dataclass
class SweepEntry:
    """Outcome for one rung of the epsilon sweep.

    ``drift`` is the sup-distance to the previous rung's solution (nan for
    the first rung or after a failure). Failed rungs carry ``error`` text and
    ``result is None``; the sweep restarts cold on the next rung.
    """

    epsilon: float
    result: SolveResult | None
    bounds: BoundsReport | None
    drift: float
    error: str | None = None


def epsilon_sweep(
    spec: ProblemSpec,
    epsilons,
    opts: SolveOptions | None = None,
    *,
    on_record=None,
) -> list[SweepEntry]:
    """Walk the right-hand side toward the degenerate limit.

    The target at each rung is ``eps * f_hat`` where ``f_hat`` is f scaled to
    unit sup-norm (or the constant one field when f vanishes identically).
    Rungs warm-start from the previous solution and fall back to a cold
    continuation from the barrier when the warm start fails. Epsilons must be
    positive and strictly decreasing.
    """
    opts = opts or SolveOptions()
    eps_list = [float(e) for e in epsilons]
    if not eps_list:
        raise ValueError("epsilon ladder is empty")
    if any(e <= 0.0 for e in eps_list):
        raise ValueError(f"epsilons must be positive, got {eps_list}")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError(f"epsilons must be strictly decreasing, got {eps_list}")

    sup_f = float(np.max(spec.f.values))
    f_hat = spec.f.values / sup_f if sup_f > 0.0 else np.ones(spec.grid.field_shape)

    entries: list[SweepEntry] = []
    prev_u: ScalarField | None = None
    for eps in eps_list:
        spec_eps = replace(spec, f=ScalarField(spec.grid, eps * f_hat))
        result = None
        error = None
        try:
            if prev_u is not None:
                try:
                    result = newton_solve(
                        spec_eps,
                        spec_eps.f,
                        prev_u,
                        opts,
                        phase="sweep",
                        param=eps,
                        on_record=on_record,
                    )
                except SolverError:
                    result = None
            if result is None:
                result = continuation_solve(spec_eps, opts, on_record=on_record, phase="sweep-cold")
        except SolverError as err:
            error = str(err)
        if result is None:
            entries.append(SweepEntry(epsilon=eps, result=None, bounds=None, drift=math.nan, error=error))
            prev_u = None
            continue
        drift = (
            float(np.max(np.abs(result.u.values - prev_u.values))) if prev_u is not None else math.nan
        )
        bounds = bounds_report(result.u, spec_eps, compute_c_star(spec_eps), rhs=spec_eps.f)
        entries.append(SweepEntry(epsilon=eps, result=result, bounds=bounds, drift=drift))
        prev_u = result.u
    return entries


def uniqueness_probe(spec: ProblemSpec, opts: SolveOptions | None = None) -> float:
    """Sup-distance between solutions reached from two distinct barriers.

    Runs plain Newton for Q(u) = f from ``U_{-c*}`` and from ``U_{-2 c*}``
    and returns the sup-norm of the difference; for a well-posed instance
    both runs land on the same discrete solution up to solver tolerance.
    """
    opts = opts or SolveOptions()
    if float(np.min(spec.f.values[1:-1])) <= 0.0:
        raise ValueError("uniqueness probe requires f > 0 on interior layers")
    c_star = compute_c_star(spec)
    r1 = newton_solve(spec, spec.f, barrier(spec, -c_star), opts, phase="uniqueness", param=1.0)
    r2 = newton_solve(spec, spec.f, barrier(spec, -2.0 * c_star), opts, phase="uniqueness", param=2.0)
    return float(np.max(np.abs(r1.u.values - r2.u.values)))
