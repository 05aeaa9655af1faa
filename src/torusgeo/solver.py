"""Barrier construction, damped Newton iteration and the homotopy driver.

The solve strategy is interior-point flavoured: every iterate keeps the three
cone margins u_tt, B_u and Q strictly positive. A fraction-to-boundary line
search first shrinks the step until the trial keeps at least a fixed fraction
of each current margin at every node, then keeps halving until the residual
sup-norm strictly decreases.

One predictor-corrector homotopy driver follows a path of right-hand sides
p -> rhs(p) from a solved start (Allgower and Georg 1990). Each rung starts
Newton from the secant prediction of the last two accepted (p, u) of the
path when that is admissible, otherwise from the last accepted solution. Its
step is adaptive: the first rung tries the full step, every failed run halves
the step and the next attempt, from the last accepted solution, never repeats
a failed one; every accepted rung doubles the step, and rejected attempts are
kept with their reasons. The continuation solve drives it along

    Q(u) = (1 - s) Q(U_{-c*}) + s f,      s: 0 -> 1,

from the explicitly admissible quadratic barrier U_{-c*}; the uniqueness
probe does the same from two barriers. The epsilon sweep walks toward the
degenerate limit f -> 0 on eps * f_hat, recording the weak second-order
measurements that are expected to stay bounded uniformly in epsilon. Each
rung is one driver path from the previous eps, which carries the last two
accepted points from rung to rung, with a cold continuation as the fallback.
A Newton run's first step is solved to the oversolving floor of the forcing
term once that floor exceeds FORCING_FLOOR_SWITCH, so a start already within
reach of NEWTON_TOL finishes in one step.

The scheme has no tuning options: the Newton tolerance, iteration budget,
fraction-to-boundary factor, line-search floor and homotopy step floor are the
module constants NEWTON_TOL, MAX_NEWTON_ITERS, DAMPING, MIN_ALPHA and
MIN_PATH_STEP.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .estimates import BoundsReport, bounds_report
from .mesh import ScalarField, argmax_node, argmin_node, full_node, grad_sq
from .operator import (
    GMRES_RTOL,
    ConeData,
    InvalidProblem,
    LinearSolveError,
    ProblemSpec,
    _b_values,
    _norm,
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


@dataclass
class TraceRecord:
    """One line of the solver trace; the fields are the columns of ``trace.csv``.

    ``lin_iters`` counts the step's GMRES iterations and ``lin_rtol`` is the
    relative tolerance (forcing term) its linear solve was asked for; both
    are 0 on the opening row of a Newton run.
    """

    phase: str
    param: float
    iteration: int
    residual: float
    min_utt: float
    min_B: float
    min_Q: float
    alpha: float
    lin_iters: int
    lin_rtol: float

# Newton and homotopy constants. A Newton run stops once the residual sup-norm is
# at most NEWTON_TOL and fails after MAX_NEWTON_ITERS steps. Its line search keeps
# every cone margin above (1 - DAMPING) times its current value pointwise (the
# fraction-to-boundary rule) and fails once the step length drops below
# MIN_ALPHA. The homotopy step is always a power of two; a path re-raises its
# failure once a halving takes it below MIN_PATH_STEP, after 12 consecutive
# halvings from the full step.
NEWTON_TOL = 1e-10
MAX_NEWTON_ITERS = 50
DAMPING = 0.95
MIN_ALPHA = 1e-4
MIN_PATH_STEP = 2.0**-11

# Eisenstat-Walker forcing terms (Eisenstat and Walker 1996, choice 2 with
# gamma = 0.9, alpha = 2): the first step is solved to FORCING_START, each later
# one to 0.9 (||g_k|| / ||g_{k-1}||)^2, clamped to
# [max(GMRES_RTOL, 0.5 NEWTON_TOL / ||g_k||), FORCING_MAX]. Their safeguard
# max(eta_k, 0.9 eta_{k-1}^2), applied while 0.9 eta_{k-1}^2 > 0.1, cannot fire
# under this cap (0.9 * 0.1^2 = 0.009) and is left out. Looser values (a start
# of 0.1, a cap of 0.5) cost Newton steps and rejected sweep rungs. A second cap,
# max(GMRES_RTOL, 0.5 min(rhs) sqrt(N) / ||g_k||) over the N interior unknowns, keeps
# the RMS of the linear residual under half the smallest target, however small.
# The lower clamp 0.5 NEWTON_TOL / ||g_k|| is the oversolving floor: solving
# further cannot take the residual below what NEWTON_TOL asks. On a run's first
# step, once that floor exceeds FORCING_FLOOR_SWITCH (||g_0|| < 5e-5), the step
# is solved to the floor instead of FORCING_START, so a start that is already
# within reach of NEWTON_TOL, such as a secant-predicted sweep rung on a path
# linear in eps, finishes in one step instead of two.
FORCING_START = 1e-2
FORCING_MAX = 0.1
FORCING_GAMMA = 0.9
FORCING_FLOOR_SWITCH = 1e-6


def _forcing_term(gnorm: float, prev_gnorm: float, lin_resid_max: float) -> float:
    """Relative GMRES tolerance for a Newton step whose residual g has 2-norm ``gnorm``.

    ``prev_gnorm`` is that of the previous step of the same run, nan on the first;
    ``lin_resid_max`` = 0.5 min(rhs) sqrt(N) caps eta ||g|| down to the GMRES_RTOL floor.
    """
    first = math.isnan(prev_gnorm)
    eta = FORCING_START if first else FORCING_GAMMA * (gnorm / prev_gnorm) ** 2
    # The floor stops the final steps from solving past what NEWTON_TOL needs. Below
    # NEWTON_TOL it exceeds FORCING_MAX anyway, so max(gnorm, NEWTON_TOL) only keeps
    # an underflowed zero norm from dividing.
    gnorm = max(gnorm, NEWTON_TOL)
    floor = 0.5 * NEWTON_TOL / gnorm
    if first and floor > FORCING_FLOOR_SWITCH:
        eta = floor
    eta = min(FORCING_MAX, max(eta, GMRES_RTOL, floor))
    return min(eta, max(GMRES_RTOL, lin_resid_max / gnorm))


@dataclass
class SolveResult:
    """Outcome of a Newton or continuation run.

    ``records`` is the per-iteration trace of the accepted Newton runs, each
    opening with its iteration-0 row; the totals below are read off it.
    ``rejected`` lists every Newton run that failed and was retried as
    ``(phase, param, reason)``. ``cone`` is the :class:`ConeData` of ``u``
    from the last accepted run, for :func:`bounds_report`; a later Newton run
    evaluates its own. Newton and continuation runs raise on every failure,
    so a result they return has converged.
    """

    u: ScalarField
    records: list = field(default_factory=list)
    rejected: list = field(default_factory=list)
    cone: ConeData | None = None

    @property
    def final_residual_sup(self) -> float:
        """Residual sup-norm of the last row; nan before any run."""
        return self.records[-1].residual if self.records else math.nan

    @property
    def newton_iters_total(self) -> int:
        """Newton steps over the accepted runs: the rows past iteration 0."""
        return sum(rec.iteration > 0 for rec in self.records)

    @property
    def continuation_trace(self) -> list:
        """One ``(param, residual, (min_utt, min_B, min_Q))`` per accepted run, from its last row."""
        rows = self.records
        last = [rec for rec, nxt in zip(rows, rows[1:]) if nxt.iteration == 0] + rows[-1:]
        return [(rec.param, rec.residual, (rec.min_utt, rec.min_B, rec.min_Q)) for rec in last]


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
    b0, grad0 = _b_values(spec.u0.values, spec)
    b1, grad1 = _b_values(spec.u1.values, spec)
    m = min(float(np.min(b0)), float(np.min(b1)))
    if m <= 0.0:
        raise InvalidProblem(f"convex combination of boundary B values is not positive (min {m!r})")
    gd = grad_sq([ga - gb for ga, gb in zip(grad0, grad1)])
    g = float(np.max(gd))
    target = max(float(np.max(spec.f.values)), 1.0)
    return (target + g) / (2.0 * m)


def _require_rhs_positive(rhs: ScalarField) -> np.ndarray:
    rhs_int = rhs.values[1:-1]
    m = float(np.min(rhs_int))
    if m <= 0.0:
        raise ValueError(
            f"Newton target must be positive on interior layers; rhs={m!r} at node "
            f"{full_node(argmin_node(rhs_int))}"
        )
    return rhs_int


def newton_solve(
    spec: ProblemSpec,
    rhs: ScalarField,
    u_init: ScalarField,
    *,
    phase: str = "newton",
    param: float = math.nan,
    on_record=None,
    cone: ConeData | None = None,
) -> SolveResult:
    """Damped Newton iteration for Q(u) = rhs with fixed Dirichlet layers.

    Requirements: ``rhs > 0`` on the interior layers, ``u_init`` admissible
    with boundary layers equal to the problem data. Each step solves the
    linearization for the correction by preconditioned GMRES, up to a
    relative residual given by the Eisenstat-Walker forcing term (see
    :func:`_forcing_term`), then backtracks: first until every cone margin
    stays above ``(1 - DAMPING)`` times its current value, then until the
    residual sup-norm strictly decreases. It stops once that sup-norm is at
    most ``NEWTON_TOL``. ``cone``, when given, must be the :class:`ConeData`
    of ``u_init``, ``cone_quantities(u_init.values, spec)``; it is used
    as-is in place of that evaluation.

    Raises :class:`LostAdmissibility`, :class:`StepCollapse` or
    :class:`NonConvergence`, each carrying the offending node, or
    :class:`LinearSolveFailure` when a correction cannot be computed.
    """
    grid = spec.grid
    rhs_int = _require_rhs_positive(rhs)

    u = u_init.values.copy()
    bscale = max(1.0, float(np.max(np.abs(u[0]))), float(np.max(np.abs(u[-1]))))
    if (
        float(np.max(np.abs(u[0] - spec.u0.values))) > 1e-12 * bscale
        or float(np.max(np.abs(u[-1] - spec.u1.values))) > 1e-12 * bscale
    ):
        raise ValueError("u_init boundary layers do not match the problem's Dirichlet data")

    if cone is None:
        cone = cone_quantities(u, spec)
    if not cone.admissible:
        what, node, value = cone.worst()
        raise LostAdmissibility(
            f"initial iterate is not admissible: {what} = {value!r} at node {node}",
            node=node,
            phase=phase,
            param=param,
        )

    res = cone.q - rhs_int
    res_sup = float(np.max(np.abs(res)))
    floor = 1.0 - DAMPING
    lin_resid_max = 0.5 * float(np.min(rhs_int)) * math.sqrt(rhs_int.size)
    records: list[TraceRecord] = []

    def emit(iteration: int, alpha: float, lin_iters: int, lin_rtol: float) -> None:
        rec = TraceRecord(phase, param, iteration, res_sup, *cone.mins, alpha, lin_iters, lin_rtol)
        records.append(rec)
        if on_record is not None:
            on_record(rec)

    emit(0, 0.0, 0, 0.0)
    iters = 0
    gnorm = math.nan
    while res_sup > NEWTON_TOL:
        if iters >= MAX_NEWTON_ITERS:
            node = full_node(argmax_node(np.abs(res)))
            raise NonConvergence(
                f"no convergence after {iters} iterations; residual {res_sup!r} at node {node}",
                node=node,
                phase=phase,
                param=param,
            )
        ls = assemble_dQ(ScalarField(grid, u), spec, cone=cone)
        g = -res.reshape(-1)
        with np.errstate(over="ignore"):  # an overflowing norm fails the linear solve below
            prev_gnorm, gnorm = gnorm, _norm(g)
        eta = _forcing_term(gnorm, prev_gnorm, lin_resid_max)
        try:
            h = ls.solve_interior(g, eta)
        except LinearSolveError as err:
            raise LinearSolveFailure(f"Newton step {iters + 1}: {err}", phase=phase, param=param) from err

        alpha = 1.0
        while True:
            trial = u + alpha * h
            t_cone = cone_quantities(trial, spec)
            pairs = list(zip(t_cone.margins, cone.margins))
            margin_ok = all(np.all(t >= floor * c) for t, c in pairs)
            if margin_ok:
                t_res = t_cone.q - rhs_int
                t_sup = float(np.max(np.abs(t_res)))
                if t_sup < res_sup:
                    break
            alpha *= 0.5
            if alpha < MIN_ALPHA:
                if margin_ok:
                    node = full_node(argmax_node(np.abs(t_res)))
                    why = f"line search stalled: residual {t_sup!r} does not drop below {res_sup!r} near node {node}"
                else:
                    node = full_node(argmin_node(np.minimum.reduce([t - floor * c for t, c in pairs])))
                    why = f"line search collapsed below {MIN_ALPHA}: cone margin violated at node {node}"
                raise StepCollapse(why, node=node, phase=phase, param=param)

        u, cone, res, res_sup = trial, t_cone, t_res, t_sup
        iters += 1
        emit(iters, alpha, ls.iterations, eta)

    return SolveResult(ScalarField(grid, u), records, cone=cone)


def _follow_path(
    spec: ProblemSpec, target, p0: float, p1: float, log: SolveResult, *, phase: str, on_record, history=None
) -> SolveResult:
    """The homotopy driver: follow Q(u) = target(p) from p0 to p1, starting at ``log.u``.

    ``log.u`` must solve the problem at p0. ``history``, updated in place so
    that a caller can carry it into its next path, holds the last two accepted
    ``(p, u)``, oldest first, ending with ``(p0, log.u)`` (the default). The
    step is a fraction of the path and starts as the full step to p1. With
    two points in ``history`` a rung at p starts from their secant prediction
    u_k + (p - p_k) / (p_k - p_{k-1}) (u_k - u_{k-1}) and hands Newton its
    cone when it is admissible, else starts from ``log.u`` with no record.
    Every failed Newton run is appended to ``log.rejected`` as ``(phase, p,
    reason)``, drops the older point of ``history``, so the next attempt
    starts from ``log.u``, and halves the step (a failed warm run: until p
    moves), re-raising below ``MIN_PATH_STEP``. An accepted rung goes to
    ``log`` and ``history`` and doubles the step. Returns ``log``.
    """
    if history is None:
        history = [(p0, log.u)]
    ds = 1.0
    s = 0.0
    while s < 1.0:
        s_next = min(s + ds, 1.0)  # s and ds are dyadic, so s + ds is exact
        p = p1 if s_next == 1.0 else p0 + s_next * (p1 - p0)
        log.cone = None  # every run evaluates its own cone; an earlier one kept alive would add to its peak
        start, cone = log.u, None
        if len(history) == 2:
            (p_a, u_a), (p_b, u_b) = history
            # Both points share the Dirichlet layers, so the prediction keeps them exactly.
            vals = u_b.values + (p - p_b) / (p_b - p_a) * (u_b.values - u_a.values)
            guess = cone_quantities(vals, spec)
            if guess.admissible:
                start, cone = ScalarField(spec.grid, vals), guess
            del vals, guess
        try:
            step = newton_solve(spec, target(p), start, phase=phase, param=p, on_record=on_record, cone=cone)
        except SolverError as err:
            log.rejected.append((phase, p, str(err)))
            history[:] = history[-1:]
            ds *= 0.5
            while cone is None and s + ds >= 1.0:  # a warm run at p1 again would repeat this one
                ds *= 0.5
            if ds < MIN_PATH_STEP:
                raise
            continue
        log.u, log.cone = step.u, step.cone
        log.records.extend(step.records)
        del step
        history[:] = history[-1:] + [(p, log.u)]
        s = s_next
        ds *= 2.0
    return log


def _barrier_continuation(spec: ProblemSpec, scale: float, *, phase: str, on_record=None, rejected=None) -> SolveResult:
    """Follow ``(1 - s) Q(U_{-c}) + s f`` from the barrier at s = 0 to s = 1, c = scale * c*."""
    if float(np.min(spec.f.values[1:-1])) <= 0.0:
        node = full_node(argmin_node(spec.f.values[1:-1]))
        raise InvalidProblem(f"continuation requires f > 0 on interior layers; node {node}", node)
    u = barrier(spec, -scale * compute_c_star(spec))
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # ScalarField rejects a non-finite Q
            q_barrier = apply_Q(u, spec).values
    except ValueError as err:  # Q(U_{-c}) overflows float64 when f is near the top of the range
        raise SolverError(f"starting barrier out of float range: {err}", phase=phase, param=0.0) from None

    def target(s: float) -> ScalarField:
        return ScalarField(spec.grid, (1.0 - s) * q_barrier + s * spec.f.values)

    # Rung s = 0 verifies that the barrier itself solves the starting problem.
    log = newton_solve(spec, target(0.0), u, phase=phase, param=0.0, on_record=on_record)
    if rejected is not None:
        log.rejected = rejected
    return _follow_path(spec, target, 0.0, 1.0, log, phase=phase, on_record=on_record)


def continuation_solve(
    spec: ProblemSpec, *, on_record=None, phase: str = "continuation", rejected: list | None = None
) -> SolveResult:
    """Solve Q(u) = f by continuation from the barrier.

    Requires ``f > 0`` on the interior layers. The homotopy target at
    parameter s is ``(1 - s) Q(U_{-c*}) + s f``, which stays positive for all
    s in [0, 1]. After the verification rung s = 0 the homotopy driver takes
    the path to s = 1 from a history of its own: full step first, half the
    step and a warm start after a failed run, re-raising below
    ``MIN_PATH_STEP``, twice the step and secant starts after accepted ones.
    Failed runs are appended to ``rejected``, which may be a caller-owned
    list that keeps them when the solve raises.
    """
    return _barrier_continuation(spec, 1.0, phase=phase, on_record=on_record, rejected=rejected)


@dataclass
class SweepEntry:
    """Outcome for one rung of the epsilon sweep.

    ``drift`` is the sup-distance to the previous rung's solution (nan for
    the first rung or after a failure). Failed rungs carry ``error`` text and
    ``result is None``; the sweep restarts cold on the next rung.
    ``rejected`` lists every failed Newton run of the rung as ``(phase,
    param, reason)``: the driver's path from the previous eps, predicted
    runs included, then the cold fallback; it is ``result.rejected`` when
    set. ``bounds`` is made from the converged cone of ``result``, which then
    drops it (``result.cone`` is None), so a long ladder keeps no cone per rung.
    """

    epsilon: float
    result: SolveResult | None
    bounds: BoundsReport | None
    drift: float
    error: str | None = None
    rejected: list = field(default_factory=list)


def epsilon_ladder(epsilons) -> tuple[float, ...]:
    """The sweep's epsilons as floats; ValueError unless finite, positive and strictly decreasing."""
    eps = tuple(float(e) for e in epsilons)
    if not eps:
        raise ValueError("epsilons must be nonempty")
    if not all(math.isfinite(e) and e > 0.0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError(f"epsilons must be finite, positive and strictly decreasing, got {list(eps)}")
    return eps


def epsilon_sweep(spec: ProblemSpec, epsilons, *, on_record=None) -> list[SweepEntry]:
    """Walk the right-hand side toward the degenerate limit.

    The target at each rung is ``eps * f_hat`` where ``f_hat`` is f scaled to
    unit sup-norm (or the constant one field when f vanishes identically).
    After a solved rung, the next follows the homotopy driver on ``p * f_hat``
    from the previous eps to its own (``param`` is eps), handed the last two
    accepted ``(eps, u)`` that the sweep carries from rung to rung: from the
    third rung on, the full step starts from their secant prediction, and a
    failed run halves the step and starts warm. When the path fails, and on
    the first rung or after a failed one, the rung falls back to a cold
    :func:`continuation_solve`, whose solution joins that history. Every
    failed Newton run of a rung is in the entry's ``rejected`` list, even when
    the cold fallback fails. Each rung's bounds report reuses the converged
    cone of its solve. Epsilons must pass :func:`epsilon_ladder`.
    """
    eps_list = epsilon_ladder(epsilons)

    sup_f = float(np.max(spec.f.values))
    f_hat = spec.f.values / sup_f if sup_f > 0.0 else np.ones(spec.grid.field_shape)

    def target(p: float) -> ScalarField:
        return ScalarField(spec.grid, p * f_hat)

    entries: list[SweepEntry] = []
    history: list[tuple[float, ScalarField]] = []  # the driver's last two accepted (eps, u) since the last failed rung
    for eps in eps_list:
        spec_eps = replace(spec, f=target(eps))
        entry = SweepEntry(epsilon=eps, result=None, bounds=None, drift=math.nan)
        entries.append(entry)
        prev = history[-1] if history else None  # the previous rung, when it solved
        try:
            if prev is not None:
                warm = SolveResult(prev[1], rejected=entry.rejected)
                with contextlib.suppress(SolverError):  # the failed attempts stay in entry.rejected
                    entry.result = _follow_path(
                        spec_eps, target, prev[0], eps, warm, phase="sweep", on_record=on_record, history=history
                    )
            if entry.result is None:
                entry.result = continuation_solve(
                    spec_eps, on_record=on_record, phase="sweep-cold", rejected=entry.rejected
                )
                history[:] = history[-1:] + [(eps, entry.result.u)]
        except SolverError as err:
            entry.error = str(err)
            history.clear()
            continue
        if prev is not None:
            entry.drift = float(np.max(np.abs(entry.result.u.values - prev[1].values)))
        # The report is the cone's one use here; the sweep keeps every rung's result, not its cone.
        cone, entry.result.cone = entry.result.cone, None
        entry.bounds = bounds_report(entry.result.u, spec_eps, compute_c_star(spec_eps), rhs=spec_eps.f, cone=cone)
    return entries


def uniqueness_probe(spec: ProblemSpec) -> float:
    """Sup-distance between solutions reached from two distinct barriers.

    Runs the continuation of :func:`continuation_solve` from ``U_{-c*}`` and
    from ``U_{-2 c*}`` (f > 0 on the interior layers) and returns the sup-norm
    of the difference; for a well-posed instance both runs land on the same
    discrete solution up to solver tolerance.
    """
    r1 = _barrier_continuation(spec, 1.0, phase="uniqueness")
    r2 = _barrier_continuation(spec, 2.0, phase="uniqueness")
    return float(np.max(np.abs(r1.u.values - r2.u.values)))
