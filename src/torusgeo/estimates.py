"""A priori bound checks and measurement reports for computed solutions.

Every check here is a measurement against the discrete solution, not a proof:
the inequalities are theorems for the continuum equation and are expected to
hold on the lattice either exactly (where the discrete maximum principle
applies) or up to a truncation-sized slack, which each check carries
explicitly and reports alongside the verdict.

Conventions. ``c`` always denotes the curvature of the quadratic time barrier
``-c t (1 - t) + (1 - t) u0 + t u1`` used as the lower envelope; the linear
interpolation of the Dirichlet layers is the upper envelope. Time derivatives
at the boundary layers use second-order one-sided differences so that the
checks are exact on quadratics in t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import (
    ScalarField,
    _d_t_array,
    _lap_array,
    _pad_edge,
    argmax_node,
    d_t,
    d_t_interior,
    full_node,
    grad_sq,
    gradient,
    laplacian,
)
from .operator import ConeData, ProblemSpec, assemble_dQ, cone_quantities


@dataclass
class C0Check:
    """Two-sided envelope check with the worst violation per side.

    ``worst_lower`` is ``max(lower_envelope - u, 0)`` over all nodes and
    ``worst_upper`` is ``max(u - upper_envelope, 0)``; a side passes when its
    worst violation does not exceed ``tol``.
    """

    lower_ok: bool
    upper_ok: bool
    worst_lower: float
    worst_upper: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


@dataclass
class UtBoundsCheck:
    """Boundary time-derivative chain check.

    The chain, nodewise in x with delta = u1 - u0:

        -c + delta <= u_t(0, x) <= delta <= u_t(1, x) <= delta + c.

    The two inner inequalities hold exactly for discretely convex-in-t fields;
    the outer two inherit an O(ht^2) one-sided-difference error, covered by
    ``slack``. ``boundary_extremal`` records whether the global extrema of
    u_t over all layers are attained on the boundary layers.
    """

    ok: bool
    min_t0: float
    max_t0: float
    min_t1: float
    max_t1: float
    range_t0_lo: float
    range_t0_hi: float
    range_t1_lo: float
    range_t1_hi: float
    worst_violation: float
    boundary_extremal: bool
    slack: float


@dataclass
class WeakC2Report:
    """Sup-norms of the second-order quantities with their locations.

    ``sup_utt`` and ``sup_grad_ut`` are measured over interior layers (the
    reported layer index refers to the full time axis), ``sup_lap_u`` and
    ``sup_grad_u`` over every layer.
    """

    sup_utt: float
    loc_utt: tuple
    sup_lap_u: float
    loc_lap_u: tuple
    sup_grad_ut: float
    loc_grad_ut: tuple
    sup_grad_u: float
    loc_grad_u: tuple


@dataclass
class IdentityErrors:
    """Sup-norm defects of the three exact linearization identities.

    For the linearization at u with target rhs playing the role of
    f = Q(u):

        dQ(t) = 0,
        dQ(t^2) = 2 B_u,
        dQ(u) = 2 f - (a + b |grad u|^2) u_tt.

    All three hold exactly for the discrete stencils, so the defects sit at
    the rounding floor of the stencil arithmetic rather than at truncation size.
    """

    err_dq_t: float
    err_dq_t2: float
    err_dq_u: float


@dataclass
class FDependencies:
    """Scalar functionals of f that the continuum estimate constants use.

    Informational only. ``sup_ft_sq_over_f`` is measured over nodes where
    f > 0; nodes with f = 0 are skipped so the value stays finite.
    """

    sup_f: float
    sup_neg_f_tt: float
    sup_ft_sq_over_f: float
    sup_neg_lap_f: float
    sup_grad_sqrt_f: float


@dataclass
class GradientProbe:
    """Interior maximum data for h = (|grad u|^2 + lam u^2) / 2.

    When the maximum sits on a boundary layer, ``boundary_attained`` is set
    and no first-order condition applies. Otherwise ``condition_residual``
    holds sum_a u_{x_a} u_{x_a t} + lam u u_t at the maximizing node, which
    should vanish to O(ht + hx) at a discrete interior maximum.

    The probe assumes the caller has applied any desired normalization shift
    beforehand; how the shift interacts with the choice of lam is left to the
    caller.
    """

    location: tuple
    value: float
    boundary_attained: bool
    condition_residual: float
    condition_tol: float

    @property
    def ok(self) -> bool:
        return self.boundary_attained or abs(self.condition_residual) <= self.condition_tol


@dataclass
class BoundsReport:
    """Aggregate verification report for one computed field."""

    c_used: float
    c0: C0Check
    ut: UtBoundsCheck
    weak_c2: WeakC2Report
    identity: IdentityErrors
    f_deps: FDependencies

    @property
    def passed(self) -> bool:
        return self.c0.ok and self.ut.ok

    def render(self) -> str:
        """Stable key = value text rendering, one line per entry."""
        loc = _format_loc
        lines = [
            f"c_used = {self.c_used:.17g}",
            f"c0_lower_ok = {_fmt_bool(self.c0.lower_ok)}",
            f"c0_upper_ok = {_fmt_bool(self.c0.upper_ok)}",
            f"c0_worst_lower = {self.c0.worst_lower:.17g}",
            f"c0_worst_upper = {self.c0.worst_upper:.17g}",
            f"c0_tol = {self.c0.tol:.17g}",
            f"ut_bounds_ok = {_fmt_bool(self.ut.ok)}",
            f"ut_min_t0 = {self.ut.min_t0:.17g}",
            f"ut_max_t0 = {self.ut.max_t0:.17g}",
            f"ut_min_t1 = {self.ut.min_t1:.17g}",
            f"ut_max_t1 = {self.ut.max_t1:.17g}",
            f"ut_range_t0_lo = {self.ut.range_t0_lo:.17g}",
            f"ut_range_t0_hi = {self.ut.range_t0_hi:.17g}",
            f"ut_range_t1_lo = {self.ut.range_t1_lo:.17g}",
            f"ut_range_t1_hi = {self.ut.range_t1_hi:.17g}",
            f"ut_worst_violation = {self.ut.worst_violation:.17g}",
            f"ut_boundary_extremal = {_fmt_bool(self.ut.boundary_extremal)}",
            f"ut_slack = {self.ut.slack:.17g}",
            f"sup_utt = {self.weak_c2.sup_utt:.17g}",
            f"sup_utt_loc = {loc(self.weak_c2.loc_utt)}",
            f"sup_lap_u = {self.weak_c2.sup_lap_u:.17g}",
            f"sup_lap_u_loc = {loc(self.weak_c2.loc_lap_u)}",
            f"sup_grad_ut = {self.weak_c2.sup_grad_ut:.17g}",
            f"sup_grad_ut_loc = {loc(self.weak_c2.loc_grad_ut)}",
            f"sup_grad_u = {self.weak_c2.sup_grad_u:.17g}",
            f"sup_grad_u_loc = {loc(self.weak_c2.loc_grad_u)}",
            f"identity_err_dq_t = {self.identity.err_dq_t:.17g}",
            f"identity_err_dq_t2 = {self.identity.err_dq_t2:.17g}",
            f"identity_err_dq_u = {self.identity.err_dq_u:.17g}",
            f"dep_sup_f = {self.f_deps.sup_f:.17g}",
            f"dep_sup_neg_f_tt = {self.f_deps.sup_neg_f_tt:.17g}",
            f"dep_sup_ft_sq_over_f = {self.f_deps.sup_ft_sq_over_f:.17g}",
            f"dep_sup_neg_lap_f = {self.f_deps.sup_neg_lap_f:.17g}",
            f"dep_sup_grad_sqrt_f = {self.f_deps.sup_grad_sqrt_f:.17g}",
            f"checks_passed = {_fmt_bool(self.passed)}",
        ]
        return "\n".join(lines) + "\n"


def _fmt_bool(v: bool) -> str:
    return "true" if v else "false"


def _format_loc(loc: tuple) -> str:
    return "(" + ",".join(str(int(i)) for i in loc) + ")"


def check_c0(u: ScalarField, spec: ProblemSpec, c: float) -> C0Check:
    """Sandwich check: barrier below, linear interpolation above.

    The envelopes are ``-c t (1 - t) + (1 - t) u0 + t u1`` from below and
    ``(1 - t) u0 + t u1`` from above. The slack is 1e-9 scaled by the field
    magnitude; the upper side is a consequence of discrete convexity in t and
    typically holds to rounding, while the lower side is a validated
    comparison statement.
    """
    grid = spec.grid
    t = grid.time_column()
    chord = (1.0 - t) * spec.u0.values + t * spec.u1.values
    lower = -float(c) * t * (1.0 - t) + chord
    tol = 1e-9 * max(1.0, float(np.max(np.abs(u.values))))
    worst_lower = max(0.0, float(np.max(lower - u.values)))
    worst_upper = max(0.0, float(np.max(u.values - chord)))
    return C0Check(
        lower_ok=worst_lower <= tol,
        upper_ok=worst_upper <= tol,
        worst_lower=worst_lower,
        worst_upper=worst_upper,
        tol=tol,
    )


def check_ut_bounds(u: ScalarField, spec: ProblemSpec, c: float) -> UtBoundsCheck:
    """Check the boundary time-derivative chain and boundary extremality."""
    grid = spec.grid
    ut = d_t(u).values
    ut0 = ut[0]
    ut1 = ut[-1]
    delta = spec.u1.values - spec.u0.values
    scale = max(1.0, float(np.max(np.abs(u.values))))
    slack = 10.0 * grid.ht**2 * scale

    v_lower0 = float(np.max((-float(c) + delta) - ut0))
    v_upper0 = float(np.max(ut0 - delta))
    v_lower1 = float(np.max(delta - ut1))
    v_upper1 = float(np.max(ut1 - (delta + float(c))))
    worst = max(0.0, v_lower0, v_upper0, v_lower1, v_upper1)

    # For fields with u_tt > 0 the centered interior values are squeezed
    # strictly between the one-sided boundary values, so extremality should
    # hold to rounding.
    ext_tol = 1e-10 * max(1.0, float(np.max(np.abs(ut))))
    boundary_extremal = bool(
        float(np.max(ut[1:-1])) <= float(np.max(ut1)) + ext_tol
        and float(np.min(ut[1:-1])) >= float(np.min(ut0)) - ext_tol
    )
    return UtBoundsCheck(
        ok=worst <= slack,
        min_t0=float(np.min(ut0)),
        max_t0=float(np.max(ut0)),
        min_t1=float(np.min(ut1)),
        max_t1=float(np.max(ut1)),
        range_t0_lo=float(np.min(-float(c) + delta)),
        range_t0_hi=float(np.max(delta)),
        range_t1_lo=float(np.min(delta)),
        range_t1_hi=float(np.max(delta + float(c))),
        worst_violation=worst,
        boundary_extremal=boundary_extremal,
        slack=slack,
    )


def weak_c2_report(u: ScalarField, spec: ProblemSpec, cone: ConeData | None = None) -> WeakC2Report:
    """Sup-norms of u_tt, lap u, grad u_t and grad u; ``cone`` may hold the cone quantities of u."""
    if cone is None:
        cone = cone_quantities(u.values, spec)
    iu = argmax_node(cone.utt)
    lap_abs = np.abs(laplacian(u).values)
    il = argmax_node(lap_abs)
    gut_sq = grad_sq(cone.grad_ut)
    ig = argmax_node(gut_sq)
    gu_sq = grad_sq([g.values for g in gradient(u)])
    igu = argmax_node(gu_sq)
    return WeakC2Report(
        sup_utt=float(cone.utt[iu]),
        loc_utt=full_node(iu),
        sup_lap_u=float(lap_abs[il]),
        loc_lap_u=il,
        sup_grad_ut=float(np.sqrt(gut_sq[ig])),
        loc_grad_ut=full_node(ig),
        sup_grad_u=float(np.sqrt(gu_sq[igu])),
        loc_grad_u=igu,
    )


def identity_suite(
    u: ScalarField, spec: ProblemSpec, rhs: ScalarField, cone: ConeData | None = None
) -> IdentityErrors:
    """Defects of the three structural identities of the linearization at u.

    ``rhs`` plays the role of f = Q(u); pass the operator value of u itself
    to test the raw identities, or the solve target for a converged solution;
    ``cone`` may hold the cone quantities of u.
    """
    grid = spec.grid
    if cone is None:
        cone = cone_quantities(u.values, spec)
    ls = assemble_dQ(u, spec, cone=cone)
    t = np.broadcast_to(grid.time_column(), grid.field_shape).copy()
    e1 = float(np.max(np.abs(ls.apply(t))))
    t2 = t * t
    e2 = float(np.max(np.abs(ls.apply(t2) - 2.0 * cone.b_interior)))
    with np.errstate(over="ignore", invalid="ignore"):  # f near the top of the float range: e3 reads inf
        target = 2.0 * rhs.values[1:-1] - (spec.a.values + spec.b * grad_sq(cone.grad_u)) * cone.utt
        e3 = float(np.max(np.abs(ls.apply(u) - target)))
    return IdentityErrors(err_dq_t=e1, err_dq_t2=e2, err_dq_u=e3)


def f_dependencies(spec: ProblemSpec) -> FDependencies:
    """Functionals of f entering the continuum estimate constants; one whose stencil
    overflows float64 (f near the top of the float range) reads inf or nan."""
    grid = spec.grid
    fv = spec.f.values
    with np.errstate(over="ignore", invalid="ignore"):
        f_tt = (fv[2:] - 2.0 * fv[1:-1] + fv[:-2]) / grid.ht**2
        sup_neg_f_tt = max(0.0, float(np.max(-f_tt))) if f_tt.size else 0.0
        ft = _d_t_array(fv, grid.ht)
        mask = fv > 0.0
        sup_ratio = float(np.max(ft[mask] ** 2 / fv[mask])) if np.any(mask) else 0.0
        lap_f = _lap_array(fv, tuple(range(1, 1 + grid.spatial_dim)), grid.hx)
    sqrt_f = ScalarField(grid, np.sqrt(np.maximum(fv, 0.0)))
    d_sq = grad_sq([g.values for g in gradient(sqrt_f)], start=d_t(sqrt_f).values ** 2)
    return FDependencies(
        sup_f=float(np.max(fv)),
        sup_neg_f_tt=sup_neg_f_tt,
        sup_ft_sq_over_f=sup_ratio,
        sup_neg_lap_f=max(0.0, float(np.max(-lap_f))),
        sup_grad_sqrt_f=float(np.sqrt(np.max(d_sq))),
    )


def gradient_estimate_probe(u: ScalarField, spec: ProblemSpec, lam: float) -> GradientProbe:
    """Locate the maximum of h = (|grad u|^2 + lam u^2) / 2 and test its
    first-order condition in time when the maximum is interior."""
    grid = spec.grid
    gu = gradient(u)
    h = 0.5 * grad_sq([g.values for g in gu], start=float(lam) * u.values**2)
    loc = argmax_node(h)
    layer = loc[0]
    node = loc[1:]
    if layer in (0, grid.time_nodes - 1):
        return GradientProbe(
            location=loc,
            value=float(h[loc]),
            boundary_attained=True,
            condition_residual=0.0,
            condition_tol=0.0,
        )
    ut = d_t_interior(u.values, grid.ht)
    gut = [g[1:-1] for g in (gr.values for gr in gradient(d_t(u)))]
    k = layer - 1
    cond = float(lam) * u.values[layer][node] * ut[k][node]
    for ga, gb in zip(gu, gut):
        cond += ga.values[layer][node] * gb[k][node]
    scale = 1.0 + float(np.max(np.abs(ut))) * (
        max(float(np.max(np.abs(g.values))) for g in gu) + abs(float(lam)) * float(np.max(np.abs(u.values)))
    )
    tol = 10.0 * (grid.hx + grid.ht) * scale
    return GradientProbe(
        location=loc,
        value=float(h[loc]),
        boundary_attained=False,
        condition_residual=float(cond),
        condition_tol=tol,
    )


def bounds_report(u: ScalarField, spec: ProblemSpec, c: float, rhs: ScalarField | None = None) -> BoundsReport:
    """Assemble the full report for a computed field.

    ``rhs`` defaults to the operator value of u itself, which makes the
    identity defects pure stencil-algebra measurements.
    """
    cone = cone_quantities(u.values, spec)
    if rhs is None:
        rhs = ScalarField(spec.grid, _pad_edge(cone.q))
    return BoundsReport(
        c_used=float(c),
        c0=check_c0(u, spec, c),
        ut=check_ut_bounds(u, spec, c),
        weak_c2=weak_c2_report(u, spec, cone=cone),
        identity=identity_suite(u, spec, rhs, cone=cone),
        f_deps=f_dependencies(spec),
    )


def write_bounds_report(report: BoundsReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(report.render())
