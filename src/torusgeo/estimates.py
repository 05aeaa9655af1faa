"""A priori bound checks and measurement reports for computed solutions.

Every check here is a measurement against the discrete solution, not a proof:
the inequalities are theorems for the continuum equation and are expected to
hold on the lattice either exactly (where the discrete maximum principle
applies) or up to a truncation-sized slack, which each check carries
explicitly and reports alongside the verdict.

The report is one flat :class:`BoundsReport` whose fields are the keys of
``bounds.txt``, in file order (the command line front end writes one
``key = value`` line per field and then ``checks_passed``). Each block of keys
comes from one private helper that returns the keyword arguments of its block,
so a new line of ``bounds.txt`` is one field plus its computation.

Conventions. ``c`` always denotes the curvature of the quadratic time barrier
``-c t (1 - t) + (1 - t) u0 + t u1`` used as the lower envelope; the linear
interpolation of the Dirichlet layers is the upper envelope. Time derivatives
at the boundary layers use second-order one-sided differences so that the
checks are exact on quadratics in t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import ScalarField, _pad_edge, argmax_node, d_t, d_tt_interior, full_node, grad_sq, gradient, laplacian
from .operator import ConeData, ProblemSpec, assemble_dQ, cone_quantities


@dataclass
class BoundsReport:
    """Verification report for one computed field; one field per ``bounds.txt`` key.

    ``c0_*``: the sandwich check, barrier below and linear interpolation
    above. ``c0_worst_lower`` is ``max(lower_envelope - u, 0)`` over all nodes
    and ``c0_worst_upper`` is ``max(u - upper_envelope, 0)``; a side passes
    when its worst violation does not exceed ``c0_tol``, which is 1e-9 scaled
    by the field magnitude. The upper side is a consequence of discrete
    convexity in t and typically holds to rounding, while the lower side is a
    validated comparison statement.

    ``ut_*``: the boundary time-derivative chain, nodewise in x with
    delta = u1 - u0:

        -c + delta <= u_t(0, x) <= delta <= u_t(1, x) <= delta + c.

    ``ut_min_t0`` … ``ut_max_t1`` are the measured extremes of u_t on the two
    boundary layers and ``ut_range_*`` the ends of the ranges the chain allows.
    The two inner inequalities hold exactly for discretely convex-in-t fields;
    the outer two inherit an O(ht^2) one-sided-difference error, covered by
    ``ut_slack``. ``ut_boundary_extremal`` records whether the global extrema
    of u_t over all layers are attained on the boundary layers.

    ``sup_*``: sup-norms of the second-order quantities with their locations.
    ``sup_utt`` and ``sup_grad_ut`` are measured over interior layers (the
    reported layer index refers to the full time axis), ``sup_lap_u`` and
    ``sup_grad_u`` over every layer.

    ``identity_err_*``: sup-norm defects of the three exact linearization
    identities. For the linearization at u with the report's rhs playing the
    role of f = Q(u):

        dQ(t) = 0,
        dQ(t^2) = 2 B_u,
        dQ(u) = 2 f - (a + b |grad u|^2) u_tt.

    All three hold exactly for the discrete stencils, so the defects sit at
    the rounding floor of the stencil arithmetic rather than at truncation
    size. An f near the top of the float range makes ``identity_err_dq_u``
    read inf.

    ``dep_*``: scalar functionals of f that the continuum estimate constants
    use. Informational only. ``dep_sup_ft_sq_over_f`` is measured over nodes
    where f > 0; nodes with f = 0 are skipped so the value stays finite. A
    functional whose stencil overflows float64 (f near the top of the float
    range) reads inf or nan.
    """

    c_used: float
    c0_lower_ok: bool
    c0_upper_ok: bool
    c0_worst_lower: float
    c0_worst_upper: float
    c0_tol: float
    ut_bounds_ok: bool
    ut_min_t0: float
    ut_max_t0: float
    ut_min_t1: float
    ut_max_t1: float
    ut_range_t0_lo: float
    ut_range_t0_hi: float
    ut_range_t1_lo: float
    ut_range_t1_hi: float
    ut_worst_violation: float
    ut_boundary_extremal: bool
    ut_slack: float
    sup_utt: float
    sup_utt_loc: tuple
    sup_lap_u: float
    sup_lap_u_loc: tuple
    sup_grad_ut: float
    sup_grad_ut_loc: tuple
    sup_grad_u: float
    sup_grad_u_loc: tuple
    identity_err_dq_t: float
    identity_err_dq_t2: float
    identity_err_dq_u: float
    dep_sup_f: float
    dep_sup_neg_f_tt: float
    dep_sup_ft_sq_over_f: float
    dep_sup_neg_lap_f: float
    dep_sup_grad_sqrt_f: float

    @property
    def passed(self) -> bool:
        return self.c0_lower_ok and self.c0_upper_ok and self.ut_bounds_ok


def _c0(u: ScalarField, spec: ProblemSpec, c: float) -> dict:
    grid = spec.grid
    t = grid.time_column()
    chord = (1.0 - t) * spec.u0.values + t * spec.u1.values
    lower = -float(c) * t * (1.0 - t) + chord
    tol = 1e-9 * max(1.0, float(np.max(np.abs(u.values))))
    worst_lower = max(0.0, float(np.max(lower - u.values)))
    worst_upper = max(0.0, float(np.max(u.values - chord)))
    return dict(
        c0_lower_ok=worst_lower <= tol,
        c0_upper_ok=worst_upper <= tol,
        c0_worst_lower=worst_lower,
        c0_worst_upper=worst_upper,
        c0_tol=tol,
    )


def _ut_bounds(u: ScalarField, spec: ProblemSpec, c: float) -> dict:
    grid = spec.grid
    ut = d_t(u.values, grid.ht)
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
    return dict(
        ut_bounds_ok=worst <= slack,
        ut_min_t0=float(np.min(ut0)),
        ut_max_t0=float(np.max(ut0)),
        ut_min_t1=float(np.min(ut1)),
        ut_max_t1=float(np.max(ut1)),
        ut_range_t0_lo=float(np.min(-float(c) + delta)),
        ut_range_t0_hi=float(np.max(delta)),
        ut_range_t1_lo=float(np.min(delta)),
        ut_range_t1_hi=float(np.max(delta + float(c))),
        ut_worst_violation=worst,
        ut_boundary_extremal=boundary_extremal,
        ut_slack=slack,
    )


def _weak_c2(u: ScalarField, cone: ConeData) -> dict:
    iu = argmax_node(cone.utt)
    lap_abs = np.abs(laplacian(u.values, u.grid))
    il = argmax_node(lap_abs)
    gut_sq = grad_sq(cone.grad_ut)
    ig = argmax_node(gut_sq)
    gu_sq = grad_sq(cone.grad_full)
    igu = argmax_node(gu_sq)
    return dict(
        sup_utt=float(cone.utt[iu]),
        sup_utt_loc=full_node(iu),
        sup_lap_u=float(lap_abs[il]),
        sup_lap_u_loc=il,
        sup_grad_ut=float(np.sqrt(gut_sq[ig])),
        sup_grad_ut_loc=full_node(ig),
        sup_grad_u=float(np.sqrt(gu_sq[igu])),
        sup_grad_u_loc=igu,
    )


def _identities(u: ScalarField, spec: ProblemSpec, rhs: ScalarField, cone: ConeData) -> dict:
    grid = spec.grid
    ls = assemble_dQ(cone, spec)
    t = np.broadcast_to(grid.time_column(), grid.field_shape).copy()
    e1 = float(np.max(np.abs(ls.apply(t))))
    t2 = t * t
    e2 = float(np.max(np.abs(ls.apply(t2) - 2.0 * cone.b_interior)))
    with np.errstate(over="ignore", invalid="ignore"):  # f near the top of the float range: e3 reads inf
        target = 2.0 * rhs.values[1:-1] - (spec.a.values + spec.b * grad_sq(cone.grad_u)) * cone.utt
        e3 = float(np.max(np.abs(ls.apply(u.values) - target)))
    return dict(identity_err_dq_t=e1, identity_err_dq_t2=e2, identity_err_dq_u=e3)


def _f_deps(spec: ProblemSpec) -> dict:
    grid = spec.grid
    fv = spec.f.values
    with np.errstate(over="ignore", invalid="ignore"):
        f_tt = d_tt_interior(fv, grid.ht)
        sup_neg_f_tt = max(0.0, float(np.max(-f_tt))) if f_tt.size else 0.0
        ft = d_t(fv, grid.ht)
        mask = fv > 0.0
        sup_ratio = float(np.max(ft[mask] ** 2 / fv[mask])) if np.any(mask) else 0.0
        lap_f = laplacian(fv, grid)
    sqrt_f = np.sqrt(np.maximum(fv, 0.0))
    d_sq = grad_sq(gradient(sqrt_f, grid), start=d_t(sqrt_f, grid.ht) ** 2)
    return dict(
        dep_sup_f=float(np.max(fv)),
        dep_sup_neg_f_tt=sup_neg_f_tt,
        dep_sup_ft_sq_over_f=sup_ratio,
        dep_sup_neg_lap_f=max(0.0, float(np.max(-lap_f))),
        dep_sup_grad_sqrt_f=float(np.sqrt(np.max(d_sq))),
    )


def bounds_report(
    u: ScalarField, spec: ProblemSpec, c: float, rhs: ScalarField | None = None, cone: ConeData | None = None
) -> BoundsReport:
    """Assemble the full report for a computed field.

    ``rhs`` plays the role of f = Q(u) in the identity defects. It defaults
    to the operator value of u itself, which makes them pure stencil-algebra
    measurements; pass the solve target to test a converged solution.
    ``cone``, when given, must be the :class:`ConeData` of u,
    ``cone_quantities(u.values, spec)``, such as the converged cone a solve
    returns in ``SolveResult.cone``; it is computed here if not given.
    """
    cone = cone_quantities(u.values, spec) if cone is None else cone
    if rhs is None:
        rhs = ScalarField(spec.grid, _pad_edge(cone.q))
    return BoundsReport(
        c_used=float(c),
        **_c0(u, spec, c),
        **_ut_bounds(u, spec, c),
        **_weak_c2(u, cone),
        **_identities(u, spec, rhs, cone),
        **_f_deps(spec),
    )
