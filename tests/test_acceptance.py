"""Acceptance gate: twelve checks with pinned tolerances.

Each check prints exactly one ``ACCEPTANCE NN <name>: PASS|FAIL`` line to the
terminal, even when its body raises, and enforces the verdict with ordinary
assertions. Tolerances are fixed here and nowhere else.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

import torusgeo as tg
from torusgeo.cli import main as cli_main
from torusgeo.solver import NEWTON_TOL

from conftest import (
    degenerate_reference,
    degenerate_spec,
    degenerate_u0,
    degenerate_u1,
    manufactured_spec,
    random_admissible_field,
    random_problem,
)


class _Verdict:
    def __init__(self):
        self.num = 0
        self.name = "unnamed"
        self.ok = False

    def arm(self, num: int, name: str) -> None:
        self.num = num
        self.name = name


@pytest.fixture
def verdict(capsys):
    v = _Verdict()
    yield v
    with capsys.disabled():
        status = "PASS" if v.ok else "FAIL"
        print(f"\nACCEPTANCE {v.num:02d} {v.name}: {status}")


def separable_instance(n, nt):
    grid = tg.GridSpec(spatial_dim=1, nodes_per_axis=n, time_nodes=nt)
    ones = tg.SpaceField(grid, np.ones(grid.spatial_shape))
    zero = tg.SpaceField(grid, np.zeros(grid.spatial_shape))
    f = tg.ScalarField(grid, np.full(grid.field_shape, 2.0))
    return tg.ProblemSpec(grid=grid, a=ones, b=0.0, f=f, u0=zero, u1=zero)


@pytest.fixture(scope="module")
def manufactured_ladder():
    """Solved manufactured instances on three dyadically nested grids."""
    out = []
    for n, nt in ((32, 17), (64, 33), (128, 65)):
        spec, exact = manufactured_spec(n, nt)
        result = tg.continuation_solve(spec)
        out.append((spec, exact, result))
    return out


@pytest.fixture(scope="module")
def solved_batch():
    """Twenty randomized instances solved once, with their bounds reports."""
    out = []
    for seed in range(20):
        spec = random_problem(seed)
        result = tg.continuation_solve(spec)
        report = tg.bounds_report(result.u, spec, tg.compute_c_star(spec))
        out.append((spec, result, report))
    return out


def test_separable_product_solution_recovered_exactly(verdict):
    verdict.arm(1, "separable product solution recovered exactly")
    spec = separable_instance(64, 33)
    start = time.perf_counter()
    result = tg.continuation_solve(spec)
    elapsed = time.perf_counter() - start
    t = spec.grid.time_column()
    exact = np.broadcast_to(t * t - t, spec.grid.field_shape)
    err = float(np.max(np.abs(result.u.values - exact)))
    assert result.final_residual_sup <= NEWTON_TOL
    assert err <= 1e-12
    assert result.final_residual_sup <= 1e-10
    assert result.newton_iters_total <= 12
    assert elapsed <= 5.0
    verdict.ok = True


def test_manufactured_solution_converges_at_second_order(verdict, manufactured_ladder):
    verdict.arm(2, "manufactured solution converges at second order")
    errors = []
    for spec, exact, result in manufactured_ladder:
        assert result.final_residual_sup <= NEWTON_TOL
        errors.append(float(np.max(np.abs(result.u.values - exact.values))))
    assert errors[1] < errors[0] and errors[2] < errors[1]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert all(o >= 1.8 for o in orders), orders
    verdict.ok = True


def test_linearization_identities_and_jacobian_consistency(verdict, manufactured_ladder):
    verdict.arm(3, "linearization identities and jacobian consistency")
    # three structural identities of the assembled linearization, measured on
    # solved fields across the grid ladder: either they shrink at second
    # order or they sit at the assembly rounding floor
    worst = []
    scales = []
    for spec, _exact, result in manufactured_ladder:
        errs = tg.bounds_report(result.u, spec, tg.compute_c_star(spec), rhs=spec.f)
        worst.append(max(errs.identity_err_dq_t, errs.identity_err_dq_t2, errs.identity_err_dq_u))
        scales.append(1.0 + float(np.max(np.abs(tg.apply_Q(result.u, spec).values))))
    at_floor = all(w <= 1e-10 * s for w, s in zip(worst, scales))
    if not at_floor:
        orders = [math.log2(worst[i] / worst[i + 1]) for i in range(2)]
        assert all(o >= 1.8 for o in orders), (worst, orders)

    # full Jacobian against centered differences on ten random cone fields
    for seed in range(10):
        dim = 1 if seed < 7 else 2
        n = 10 if dim == 1 else 8
        field, spec = random_admissible_field(seed, dim=dim, n=n, nt=7)
        system = tg.assemble_dQ(field, spec)
        rng = np.random.default_rng(1000 + seed)
        for _ in range(6):
            h = np.zeros(spec.grid.field_shape)
            h[1:-1] = rng.standard_normal((spec.grid.interior_layers,) + spec.grid.spatial_shape)
            eps = 1e-6
            up = tg.ScalarField(spec.grid, field.values + eps * h)
            um = tg.ScalarField(spec.grid, field.values - eps * h)
            fd = (tg.apply_Q(up, spec).values[1:-1] - tg.apply_Q(um, spec).values[1:-1]) / (2 * eps)
            an = system.apply(h)
            rel = np.max(np.abs(fd - an)) / max(1.0, np.max(np.abs(an)))
            assert rel <= 1e-6, (seed, rel)
    verdict.ok = True


def test_solutions_sit_between_barrier_and_chord(verdict, solved_batch):
    verdict.arm(4, "solutions sit between barrier and chord")
    for spec, result, report in solved_batch:
        assert result.final_residual_sup <= NEWTON_TOL
        assert report.c0_lower_ok and report.c0_upper_ok, (report.c0_worst_lower, report.c0_worst_upper)
    verdict.ok = True


def test_time_derivative_bounds_from_boundary_layers(verdict, solved_batch):
    verdict.arm(5, "time derivative bounds from boundary layers")
    for _spec, _result, report in solved_batch:
        assert report.ut_bounds_ok, report.ut_worst_violation
        assert report.ut_boundary_extremal
    verdict.ok = True


def test_second_order_measurements_uniform_in_epsilon(verdict):
    verdict.arm(6, "second order measurements uniform in epsilon")
    ladder = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)

    # generic boundary data: the three second-order measurements must level
    # off; on the three deepest rungs no measurement may move by more than 2x
    for seed in range(5):
        base = random_problem(seed, n=24, nt=13)
        spec = tg.ProblemSpec(
            grid=base.grid,
            a=base.a,
            b=base.b,
            f=base.f,
            u0=base.u0,
            u1=tg.SpaceField(base.grid, base.u1.values + 0.4),
        )
        entries = tg.epsilon_sweep(spec, ladder)
        assert all(e.result is not None for e in entries), [e.error for e in entries]
        for name in ("sup_utt", "sup_lap_u", "sup_grad_ut"):
            deep = [getattr(e.bounds, name) for e in entries[2:]]
            assert max(deep) <= 2.0 * min(deep) + 1e-9, (seed, name, deep)

    # equal boundary data: the limit is constant in time, so the second time
    # difference must decay monotonically through the ladder
    for seed in (100, 101):
        spec = random_problem(seed, n=24, nt=13, equal_boundary=True)
        entries = tg.epsilon_sweep(spec, ladder)
        assert all(e.result is not None for e in entries), [e.error for e in entries]
        utts = [e.bounds.sup_utt for e in entries]
        for prev, nxt in zip(utts, utts[1:]):
            assert nxt <= prev * (1.0 + 1e-9) + 1e-12, utts
        assert utts[-1] <= 1e-3, utts
    verdict.ok = True


def test_solution_independent_of_starting_barrier(verdict):
    verdict.arm(7, "solution independent of starting barrier")
    for seed in range(30, 40):
        spec = random_problem(seed)
        gap = tg.uniqueness_probe(spec)
        assert gap <= 1e-9, (seed, gap)
    verdict.ok = True


def test_log_of_symbol_determinant_is_concave(verdict):
    verdict.arm(8, "log of symbol determinant is concave")
    # eigenvalue route: the Hessian of log(xy - |z|^2) is negative
    # semidefinite at 100000 random cone points
    rng = np.random.default_rng(808)
    m = 100000
    x = np.exp(rng.normal(0.0, 0.5, m))
    y = np.exp(rng.normal(0.0, 0.5, m))
    zd = rng.standard_normal((m, 3))
    theta_sq = rng.uniform(0.0, 0.9, m)
    z = zd * np.sqrt(theta_sq * x * y / np.sum(zd**2, axis=1))[:, None]
    hess = tg.log_q_hessian_batch(x, y, z)
    top = np.linalg.eigvalsh(hess)[:, -1]
    assert float(np.max(top)) <= 1e-10

    # finite difference route: closed-form entries against centered second
    # differences at 1000 points
    def log_q(p):
        return math.log(p[0] * p[1] - float(np.sum(p[2:] ** 2)))

    rng = np.random.default_rng(809)
    worst = 0.0
    for _ in range(1000):
        px = math.exp(rng.normal(0.0, 0.3))
        py = math.exp(rng.normal(0.0, 0.3))
        zd = rng.standard_normal(3)
        th = rng.uniform(0.0, 0.5)
        pz = zd * math.sqrt(th * px * py / float(np.sum(zd**2)))
        p = np.concatenate(([px, py], pz))
        analytic = tg.log_q_hessian_batch([px], [py], pz[None])[0]
        d = p.size
        h = 3e-5 * max(1.0, float(np.max(np.abs(p))))
        fd = np.empty((d, d))
        f0 = log_q(p)
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = h
            fd[i, i] = (log_q(p + ei) - 2.0 * f0 + log_q(p - ei)) / h**2
            for j in range(i + 1, d):
                ej = np.zeros(d)
                ej[j] = h
                fd[i, j] = fd[j, i] = (
                    log_q(p + ei + ej) - log_q(p + ei - ej) - log_q(p - ei + ej) + log_q(p - ei - ej)
                ) / (4.0 * h**2)
        rel = np.max(np.abs(fd - analytic)) / max(1.0, np.max(np.abs(analytic)))
        worst = max(worst, rel)
    assert worst <= 1e-6, worst
    verdict.ok = True


def test_symmetric_function_algebra_matches_enumeration(verdict):
    verdict.arm(9, "symmetric function algebra matches enumeration")

    def sigma_brute(lams, k):
        return float(sum(math.prod(c) for c in itertools.combinations([float(v) for v in lams], k)))

    # elementary symmetric functions against subset enumeration
    rng = np.random.default_rng(909)
    for trial in range(1000):
        n = 1 + trial % 6
        lams = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        sig = tg.elementary_symmetric(lams, n)
        for k in range(1, n + 1):
            want = sigma_brute(lams, k)
            assert abs(sig[k] - want) <= 1e-12 * max(1.0, abs(want)), (trial, k)

    # the transform against the recursion T_m = sigma_m I - T_{m-1} R with
    # sigma from principal-minor determinants, plus the trace identity; the
    # Newton chain hands back T_0 = I as None
    for n in range(2, 7):
        for _ in range(40):
            m = rng.standard_normal((n, n))
            r = 0.5 * (m + m.T)
            lam = np.linalg.eigvalsh(r)
            t = np.eye(n)
            for k in range(1, n + 1):
                got = tg.newton_chain(r, k)[1]
                got = np.eye(n) if got is None else got
                scale = max(1.0, float(np.max(np.abs(t))))
                assert np.max(np.abs(got - t)) <= 1e-10 * scale, (n, k)
                sig = sigma_brute(lam, k)
                tr = float(np.trace(got @ r))
                assert abs(tr - k * sig) <= 1e-10 * max(1.0, abs(k * sig)), (n, k)
                if k < n:
                    sig_minor = sum(
                        float(np.linalg.det(r[np.ix_(rows, rows)]))
                        for rows in itertools.combinations(range(n), k)
                    )
                    t = sig_minor * np.eye(n) - t @ r

    # the top form equals the bordered block determinant
    for n in range(1, 5):
        for _ in range(50):
            m = rng.standard_normal((n, n))
            r = 0.5 * (m + m.T) + (n + 1.0) * np.eye(n)
            r00 = float(rng.uniform(0.5, 2.0))
            z = 0.5 * rng.standard_normal(n)
            block = np.empty((n + 1, n + 1))
            block[0, 0] = r00
            block[0, 1:] = z
            block[1:, 0] = z
            block[1:, 1:] = r
            det = float(np.linalg.det(block))
            got = tg.F_k(r00, r, z, n)
            assert abs(got - det) <= 1e-10 * max(1.0, abs(det)), n
    verdict.ok = True


def test_theorem_backed_concavity_scans_run_clean(verdict, tmp_path):
    verdict.arm(10, "theorem backed concavity scans run clean")
    for k, n in ((1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (3, 3), (4, 4)):
        report = tg.midpoint_concavity_scan(k, n, 100000, seed=42)
        assert report.theorem_backed
        assert report.violation_count == 0, (k, n, report.worst_margin)
        assert report.worst_margin > 0.0, (k, n)

    comparison = tg.comparison_scan(3, 10000, seed=43)
    assert comparison.violation_count == 0, comparison

    # intermediate index: exploratory only, recorded but never a gate
    conj = tg.midpoint_concavity_scan(2, 3, 100000, seed=44, hermitian=True)
    assert not conj.theorem_backed
    path = tmp_path / "conjecture_records.csv"
    tg.write_scan_records(conj, path)
    assert len(path.read_text().splitlines()) == 100001
    verdict.ok = True


def test_command_line_artifacts_are_deterministic(verdict, tmp_path):
    verdict.arm(11, "command line artifacts are deterministic")
    cfg_text = (
        "[problem]\n"
        "spatial_dim = 1\n"
        "nodes_per_axis = 16\n"
        "time_nodes = 9\n"
        "a = 1 + 0.2*sin(x)\n"
        "b = 0.1\n"
        "f = 2 - 0.3*cos(x)\n"
        "u0 = 0.1*sin(x)\n"
        "u1 = -0.1*cos(x)\n"
        "[sweep]\n"
        "epsilons = 1, 0.1, 0.01\n"
        "[scan]\n"
        "k = 1\n"
        "n = 3\n"
        "trials = 2000\n"
        "seed = 5\n"
        "comparison_pairs = 500\n"
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    one = tmp_path / "one"
    two = tmp_path / "two"
    for cmd in ("solve", "sweep", "scan"):
        assert cli_main([cmd, str(cfg), "--output", str(one)]) == 0
        assert cli_main([cmd, str(cfg), "--output", str(two)]) == 0
    names = sorted(os.listdir(one))
    assert names == sorted(os.listdir(two))
    assert "solution.bin" in names and "sweep_measurements.csv" in names and "scan_records.csv" in names
    for name in names:
        with open(one / name, "rb") as f1, open(two / name, "rb") as f2:
            assert f1.read() == f2.read(), name
    verdict.ok = True


def _legendre_route(t_nodes, x_nodes, m=4000, chunk=500):
    """The f = 0 limit of :func:`degenerate_spec` from discrete Legendre transforms.

    phi_i = x^2/2 + u_i, phi*(t, p) = (1 - t) phi0*(p) + t phi1*(p) and
    u(t, x) = max_p (p x - phi*(t, p)) - x^2/2, each max taken over the same
    m points of [-1.5, 2 pi + 1.5], which hold every slope and foot point of
    the data. Returns u at the outer product of ``t_nodes`` and ``x_nodes``.
    """
    y = np.linspace(-1.5, 2.0 * np.pi + 1.5, m)
    stars = []
    for layer in (degenerate_u0, degenerate_u1):
        phi = 0.5 * y * y + layer(y)[0]
        stars.append(np.concatenate([np.max(p[:, None] * y - phi, axis=1) for p in np.split(y, m // chunk)]))
    star = (1.0 - t_nodes[:, None]) * stars[0] + t_nodes[:, None] * stars[1]
    return np.max(x_nodes[None, :, None] * y - star[:, None, :], axis=2) - 0.5 * x_nodes**2


def test_degenerate_limit_matches_exact_solution(verdict):
    verdict.arm(12, "degenerate limit matches exact solution")
    # the reference: the boundary layers at t = 0 and 1, the Legendre route inside
    spec = degenerate_spec(32, 17, 1e-6)
    ref = degenerate_reference(spec.grid).values
    assert np.array_equal(ref[0], spec.u0.values) and np.array_equal(ref[-1], spec.u1.values)
    t = spec.grid.time_coords()
    legendre = _legendre_route(t[1:-1], spec.grid.axis_coords())
    assert np.max(np.abs(ref[1:-1] - legendre)) <= 1e-5

    # f = 1e-6 is within the discretization error of the limit: second order in h
    errors = []
    for n, nt in ((32, 17), (64, 33), (128, 65)):
        spec = degenerate_spec(n, nt, 1e-6)
        u = tg.continuation_solve(spec).u.values
        errors.append(float(np.max(np.abs(u - degenerate_reference(spec.grid).values))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert all(o >= 1.8 for o in orders), (errors, orders)

    # on 128x65 the distance to the limit is linear in eps
    ref = degenerate_reference(spec.grid).values
    for eps in (1e-1, 1e-2, 1e-3):
        u = tg.continuation_solve(degenerate_spec(128, 65, eps)).u.values
        ratio = float(np.max(np.abs(u - ref))) / eps
        assert 0.15 <= ratio <= 0.18, (eps, ratio)
    verdict.ok = True
