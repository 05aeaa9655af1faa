"""Cone algebra tests against enumeration, determinant, and symbolic oracles."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from torusgeo import symcone
from torusgeo.mesh import _RECORD_CHUNK, _fixed_17g, _lead_words, _write_17g
from torusgeo.symcone import (
    COMPARISON_TOL,
    F_k,
    _comparison_margins,
    _cone_shift,
    _min_shift_into_cone,
    _sample_cone_batch,
    comparison_scan,
    elementary_symmetric,
    log_q_hessian_batch,
    midpoint_concavity_scan,
    newton_chain,
    write_counterexamples,
    write_scan_records,
)

from conftest import CountingWriter


def sigma_brute(lams, k):
    """Subset enumeration oracle for the elementary symmetric function."""
    return float(sum(math.prod(c) for c in itertools.combinations([float(v) for v in lams], k)))


def newton_brute(r, k):
    """T_{k-1} by the recursion T_m = sigma_m I - T_{m-1} R with sigma from
    principal-minor determinants, avoiding the eigenvalue route entirely."""
    r = np.asarray(r)
    n = r.shape[0]

    def sigma_minors(m):
        if m == 0:
            return 1.0
        total = 0.0
        for rows in itertools.combinations(range(n), m):
            sub = r[np.ix_(rows, rows)]
            total += np.linalg.det(sub).real
        return total

    t = np.eye(n, dtype=r.dtype)
    for m in range(1, k):
        t = sigma_minors(m) * np.eye(n, dtype=r.dtype) - t @ r
    return t


def f_eig_reference(r00, r, z, k):
    """F_k of a batch through eigh: T_{k-1} is diagonal in R's eigenbasis, with
    entry i equal to sigma_{k-1} of the eigenvalues with the i-th removed (1 for k = 1)."""
    lam, u = np.linalg.eigh(r)
    n = lam.shape[-1]
    loo = np.ones(lam.shape)
    if k > 1:
        loo = np.stack(
            [elementary_symmetric(np.delete(lam, i, axis=-1), k - 1)[..., k - 1] for i in range(n)], axis=-1
        )
    w = np.einsum("...ji,...j->...i", np.conj(u), z)
    return r00 * elementary_symmetric(lam, k)[..., k] - np.sum(loo * np.abs(w) ** 2, axis=-1)


def min_shift_bisection(lams, k, iters=60):
    """Smallest s putting lam + s on the boundary of Gamma_k^+, by bisection between a
    shift making the spectrum positive definite and one making sigma_1 negative."""
    scale = 1.0 + np.max(np.abs(lams), axis=-1)
    lo = -np.mean(lams, axis=-1) - 1e-9 * scale
    hi = np.maximum(0.0, -np.min(lams, axis=-1)) + 1e-9 * scale
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        sig = elementary_symmetric(lams + mid[..., None], k)
        inside = np.all(sig[..., 1 : k + 1] > 0.0, axis=-1)
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    return hi


def transform(r, k):
    """T_{k-1}(R) from the Newton chain, which hands back T_0 = I as None."""
    t = newton_chain(r, k)[1]
    return np.eye(r.shape[-1]) if t is None else t


def test_sigma_frozen_values():
    assert np.array_equal(elementary_symmetric([1.0, 2.0, 3.0], 3), [1.0, 6.0, 11.0, 6.0])
    assert np.array_equal(elementary_symmetric([2.0, -1.0], 2), [1.0, 1.0, -2.0])


@pytest.mark.parametrize(
    "kernel",
    [
        lambda k: elementary_symmetric([1.0, 2.0], k),
        lambda k: newton_chain(np.eye(2), k),
        lambda k: F_k(1.0, np.eye(2), np.zeros(2), k),
    ],
    ids=["elementary_symmetric", "newton_chain", "F_k"],
)
@pytest.mark.parametrize("k", [0, 3])
def test_kernels_reject_k_outside_1_to_n(kernel, k):
    with pytest.raises(ValueError, match="1 <= k <= n"):
        kernel(k)


def test_sigma_against_enumeration():
    rng = np.random.default_rng(101)
    for n in range(1, 7):
        for _ in range(40):
            lams = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
            got = elementary_symmetric(lams, n)
            for k in range(1, n + 1):
                want = sigma_brute(lams, k)
                assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_newton_transform_identity_and_frozen():
    r = np.diag([1.0, 2.0, 3.0])
    assert newton_chain(r, 1)[1] is None  # T_0 = I
    t1 = transform(r, 2)
    assert np.allclose(t1, np.diag([5.0, 4.0, 3.0]), atol=1e-12)
    # identity matrix input: T_{k-1}(I) = C(n-1, k-1) I
    for n in range(1, 6):
        for k in range(1, n + 1):
            t = transform(np.eye(n), k)
            assert np.allclose(t, math.comb(n - 1, k - 1) * np.eye(n), atol=1e-10)


def test_newton_transform_against_minor_recursion():
    rng = np.random.default_rng(102)
    for n in range(2, 7):
        for _ in range(10):
            m = rng.standard_normal((n, n))
            r = 0.5 * (m + m.T)
            for k in range(1, n + 1):
                got = transform(r, k)
                want = newton_brute(r, k)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= 1e-10 * scale


def test_trace_identity():
    rng = np.random.default_rng(103)
    for n in range(1, 7):
        for _ in range(20):
            m = rng.standard_normal((n, n))
            r = 0.5 * (m + m.T)
            sig = elementary_symmetric(np.linalg.eigvalsh(r), n)
            for k in range(1, n + 1):
                t = transform(r, k)
                lhs = float(np.trace(t @ r))
                rhs = k * sig[k]
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_F_frozen_values():
    p = (2.0, np.diag([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 1.0]))
    # F_1 = r00 tr - |z|^2 = 12 - 2; F_2 = 2*11 - (sigma_1 drop 1st + sigma_1 drop 3rd)
    assert F_k(*p, 1) == pytest.approx(10.0)
    assert F_k(*p, 2) == pytest.approx(2.0 * 11.0 - (5.0 + 3.0))
    assert F_k(*p, 3) == pytest.approx(2.0 * 6.0 - (6.0 * 1.0 + 2.0 * 1.0))


def test_G_frozen_value_complex():
    # Complex z alone makes the form Hermitian: F_1 = 2 * 3 - (1 + |i|^2) = 4, and F_2 = 2 * 2 - (1 * 1 + 2 * 1) = 1.
    p = (2.0, np.diag([2.0, 1.0]), np.array([1.0, 1j]))
    for k, want in ((1, 4.0), (2, 1.0)):
        got = F_k(*p, k)
        assert np.isrealobj(got) and got == pytest.approx(want)


def test_F_n_equals_block_determinant():
    rng = np.random.default_rng(104)
    for n in range(1, 5):
        for _ in range(30):
            m = rng.standard_normal((n, n))
            r = 0.5 * (m + m.T) + (n + 1.0) * np.eye(n)
            r00 = float(rng.uniform(0.5, 2.0))
            z = rng.standard_normal(n) * 0.5
            block = np.empty((n + 1, n + 1))
            block[0, 0] = r00
            block[0, 1:] = z
            block[1:, 0] = z
            block[1:, 1:] = r
            det = float(np.linalg.det(block))
            got = F_k(r00, r, z, n)
            scale = max(1.0, abs(det))
            assert abs(got - det) <= 1e-10 * scale


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_F_is_dtype_invariant(seed):
    # The same admissible real triple, held as real and as complex data, has one F_k.
    rng = np.random.default_rng(seed)
    for n in range(1, 6):
        for k in range(1, n + 1):
            r00, r, z, _f, good = _sample_cone_batch(rng, k, n, 1, hermitian=False)
            assert good[0]
            assert not np.iscomplexobj(r) and not np.iscomplexobj(z)
            r, z = r[..., 0], z[:, 0]  # the sampler holds the batch last
            real = F_k(r00[0], r, z, k)
            cplx = F_k(r00[0], r.astype(complex), z.astype(complex), k)
            lam = np.abs(np.linalg.eigvalsh(r))
            scale = r00[0] * sigma_brute(lam, k) + float(np.sum(z**2)) * sigma_brute(lam, k - 1)
            assert abs(real - cplx) <= 1e-12 * scale, (n, k)


def batch_first(r00, r, z):
    """Batch-last triples with R and z batch-first, as eigh takes them."""
    return r00, np.moveaxis(r, -1, 0), np.moveaxis(z, -1, 0)


def batch_last(r):
    """Batch-first matrices in the batch-last layout of the cone kernels."""
    return np.moveaxis(r, 0, -1)


def in_gamma(r, k):
    """R in Gamma_k^+: sigma_1(R), ..., sigma_k(R) all strictly positive, per matrix of a batch-last batch."""
    return np.all(newton_chain(r, k)[0][1:] > 0.0, axis=0)


def test_gamma_membership():
    assert in_gamma(np.diag([1.0, -0.5]), 1)
    assert not in_gamma(np.diag([1.0, -0.5]), 2)
    assert in_gamma(np.eye(3), 3)
    assert not in_gamma(-np.eye(3), 1)
    batch = np.stack([np.eye(3), -np.eye(3), np.diag([3.0, 1.0, -0.5])], axis=-1)
    assert np.array_equal(in_gamma(batch, 2), [True, False, True])


def test_cone_point_admissibility():
    # The admissibility cone: r00 > 0, R in Gamma_k^+ and F_k > 0.
    def admissible(r00, r, z, k):
        return r00 > 0.0 and in_gamma(r, k) and F_k(r00, r, z, k) > 0.0

    assert admissible(1.0, np.eye(2), np.zeros(2), 1) and admissible(1.0, np.eye(2), np.zeros(2), 2)
    assert not admissible(1.0, np.eye(2), np.array([2.0, 0.0]), 1)  # F_1 = 2 - 4 < 0
    assert not admissible(-1.0, np.eye(2), np.zeros(2), 1)
    assert not admissible(1.0, np.diag([1.0, -0.5]), np.zeros(2), 2)


def test_log_q_hessian_frozen_point():
    h = log_q_hessian_batch([1.0], [1.0], np.zeros((1, 3)))[0]
    assert np.allclose(h, np.diag([-1.0, -1.0, -2.0, -2.0, -2.0]), atol=1e-14)


def test_log_q_hessian_scaling():
    rng = np.random.default_rng(105)
    x, y = 1.3, 0.9
    z = 0.3 * rng.standard_normal(4)
    lam = 2.7
    h1, h2 = log_q_hessian_batch([x, lam * x], [y, lam * y], np.stack([z, lam * z]))
    assert np.max(np.abs(h2 - h1 / lam**2)) <= 1e-12


def test_log_q_hessian_against_sympy():
    xs, ys, z1, z2 = sp.symbols("x y z1 z2", real=True)
    expr = sp.log(xs * ys - z1**2 - z2**2)
    variables = (xs, ys, z1, z2)
    hess = sp.Matrix([[sp.diff(expr, a, b) for b in variables] for a in variables])
    fn = sp.lambdify(variables, hess, "numpy")
    rng = np.random.default_rng(106)
    x = rng.uniform(0.5, 2.0, 20)
    y = rng.uniform(0.5, 2.0, 20)
    zd = rng.standard_normal((20, 2))
    z = zd * np.sqrt(rng.uniform(0.0, 0.5, 20) * x * y / np.sum(zd**2, axis=1))[:, None]
    got = log_q_hessian_batch(x, y, z)
    for i in range(20):
        want = np.asarray(fn(x[i], y[i], z[i, 0], z[i, 1]), dtype=float)
        assert np.max(np.abs(got[i] - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


def test_log_q_hessian_rejects_outside_cone():
    with pytest.raises(ValueError):
        log_q_hessian_batch([-1.0], [1.0], np.zeros((1, 2)))
    with pytest.raises(ValueError):
        log_q_hessian_batch([1.0], [1.0], np.array([[1.1, 0.0]]))
    # One point outside the cone rejects the whole batch.
    with pytest.raises(ValueError):
        log_q_hessian_batch([1.0, 1.0], [1.0, 1.0], np.array([[0.0, 0.0], [1.1, 0.0]]))


def test_log_q_hessian_batch_matches_single():
    rng = np.random.default_rng(107)
    x = np.exp(rng.normal(0, 0.4, 50))
    y = np.exp(rng.normal(0, 0.4, 50))
    zd = rng.standard_normal((50, 3))
    th = rng.uniform(0, 0.8, 50)
    z = zd * np.sqrt(th * x * y / np.sum(zd**2, axis=1))[:, None]
    hb = log_q_hessian_batch(x, y, z)
    for i in range(50):
        single = log_q_hessian_batch(x[i : i + 1], y[i : i + 1], z[i : i + 1])[0]
        scale = max(1.0, float(np.max(np.abs(single))))
        assert np.max(np.abs(hb[i] - single)) <= 1e-12 * scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_min_shift_into_cone():
    rng = np.random.default_rng(108)
    for n, k in ((3, 2), (4, 4), (5, 1)):
        lams = rng.standard_normal((64, n))
        s = _min_shift_into_cone(lams, k)
        if k == 1:
            assert np.array_equal(s, -np.mean(lams, axis=-1))
        if k == n:
            assert np.array_equal(s, -np.min(lams, axis=-1))
        above = lams + (s[:, None] + 1e-6)
        below = lams + (s[:, None] - 1e-6)
        for row_a, row_b in zip(above, below):
            sig_a = [sigma_brute(row_a, j) for j in range(1, k + 1)]
            assert min(sig_a) > 0.0
            sig_b = [sigma_brute(row_b, j) for j in range(1, k + 1)]
            assert min(sig_b) <= 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-100.0, 100.0), min_size=5, max_size=5))
def test_min_shift_brackets_cone_boundary(spectrum):
    # lam + s sits on the boundary of Gamma_k^+: a spectrum-scaled step up
    # enters the cone, a step down leaves it, for every 1 <= k <= n <= 5.
    for n in range(1, 6):
        lam = np.array(spectrum[:n])
        delta = 1e-6 * (1.0 + float(np.max(np.abs(lam))))
        for k in range(1, n + 1):
            s = float(_min_shift_into_cone(lam[None, :], k)[0])
            assert min(sigma_brute(lam + s + delta, j) for j in range(1, k + 1)) > 0.0, (n, k)
            assert min(sigma_brute(lam + s - delta, j) for j in range(1, k + 1)) <= 0.0, (n, k)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(hnp.arrays(float, (64, 6), elements=st.floats(-100.0, 100.0)))
@example(np.zeros((1, 6)))
@example(np.array([[1.0, 1.0, 1.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 1.0, 1.0, 1.0]]))
def test_min_shift_newton_matches_bisection(spectra):
    # Newton's root agrees with the 60-step bisection it replaced, for 1 < k < n <= 6.
    for n in range(3, 7):
        lam = spectra[:, :n]
        tol = 1e-12 * (1.0 + np.max(np.abs(lam), axis=-1))
        for k in range(2, n):
            err = np.abs(_min_shift_into_cone(lam, k) - min_shift_bisection(lam, k))
            assert np.all(err <= tol), (n, k, lam[np.argmax(err - tol)])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_f_batch_matches_eigen_route(seed, hermitian):
    # The Newton recursion against F_k read off an eigendecomposition, for every
    # 1 <= k <= n <= 6, on sampled triples and on the midpoints the scan scores.
    rng = np.random.default_rng(seed)
    for n in range(1, 7):
        for k in range(1, n + 1):
            r00p, rp, zp, fp, goodp = _sample_cone_batch(rng, k, n, 16, hermitian)
            r00q, rq, zq, _fq, goodq = _sample_cone_batch(rng, k, n, 16, hermitian)
            assert goodp.all() and goodq.all()
            want = f_eig_reference(*batch_first(r00p, rp, zp), k)
            assert np.all(np.abs(F_k(r00p, rp, zp, k) - want) <= 1e-10 * np.abs(want)), (n, k)
            assert np.all(np.abs(fp - want) <= 1e-10 * np.abs(want)), (n, k)
            mid = (0.5 * (r00p + r00q), 0.5 * (rp + rq), 0.5 * (zp + zq))
            want = f_eig_reference(*batch_first(*mid), k)
            assert np.all(np.abs(F_k(*mid, k) - want) <= 1e-10 * np.abs(want)), (n, k)


def random_hermitian(rng, shape, hermitian):
    m = rng.standard_normal(shape)
    if hermitian:
        m = m + 1j * rng.standard_normal(shape)
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


@pytest.mark.parametrize("hermitian", [False, True], ids=["real", "complex"])
def test_newton_chain_is_batch_independent(hermitian):
    # A row's sigma_0..sigma_k and F_k are the same bits alone, in a 61-row sub-batch
    # and in a 4096 batch, for every 1 <= k <= n <= 6, with row scales from 1e-3 to 1e3.
    rng = np.random.default_rng(112)
    for n in range(1, 7):
        r = random_hermitian(rng, (4096, n, n), hermitian) * 10.0 ** rng.uniform(-3.0, 3.0, (4096, 1, 1))
        z = rng.standard_normal((4096, n)) + (1j * rng.standard_normal((4096, n)) if hermitian else 0.0)
        r, z = np.ascontiguousarray(batch_last(r)), np.ascontiguousarray(z.T)
        r00 = np.exp(rng.normal(0.0, 0.7, 4096))
        for k in range(1, n + 1):
            kernels = {
                "newton_chain": lambda rows: newton_chain(r[..., rows], k)[0],
                "F_k": lambda rows: F_k(r00[rows], r[..., rows], z[:, rows], k),
            }
            for name, run in kernels.items():
                full = run(slice(None))
                sub = np.concatenate([run(slice(i, i + 61)) for i in range(0, 4096, 61)], axis=-1)
                assert np.array_equal(sub, full), (name, n, k)
                for i in range(0, 4096, 97):
                    assert np.array_equal(run(i), full[..., i]), (name, n, k, i)


def rotated(rng, lams, hermitian):
    """Hermitian matrices U diag(lam) U^* with a random unitary (orthogonal when real) U."""
    u, _ = np.linalg.qr(random_hermitian(rng, lams.shape + lams.shape[-1:], hermitian))
    r = np.einsum("...ij,...j,...kj->...ik", u, lams, np.conj(u))
    return 0.5 * (r + np.conj(np.swapaxes(r, -1, -2)))


def exact_shift(r, k):
    return _min_shift_into_cone(np.linalg.eigvalsh(r), k)


@pytest.mark.parametrize("hermitian", [False, True], ids=["real", "complex"])
def test_cone_shift_on_repeated_eigenvalues(hermitian):
    # Spectra with lam_min repeated m times (up to all n), and with a repeated pair
    # above it. The boundary root of sigma_k(lam + s) has multiplicity m - (n - k):
    # where that is 2 or more, Newton cannot certify the root and the row must take
    # the exact route. Every row agrees with the exact route to 1e-12 (1 + |R|_F).
    rng = np.random.default_rng(113)
    for n in range(3, 7):
        rows, mults = [], []
        for m in range(1, n + 1):
            for _ in range(16):
                lam = np.sort(rng.uniform(-2.0, 2.0, n))
                lam[:m] = lam[0]
                if m <= n - 2:
                    lam[-2] = lam[-1]
                rows.append(rng.permutation(lam))
                mults.append(m)
        r = rotated(rng, np.array(rows), hermitian)
        mults = np.array(mults)
        norm = np.sqrt(np.sum(np.abs(r) ** 2, axis=(-2, -1)))
        for k in range(2, n + 1):
            got = _cone_shift(batch_last(r), k)
            want = exact_shift(r, k)
            multiple = mults >= n - k + 2
            assert np.array_equal(got[multiple], want[multiple]), (n, k)
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + norm)), (n, k)


def test_cone_shift_rejects_a_lower_root(monkeypatch):
    # Rounding at a multiple root can throw Newton onto a lower root of sigma_k(lam + s).
    # The lowest root of sigma_3(lam + s) at lam = (0, 1, 2, 3) is simple, with a
    # positive slope, so only the certificate's sigma_j(lam + s) >= 0 test flags it.
    lam, k = np.array([0.0, 1.0, 2.0, 3.0]), 3
    coeffs = [math.comb(4 - i, k - i) * sigma_brute(lam, i) for i in range(k + 1)]
    low = float(np.min(np.roots(coeffs).real))
    assert np.polyval(np.polyder(coeffs), low) > 0.0
    descent = symcone._newton_descent
    calls = []

    def lands_low(s, *args):
        calls.append(s.size)
        return np.full_like(s, low) if len(calls) == 1 else descent(s, *args)

    r = np.diag(lam)[None]
    want = exact_shift(r, k)[0]
    monkeypatch.setattr(symcone, "_newton_descent", lands_low)
    assert _cone_shift(batch_last(r), k)[0] == want > low + 1.0
    assert len(calls) == 2  # the landing, then the exact route


def test_overflowing_row_does_not_stall_the_descent(monkeypatch):
    # A row whose sigmas overflow to nan never moves, so it must not keep the batch's
    # descent running to its cap: the batch takes as many passes as without it, every
    # other row keeps its bits, and the bad row still gets the eigvalsh route's answer.
    rng = np.random.default_rng(114)
    r = random_hermitian(rng, (4096, 4, 4), False)
    descent = symcone._newton_descent
    passes = []

    def counting(s, sigmas, *args):
        calls = []

        def counted(*sigma_args):
            calls.append(1)
            return sigmas(*sigma_args)

        out = descent(s, counted, *args)
        passes.append(len(calls))
        return out

    monkeypatch.setattr(symcone, "_newton_descent", counting)
    clean = _cone_shift(batch_last(r), 4)
    bad = r.copy()
    bad[7] *= 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = _cone_shift(batch_last(bad), 4)
    assert passes == [15, 15]
    others = np.arange(4096) != 7
    assert np.array_equal(shifted[others], clean[others])
    assert shifted[7] == exact_shift(bad[7:8], 4)[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    hnp.arrays(float, (6, 6), elements=st.floats(-100.0, 100.0)),
    hnp.arrays(float, (6, 6), elements=st.floats(-100.0, 100.0)),
    st.booleans(),
)
@example(np.zeros((6, 6)), np.zeros((6, 6)), False)
@example(np.eye(6), np.zeros((6, 6)), False)
@example(np.diag([1.0, 1.0, 1.0, 2.0, 3.0, 3.0]), np.ones((6, 6)), True)
def test_cone_shift_matches_eigen_route(re, im, hermitian):
    # Certified or not, the shift is within 1e-12 (1 + |R|_F) of the exact route.
    for n in range(1, 7):
        m = re[:n, :n] + 1j * im[:n, :n] if hermitian else re[:n, :n]
        r = 0.5 * (m + np.conj(m.T))[None]
        tol = 1e-12 * (1.0 + np.sqrt(np.sum(np.abs(r) ** 2)))
        for k in range(1, n + 1):
            assert abs(_cone_shift(batch_last(r), k)[0] - exact_shift(r, k)[0]) <= tol, (n, k, r)


@pytest.mark.parametrize("k, n, hermitian, seed", [(3, 3, False, 46), (4, 4, False, 48), (2, 3, True, 50)])
def test_scan_shift_rarely_needs_eigvalsh(monkeypatch, k, n, hermitian, seed):
    # The benchmark battery's k >= 2 entries: fewer than 1% of the sampled matrices
    # fail the shift's certificate and reach eigvalsh.
    rows = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        rows.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rep = midpoint_concavity_scan(k, n, 4096, seed=seed, hermitian=hermitian)
    assert rep.sampling_failures == 0
    assert sum(rows) < 0.01 * 2 * 4096, rows


# Runs a (2, 3) Hermitian scan in a child process: no row may take eigvalsh, whose LAPACK
# kernels do depend on the BLAS core type; the margins go to stdout as raw bytes.
_CORETYPE_CHILD = """
import sys
import numpy as np
rows = []
eigvalsh = np.linalg.eigvalsh
def counting(a, *args, **kwargs):
    rows.append(len(a))
    return eigvalsh(a, *args, **kwargs)
np.linalg.eigvalsh = counting
from torusgeo.symcone import midpoint_concavity_scan
rep = midpoint_concavity_scan(2, 3, 20000, seed=50, hermitian=True)
assert sum(rows) == 0, rows
sys.stdout.buffer.write(rep.margins.tobytes())
"""


def test_scan_bytes_do_not_depend_on_blas_kernel():
    # The scan-side twin of test_solution_bytes_do_not_depend_on_blas_threads: the cone
    # algebra runs in numpy's elementwise loops, so the margins are the same bits under
    # the default OpenBLAS kernel and under Prescott's.
    src = os.path.dirname(os.path.dirname(symcone.__file__))
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    margins = []
    for coretype in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        proc = subprocess.run(
            [sys.executable, "-c", _CORETYPE_CHILD], capture_output=True, timeout=120, env={**env, **coretype}
        )
        assert proc.returncode == 0, proc.stderr.decode()
        margins.append(proc.stdout)
    assert len(margins[0]) == 8 * 20000
    assert margins[0] == margins[1]


def test_scan_rejects_n_above_6():
    with pytest.raises(ValueError, match="n must be at most 6"):
        midpoint_concavity_scan(1, 7, 10, seed=0)


@pytest.mark.parametrize("k, n, hermitian", [(3, 3, False), (4, 4, False), (2, 3, True)])
def test_scan_makes_no_eigh_call(monkeypatch, k, n, hermitian):
    # F_k comes from the Newton recursion, and so does the shift (eigvalsh only on the
    # rows its certificate flags): eigh is never needed.
    def no_eigh(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    rep = midpoint_concavity_scan(k, n, 500, seed=38, hermitian=hermitian)
    assert rep.sampling_failures == 0
    assert rep.violation_count == 0


@pytest.mark.parametrize("hermitian", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("k, n", [(1, 1), (1, 4), (2, 2), (2, 4), (3, 3), (4, 6)])
def test_sampler_makes_only_its_documented_draws(k, n, hermitian):
    # Per batch, in order: n + n(n - 1)/2 normals per matrix (the off-diagonal ones twice when
    # Hermitian; no matrix at k = 1), then the margins, r00, z (real and imaginary parts) and theta.
    batch = 37
    rng, want = np.random.default_rng(8), np.random.default_rng(8)
    _sample_cone_batch(rng, k, n, batch, hermitian)
    if k > 1:
        want.standard_normal((n + n * (n - 1) // 2 * (1 + hermitian)) * batch)
    want.uniform(size=batch)
    want.standard_normal(batch)
    want.standard_normal(n * batch * (1 + hermitian))
    want.uniform(size=batch)
    assert rng.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("hermitian", [False, True], ids=["real", "complex"])
def test_sampler_draws_goe_and_gue_matrices(hermitian):
    # Off the diagonal R is (m + m^*)/2 for a standard normal m: each entry (its real and imaginary
    # parts when Hermitian) has mean 0 and variance 1/2, here within 5 sigma over 4096 samples.
    n, batch = 4, 4096
    r = _sample_cone_batch(np.random.default_rng(9), 2, n, batch, hermitian)[1]
    rows, cols = np.triu_indices(n, 1)
    assert np.array_equal(r[cols, rows], np.conj(r[rows, cols]))
    parts = [r[rows, cols].real] + [r[rows, cols].imag] * hermitian
    assert np.iscomplexobj(r) == hermitian
    for x in np.concatenate(parts):
        assert abs(np.mean(x)) <= 5.0 * math.sqrt(0.5 / batch)
        assert abs(np.var(x) - 0.5) <= 5.0 * 0.5 * math.sqrt(2.0 / (batch - 1))


@pytest.mark.parametrize("hermitian", [False, True], ids=["real", "complex"])
def test_sampler_at_k1_is_the_margin_times_the_identity(hermitian):
    # F_1 reads R only through tr R, so the sampler draws no matrix there: R = margin I exactly.
    n, batch = 4, 4096
    r = _sample_cone_batch(np.random.default_rng(10), 1, n, batch, hermitian)[1]
    margin = 10.0 ** np.random.default_rng(10).uniform(-2.0, 0.0, batch)
    assert np.array_equal(r, margin * np.eye(n)[..., None])
    assert margin.min() >= 1e-2 and margin.max() <= 1.0


@pytest.mark.parametrize("hermitian", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_f1_batch_matches_pointwise_eval(n, hermitian):
    rng = np.random.default_rng(110 + n)
    r00, r, z, f_sampled, good = _sample_cone_batch(rng, 1, n, 200, hermitian)
    assert good.all()
    f_batch = F_k(r00, r, z, 1)
    for i in range(200):
        want = F_k(r00[i], r[..., i], z[:, i], 1)
        # The reference sums eigenvalues of both signs, so its own rounding is
        # relative to r00 * sum |lam|, not to the trace.
        scale = r00[i] * float(np.sum(np.abs(np.linalg.eigvalsh(r[..., i])))) + float(np.sum(np.abs(z[:, i]) ** 2))
        assert abs(f_batch[i] - want) <= 1e-12 * scale
        assert abs(f_sampled[i] - want) <= 1e-12 * scale
        # Against exact rational arithmetic the trace form holds to 1e-12 of F itself.
        exact = Fraction(r00[i]) * sum(Fraction(float(v)) for v in np.real(np.diag(r[..., i]))) - sum(
            Fraction(float(v)) ** 2 for v in np.concatenate([np.real(z[:, i]), np.imag(z[:, i])])
        )
        assert abs(Fraction(float(f_batch[i])) - exact) <= Fraction(1e-12) * abs(exact)


def test_scan_deterministic_and_clean():
    rep1 = midpoint_concavity_scan(1, 3, 2000, seed=31)
    rep2 = midpoint_concavity_scan(1, 3, 2000, seed=31)
    assert np.array_equal(rep1.margins, rep2.margins)
    assert rep1.violation_count == 0
    assert rep1.worst_margin > 0.0
    assert rep1.sampling_failures == 0
    assert rep1.theorem_backed
    other = midpoint_concavity_scan(1, 3, 2000, seed=32)
    assert not np.array_equal(other.margins, rep1.margins)


def test_scan_conjecture_flag():
    rep = midpoint_concavity_scan(2, 4, 500, seed=33)
    assert not rep.theorem_backed
    herm = midpoint_concavity_scan(2, 3, 500, seed=33, hermitian=True)
    assert herm.variant == "complex"
    assert herm.violation_count == 0


def test_scan_violation_capture(monkeypatch):
    # a high threshold flags many trials, exercising the capture path
    monkeypatch.setattr(symcone, "SCAN_THRESHOLD", 1.0)
    rep = midpoint_concavity_scan(1, 2, 64, seed=34)
    assert rep.violation_count == int(np.sum(rep.margins < 1.0))
    assert rep.violation_count > 0
    assert len(rep.violations) == min(rep.violation_count, 25)
    v = rep.violations[0]
    assert v.r_left.shape == (2, 2)
    assert np.isfinite(rep.f_mid[v.trial])


def test_scan_record_files(tmp_path, monkeypatch):
    monkeypatch.setattr(symcone, "SCAN_THRESHOLD", 1.0)
    rep = midpoint_concavity_scan(1, 2, 100, seed=35)
    rec = tmp_path / "records.csv"
    cex = tmp_path / "counterexamples.txt"
    write_scan_records(rep, rec)
    write_counterexamples(rep, cex)
    lines = rec.read_text().splitlines()
    assert lines[0] == "trial,k,n,variant,margin,f_left,f_right,f_mid"
    assert len(lines) == 101
    body = cex.read_text()
    assert "trial = " in body
    assert "R_left = " in body


def _reference_records(rep) -> bytes:
    """The records file of ``rep`` written one row at a time with Python's %.17g."""
    rows = ["trial,k,n,variant,margin,f_left,f_right,f_mid\n"]
    for i in range(rep.trials):
        rows.append(
            f"{i},{rep.k},{rep.n},{rep.variant},"
            f"{rep.margins[i]:.17g},{rep.f_left[i]:.17g},"
            f"{rep.f_right[i]:.17g},{rep.f_mid[i]:.17g}\n"
        )
    return "".join(rows).encode()


# Values at the edges of the records kernel's fixed-notation range: 1e-4 and its
# neighbours, literals whose 17 digits round up to a power of ten, predecessors
# of powers of ten (where floor(log10) is one too high), 1e17 and its predecessor,
# exact ties at the 18th digit (1 + 2^-17 = 1.00000762939453125 rounds down to
# even, 1 + 3 * 2^-17 up), and the values only printf writes.
ADVERSARIAL = [
    1e-4,
    9.9999999999999999e-5,
    float(np.nextafter(1e-4, 0.0)),
    float(np.nextafter(1e-4, 1.0)),
    9.9999999999999999e-3,
    99.999999999999999,
    *(float(np.nextafter(10.0**e, 0.0)) for e in range(-3, 18)),
    1e17,
    float(np.nextafter(1e17, 0.0)),
    1e16,
    1.0 + 2.0**-17,
    1.0 + 3.0 * 2.0**-17,
    0.0,
    -0.0,
    np.inf,
    -np.inf,
    np.nan,
    5e-324,
    1.7976931348623157e308,
]


def test_scan_records_match_row_by_row_reference(tmp_path):
    trials = 2 * _RECORD_CHUNK + 37
    rep = midpoint_concavity_scan(1, 2, trials, seed=37)
    rep.margins[[3, _RECORD_CHUNK]] = np.nan
    rep.margins[[5, trials - 1]] = -np.inf
    rep.f_mid[3] = np.nan
    # Splice the adversarial values, and their negatives, into every column.
    special = np.array(ADVERSARIAL + [-x for x in ADVERSARIAL])
    for j, col in enumerate((rep.margins, rep.f_left, rep.f_right, rep.f_mid)):
        col[_RECORD_CHUNK - 20 + j : _RECORD_CHUNK - 20 + j + special.size] = special
        col[trials - special.size - j : trials - j] = special[::-1]
    assert "1.0000076293945312" in _reference_records(rep).decode()
    new = tmp_path / "records.csv"
    write_scan_records(rep, new)
    assert new.read_bytes() == _reference_records(rep)


def test_scan_records_on_each_side_of_every_digit_width(tmp_path):
    # 9/10, 99/100, ..., 99999/100000 rows: the last row number gains a digit, and
    # from 10000 on a word; each chunk of rows holds row numbers of several widths.
    full = midpoint_concavity_scan(1, 3, 100000, seed=38)
    lines = _reference_records(full).splitlines(keepends=True)  # rows of a scan's prefix are its first lines
    new = tmp_path / "records.csv"
    for width in range(1, 6):
        for trials in (10**width - 1, 10**width):
            cols = {c: getattr(full, c)[:trials] for c in ("margins", "f_left", "f_right", "f_mid")}
            write_scan_records(dataclasses.replace(full, trials=trials, violations=[], **cols), new)
            assert new.read_bytes() == b"".join(lines[: 1 + trials]), trials


def test_record_lead_matches_printf():
    # Row-number fields of one to five words, synthetic rows past any scan's size among them.
    for index in ([0, 7, 9999], [10000, 99999999], [10**8 - 1, 10**8], [0, 10**8 - 1, 10**8, 10**12], [10**18]):
        for head in ("", ",3,4,real,"):
            words = _lead_words(np.array(index), head)
            assert words.shape == (-(-len(str(max(index))) // 4) + -(-len(head) // 4), len(index))
            rows = np.ascontiguousarray(words.T).view(np.uint8).reshape(len(index), -1)
            want = [b"%d%s" % (i, head.encode()) for i in index]
            assert [row.tobytes().translate(None, b"\0") for row in rows] == want


def _bits_to_float(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.lists(
        st.one_of(
            st.integers(0, 2**64 - 1).map(_bits_to_float),
            st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 18.0)).map(lambda t: t[0] * 10.0 ** t[1]),
        ),
        min_size=4,
        max_size=64,
    )
)
def test_records_kernel_matches_printf(tmp_path, values):
    # Random bit patterns reach every class of double; the log-uniform draws fill
    # the kernel's fixed range [1e-4, 1e17) and both of its edges.
    values = np.array(values)
    rep = midpoint_concavity_scan(1, 2, values.size, seed=39)
    rep.margins[:], rep.f_left[:], rep.f_right[:], rep.f_mid[:] = values, values[::-1], -values, np.roll(values, 1)
    new = tmp_path / "records.csv"
    write_scan_records(rep, new)
    assert new.read_bytes() == _reference_records(rep)
    # The kernel, not printf, certifies every finite value of the fixed range.
    mag = np.abs(values)
    assert np.array_equal(_fixed_17g(values[None])[1][0], (mag >= 1e-4) & (mag < 1e17))
    # printf formats the other values in place: no line is printed whole, so one chunk is one write.
    fh = CountingWriter()
    _write_17g(fh, np.stack([rep.margins, rep.f_left, rep.f_right, rep.f_mid]), ",1,2,real,")
    assert fh.writes == 1
    assert b"trial,k,n,variant,margin,f_left,f_right,f_mid\n" + fh.getvalue() == _reference_records(rep)


def _q(point) -> float:
    """Q = r00 Re tr R - |z|^2 of a triple (r00, R, z), the k = 1 value the comparison battery uses."""
    r00, r, z = point
    return float(r00 * np.real(np.trace(r)) - np.sum(np.abs(z) ** 2))


def comparison_brute(a, b, s_samples):
    """Segment and difference values built point by point, one combination per s."""
    qa = _q(a)
    worst = min(
        _q(tuple(s * pa + (1.0 - s) * pb for pa, pb in zip(a, b))) - qa for s in np.linspace(0.0, 1.0, s_samples)
    )
    return worst, _q(tuple(pa - pb for pa, pb in zip(a, b)))


def _random_q_point(rng, n, hermitian):
    """A triple with Q = r00 Re tr R - |z|^2 at a random fraction in [0, 0.95) of r00 Re tr R."""
    m = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if hermitian else 0.0)
    r = 0.5 * (m + m.conj().T)
    r += (1.0 - np.real(np.trace(r)) / n + rng.exponential()) * np.eye(n)
    r00 = float(np.exp(rng.normal(0.0, 0.5)))
    zdir = rng.standard_normal(n) + (1j * rng.standard_normal(n) if hermitian else 0.0)
    theta = rng.uniform(0.0, 0.95)
    z = zdir * np.sqrt(theta * r00 * np.real(np.trace(r)) / max(float(np.sum(np.abs(zdir) ** 2)), 1e-300))
    return r00, r, z


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(2, 21), st.booleans(), st.integers(0, 2**32 - 1))
def test_comparison_check_matches_pointwise_reference(n, s_samples, hermitian, seed):
    """The batched kernel :func:`_comparison_margins` against the point-by-point reference."""
    rng = np.random.default_rng(seed)
    a = _random_q_point(rng, n, hermitian)
    b = _random_q_point(rng, n, hermitian)
    lam = math.sqrt(_q(a) / _q(b))  # equalize: Q scales quadratically
    b = tuple(lam * pb for pb in b)
    worst, diff = _comparison_margins(
        np.array([[a[0]], [b[0]]]),
        np.real([[np.trace(a[1])], [np.trace(b[1])]]),
        np.stack([a[2], b[2]])[:, None, :],
        s_samples,
    )
    worst_ref, diff_ref = comparison_brute(a, b, s_samples)
    # Q is a difference of terms up to 20 Q here (theta < 0.95); both sides round at that size.
    scale = max(1.0, _q(a))
    tol = 1e-12 * scale
    assert abs(worst[0] - worst_ref) <= tol
    assert abs(diff[0] - diff_ref) <= tol
    assert worst[0] >= -COMPARISON_TOL * scale and diff[0] <= COMPARISON_TOL * scale


def test_comparison_scan_clean_and_deterministic():
    rep1 = comparison_scan(3, 2000, seed=36)
    rep2 = comparison_scan(3, 2000, seed=36)
    assert rep1 == rep2
    assert rep1.violation_count == 0
    assert rep1.worst_segment_margin >= -1e-10
    assert rep1.worst_diff_value <= 1e-10
