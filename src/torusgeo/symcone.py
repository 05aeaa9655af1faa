"""Elementary symmetric function algebra, cone membership, and concavity scans.

The objects here are triples (r00, R, z) with r00 a positive real, R an
n x n matrix and z a vector, held as arrays with any leading batch shape (the
scan's kernels hold it last: R as (n, n, B), z as (n, B)). Real triples (R
symmetric) and complex ones (R Hermitian) go through the same kernels, which
read the form from the dtype of R and z:

    F_k(r00, R, z) = r00 * sigma_k(R) - z^* T_{k-1}(R) z,

where sigma_k is the k-th elementary symmetric function of the eigenvalues
and T_{k-1} is the (k-1)-th Newton transformation. The admissibility cone
requires r00 > 0, R in the Garding cone Gamma_k^+ (sigma_1, ..., sigma_k all
positive) and F_k > 0.

:func:`F_k`, and sigma_0..sigma_k with T_{k-1} (:func:`newton_chain`), come from
the Newton transformation's recursion, with no eigendecomposition and no BLAS,
and so does the scan's cone shift, except on the rows its a-posteriori certificate
flags (eigvalsh, the scan's one BLAS/LAPACK call, then :func:`elementary_symmetric`).

Log-concavity of F_k along segments inside the cone is a theorem for k = 1
(any n) and k = n; for 2 <= k <= n-1 it is scanned as a conjecture, with real
and complex (Hermitian) data flagged separately. The scanners draw random
cone-interior pairs (GOE or GUE matrices shifted into the cone, none at k = 1), test
midpoint log-concavity, and report worst margins and any counterexamples at full precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def elementary_symmetric(lams, k: int) -> np.ndarray:
    """Elementary symmetric functions e_0..e_k of the last axis, 1 <= k <= its size.

    Stable one-pass recurrence: fold eigenvalues in one at a time, updating
    e_j += lam * e_{j-1} from the top down. Works on any leading batch shape.
    """
    lams = np.asarray(lams, dtype=float)
    n = lams.shape[-1]
    _check_k(k, n)
    out = np.zeros(lams.shape[:-1] + (k + 1,))
    out[..., 0] = 1.0
    for i in range(n):
        lam_i = lams[..., i]
        for j in range(min(i + 1, k), 0, -1):
            out[..., j] += lam_i * out[..., j - 1]
    return out


def _check_k(k: int, n: int, n_max: int | None = None) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if n_max is not None and n > n_max:
        raise ValueError(f"n must be at most {n_max}, got n={n}")


def newton_chain(r: np.ndarray, k: int):
    """sigma_0..sigma_k and T_{k-1} of matrices with any leading batch shape, by the Newton recursion.

    T_0 = I, sigma_j = tr(R T_{j-1}) / j and T_j = sigma_j I - R T_{j-1}. T_0 (k = 1) is returned as
    None, which :func:`_form` reads as the identity. An adapter over the batch-last :func:`_chain`.
    """
    sig, t = _chain(np.moveaxis(r, (-2, -1), (0, 1)), k)
    return np.moveaxis(sig, 0, -1), None if t is None else np.moveaxis(t, (0, 1), (-2, -1))


def _chain(r: np.ndarray, k: int):
    """:func:`newton_chain` of Hermitian R held batch-last, (n, n, ...): sigma (k + 1, ...), T_{k-1} (n, n, ...).

    R T_{j-1} is Hermitian, so row i is summed from column i on (the diagonal only at the last step)
    and T_j mirrors it. Factors get one ndim: numpy rounds a one-element complex product otherwise.
    """
    n = r.shape[0]
    _check_k(k, n)
    sig = np.ones((k + 1,) + r.shape[2:])
    t = None
    for j in range(1, k + 1):
        rt = r
        if t is not None:
            rt = np.empty_like(r)
            for i in range(n):
                cols = slice(i, i + 1 if j == k else n)
                np.multiply(r[i, 0, None], t[0, cols], out=rt[i, cols])
                for m in range(1, n):
                    rt[i, cols] += r[i, m, None] * t[m, cols]
        sig[j] = sum(np.real(rt[i, i]) for i in range(n)) / j
        if j < k:
            t = np.empty_like(r)
            for i in range(n):
                np.negative(rt[i, i:], out=t[i, i:])
                t[i, i] = sig[j] - np.real(rt[i, i])
                np.conjugate(t[i, i + 1 :], out=t[i + 1 :, i])
    return sig, t


def _form(t, z: np.ndarray) -> np.ndarray:
    """z^* T z of batch-last T (n, n, ...) and z (n, ...), real for Hermitian T; ``t = None`` stands for T_0 = I."""
    if t is None:
        return np.sum(np.abs(z) ** 2, axis=0)
    tz = sum(t[:, m] * z[m, None] for m in range(len(z)))
    return np.sum(np.real(z.conj() * tz), axis=0)


def _f(r00, r: np.ndarray, z: np.ndarray, k: int) -> np.ndarray:
    """:func:`F_k` of batch-last triples: R of shape (n, n, ...) and z of shape (n, ...)."""
    sig, t = _chain(r, k)
    return r00 * sig[k] - _form(t, z)


def F_k(r00, r, z, k: int) -> np.ndarray:
    """F_k of triples with any leading batch shape, real for real and Hermitian data.

    For k = 1 this is r00 Re tr R - |z|^2. An adapter over the batch-last :func:`_f`.
    """
    return _f(r00, np.moveaxis(r, (-2, -1), (0, 1)), np.moveaxis(z, -1, 0), k)


# ---------------------------------------------------------------------------
# Hessian of log(x y - |z|^2).
# ---------------------------------------------------------------------------


def log_q_hessian_batch(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Hessians of f(x, y, z) = log(x y - sum z_i^2), ordered (x, y, z_1..z_n).

    x, y of shape (B,), z of shape (B, n). On the cone x > 0, y > 0,
    x y - |z|^2 > 0, where f is concave, each Hessian is symmetric negative
    semidefinite, and scaling the argument by lam scales it by lam^{-2}.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    bsz, n = z.shape
    zz = np.sum(z * z, axis=-1)
    d = x * y - zz
    if np.any(x <= 0.0) or np.any(y <= 0.0) or np.any(d <= 0.0):
        raise ValueError("batch contains points outside the admissible cone")
    d2 = d * d
    h = np.empty((bsz, n + 2, n + 2))
    h[:, 0, 0] = -(y * y) / d2
    h[:, 1, 1] = -(x * x) / d2
    h[:, 0, 1] = h[:, 1, 0] = -zz / d2
    zx = 2.0 * z * (y / d2)[:, None]
    zy = 2.0 * z * (x / d2)[:, None]
    h[:, 0, 2:] = zx
    h[:, 2:, 0] = zx
    h[:, 1, 2:] = zy
    h[:, 2:, 1] = zy
    h[:, 2:, 2:] = (-2.0 * d / d2)[:, None, None] * np.eye(n) - (4.0 / d2)[
        :, None, None
    ] * np.einsum("bi,bj->bij", z, z)
    return h


# ---------------------------------------------------------------------------
# Midpoint concavity scans.
# ---------------------------------------------------------------------------


# Cap on a row's Newton steps; a row stops earlier, at the first step that does not move it.
_DESCENT_ITERS = 60


def _newton_descent(s: np.ndarray, sigmas, n: int, k: int) -> np.ndarray:
    """Newton per row from above onto the largest root of the real-rooted p(s) = sigma_k(lam + s).

    ``sigmas(x, rows)`` gives sigma_{k-1} and sigma_k of lam + x on the rows ``rows`` (index or slice),
    and p' = (n - k + 1) sigma_{k-1}. The iterates fall monotonically; rows with p <= 0 (the root,
    by rounding) or p' <= 0 stay put, and a row that did not move is final, so it leaves the loop.
    """
    s = s.copy()
    rows, x = np.arange(s.size), s
    for _ in range(_DESCENT_ITERS):
        low, p = sigmas(x, rows if x.size < s.size else slice(None))
        move = (low > 0.0) & (p > 0.0)
        x_next = x - p / np.where(move, (n - k + 1) * low, 1.0)
        moved = move & (x_next != x)
        if not moved.any():
            break
        rows, x = rows[moved], x_next[moved]
        s[rows] = x
    return s


def _min_shift_into_cone(lams: np.ndarray, k: int) -> np.ndarray:
    """Per-row smallest s with spectrum lam + s on the boundary of Gamma_k^+, for spectra of shape (B, n).

    Closed forms: -mean(lam) for k = 1 (sigma_1 > 0), -min(lam) for k = n (the
    positive orthant). For 1 < k < n it is the largest root of the real-rooted
    polynomial sigma_k(lam + s), which :func:`_newton_descent` reaches from -min(lam).
    """
    lams = np.asarray(lams, dtype=float)
    if k == 1:
        return -np.mean(lams, axis=-1)
    n = lams.shape[-1]
    s = -np.min(lams, axis=-1)
    if k == n:
        return s
    return _newton_descent(s, lambda x, rows: elementary_symmetric(lams[rows] + x[:, None], k)[:, k - 1 :].T, n, k)


def _cone_shift(r: np.ndarray, k: int) -> np.ndarray:
    """Per-matrix smallest s with R + s I on the boundary of Gamma_k^+, for R batch-last (n, n, B).

    k = 1 takes -mean of the diagonal. Otherwise Newton falls onto the largest root of sigma_k(R + s I)
    from the Laguerre-Samuelson bound -mu + sqrt((n - 1) var) >= -lam_min; uncertified roots take eigvalsh.
    """
    n = r.shape[0]
    if k == 1:
        return -np.mean(np.real(r[range(n), range(n)]), axis=0)
    sig = _chain(r, k)[0]
    coef = [np.array([math.comb(n - i, j - i) * sig[i] for i in range(j + 1)]) for j in range(k + 1)]
    def shifted(j, x, rows=slice(None)):  # sigma_j(R + x I) = sum_i coef[j][i] x^(j - i) on the rows, by Horner
        acc, *rest = coef[j][:, rows] if isinstance(rows, slice) else coef[j].take(rows, axis=1)
        for c in rest:
            acc = acc * x + c
        return acc
    mean, norm = sig[1] / n, np.sqrt(np.maximum(sig[1] ** 2 - 2.0 * sig[2], 0.0))  # sum lam^2 = |R|_F^2
    s = np.sqrt((n - 1) * np.maximum(norm**2 / n - mean**2, 0.0)) - mean
    s = _newton_descent(s, lambda x, rows: [shifted(j, x, rows) for j in (k - 1, k)], n, k)
    at = np.array([shifted(j, s) for j in range(k + 1)])
    # As |sigma_j(R)| <= C(n, j) |R|_F^j, sigma_j(R + s I) rounds by about C(n, j) (|R|_F + |s|)^j eps.
    # A certified root has rounding over slope below _SHIFT_RTOL (1 + |R|_F), unlike a multiple root,
    # and no sigma_j(R + s I) below minus its bound, unlike a lower root.
    bound = 4 * n * np.finfo(float).eps * np.array([math.comb(n, j) * (norm + np.abs(s)) ** j for j in range(k + 1)])
    certified = np.abs(at[k]) + bound[k] < _SHIFT_RTOL * (1.0 + norm) * (n - k + 1) * at[k - 1]
    flagged = np.nonzero(~certified | np.any(at[1:] < -bound[1:], axis=0))[0]
    if flagged.size:
        s[flagged] = _min_shift_into_cone(np.linalg.eigvalsh(np.moveaxis(r[..., flagged], -1, 0)), k)
    return s


def _sample_cone_batch(rng: np.random.Generator, k: int, n: int, batch: int, hermitian: bool):
    """Draw a batch of cone-interior triples, held batch-last: R of shape (n, n, batch), z of shape (n, batch).

    Matrices are GOE (GUE when Hermitian), the law of (m + m^*) / 2 for a standard normal m: diagonal N(0, 1),
    upper triangle N(0, 1/2) (plus i N(0, 1/2)), lower triangle its conjugate mirror. F_1 reads R only through
    tr R, so k = 1 draws none (R = 0). Each is shifted into Gamma_k^+ by the minimal identity multiple
    (:func:`_cone_shift`) plus a log-uniform margin in [1e-2, 1], so the sample covers near-boundary regions while
    keeping the scan's floating-point noise orders of magnitude below the violation threshold. z is drawn
    isotropically and rescaled to put the operator value at a uniform fraction theta in [0, 0.99) of r00 sigma_k.
    """
    r = np.zeros((n, n, batch), complex if hermitian else float)
    if k > 1:
        rows, cols = np.triu_indices(n, 1)
        r[range(n), range(n)] = rng.standard_normal((n, batch))
        r.real[rows, cols] = rng.normal(0.0, math.sqrt(0.5), (rows.size, batch))
        if hermitian:
            r.imag[rows, cols] = rng.normal(0.0, math.sqrt(0.5), (rows.size, batch))
        r[cols, rows] = r[rows, cols].conj()
    margin = 10.0 ** rng.uniform(-2.0, 0.0, batch)
    shift = _cone_shift(r, k) + margin
    r[range(n), range(n)] += shift
    r00 = np.exp(rng.normal(0.0, 0.7, batch))
    zdir = rng.standard_normal((n, batch))
    if hermitian:
        zdir = (zdir + 1j * rng.standard_normal((n, batch))) / math.sqrt(2.0)
    theta = rng.uniform(0.0, 0.99, batch)
    sigs, t = _chain(r, k)
    sig = sigs[k]
    t_form = _form(t, zdir)
    # Only samples inside Gamma_k^+ (sigma_1..sigma_k all positive) are scored.
    good = np.all(sigs[1:] > 0.0, axis=0) & (t_form > 0.0) & np.isfinite(t_form)
    safe_t = np.where(good, t_form, 1.0)
    scale2 = np.where(good, theta * r00 * sig / safe_t, 0.0)
    z = zdir * np.sqrt(scale2)
    # The form is quadratic in z, so F at the rescaled z needs no second pass.
    f_val = r00 * sig - scale2 * t_form
    good &= np.isfinite(f_val) & (f_val > 0.0)
    return r00, r, z, f_val, good


@dataclass
class ScanViolation:
    """Counterexample candidate from a midpoint scan: its trial and both triples, at full precision."""

    trial: int
    r00_left: float
    r00_right: float
    r_left: np.ndarray
    r_right: np.ndarray
    z_left: np.ndarray
    z_right: np.ndarray


@dataclass
class ScanReport:
    """Outcome of a midpoint concavity scan.

    ``margins`` holds log F(mid) - (log F(p) + log F(q)) / 2 per trial (nan
    where sampling failed, -inf where F(mid) <= 0); the worst trial and the
    violation and failure counts are read from it. ``theorem_backed`` marks
    parameter pairs where the concavity is a theorem (k = 1 or k = n); other
    pairs are scanned as conjecture and never gate anything.
    """

    k: int
    n: int
    hermitian: bool
    trials: int
    seed: int
    threshold: float
    violations: list
    margins: np.ndarray
    f_left: np.ndarray
    f_right: np.ndarray
    f_mid: np.ndarray

    @property
    def worst_trial(self) -> int:
        """Trial of the smallest scored margin (the first on ties), -1 when no trial was scored."""
        scored = np.where(np.isnan(self.margins), np.inf, self.margins)
        return int(np.argmin(scored)) if self.sampling_failures < self.margins.size else -1

    @property
    def worst_margin(self) -> float:
        trial = self.worst_trial
        return float(self.margins[trial]) if trial >= 0 else math.nan

    @property
    def violation_count(self) -> int:
        return int(np.count_nonzero(self.margins < self.threshold))

    @property
    def sampling_failures(self) -> int:
        return int(np.count_nonzero(np.isnan(self.margins)))

    @property
    def theorem_backed(self) -> bool:
        return self.k == 1 or self.k == self.n

    @property
    def variant(self) -> str:
        return "complex" if self.hermitian else "real"


_MAX_RECORDED_VIOLATIONS = 25
# Margins below SCAN_THRESHOLD count as violations. It is read at call time.
SCAN_THRESHOLD = -1e-9
_SCAN_MAX_N = 6  # from n = 7 on the recursion's F_k errs by about 1e-9 relative, the size of SCAN_THRESHOLD
_SHIFT_RTOL = 1e-12  # a certified cone shift errs by less than this times 1 + |R|_F
# Trials per vectorized block of the midpoint scan. The sampler draws one block at
# a time from the generator, so the records of a seed depend on this size.
_SCAN_BATCH = 4096


def midpoint_concavity_scan(
    k: int,
    n: int,
    trials: int,
    seed: int,
    hermitian: bool = False,
) -> ScanReport:
    """Randomized midpoint log-concavity scan of F_k on the cone.

    For each trial, two independent cone-interior triples p, q are drawn and
    the margin log F(mid) - (log F(p) + log F(q)) / 2 is recorded for their
    average. Margins below ``SCAN_THRESHOLD`` count as violations and the triples
    are kept at full precision (up to a fixed cap). Trials are drawn in
    blocks of ``_SCAN_BATCH``, and the records depend on that block size, so
    the scan is deterministic for a fixed (k, n, trials, seed, hermitian).
    """
    _check_k(k, n, _SCAN_MAX_N)
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    threshold = SCAN_THRESHOLD
    rng = np.random.default_rng(seed)
    margins, f_left, f_right, f_mid_all = np.full((4, trials), np.nan)
    violations: list[ScanViolation] = []

    done = 0
    while done < trials:
        batch = min(_SCAN_BATCH, trials - done)
        r00p, rp, zp, fp, goodp = _sample_cone_batch(rng, k, n, batch, hermitian)
        r00q, rq, zq, fq, goodq = _sample_cone_batch(rng, k, n, batch, hermitian)
        r00m = 0.5 * (r00p + r00q)
        rm = 0.5 * (rp + rq)
        zm = 0.5 * (zp + zq)
        fm = _f(r00m, rm, zm, k)
        good = goodp & goodq & np.isfinite(fm)

        with np.errstate(divide="ignore", invalid="ignore"):
            batch_margin = np.where(
                good & (fm > 0.0),
                np.log(np.maximum(fm, 1e-300)) - 0.5 * (np.log(fp) + np.log(fq)),
                np.where(good, -np.inf, np.nan),
            )
        sl = slice(done, done + batch)
        margins[sl] = batch_margin
        f_left[sl] = np.where(goodp, fp, np.nan)
        f_right[sl] = np.where(goodq, fq, np.nan)
        f_mid_all[sl] = np.where(good, fm, np.nan)

        bad = np.nonzero(good & (batch_margin < threshold))[0]
        for idx in bad[: _MAX_RECORDED_VIOLATIONS - len(violations)]:
            violations.append(
                ScanViolation(
                    trial=done + int(idx),
                    r00_left=float(r00p[idx]),
                    r00_right=float(r00q[idx]),
                    r_left=rp[..., idx].copy(),
                    r_right=rq[..., idx].copy(),
                    z_left=zp[:, idx].copy(),
                    z_right=zq[:, idx].copy(),
                )
            )
        done += batch

    return ScanReport(
        k=k,
        n=n,
        hermitian=hermitian,
        trials=trials,
        seed=seed,
        threshold=threshold,
        violations=violations,
        margins=margins,
        f_left=f_left,
        f_right=f_right,
        f_mid=f_mid_all,
    )


def _split(a: np.ndarray):
    """Veltkamp's split: hi + lo = a exactly, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _slot_table() -> np.ndarray:
    """Word-major (11, 714) masks of a value's slot, column (negative * 21 + X + 4) * 17 + trailing zeros of D.

    A slot is [,][-][0][T] (T the top digit of D), D's other 16 digits, [.] and three zero bytes, then
    D's zero-padded 20-digit block; the masks keep what "%.17g" prints.
    """
    x = np.arange(-4, 17)[:, None, None]
    pos = np.arange(20)  # digit j of D sits at block position 3 + j
    integer = np.where(x >= 0, (pos >= 3) & (pos <= 3 + x), pos == 2) | (pos == 0)  # with the separator
    fraction = (pos >= 4 + x) & (pos <= 19 - np.arange(17)[:, None])
    parts = (integer, fraction.any(axis=-1, keepdims=True), np.zeros(3, bool), fraction)
    keep = np.concatenate([np.broadcast_to(a, (2, 21, 17, a.shape[-1])) for a in parts], axis=-1)
    keep = keep * np.frombuffer(b"\xff" * 20 + b".\0\0\0" + b"\xff" * 20, np.uint8)
    keep[1, ..., 1] = ord("-")
    return np.ascontiguousarray(keep.view("<u4").reshape(-1, 11).T)


_RECORD_CHUNK = 4096  # rows of four values per chunk of the "%.17g" kernel; wider rows take fewer
# The "%.17g" kernel. From 1e-4 to 1e17, C "%.17g" prints D 10^(X - 16) in fixed
# notation (D the 17-digit correctly rounded significand, X the decimal exponent):
# a column of _SLOT_TABLE ANDed with D's ASCII digits. printf writes other values into
# their slots, and lines with a row number wider than _TRIAL_DIGITS (at most 8) whole.
_TRIAL_DIGITS = 8
_DIGITS4 = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48).view("<u4").ravel()  # "0000"...
_TRAILING_ZEROS4 = np.count_nonzero(np.arange(10**4) % 10 ** np.arange(1, 5)[:, None] == 0, axis=0).astype(np.int8)
_SLOT_TABLE = _slot_table()
_POW10 = np.array([float(10**s) for s in range(21)])  # exact doubles
_POW10_HI, _POW10_LO = _split(_POW10)


def _significand(mag: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """mag * 10^(16 - exp) rounded half to even, exact where the result is at least 2^53.

    Dekker's two-product gives it as p + e exactly, p even and |e| <= ulp(p) / 2 there.
    """
    s = 16 - exp
    p = mag * _POW10[s]
    (ah, al), bh, bl = _split(mag), _POW10_HI[s], _POW10_LO[s]
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _fixed_17g(values: np.ndarray):
    """Slots (11, C, m) "<u4" of "," and "%.17g" for values (C, m), and where the kernel wrote them (else printf)."""
    mag = np.abs(values)
    ok = (mag >= 1e-4) & (mag < 1e17)
    mag = np.where(ok, mag, 1.0)
    exp = np.clip(np.floor(np.log10(mag)), -4, 16).astype(np.int64)
    digits = _significand(mag, exp)
    # log10 may be one off near a power of ten, and rounding may carry to 10^17:
    # recompute at the next exponent, never divide D by 10 (that rounds twice).
    step = (digits >= 10**17).astype(np.int64) - (digits < 10**16)
    if step.any():
        exp = np.clip(exp + step, -4, 16)
        digits = _significand(mag, exp)
        ok &= (digits >= 10**16) & (digits < 10**17)
    high, low = (digits % 10**16 // 10**8).astype(np.int32), (digits % 10**8).astype(np.int32)
    groups = np.stack([(digits // 10**16).astype(np.int32), high // 10**4, high % 10**4, low // 10**4, low % 10**4])
    zeros = _TRAILING_ZEROS4[groups[4]]
    for j in (3, 2, 1):  # where every later group is zero, this one's trailing zeros count too
        more = zeros == 16 - 4 * j
        zeros[more] += _TRAILING_ZEROS4[groups[j][more]]
    slots = _SLOT_TABLE.take(((values < 0) * 21 + exp + 4) * 17 + zeros, axis=1)
    block = _DIGITS4[groups]
    slots[0] &= (block[0] & 0xFFFF0000) | ord(",") | 0xFF00
    slots[1:5] &= block[1:]
    slots[6:] &= block
    if not ok.all():
        slots[:, ~ok] = np.char.mod(b",%.17g", values[~ok]).astype("S44").view("<u4").reshape(-1, 11).T
    return slots, ok


def _write_17g(fh, columns: np.ndarray, head: str | None = None) -> None:
    """Write line i as ``"%.17g,...,%.17g\\n" % columns[:, i]`` for columns (C, N), led by ``"%d" % i + head`` if given.

    A chunk is built position-major, one vector over its lines per four bytes (row number, head,
    :func:`_fixed_17g` slots), transposed once, and its zero bytes dropped.
    """
    n_cols, n_rows = columns.shape
    fmt = ("" if head is None else "%d" + head) + ",".join(["%.17g"] * n_cols) + "\n"
    if head is not None:
        head_words = np.frombuffer((head + "\0" * (-len(head) % 4)).encode(), "<u4")[:, None]
        shifts = 4 * np.arange(-(-_TRIAL_DIGITS // 4))[::-1, None]  # the row number in words of 4 digits
    chunk = max(1, _RECORD_CHUNK * 4 // n_cols)
    for start in range(0, n_rows, chunk):
        slots = _fixed_17g(columns[:, start : start + chunk])[0]
        index = np.arange(start, start + slots.shape[-1])
        words = [slots.transpose(1, 0, 2).reshape(-1, index.size), np.full((1, index.size), ord("\n"), "<u4")]
        words[0][0] &= 0xFFFFFF00  # no separator before the first value
        if head is not None:
            shown = np.clip(np.searchsorted(10 ** np.arange(1, _TRIAL_DIGITS), index, side="right") + 1 - shifts, 0, 4)
            masks = (np.uint64(0xFFFFFFFF) << (32 - 8 * shown).astype(np.uint64)).astype("<u4")  # its last digits
            words[:0] = [_DIGITS4[index // 10**shifts % 10**4] & masks, np.repeat(head_words, index.size, axis=1)]
        words = np.concatenate(words)
        lines = np.ascontiguousarray(words[words.any(axis=1)].T).view(np.uint8)
        kernel = int(np.searchsorted(index, 10**_TRIAL_DIGITS))  # wider row numbers go to printf
        fh.write(lines[:kernel].tobytes().translate(None, b"\0"))
        for i in index[kernel:].tolist():
            fh.write((fmt % ((i,) * (head is not None) + tuple(columns[:, i].tolist()))).encode())


def write_scan_records(report: ScanReport, path) -> None:
    """Per-trial records of a scan: trial, k, n, variant, margin, f_left, f_right, f_mid (``%d`` and ``%.17g``)."""
    with open(path, "wb") as fh:
        fh.write(b"trial,k,n,variant,margin,f_left,f_right,f_mid\n")
        columns = np.stack([report.margins, report.f_left, report.f_right, report.f_mid])
        _write_17g(fh, columns, f",{report.k},{report.n},{report.variant},")


def write_counterexamples(report: ScanReport, path) -> None:
    """Full-precision dump of recorded violations (empty file when none)."""
    with open(path, "w") as fh:
        fh.write(
            f"# scan k={report.k} n={report.n} variant={report.variant} "
            f"seed={report.seed} trials={report.trials} threshold={report.threshold:.17g}\n"
        )
        for v in report.violations:
            fh.write(f"trial = {v.trial}\n")
            fh.write(f"margin = {float(report.margins[v.trial]):.17g}\n")
            fh.write(f"r00_left = {v.r00_left!r}\n")
            fh.write(f"r00_right = {v.r00_right!r}\n")
            fh.write(f"R_left = {v.r_left.tolist()!r}\n")
            fh.write(f"R_right = {v.r_right.tolist()!r}\n")
            fh.write(f"z_left = {v.z_left.tolist()!r}\n")
            fh.write(f"z_right = {v.z_right.tolist()!r}\n")
            fh.write(f"F_left = {float(report.f_left[v.trial])!r}\n")
            fh.write(f"F_right = {float(report.f_right[v.trial])!r}\n")
            fh.write(f"F_mid = {float(report.f_mid[v.trial])!r}\n")
            fh.write("\n")


# ---------------------------------------------------------------------------
# Segment comparison checks (k = 1 specialization).
# ---------------------------------------------------------------------------

# The comparison battery samples each segment at COMPARISON_S_SAMPLES evenly
# spaced points and counts a violation beyond COMPARISON_TOL * max(1, |Q(A)|).
COMPARISON_S_SAMPLES = 11
COMPARISON_TOL = 1e-10


def _comparison_margins(r00, tr, z, s_samples: int):
    """Segment and difference values of a batch of pairs, with Q = r00 tr - |z|^2.

    ``r00`` and ``tr`` have shape (2, pairs) and ``z`` shape (2, pairs, n);
    index 0 holds A and index 1 holds B. Returns, per pair, the minimum over
    s in ``linspace(0, 1, s_samples)`` of Q(s A + (1 - s) B) - Q(A), and
    Q(A - B).
    """

    def q(r00_, tr_, z_):
        return r00_ * tr_ - np.sum(np.abs(z_) ** 2, axis=-1)

    qa = q(r00[0], tr[0], z[0])
    worst = np.full(qa.shape, np.inf)
    for s in np.linspace(0.0, 1.0, s_samples):
        q_s = q(s * r00[0] + (1.0 - s) * r00[1], s * tr[0] + (1.0 - s) * tr[1], s * z[0] + (1.0 - s) * z[1])
        worst = np.minimum(worst, q_s - qa)
    return worst, q(r00[0] - r00[1], tr[0] - tr[1], z[0] - z[1])


@dataclass
class ComparisonScanReport:
    """Batched segment comparison over random equalized pairs."""

    n: int
    pairs: int
    seed: int
    worst_segment_margin: float
    worst_diff_value: float
    violation_count: int


def comparison_scan(n: int, pairs: int, seed: int) -> ComparisonScanReport:
    """Randomized battery of the two segment inequalities on equalized pairs.

    Points are sampled as triples (r00, trace, z) with the value held at a
    uniform positive fraction of r00 * trace, then the second point of each
    pair is rescaled to equalize values. Along each segment the value
    Q(s A + (1 - s) B) must not drop below the common value Q(A), and the
    difference point A - B must have a nonpositive value. Deterministic for
    fixed inputs.
    """
    if pairs < 0:
        raise ValueError(f"pairs must be nonnegative, got {pairs}")
    rng = np.random.default_rng(seed)
    r00 = np.exp(rng.normal(0.0, 0.5, (2, pairs)))
    tr = np.exp(rng.normal(0.0, 0.5, (2, pairs)))
    zdir = rng.standard_normal((2, pairs, n))
    theta = rng.uniform(0.0, 0.95, (2, pairs))
    znorm2 = np.sum(zdir * zdir, axis=-1)
    target = theta * r00 * tr
    z = zdir * np.sqrt(np.where(znorm2 > 0.0, target / np.maximum(znorm2, 1e-300), 0.0))[..., None]
    q = r00 * tr - np.sum(z * z, axis=-1)

    lam = np.sqrt(q[0] / q[1])
    r00[1] *= lam
    tr[1] *= lam
    z[1] *= lam[:, None]

    if pairs:
        worst, q_d = _comparison_margins(r00, tr, z, COMPARISON_S_SAMPLES)
        scale = np.maximum(1.0, np.abs(q[0]))
        worst_margin = float(np.min(worst))
        worst_diff = float(np.max(q_d))
        violations = int(np.count_nonzero((worst < -COMPARISON_TOL * scale) | (q_d > COMPARISON_TOL * scale)))
    else:
        worst_margin = worst_diff = math.nan
        violations = 0
    return ComparisonScanReport(
        n=n,
        pairs=pairs,
        seed=seed,
        worst_segment_margin=worst_margin,
        worst_diff_value=worst_diff,
        violation_count=violations,
    )
