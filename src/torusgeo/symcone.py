"""Elementary symmetric function algebra, cone membership, and concavity scans.

The objects here are triples (r00, R, z) with r00 a positive real, R an
n x n matrix and z a vector. One :class:`ConePoint` type holds both the real
form (R symmetric) and the complex form (R Hermitian), chosen by the dtype of
R and z, and one family of operators covers both:

    F_k(r00, R, z) = r00 * sigma_k(R) - z^* T_{k-1}(R) z,

where sigma_k is the k-th elementary symmetric function of the eigenvalues
and T_{k-1} is the (k-1)-th Newton transformation. The admissibility cone
requires r00 > 0, R in the Garding cone Gamma_k^+ (sigma_1, ..., sigma_k all
positive) and F_k > 0.

Both F_k and T_{k-1} come from the Newton transformation's recursion
(:func:`_newton_chain`), with no eigendecomposition, and so does the scan's
cone shift, except on the rows its a-posteriori certificate flags (eigvalsh).

Log-concavity of F_k along segments inside the cone is a theorem for k = 1
(any n) and k = n; for 2 <= k <= n-1 it is scanned as a conjecture, with real
and complex (Hermitian) data flagged separately. The scanners draw random
cone-interior pairs, test midpoint log-concavity, and report worst margins
and any counterexamples at full precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _as_square(matrix) -> np.ndarray:
    """``matrix`` as a Hermitian complex array if it is complex, else as a symmetric real one."""
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix must be square, got shape {arr.shape}")
    hermitian = np.iscomplexobj(arr)
    arr = arr.astype(complex if hermitian else float)
    defect = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    scale = 1.0 + (float(np.max(np.abs(arr))) if arr.size else 0.0)
    if defect > 1e-10 * scale:
        kind = "Hermitian" if hermitian else "symmetric"
        raise ValueError(f"matrix is not {kind}: defect {defect!r}")
    return arr


@dataclass
class ConePoint:
    """Triple (r00, R, z) with R n x n and z of length n.

    The point is complex, with R Hermitian, when R or z is complex, and real,
    with R symmetric, otherwise.
    """

    r00: float
    R: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        self.r00 = float(self.r00)
        z = np.asarray(self.z)
        dtype = complex if np.iscomplexobj(self.R) or np.iscomplexobj(z) else float
        self.R = _as_square(np.asarray(self.R, dtype=dtype))
        self.z = z.astype(dtype).reshape(-1)
        if self.z.size != self.R.shape[0]:
            raise ValueError(f"z has length {self.z.size}, expected {self.R.shape[0]}")

    @property
    def n(self) -> int:
        return self.R.shape[0]

    def admissible(self, k: int) -> bool:
        return (
            self.r00 > 0.0
            and gamma_k_membership(self.R, k)
            and F_k_eval(self, k) > 0.0
        )


def _esym_all(lams: np.ndarray, kmax: int) -> np.ndarray:
    """Elementary symmetric functions e_0..e_kmax of the last axis.

    Stable one-pass recurrence: fold eigenvalues in one at a time, updating
    e_j += lam * e_{j-1} from the top down. Works on any leading batch shape.
    """
    lams = np.asarray(lams, dtype=float)
    n = lams.shape[-1]
    out = np.zeros(lams.shape[:-1] + (kmax + 1,))
    out[..., 0] = 1.0
    for i in range(n):
        lam_i = lams[..., i]
        for j in range(min(i + 1, kmax), 0, -1):
            out[..., j] += lam_i * out[..., j - 1]
    return out


def _check_k(k: int, n: int, n_max: int | None = None) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if n_max is not None and n > n_max:
        raise ValueError(f"n must be at most {n_max}, got n={n}")


def sigma_k(eigenvalues, k: int) -> float:
    """k-th elementary symmetric function of a list of eigenvalues."""
    lams = np.asarray(eigenvalues, dtype=float).reshape(-1)
    _check_k(k, lams.size)
    return float(_esym_all(lams, k)[k])


def _newton_chain(r: np.ndarray, k: int):
    """sigma_0..sigma_k and T_{k-1} of a batch of matrices, by the Newton recursion.

    T_0 = I, sigma_j = tr(R T_{j-1}) / j and T_j = sigma_j I - R T_{j-1}: k - 2 batched matrix
    products at most, since the last step needs only tr(R T_{k-1}) = sum_ij R_ij (T_{k-1})_ji.
    T_0 is returned as None. Each matrix's traces are reduced on their own, so its sigma_j do
    not depend on the batch it sits in.
    """
    n = r.shape[-1]
    sig = np.ones(r.shape[:-2] + (k + 1,))
    t = None
    for j in range(1, k + 1):
        if j == k and t is not None:
            sig[..., j] = np.real(np.einsum("...ij,...ji->...", r, t)) / j
            break
        rt = r if t is None else r @ t
        diag = np.real(np.diagonal(rt, axis1=-2, axis2=-1))
        sig[..., j] = sum(diag[..., i] for i in range(n)) / j
        if j < k:
            t = sig[..., j, None, None] * np.eye(n) - rt
    return sig, t


def _form(t, z: np.ndarray) -> np.ndarray:
    """z^* T z of a batch, real for Hermitian T; ``t = None`` stands for T_0 = I."""
    if t is None:
        return np.sum(np.abs(z) ** 2, axis=-1)
    return np.real(np.sum(np.conj(z) * (t @ z[..., None])[..., 0], axis=-1))


def newton_transform(R, k: int) -> np.ndarray:
    """Newton transformation T_{k-1}(R), Hermitian, with tr(T_{k-1} R) = k sigma_k(R).

    T_0 is the identity (returned exactly).
    """
    arr = _as_square(R)
    n = arr.shape[0]
    _check_k(k, n)
    if k == 1:
        return np.eye(n, dtype=arr.dtype)
    t = _newton_chain(arr, k)[1]
    return 0.5 * (t + t.conj().T)


def _f_batch(r00, r, z, k: int) -> np.ndarray:
    """F_k of a batch of triples; for k = 1 this is r00 Re tr R - |z|^2."""
    sig, t = _newton_chain(r, k)
    return r00 * sig[..., k] - _form(t, z)


def F_k_eval(point: ConePoint, k: int) -> float:
    """F_k(r00, R, z) = r00 sigma_k(R) - z^* T_{k-1}(R) z, real for real and Hermitian triples."""
    _check_k(k, point.n)
    return float(_f_batch(point.r00, point.R, point.z, k))


def gamma_k_membership(R, k: int) -> bool:
    """True when sigma_1(R), ..., sigma_k(R) are all strictly positive."""
    arr = _as_square(R)
    _check_k(k, arr.shape[0])
    return bool(np.all(_newton_chain(arr, k)[0][1:] > 0.0))


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


def log_q_hessian(x: float, y: float, z) -> np.ndarray:
    """Single-point :func:`log_q_hessian_batch`: the (n + 2) x (n + 2) Hessian at (x, y, z)."""
    return log_q_hessian_batch([float(x)], [float(y)], np.asarray(z, dtype=float).reshape(1, -1))[0]


# ---------------------------------------------------------------------------
# Midpoint concavity scans.
# ---------------------------------------------------------------------------


# Cap on the Newton descent's passes; it stops earlier, at the first pass that moves no row.
_DESCENT_ITERS = 60


def _newton_descent(s: np.ndarray, sigmas, n: int, k: int) -> np.ndarray:
    """Newton per row from above onto the largest root of the real-rooted p(s) = sigma_k(lam + s).

    The last axis of ``sigmas(s)`` holds sigma_{k-1} and sigma_k of lam + s, and p' = (n - k + 1)
    sigma_{k-1}. The iterates fall monotonically; rows with p <= 0 (the root, by rounding) or p' <= 0 stay put.
    """
    for _ in range(_DESCENT_ITERS):
        low, p = np.moveaxis(sigmas(s), -1, 0)
        move = (low > 0.0) & (p > 0.0)
        s_next = np.where(move, s - p / np.where(move, (n - k + 1) * low, 1.0), s)
        if np.array_equal(s_next, s):
            break
        s = s_next
    return s


def _min_shift_into_cone(lams: np.ndarray, k: int) -> np.ndarray:
    """Per-row smallest s with spectrum lam + s on the boundary of Gamma_k^+.

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
    return _newton_descent(s, lambda s: _esym_all(lams + s[..., None], k)[..., k - 1 :], n, k)


def _cone_shift(r: np.ndarray, k: int) -> np.ndarray:
    """Per-row smallest s with R + s I on the boundary of Gamma_k^+ (k = 1: -mean of the diagonal).

    Newton falls onto the largest root of sigma_k(R + s I) from the Laguerre-Samuelson bound
    -mu + sqrt((n - 1) var) >= -lam_min. Rows whose root is not certified take eigvalsh.
    """
    n = r.shape[-1]
    if k == 1:
        return _min_shift_into_cone(np.real(np.diagonal(r, axis1=-2, axis2=-1)), 1)
    sig = _newton_chain(r, k)[0].T.copy()
    def shifted(x, j):  # sigma_j(R + x I) = sum_i C(n - i, j - i) sigma_i(R) x^(j - i), by Horner
        acc = math.comb(n, j) * sig[0]
        for i in range(1, j + 1):
            acc = acc * x + math.comb(n - i, j - i) * sig[i]
        return acc
    mean, norm = sig[1] / n, np.sqrt(np.maximum(sig[1] ** 2 - 2.0 * sig[2], 0.0))  # sum lam^2 = |R|_F^2
    s = np.sqrt((n - 1) * np.maximum(norm**2 / n - mean**2, 0.0)) - mean
    s = _newton_descent(s, lambda s: np.stack([shifted(s, k - 1), shifted(s, k)], axis=-1), n, k)
    at = np.array([shifted(s, j) for j in range(k + 1)])
    # As |sigma_j(R)| <= C(n, j) |R|_F^j, sigma_j(R + s I) rounds by about C(n, j) (|R|_F + |s|)^j eps.
    # A certified root has rounding over slope below _SHIFT_RTOL (1 + |R|_F), unlike a multiple root,
    # and no sigma_j(R + s I) below minus its bound, unlike a lower root.
    bound = 4 * n * np.finfo(float).eps * np.array([math.comb(n, j) * (norm + np.abs(s)) ** j for j in range(k + 1)])
    certified = np.abs(at[k]) + bound[k] < _SHIFT_RTOL * (1.0 + norm) * (n - k + 1) * at[k - 1]
    flagged = np.nonzero(~certified | np.any(at[1:] < -bound[1:], axis=0))[0]
    if flagged.size:
        s[flagged] = _min_shift_into_cone(np.linalg.eigvalsh(r[flagged]), k)
    return s


def _sample_cone_batch(rng: np.random.Generator, k: int, n: int, batch: int, hermitian: bool):
    """Draw a batch of cone-interior triples.

    Matrices are symmetrized standard normals shifted into Gamma_k^+ by the
    minimal identity multiple (:func:`_cone_shift`) plus a log-uniform margin in [1e-2, 1], so the
    sample covers near-boundary regions while keeping enough slack that the
    scan's floating-point noise stays orders of magnitude below the violation
    threshold. z is drawn isotropically and rescaled to put the operator
    value at a uniform fraction theta in [0, 0.99) of r00 sigma_k.
    """
    m = rng.standard_normal((batch, n, n))
    if hermitian:
        m = m + 1j * rng.standard_normal((batch, n, n))
    r = 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))
    margin = 10.0 ** rng.uniform(-2.0, 0.0, batch)
    shift = _cone_shift(r, k) + margin
    r = r + shift[:, None, None] * np.eye(n)
    r00 = np.exp(rng.normal(0.0, 0.7, batch))
    if hermitian:
        zdir = (rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))) / math.sqrt(2.0)
    else:
        zdir = rng.standard_normal((batch, n))
    theta = rng.uniform(0.0, 0.99, batch)
    sigs, t = _newton_chain(r, k)
    sig = sigs[:, k]
    t_form = _form(t, zdir)
    # Only samples inside Gamma_k^+ (sigma_1..sigma_k all positive) are scored.
    good = np.all(sigs[:, 1:] > 0.0, axis=-1) & (t_form > 0.0) & np.isfinite(t_form)
    safe_t = np.where(good, t_form, 1.0)
    scale2 = np.where(good, theta * r00 * sig / safe_t, 0.0)
    z = zdir * np.sqrt(scale2)[:, None]
    # The form is quadratic in z, so F at the rescaled z needs no second pass.
    f_val = r00 * sig - scale2 * t_form
    good &= np.isfinite(f_val) & (f_val > 0.0)
    return r00, r, z, f_val, good


@dataclass
class ScanViolation:
    """Counterexample candidate from a midpoint scan, at full precision."""

    trial: int
    margin: float
    r00_left: float
    r00_right: float
    r_left: np.ndarray
    r_right: np.ndarray
    z_left: np.ndarray
    z_right: np.ndarray
    f_left: float
    f_right: float
    f_mid: float


@dataclass
class ScanReport:
    """Outcome of a midpoint concavity scan.

    ``margins`` holds log F(mid) - (log F(p) + log F(q)) / 2 per trial (nan
    where sampling failed, -inf where F(mid) <= 0). ``theorem_backed`` marks
    parameter pairs where the concavity is a theorem (k = 1 or k = n); other
    pairs are scanned as conjecture and never gate anything.
    """

    k: int
    n: int
    hermitian: bool
    trials: int
    seed: int
    threshold: float
    worst_margin: float
    worst_trial: int
    violation_count: int
    violations: list = field(default_factory=list)
    sampling_failures: int = 0
    margins: np.ndarray | None = None
    f_left: np.ndarray | None = None
    f_right: np.ndarray | None = None
    f_mid: np.ndarray | None = None

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
    failures = 0

    done = 0
    while done < trials:
        batch = min(_SCAN_BATCH, trials - done)
        r00p, rp, zp, fp, goodp = _sample_cone_batch(rng, k, n, batch, hermitian)
        r00q, rq, zq, fq, goodq = _sample_cone_batch(rng, k, n, batch, hermitian)
        r00m = 0.5 * (r00p + r00q)
        rm = 0.5 * (rp + rq)
        zm = 0.5 * (zp + zq)
        fm = _f_batch(r00m, rm, zm, k)
        good = goodp & goodq & np.isfinite(fm)
        failures += int(batch - np.count_nonzero(good))

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
        for idx in bad:
            if len(violations) >= _MAX_RECORDED_VIOLATIONS:
                break
            violations.append(
                ScanViolation(
                    trial=done + int(idx),
                    margin=float(batch_margin[idx]),
                    r00_left=float(r00p[idx]),
                    r00_right=float(r00q[idx]),
                    r_left=rp[idx].copy(),
                    r_right=rq[idx].copy(),
                    z_left=zp[idx].copy(),
                    z_right=zq[idx].copy(),
                    f_left=float(fp[idx]),
                    f_right=float(fq[idx]),
                    f_mid=float(fm[idx]),
                )
            )
        done += batch

    finite = np.isfinite(margins) | np.isneginf(margins)
    if np.any(finite):
        masked = np.where(finite, margins, np.inf)
        worst_trial = int(np.argmin(masked))
        worst_margin = float(masked[worst_trial])
    else:
        worst_trial = -1
        worst_margin = math.nan
    violation_count = int(np.count_nonzero(finite & (margins < threshold)))
    return ScanReport(
        k=k,
        n=n,
        hermitian=hermitian,
        trials=trials,
        seed=seed,
        threshold=threshold,
        worst_margin=worst_margin,
        worst_trial=worst_trial,
        violation_count=violation_count,
        violations=violations,
        sampling_failures=failures,
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


def _value_keep() -> np.ndarray:
    """Keep-masks of a value's 42 bytes, row (negative * 21 + X + 4) * 17 + trailing zeros of D."""
    x = np.arange(-4, 17)[:, None, None]
    pos = np.arange(20)  # digit j of D sits at pos 3 + j
    integer = np.where(x >= 0, (pos >= 3) & (pos <= 3 + x), pos == 0)
    fraction = (pos >= 4 + x) & (pos <= 19 - np.arange(17)[:, None])
    parts = (np.array([False, True])[:, None, None, None], integer, fraction.any(axis=-1, keepdims=True), fraction)
    return np.concatenate([np.broadcast_to(a, (2, 21, 17, a.shape[-1])) for a in parts], axis=-1).reshape(-1, 42)


_RECORD_CHUNK = 4096
# The records kernel. From 1e-4 to 1e17, C "%.17g" prints D 10^(X - 16) in fixed
# notation (D the 17-digit correctly rounded significand, X the decimal exponent):
# a keep-mask picks the sign, integer part, point and fraction out of the 42 bytes
# [-][block].[block], block being D's 20-digit zero-padded ASCII. Rows with other
# values, or a trial index wider than _TRIAL_DIGITS (at most 8), go to printf.
_TRIAL_DIGITS = 8
_DIGITS4 = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48).view("<u4").ravel()  # "0000"...
_VALUE_KEEP = _value_keep()
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
    """Per value, the digit block, keep-mask row and certificate (False: printf prints it) of "%.17g"."""
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
    top, low = np.divmod(digits, 10**8)
    top, mid = np.divmod(top, 10**8)
    block = _DIGITS4[np.stack([top, *np.divmod(mid, 10**4), *np.divmod(low, 10**4)], axis=-1)].view(np.uint8)
    zeros = np.argmax(block[..., :2:-1] != ord("0"), axis=-1)  # D >= 10^16 has a nonzero digit at pos 3
    return block, ((values < 0) * 21 + exp + 4) * 17 + zeros, ok


def write_scan_records(report: ScanReport, path) -> None:
    """Line-delimited per-trial records of a scan, written in bounded chunks of rows.

    Each row is ``row % values`` byte for byte (C "%.17g" per value), built by the
    records kernel; rows it cannot certify are written by ``row % values`` itself.
    """
    head = f",{report.k},{report.n},{report.variant},"
    row = "%d" + head + "%.17g,%.17g,%.17g,%.17g\n"
    columns = (report.margins, report.f_left, report.f_right, report.f_mid)
    width = _TRIAL_DIGITS
    lead = width + len(head)
    buf = np.empty((_RECORD_CHUNK, lead + 4 * 43), np.uint8)
    keep = np.ones(buf.shape, bool)
    buf[:, width:lead] = np.frombuffer(head.encode(), np.uint8)
    blocks = buf[:, lead:].reshape(_RECORD_CHUNK, 4, 43)
    keep_blocks = keep[:, lead:].reshape(_RECORD_CHUNK, 4, 43)
    blocks[..., 0], blocks[..., 21], blocks[..., 42] = ord("-"), ord("."), np.frombuffer(b",,,\n", np.uint8)
    trial_keep = np.arange(width) >= width - np.arange(width + 1)[:, None]
    with open(path, "wb") as fh:
        fh.write(b"trial,k,n,variant,margin,f_left,f_right,f_mid\n")
        for start in range(0, report.trials, _RECORD_CHUNK):
            stop = min(start + _RECORD_CHUNK, report.trials)
            m = stop - start
            trial = np.arange(start, stop)
            trial_block = _DIGITS4[np.stack(np.divmod(trial % 10**8, 10**4), axis=-1)].view(np.uint8)
            buf[:m, :width] = trial_block[:, 8 - width :]
            keep[:m, :width] = trial_keep[np.searchsorted(10 ** np.arange(1, width), trial, side="right") + 1]
            values = np.stack([col[start:stop] for col in columns], axis=1)
            block, value_keep, ok = _fixed_17g(values)
            blocks[:m, :, 1:21] = block
            blocks[:m, :, 22:42] = block
            keep_blocks[:m, :, :42] = _VALUE_KEEP[value_keep]
            out = buf[:m].ravel()[keep[:m].ravel()]
            fallback = np.flatnonzero(~ok.all(axis=1) | (trial >= 10**width))
            if fallback.size:
                ends = np.cumsum(np.count_nonzero(keep[:m], axis=1))
                done = 0
                for i in fallback.tolist():
                    fh.write(out[done : ends[i - 1] if i else 0])
                    fh.write((row % (start + i, *values[i].tolist())).encode())
                    done = ends[i]
                out = out[done:]
            fh.write(out)


def write_counterexamples(report: ScanReport, path) -> None:
    """Full-precision dump of recorded violations (empty file when none)."""
    with open(path, "w") as fh:
        fh.write(
            f"# scan k={report.k} n={report.n} variant={report.variant} "
            f"seed={report.seed} trials={report.trials} threshold={report.threshold:.17g}\n"
        )
        for v in report.violations:
            fh.write(f"trial = {v.trial}\n")
            fh.write(f"margin = {v.margin:.17g}\n")
            fh.write(f"r00_left = {v.r00_left!r}\n")
            fh.write(f"r00_right = {v.r00_right!r}\n")
            fh.write(f"R_left = {v.r_left.tolist()!r}\n")
            fh.write(f"R_right = {v.r_right.tolist()!r}\n")
            fh.write(f"z_left = {v.z_left.tolist()!r}\n")
            fh.write(f"z_right = {v.z_right.tolist()!r}\n")
            fh.write(f"F_left = {v.f_left!r}\n")
            fh.write(f"F_right = {v.f_right!r}\n")
            fh.write(f"F_mid = {v.f_mid!r}\n")
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
