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
(:func:`_newton_chain`), with no eigendecomposition; the scan's sampler takes
the spectrum for its cone shift from eigvalsh (k >= 2) or the diagonal (k = 1).

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


def sigma_k(eigenvalues, k: int) -> float:
    """k-th elementary symmetric function of a list of eigenvalues."""
    lams = np.asarray(eigenvalues, dtype=float).reshape(-1)
    n = lams.size
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    return float(_esym_all(lams, k)[k])


def _newton_chain(r: np.ndarray, k: int):
    """sigma_0..sigma_k and T_{k-1} of a batch of matrices, by the Newton recursion.

    T_0 = I, sigma_j = tr(R T_{j-1}) / j and T_j = sigma_j I - R T_{j-1}: k - 1
    batched matrix products and no eigendecomposition. T_0 is returned as None,
    so F_1 costs no product at all. Traces are summed in index order, so a
    matrix's sigma_j do not depend on the batch it sits in.
    """
    n = r.shape[-1]
    sig = np.ones(r.shape[:-2] + (k + 1,))
    t = None
    for j in range(1, k + 1):
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
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
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
    n = point.n
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    return float(_f_batch(point.r00, point.R, point.z, k))


def gamma_k_membership(R, k: int) -> bool:
    """True when sigma_1(R), ..., sigma_k(R) are all strictly positive."""
    arr = _as_square(R)
    n = arr.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
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


def _min_shift_into_cone(lams: np.ndarray, k: int, iters: int = 60) -> np.ndarray:
    """Per-row smallest s with spectrum lam + s on the boundary of Gamma_k^+.

    Closed forms: -mean(lam) for k = 1 (sigma_1 > 0), -min(lam) for k = n (the
    positive orthant). For 1 < k < n it is the largest root of the real-rooted
    polynomial sigma_k(lam + s), with derivative (n - k + 1) sigma_{k-1}(lam + s):
    Newton's method from -min(lam) decreases monotonically onto it, and stops
    once no row moves (at most ``iters`` steps).
    """
    lams = np.asarray(lams, dtype=float)
    if k == 1:
        return -np.mean(lams, axis=-1)
    n = lams.shape[-1]
    s = -np.min(lams, axis=-1)
    if k == n:
        return s
    for _ in range(iters):
        sig = _esym_all(lams + s[..., None], k)
        slope = (n - k + 1) * sig[..., k - 1]
        # Rows at the root (sigma_k <= 0 through rounding) or at a zero slope stay put.
        move = (slope > 0.0) & (sig[..., k] > 0.0)
        s_next = np.where(move, s - sig[..., k] / np.where(move, slope, 1.0), s)
        if np.array_equal(s_next, s):
            break
        s = s_next
    return s


def _sample_cone_batch(rng: np.random.Generator, k: int, n: int, batch: int, hermitian: bool):
    """Draw a batch of cone-interior triples.

    Matrices are symmetrized standard normals shifted into Gamma_k^+ by the
    minimal identity multiple plus a log-uniform margin in [1e-2, 1], so the
    sample covers near-boundary regions while keeping enough slack that the
    scan's floating-point noise stays orders of magnitude below the violation
    threshold. z is drawn isotropically and rescaled to put the operator
    value at a uniform fraction theta in [0, 0.99) of r00 sigma_k.
    """
    if hermitian:
        m = rng.standard_normal((batch, n, n)) + 1j * rng.standard_normal((batch, n, n))
        r = 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))
    else:
        m = rng.standard_normal((batch, n, n))
        r = 0.5 * (m + np.swapaxes(m, -1, -2))
    # The shift needs the spectrum, except for k = 1 where the diagonal's mean will do.
    lam = np.real(np.diagonal(r, axis1=-2, axis2=-1)) if k == 1 else np.linalg.eigvalsh(r)
    margin = 10.0 ** rng.uniform(-2.0, 0.0, batch)
    shift = _min_shift_into_cone(lam, k) + margin
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


def midpoint_concavity_scan(
    k: int,
    n: int,
    trials: int,
    seed: int,
    hermitian: bool = False,
    batch_size: int = 4096,
    threshold: float = -1e-9,
) -> ScanReport:
    """Randomized midpoint log-concavity scan of F_k on the cone.

    For each trial, two independent cone-interior triples p, q are drawn and
    the margin log F(mid) - (log F(p) + log F(q)) / 2 is recorded for their
    average. Margins below ``threshold`` count as violations and the triples
    are kept at full precision (up to a fixed cap). The scan is deterministic
    for a fixed (k, n, trials, seed, hermitian, batch_size).
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    margins = np.full(trials, np.nan)
    f_left = np.full(trials, np.nan)
    f_right = np.full(trials, np.nan)
    f_mid_all = np.full(trials, np.nan)
    violations: list[ScanViolation] = []
    failures = 0

    done = 0
    while done < trials:
        batch = min(batch_size, trials - done)
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


_RECORD_CHUNK = 4096


def write_scan_records(report: ScanReport, path) -> None:
    """Line-delimited per-trial records of a scan, written in bounded chunks of rows."""
    row = f"%d,{report.k},{report.n},{report.variant},%.17g,%.17g,%.17g,%.17g\n"
    columns = (report.margins, report.f_left, report.f_right, report.f_mid)
    with open(path, "w") as fh:
        fh.write("trial,k,n,variant,margin,f_left,f_right,f_mid\n")
        for start in range(0, report.trials, _RECORD_CHUNK):
            stop = min(start + _RECORD_CHUNK, report.trials)
            rows = zip(range(start, stop), *(col[start:stop].tolist() for col in columns))
            fh.write("".join([row % values for values in rows]))


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


def _q_value(point) -> float:
    return float(point.r00 * np.real(np.trace(point.R)) - np.sum(np.abs(point.z) ** 2))


def equalize_value(a: ConePoint, b: ConePoint) -> ConePoint:
    """Scale b so that its Q value matches Q(a); Q scales quadratically."""
    qa = _q_value(a)
    qb = _q_value(b)
    if qa <= 0.0 or qb <= 0.0:
        raise ValueError(f"both points must have positive Q values, got {qa!r} and {qb!r}")
    lam = math.sqrt(qa / qb)
    return ConePoint(lam * b.r00, lam * b.R, lam * b.z)


@dataclass
class ComparisonReport:
    """Segment and difference comparison for one equalized pair.

    ``worst_segment_margin`` is the minimum of Q(s A + (1-s) B) - Q(A) over
    the sampled segment (should be >= -tol scaled); ``diff_value`` is
    Q(A - B) (should be <= tol scaled).
    """

    ok: bool
    value_a: float
    value_b: float
    worst_segment_margin: float
    diff_value: float
    tol: float


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


def comparison_check(a: ConePoint, b: ConePoint, s_samples: int = 11, tol: float = 1e-10) -> ComparisonReport:
    """Check the two segment inequalities for an equalized admissible pair.

    Requires r00 > 0 and Q > 0 for both points and |Q(A) - Q(B)| below an
    equalization tolerance; use :func:`equalize_value` first. Along the
    segment the value Q(s A + (1 - s) B) must not drop below the common
    value, and the difference point A - B must have a nonpositive value.
    """
    if a.r00 <= 0.0 or b.r00 <= 0.0:
        raise ValueError("comparison_check requires r00 > 0 for both points")
    qa = _q_value(a)
    qb = _q_value(b)
    scale = max(1.0, abs(qa), abs(qb))
    if qa <= 0.0 or qb <= 0.0:
        raise ValueError(f"comparison_check requires positive values, got {qa!r} and {qb!r}")
    if abs(qa - qb) > 1e-8 * scale:
        raise ValueError(f"points are not equalized: Q(A)={qa!r}, Q(B)={qb!r}")
    if s_samples < 2:
        raise ValueError("s_samples must be at least 2")
    worst, qdiff = _comparison_margins(
        np.array([[a.r00], [b.r00]]),
        np.real([[np.trace(a.R)], [np.trace(b.R)]]),
        np.stack([a.z, b.z])[:, None, :],
        s_samples,
    )
    worst, qdiff = float(worst[0]), float(qdiff[0])
    ok = worst >= -tol * scale and qdiff <= tol * scale
    return ComparisonReport(
        ok=ok,
        value_a=qa,
        value_b=qb,
        worst_segment_margin=worst,
        diff_value=qdiff,
        tol=tol,
    )


@dataclass
class ComparisonScanReport:
    """Batched segment comparison over random equalized pairs."""

    n: int
    pairs: int
    seed: int
    s_samples: int
    tol: float
    worst_segment_margin: float
    worst_diff_value: float
    violation_count: int


def comparison_scan(
    n: int, pairs: int, seed: int, s_samples: int = 11, tol: float = 1e-10
) -> ComparisonScanReport:
    """Randomized battery of :func:`comparison_check` on equalized pairs.

    Points are sampled as triples (r00, trace, z) with the value held at a
    uniform positive fraction of r00 * trace, then the second point of each
    pair is rescaled to equalize values. Deterministic for fixed inputs.
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
        worst, q_d = _comparison_margins(r00, tr, z, s_samples)
        scale = np.maximum(1.0, np.abs(q[0]))
        worst_margin = float(np.min(worst))
        worst_diff = float(np.max(q_d))
        violations = int(np.count_nonzero((worst < -tol * scale) | (q_d > tol * scale)))
    else:
        worst_margin = worst_diff = math.nan
        violations = 0
    return ComparisonScanReport(
        n=n,
        pairs=pairs,
        seed=seed,
        s_samples=s_samples,
        tol=tol,
        worst_segment_margin=worst_margin,
        worst_diff_value=worst_diff,
        violation_count=violations,
    )
