"""Absolute pose from 2D-3D correspondences on a spherical camera.

The solver generalizes the EPnP control-point method to central bearing
vectors: each bearing contributes two linear constraints by projecting the
camera-frame point expression onto an orthonormal basis of the plane
perpendicular to the bearing (panoramas have no single image plane to
express the classic pinhole constraints in). A deterministic RANSAC loop
with an angular inlier test wraps the minimal solver. Iterations draw
samples from counter-based generators keyed by (seed, iteration). The
minimal solves run in numpy on stacked samples, a fixed-size chunk of
hypotheses at a time, and each chunk is scored against all
correspondences in two steps, a bounded block of hypotheses at a time
(``_SCORE_PAIRS``). First a prefilter: with the points centred
on their mean and lifted to q (x) b, one GEMM gives c = g . b for every
(hypothesis, point) pair and a second gives kappa |g|^2, where g is the
point in the camera frame and kappa = cos^2 of a slightly widened
threshold angle. It keeps a pair when c |c| >= kappa |g|^2 - sigma, where
sigma bounds the rounding of both GEMMs and of the exact test. An inlier
has c >= cos(angle) |g| |b| > 0, so the prefilter never drops one
(_score_hypotheses derives the bound). Then the exact arctan2 residual is
taken for the kept pairs only, and ``residual < threshold`` decides every
inlier as before. Chunk boundaries depend only on the iteration count and
every hypothesis's arithmetic is independent of its neighbours, so results
are reproducible bit for bit whether chunks run serially or across
threads. The scalar solver below (compiled with numba when it is
installed) handles single solves such as the final refit.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import math

import numpy as np

from ._accel import NUMBA_ENABLED, maybe_njit
from .geometry import Pose

__all__ = [
    "DegenerateConfigError",
    "NoConsensusError",
    "Correspondence",
    "Correspondences",
    "RansacConfig",
    "PoseEstimate",
    "epnp_bearing",
    "angular_residual",
    "angular_residuals",
    "ransac_pnp",
]

_GN_ITERATIONS = 10
_CENTER_EPS = 1e-12
# Relative eigenvalue-of-scatter thresholds (squared singular value ratios).
_PLANAR_TOL = 1e-14
_COLLINEAR_TOL = 1e-14
# RANSAC hypotheses solved and scored per batch. It bounds the (chunk, n)
# scoring arrays; being fixed, not per thread, it keeps chunk boundaries
# independent of the thread count.
_HYPOTHESIS_CHUNK = 128
# Unit roundoff of float64, and the relative and absolute (radian) widening
# of the inlier angle in the scoring prefilter; see _score_hypotheses.
_U = 2.0 ** -53
_PREFILTER_MARGIN = 1e-12
# Share of a block's pairs above which scoring takes the exact residual of
# every pair instead of gathering the prefilter's survivors.
_DENSE_SHARE = 0.25
# Most (hypothesis, point) pairs scored at once. A chunk is scored in blocks
# of whole hypotheses, so the scoring temporaries stay a few MB however
# many pairs survive the prefilter.
_SCORE_PAIRS = 2 ** 16


class DegenerateConfigError(ValueError):
    """Correspondence geometry does not constrain a pose (e.g. collinear)."""


class NoConsensusError(RuntimeError):
    """RANSAC found no model with more inliers than the minimal sample.

    The best-effort estimate (possibly None) is attached as ``.estimate``.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class Correspondence:
    """One bearing/world-point pair; pixel is provenance only."""

    bearing: np.ndarray
    world_point: np.ndarray
    pixel: tuple = None


class Correspondences:
    """Array-backed set of correspondences.

    Bearings are normalized on construction; zero-length bearings raise.
    """

    def __init__(self, bearings: np.ndarray, world_points: np.ndarray, pixels=None):
        b = np.ascontiguousarray(bearings, dtype=np.float64).reshape(-1, 3)
        w = np.ascontiguousarray(world_points, dtype=np.float64).reshape(-1, 3)
        if b.shape[0] != w.shape[0]:
            raise ValueError("bearings and world_points must have matching lengths")
        norms = np.linalg.norm(b, axis=1)
        if np.any(norms < 1e-12):
            raise ValueError("bearings must be nonzero")
        self.bearings = b / norms[:, None]
        self.world_points = w
        self.pixels = None if pixels is None else np.asarray(pixels, dtype=np.float64).reshape(-1, 2)

    @classmethod
    def from_items(cls, items) -> "Correspondences":
        items = list(items)
        bearings = np.array([c.bearing for c in items], dtype=np.float64)
        points = np.array([c.world_point for c in items], dtype=np.float64)
        pixels = None
        if items and items[0].pixel is not None:
            pixels = np.array([c.pixel for c in items], dtype=np.float64)
        return cls(bearings, points, pixels)

    def __len__(self) -> int:
        return self.bearings.shape[0]

    def subset(self, indices) -> "Correspondences":
        idx = np.asarray(indices)
        pixels = None if self.pixels is None else self.pixels[idx]
        return Correspondences(self.bearings[idx], self.world_points[idx], pixels)


@dataclass(frozen=True)
class RansacConfig:
    iterations: int = 1000
    inlier_threshold_deg: float = 0.22
    min_sample: int = 4
    seed: int = 0
    refit_on_inliers: bool = True

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.inlier_threshold_deg < 90.0:
            raise ValueError("inlier threshold must be in (0, 90) degrees")
        if self.min_sample < 4:
            raise ValueError("min_sample must be >= 4")


@dataclass
class PoseEstimate:
    pose: Pose
    inlier_indices: np.ndarray
    mean_inlier_angle_deg: float
    iterations_used: int
    config: RansacConfig = None


# ---------------------------------------------------------------------------
# Scalar kernels (numba-compatible; run as plain Python when acceleration is
# off). _solve_epnp serves single solves; RANSAC uses the batched twin below.
# ---------------------------------------------------------------------------


@maybe_njit(cache=True, nogil=True)
def _residuals_scalar(rot, t, pts, brs):
    """Angular residuals in degrees; R is camera-to-world, t the pose offset.

    atan2(|g x b|, g . b) stays exact near zero where acos saturates.
    """
    n = pts.shape[0]
    out = np.empty(n)
    for i in range(n):
        g0 = rot[0, 0] * pts[i, 0] + rot[1, 0] * pts[i, 1] + rot[2, 0] * pts[i, 2] + t[0]
        g1 = rot[0, 1] * pts[i, 0] + rot[1, 1] * pts[i, 1] + rot[2, 1] * pts[i, 2] + t[1]
        g2 = rot[0, 2] * pts[i, 0] + rot[1, 2] * pts[i, 1] + rot[2, 2] * pts[i, 2] + t[2]
        ng = math.sqrt(g0 * g0 + g1 * g1 + g2 * g2)
        if ng < _CENTER_EPS:
            out[i] = 180.0
            continue
        bx, by, bz = brs[i, 0], brs[i, 1], brs[i, 2]
        cx = g1 * bz - g2 * by
        cy = g2 * bx - g0 * bz
        cz = g0 * by - g1 * bx
        sin_part = math.sqrt(cx * cx + cy * cy + cz * cz)
        cos_part = g0 * bx + g1 * by + g2 * bz
        out[i] = math.degrees(math.atan2(sin_part, cos_part))
    return out


def _residuals_numpy(rot, t, pts, brs):
    """Vectorized twin of :func:`_residuals_scalar`, also for stacked poses.

    With ``rot`` (H, 3, 3) and ``t`` (H, 3) the result is (H, n); ``pts`` and
    ``brs`` are (n, 3), shared by all poses, or (H, n, 3).
    """
    g = np.matmul(pts, rot) + t[..., None, :]
    gx, gy, gz = g[..., 0], g[..., 1], g[..., 2]
    bx, by, bz = brs[..., 0], brs[..., 1], brs[..., 2]
    cx = gy * bz - gz * by
    cy = gz * bx - gx * bz
    cz = gx * by - gy * bx
    sin_part = np.sqrt(cx * cx + cy * cy + cz * cz)
    cos_part = gx * bx + gy * by + gz * bz
    out = np.degrees(np.arctan2(sin_part, cos_part))
    out[np.sqrt(gx * gx + gy * gy + gz * gz) < _CENTER_EPS] = 180.0
    return out


@maybe_njit(cache=True, nogil=True)
def _solve_normal_eqs(mat, rhs):
    """Least-squares x for mat @ x ~= rhs via damped normal equations.

    The systems here are tiny (<= 6 unknowns); direct solves beat the
    SVD-based lstsq by orders of magnitude inside the RANSAC loop.
    """
    rows, cols = mat.shape
    gram = np.zeros((cols, cols))
    proj = np.zeros(cols)
    for r in range(rows):
        for a in range(cols):
            proj[a] += mat[r, a] * rhs[r]
            for b in range(cols):
                gram[a, b] += mat[r, a] * mat[r, b]
    trace = 0.0
    for a in range(cols):
        trace += gram[a, a]
    damp = 1e-12 * (trace / cols) + 1e-300
    for a in range(cols):
        gram[a, a] += damp
    # Cholesky + substitutions in place: the damped Gram matrix is SPD and
    # tiny, so this beats a LAPACK round trip inside the RANSAC loop.
    chol = np.zeros((cols, cols))
    for i in range(cols):
        for j in range(i + 1):
            s = gram[i, j]
            for k in range(j):
                s -= chol[i, k] * chol[j, k]
            if i == j:
                chol[i, i] = math.sqrt(s) if s > 0.0 else 1e-150
            else:
                chol[i, j] = s / chol[j, j]
    y = np.empty(cols)
    for i in range(cols):
        s = proj[i]
        for k in range(i):
            s -= chol[i, k] * y[k]
        y[i] = s / chol[i, i]
    x = np.empty(cols)
    for i in range(cols - 1, -1, -1):
        s = y[i]
        for k in range(i + 1, cols):
            s -= chol[k, i] * x[k]
        x[i] = s / chol[i, i]
    return x


@maybe_njit(cache=True, nogil=True)
def _barycentric(pts, ctrl):
    """(n, m) coordinates expressing each point in the control-point frame."""
    n = pts.shape[0]
    m = ctrl.shape[0]
    a = np.empty((4, m))
    for j in range(m):
        for k in range(3):
            a[k, j] = ctrl[j, k]
        a[3, j] = 1.0
    b = np.empty((4, n))
    for i in range(n):
        for k in range(3):
            b[k, i] = pts[i, k]
        b[3, i] = 1.0
    if m == 4:
        x = np.linalg.solve(a, b)
    else:
        # coplanar points: 3 control points determine them exactly
        at = np.ascontiguousarray(a.T)
        gram = at @ a
        x = np.linalg.solve(gram, at @ b)
    return np.ascontiguousarray(x.T)


@maybe_njit(cache=True, nogil=True)
def _constraint_normal_matrix(alphas, brs):
    """M^T M of the stacked tangent-plane constraints (3m x 3m)."""
    n = alphas.shape[0]
    m = alphas.shape[1]
    big = np.zeros((2 * n, 3 * m))
    for i in range(n):
        vx, vy, vz = brs[i, 0], brs[i, 1], brs[i, 2]
        # axis least aligned with the bearing
        ax, ay, az = abs(vx), abs(vy), abs(vz)
        if ax <= ay and ax <= az:
            e1x, e1y, e1z = 0.0, -vz, vy
        elif ay <= az:
            e1x, e1y, e1z = vz, 0.0, -vx
        else:
            e1x, e1y, e1z = -vy, vx, 0.0
        inv = 1.0 / math.sqrt(e1x * e1x + e1y * e1y + e1z * e1z)
        e1x *= inv
        e1y *= inv
        e1z *= inv
        e2x = vy * e1z - vz * e1y
        e2y = vz * e1x - vx * e1z
        e2z = vx * e1y - vy * e1x
        for j in range(m):
            w = alphas[i, j]
            big[2 * i, 3 * j] = w * e1x
            big[2 * i, 3 * j + 1] = w * e1y
            big[2 * i, 3 * j + 2] = w * e1z
            big[2 * i + 1, 3 * j] = w * e2x
            big[2 * i + 1, 3 * j + 1] = w * e2y
            big[2 * i + 1, 3 * j + 2] = w * e2z
    bt = np.ascontiguousarray(big.T)
    return bt @ big


@maybe_njit(cache=True, nogil=True)
def _pair_diff_blocks(kernel, n_active, m):
    """(npairs, 3, N) control-point difference blocks of the kernel columns."""
    npairs = m * (m - 1) // 2
    d = np.empty((npairs, 3, n_active))
    p = 0
    for i in range(m):
        for j in range(i + 1, m):
            for r in range(3):
                for k in range(n_active):
                    d[p, r, k] = kernel[3 * i + r, k] - kernel[3 * j + r, k]
            p += 1
    return d


@maybe_njit(cache=True, nogil=True)
def _init_betas(diffs, rho, n_active):
    """Closed-form initialization of the null-space coefficients per case."""
    npairs = diffs.shape[0]
    beta = np.zeros(n_active)
    if n_active == 1:
        num = 0.0
        den = 0.0
        for p in range(npairs):
            d2 = 0.0
            for r in range(3):
                d2 += diffs[p, r, 0] * diffs[p, r, 0]
            dc = math.sqrt(d2)
            num += dc * math.sqrt(rho[p])
            den += d2
        beta[0] = num / den if den > 0.0 else 0.0
        return beta

    if n_active == 2:
        mat = np.empty((npairs, 3))
        for p in range(npairs):
            s11 = 0.0
            s12 = 0.0
            s22 = 0.0
            for r in range(3):
                s11 += diffs[p, r, 0] * diffs[p, r, 0]
                s12 += diffs[p, r, 0] * diffs[p, r, 1]
                s22 += diffs[p, r, 1] * diffs[p, r, 1]
            mat[p, 0] = s11
            mat[p, 1] = 2.0 * s12
            mat[p, 2] = s22
        sol = _solve_normal_eqs(mat, rho)
        beta[0] = math.sqrt(abs(sol[0]))
        sign = -1.0 if (sol[0] > 0.0) != (sol[1] > 0.0) else 1.0
        beta[1] = sign * math.sqrt(abs(sol[2]))
        return beta

    if n_active == 3:
        mat = np.empty((npairs, 6))
        for p in range(npairs):
            col = 0
            for a in range(3):
                for b in range(a, 3):
                    s = 0.0
                    for r in range(3):
                        s += diffs[p, r, a] * diffs[p, r, b]
                    mat[p, col] = s if a == b else 2.0 * s
                    col += 1
        sol = _solve_normal_eqs(mat, rho)
        beta[0] = math.sqrt(abs(sol[0]))
        sign1 = -1.0 if (sol[0] > 0.0) != (sol[1] > 0.0) else 1.0
        beta[1] = sign1 * math.sqrt(abs(sol[3]))
        sign2 = -1.0 if (sol[0] > 0.0) != (sol[2] > 0.0) else 1.0
        beta[2] = sign2 * math.sqrt(abs(sol[5]))
        return beta

    # n_active == 4: solve for the products (B11, B12, B13, B14) and divide.
    mat = np.empty((npairs, 4))
    for p in range(npairs):
        for b in range(4):
            s = 0.0
            for r in range(3):
                s += diffs[p, r, 0] * diffs[p, r, b]
            mat[p, b] = s if b == 0 else 2.0 * s
    sol = _solve_normal_eqs(mat, rho)
    b1 = math.sqrt(abs(sol[0]))
    beta[0] = b1
    if b1 > 1e-12:
        beta[1] = sol[1] / b1
        beta[2] = sol[2] / b1
        beta[3] = sol[3] / b1
    return beta


@maybe_njit(cache=True, nogil=True)
def _refine_betas(diffs, beta, rho, iterations):
    """Gauss-Newton on the control-point inter-distance residuals."""
    npairs = diffs.shape[0]
    n_active = beta.shape[0]
    gram = np.empty((npairs, n_active, n_active))
    for p in range(npairs):
        for a in range(n_active):
            for b in range(n_active):
                s = 0.0
                for r in range(3):
                    s += diffs[p, r, a] * diffs[p, r, b]
                gram[p, a, b] = s
    out = beta.copy()
    jac = np.empty((npairs, n_active))
    res = np.empty(npairs)
    for _ in range(iterations):
        for p in range(npairs):
            quad = 0.0
            for a in range(n_active):
                gb = 0.0
                for b in range(n_active):
                    gb += gram[p, a, b] * out[b]
                jac[p, a] = 2.0 * gb
                quad += out[a] * gb
            res[p] = rho[p] - quad
        step = _solve_normal_eqs(jac, res)
        for a in range(n_active):
            out[a] += step[a]
    return out


@maybe_njit(cache=True, nogil=True)
def _align_control_points(ctrl_w, ctrl_c):
    """Rigid map A, t with ctrl_c ~= A @ ctrl_w + t (A proper rotation)."""
    m = ctrl_w.shape[0]
    cw = np.zeros(3)
    cc = np.zeros(3)
    for i in range(m):
        for k in range(3):
            cw[k] += ctrl_w[i, k]
            cc[k] += ctrl_c[i, k]
    cw /= m
    cc /= m
    h = np.zeros((3, 3))
    for i in range(m):
        for a in range(3):
            for b in range(3):
                h[a, b] += (ctrl_w[i, a] - cw[a]) * (ctrl_c[i, b] - cc[b])
    u, s, vt = np.linalg.svd(h)
    v = np.ascontiguousarray(vt.T)
    ut = np.ascontiguousarray(u.T)
    amat = v @ ut
    if np.linalg.det(amat) < 0.0:
        for k in range(3):
            v[k, 2] = -v[k, 2]
        amat = v @ ut
    t = np.empty(3)
    for k in range(3):
        t[k] = cc[k] - (amat[k, 0] * cw[0] + amat[k, 1] * cw[1] + amat[k, 2] * cw[2])
    return amat, t


@maybe_njit(cache=True, nogil=True)
def _solve_epnp(pts, brs):
    """Minimal/refit EPnP solve.

    Returns (ok, R, T, mean_residual_deg) with R camera-to-world and T the
    world->camera offset. ``ok`` is False for degenerate geometry.
    """
    n = pts.shape[0]
    eye = np.eye(3)
    zero = np.zeros(3)

    mean = np.zeros(3)
    for i in range(n):
        for k in range(3):
            mean[k] += pts[i, k]
    mean /= n
    centered = pts - mean
    scatter = np.ascontiguousarray(centered.T) @ centered
    evals, evecs = np.linalg.eigh(scatter)
    if evals[2] <= 1e-20:
        return False, eye, zero, 1e300
    if evals[1] / evals[2] <= _COLLINEAR_TOL:
        return False, eye, zero, 1e300
    planar = evals[0] / evals[2] <= _PLANAR_TOL

    m = 3 if planar else 4
    ctrl_w = np.empty((m, 3))
    for k in range(3):
        ctrl_w[0, k] = mean[k]
    for j in range(m - 1):
        scale = math.sqrt(evals[2 - j] / n)
        for k in range(3):
            ctrl_w[j + 1, k] = mean[k] + evecs[k, 2 - j] * scale

    alphas = _barycentric(pts, ctrl_w)
    mtm = _constraint_normal_matrix(alphas, brs)
    _, vecs = np.linalg.eigh(mtm)
    kernel_dim = 2 if planar else 4
    kernel = np.ascontiguousarray(vecs[:, :kernel_dim])

    npairs = m * (m - 1) // 2
    rho = np.empty(npairs)
    p = 0
    for i in range(m):
        for j in range(i + 1, m):
            s = 0.0
            for k in range(3):
                d = ctrl_w[i, k] - ctrl_w[j, k]
                s += d * d
            rho[p] = s
            p += 1

    best_ok = False
    best_res = 1e300
    best_rot = eye
    best_t = zero
    for n_active in range(1, kernel_dim + 1):
        diffs = _pair_diff_blocks(kernel, n_active, m)
        beta = _init_betas(diffs, rho, n_active)
        beta = _refine_betas(diffs, beta, rho, _GN_ITERATIONS)

        ctrl_c = np.zeros((m, 3))
        for j in range(m):
            for k in range(3):
                s = 0.0
                for a in range(n_active):
                    s += kernel[3 * j + k, a] * beta[a]
                ctrl_c[j, k] = s

        cam = alphas @ ctrl_c
        dots = np.empty(n)
        for i in range(n):
            dots[i] = (cam[i, 0] * brs[i, 0] + cam[i, 1] * brs[i, 1]
                       + cam[i, 2] * brs[i, 2])
        if np.median(dots) < 0.0:
            ctrl_c = -ctrl_c

        amat, t = _align_control_points(ctrl_w, ctrl_c)
        rot = np.ascontiguousarray(amat.T)
        res = _residuals_scalar(rot, t, pts, brs)
        mres = res.mean()
        if mres < best_res:
            best_ok = True
            best_res = mres
            best_rot = rot
            best_t = t
    return best_ok, best_rot, best_t, best_res


# ---------------------------------------------------------------------------
# Batched minimal solver (numpy; all RANSAC hypotheses at once)
# ---------------------------------------------------------------------------


def _tangent_bases(brs):
    """(..., 2, 3) orthonormal bases of the planes perpendicular to bearings.

    Same construction as :func:`_constraint_normal_matrix`: e1 is built from
    the axis least aligned with the bearing, e2 = bearing x e1.
    """
    vx, vy, vz = brs[..., 0], brs[..., 1], brs[..., 2]
    ax, ay, az = np.abs(vx), np.abs(vy), np.abs(vz)
    zero = np.zeros_like(vx)
    use_x = (ax <= ay) & (ax <= az)
    use_y = ~use_x & (ay <= az)
    e1 = np.where(use_x[..., None], np.stack([zero, -vz, vy], axis=-1),
                  np.where(use_y[..., None], np.stack([vz, zero, -vx], axis=-1),
                           np.stack([-vy, vx, zero], axis=-1)))
    e1 = e1 / np.sqrt(np.sum(e1 * e1, axis=-1, keepdims=True))
    return np.stack([e1, np.cross(brs, e1)], axis=-2)


def _solve_normal_eqs_batch(mat, rhs):
    """Batched :func:`_solve_normal_eqs`: x with mat @ x ~= rhs, (H, r, c)."""
    cols = mat.shape[-1]
    # explicit sums: np.matmul by a vector rounds differently for a batch of
    # one, which would tie a hypothesis's result to its batch
    gram = np.sum(mat[:, :, :, None] * mat[:, :, None, :], axis=1)
    proj = np.sum(mat * rhs[:, :, None], axis=1)[..., None]
    damp = 1e-12 * (np.trace(gram, axis1=-2, axis2=-1) / cols) + 1e-300
    gram = gram + damp[:, None, None] * np.eye(cols)
    return np.linalg.solve(gram, proj)[..., 0]


def _init_betas_batch(gram, rho, n_active):
    """Batched :func:`_init_betas` from per-pair Gram blocks (H, npairs, n, n)."""
    if n_active == 1:
        d2 = gram[..., 0, 0]
        num = np.sum(np.sqrt(d2) * np.sqrt(rho), axis=1)
        den = np.sum(d2, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den > 0.0, num / den, 0.0)[:, None]

    if n_active == 4:
        cols = [gram[..., 0, 0]] + [2.0 * gram[..., 0, b] for b in range(1, 4)]
        sol = _solve_normal_eqs_batch(np.stack(cols, axis=-1), rho)
        b1 = np.sqrt(np.abs(sol[:, :1]))
        with np.errstate(divide="ignore", invalid="ignore"):
            rest = np.where(b1 > 1e-12, sol[:, 1:] / b1, 0.0)
        return np.concatenate([b1, rest], axis=1)

    # n_active 2 or 3: solve for the products B_ab (a <= b); the diagonal
    # ones give the magnitudes, the signs of B_0a those of beta_a.
    cols = []
    diag = []
    for a in range(n_active):
        for b in range(a, n_active):
            if a == b:
                diag.append(len(cols))
            cols.append(gram[..., a, b] if a == b else 2.0 * gram[..., a, b])
    sol = _solve_normal_eqs_batch(np.stack(cols, axis=-1), rho)
    beta = np.sqrt(np.abs(sol[:, diag]))
    first_pos = sol[:, :1] > 0.0
    beta[:, 1:] *= np.where((sol[:, 1:n_active] > 0.0) != first_pos, -1.0, 1.0)
    return beta


def _refine_betas_batch(gram, beta, rho, iterations):
    """Batched :func:`_refine_betas` (Gauss-Newton on pair distances)."""
    out = beta.copy()
    for _ in range(iterations):
        gb = np.sum(gram * out[:, None, None, :], axis=-1)
        jac = 2.0 * gb
        res = rho - np.sum(gb * out[:, None, :], axis=-1)
        out += _solve_normal_eqs_batch(jac, res)
    return out


def _align_control_points_batch(ctrl_w, ctrl_c):
    """Batched :func:`_align_control_points`; returns (R, t), R camera-to-world."""
    cw = ctrl_w.mean(axis=1)
    cc = ctrl_c.mean(axis=1)
    h = np.matmul(np.swapaxes(ctrl_w - cw[:, None], 1, 2), ctrl_c - cc[:, None])
    u, _, vt = np.linalg.svd(h)
    v = np.swapaxes(vt, 1, 2)
    ut = np.swapaxes(u, 1, 2)
    amat = np.matmul(v, ut)
    flip = np.linalg.det(amat) < 0.0
    v[flip, :, 2] = -v[flip, :, 2]
    amat[flip] = np.matmul(v[flip], ut[flip])
    t = cc - np.matmul(amat, cw[..., None])[..., 0]
    return np.swapaxes(amat, 1, 2), t


def _solve_epnp_group(pts, brs, bases, mean, evals, evecs, m):
    """EPnP for H non-degenerate samples that all use ``m`` control points.

    Mirrors the body of :func:`_solve_epnp` after the degeneracy tests.
    Returns (ok, R, T) with shapes (H,), (H, 3, 3), (H, 3).
    """
    h, k = pts.shape[0], pts.shape[1]
    ctrl_w = np.empty((h, m, 3))
    ctrl_w[:, 0] = mean
    for j in range(m - 1):
        scale = np.sqrt(evals[:, 2 - j] / k)
        ctrl_w[:, j + 1] = mean + evecs[:, :, 2 - j] * scale[:, None]

    # barycentric coordinates (exact for 4 points; least squares on a plane)
    a = np.ones((h, 4, m))
    a[:, :3] = np.swapaxes(ctrl_w, 1, 2)
    b = np.ones((h, 4, k))
    b[:, :3] = np.swapaxes(pts, 1, 2)
    if m == 4:
        alphas = np.swapaxes(np.linalg.solve(a, b), 1, 2)
    else:
        a_t = np.swapaxes(a, 1, 2)
        alphas = np.swapaxes(np.linalg.solve(np.matmul(a_t, a), np.matmul(a_t, b)), 1, 2)

    # (H, 2k, 3m) tangent-plane constraints, then the null space of M^T M
    big = (alphas[:, :, None, :, None] * bases[:, :, :, None, :]).reshape(h, 2 * k, 3 * m)
    _, vecs = np.linalg.eigh(np.matmul(np.swapaxes(big, 1, 2), big))
    kernel_dim = 2 if m == 3 else 4
    kernel = vecs[:, :, :kernel_dim].reshape(h, m, 3, kernel_dim)

    pi, pj = np.triu_indices(m, 1)
    rho = np.sum((ctrl_w[:, pi] - ctrl_w[:, pj]) ** 2, axis=-1)
    diffs = kernel[:, pi] - kernel[:, pj]                     # (H, npairs, 3, kd)
    gram_full = np.matmul(np.swapaxes(diffs, -1, -2), diffs)  # (H, npairs, kd, kd)

    best_res = np.full(h, np.inf)
    best_rot = np.zeros((h, 3, 3))
    best_t = np.zeros((h, 3))
    for n_active in range(1, kernel_dim + 1):
        gram = gram_full[..., :n_active, :n_active]
        beta = _init_betas_batch(gram, rho, n_active)
        beta = _refine_betas_batch(gram, beta, rho, _GN_ITERATIONS)

        ctrl_c = np.matmul(kernel[..., :n_active], beta[:, None, :, None])[..., 0]
        cam = np.matmul(alphas, ctrl_c)
        flip = np.median(np.sum(cam * brs, axis=-1), axis=1) < 0.0
        ctrl_c[flip] = -ctrl_c[flip]

        rot, t = _align_control_points_batch(ctrl_w, ctrl_c)
        mres = _residuals_numpy(rot, t, pts, brs).mean(axis=1)
        better = mres < best_res
        best_res = np.where(better, mres, best_res)
        best_rot[better] = rot[better]
        best_t[better] = t[better]
    return np.isfinite(best_res), best_rot, best_t


def _solve_epnp_batch(pts, brs, bases):
    """Minimal EPnP solves for a stack of samples, all at once.

    ``pts``/``brs`` are (H, k, 3) and ``bases`` the matching (H, k, 2, 3)
    tangent bases. Applies the collinear and planar tests of
    :func:`_solve_epnp` per sample; planar samples are solved with three
    control points, the rest with four. Returns (ok, R, T); ``ok`` is False
    for degenerate samples.
    """
    h = pts.shape[0]
    mean = pts.mean(axis=1)
    centered = pts - mean[:, None]
    evals, evecs = np.linalg.eigh(np.matmul(np.swapaxes(centered, 1, 2), centered))
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = evals[:, 2] > 1e-20
        valid = spread & (evals[:, 1] / evals[:, 2] > _COLLINEAR_TOL)
        planar = evals[:, 0] / evals[:, 2] <= _PLANAR_TOL

    ok = np.zeros(h, dtype=np.bool_)
    rots = np.zeros((h, 3, 3))
    ts = np.zeros((h, 3))
    for m, group in ((4, valid & ~planar), (3, valid & planar)):
        idx = np.flatnonzero(group)
        if idx.size:
            ok[idx], rots[idx], ts[idx] = _solve_epnp_group(
                pts[idx], brs[idx], bases[idx], mean[idx], evals[idx], evecs[idx], m)
    return ok, rots, ts


# ---------------------------------------------------------------------------
# Hypothesis scoring: a conservative GEMM prefilter, then the exact residual
# ---------------------------------------------------------------------------


def _lift_points(pts, brs):
    """Per-call operands of :func:`_score_hypotheses`.

    The points are centred on their mean so that the prefilter's rounding
    scales with the frame's spread, not with the map's coordinates. Returns
    (mean, dot_rows (12, n), norm_rows (5, n), p_max, q_max): dot_rows holds
    the lifted q_k b_i (k major) and b; norm_rows holds q, ones and |q|^2.
    """
    mean = pts.mean(axis=0)
    q = pts - mean
    lifted = (q[:, :, None] * brs[:, None, :]).reshape(-1, 9)
    dot_rows = np.ascontiguousarray(np.concatenate([lifted, brs], axis=1).T)
    q_sq = np.sum(q * q, axis=1)
    norm_rows = np.ascontiguousarray(
        np.concatenate([q, np.ones((len(q), 1)), q_sq[:, None]], axis=1).T)
    p_max = max(math.sqrt(np.sum(pts * pts, axis=1).max()), math.sqrt(mean @ mean))
    return mean, dot_rows, norm_rows, p_max, math.sqrt(q_sq.max())


def _score_hypotheses(rot, t, pts, brs, lift, threshold_deg):
    """(counts, sums) of ``residual < threshold_deg`` per pose in a stack.

    Step 1 keeps a (pose, point) pair only if two GEMMs over the lifted
    points say it may lie within the threshold; step 2 takes the exact
    residual of :func:`_residuals_numpy` for the kept pairs only, so the
    exact test decides every inlier. Step 1 never drops a pair that step 2
    would accept.

    Why, with u = 2**-53, g = p R + t the camera-frame point in exact
    arithmetic and G its rounded value in step 2. For a pose, let
    s = 1 + dev bound the norm of R (dev >= |R R^T - I|), P >= |p|, |mean|,
    Q >= |q|, T = |t|, and let t_c = mean R + t (rounded) be the
    translation for centred points, g' = q R + t_c and span = s Q + |t_c|
    >= |g'|.
      1. |G - g| <= sqrt(3) * gamma_4 * (s P + T) <= E1 = 8u (s P + T).
      2. res = degrees(arctan2(|G x b|, G . b)) < theta means the angle
         between G and b is below theta1 = theta (1 + 4u) + 8u (radians):
         the cross and dot products are off by at most 6.2u |G| |b|, and
         arctan2 and the degree conversion by a few ulps.
      3. Then g . b >= |b| (cos(theta1) |g| - 2 E1).
      4. |g' - g| <= u s Q + E1 (rounding of q and t_c), and the dot GEMM
         returns d = g' . b within 32u span. So with a = |b| cos(theta1) |g|
         and eta = 3 E1 + 33u span, d >= a - eta, which gives
         d |d| >= a^2 - 2 a eta - eta^2 >= a^2 - eta (2 span + 3 eta).
      5. The norm GEMM returns m ~ kappa |g'|^2 - sigma, using
         |q R|^2 = |q|^2 within dev Q^2 and other rounding within 21u
         span^2. Also |g|^2 >= |g'|^2 - 2 span (u span + E1). With
         sigma = 2 ((dev + 32u) span^2 + 2 span (u span + E1)
                    + eta (2 span + 3 eta))
         and kappa = (1 - M) cos^2(theta (1 + M) + M) <= (1 - 6u) cos^2(theta1)
         (M = _PREFILTER_MARGIN >> u; 1 - 6u bounds |b|^2 from below, as
         Correspondences normalizes the bearings),
         every pair that step 2 accepts has d |d| >= m.
    sigma is an absolute bound: it lets points next to a camera centre,
    whose exact residual is rounding noise, through to step 2. A threshold
    within M of 90 degrees keeps every pair.

    Both steps run on blocks of at most ``_SCORE_PAIRS`` pairs; every
    pose's arithmetic is independent of the others in its block.
    """
    h = rot.shape[0]
    rows = max(1, _SCORE_PAIRS // pts.shape[0])
    counts = np.zeros(h, dtype=np.int64)
    sums = np.zeros(h)
    for lo in range(0, h, rows):
        counts[lo:lo + rows], sums[lo:lo + rows] = _score_block(
            rot[lo:lo + rows], t[lo:lo + rows], pts, brs, lift, threshold_deg)
    return counts, sums


def _score_block(rot, t, pts, brs, lift, threshold_deg):
    """The two steps of :func:`_score_hypotheses` for one block of poses."""
    mean, dot_rows, norm_rows, p_max, q_max = lift
    h = rot.shape[0]
    t_c = np.matmul(mean, rot) + t
    t_c_norm = np.sqrt(np.sum(t_c * t_c, axis=1))
    drift = np.linalg.norm(np.matmul(rot, np.swapaxes(rot, 1, 2)) - np.eye(3), axis=(1, 2))
    dev = drift + 16 * _U * (1.0 + drift)
    span = (1.0 + dev) * q_max + t_c_norm
    e1 = 8 * _U * ((1.0 + dev) * p_max + np.sqrt(np.sum(t * t, axis=1)))
    eta = 3 * e1 + 33 * _U * span
    sigma = 2 * ((dev + 32 * _U) * span ** 2 + 2 * span * (_U * span + e1)
                 + eta * (2 * span + 3 * eta))

    theta = math.radians(threshold_deg) * (1 + _PREFILTER_MARGIN) + _PREFILTER_MARGIN
    if theta < math.pi / 2:
        kappa = (1 - _PREFILTER_MARGIN) * math.cos(theta) ** 2
        dot = np.concatenate([rot.reshape(h, 9), t_c], axis=1) @ dot_rows
        r_tc = np.matmul(rot, t_c[:, :, None])[:, :, 0]
        norm = np.concatenate([2 * kappa * r_tc, (kappa * t_c_norm ** 2 - sigma)[:, None],
                               np.full((h, 1), kappa)], axis=1) @ norm_rows
        keep = dot * np.abs(dot) >= norm
    else:
        keep = np.ones((h, pts.shape[0]), dtype=np.bool_)

    if np.count_nonzero(keep) > _DENSE_SHARE * keep.size:
        # most pairs survive (clean data): residuals for the whole block cost
        # less than gathering the survivors' operands
        res = _residuals_numpy(rot, t, pts, brs)
        hh, jj = np.nonzero(res < threshold_deg)
        res = res[hh, jj]
    else:
        hh, jj = np.nonzero(keep)
        res = _residuals_numpy(rot[hh], t[hh], pts[jj, None], brs[jj, None])[:, 0]
        inl = res < threshold_deg
        hh, res = hh[inl], res[inl]
    return np.bincount(hh, minlength=h), np.bincount(hh, weights=res, minlength=h)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def epnp_bearing(corrs: Correspondences) -> Pose:
    """Absolute pose from >= 4 bearing/world-point correspondences."""
    if len(corrs) < 4:
        raise ValueError(f"need at least 4 correspondences, got {len(corrs)}")
    solver = _solve_epnp if NUMBA_ENABLED else _solve_epnp.py_func
    ok, rot, t, _ = solver(corrs.world_points, corrs.bearings)
    if not ok:
        raise DegenerateConfigError("correspondences are collinear or otherwise degenerate")
    return Pose(rot, t)


def angular_residual(pose: Pose, corr: Correspondence) -> float:
    """Angle in degrees between the bearing and the predicted direction.

    A world point coinciding with the camera centre has no direction and
    scores 180 degrees (always an outlier).
    """
    g = pose.rotation.T @ np.asarray(corr.world_point, dtype=np.float64) + pose.translation
    if np.linalg.norm(g) < _CENTER_EPS:
        return 180.0
    b = np.asarray(corr.bearing, dtype=np.float64)
    b = b / np.linalg.norm(b)
    sin_part = np.linalg.norm(np.cross(g, b))
    return math.degrees(math.atan2(sin_part, float(g @ b)))


def angular_residuals(pose: Pose, corrs: Correspondences) -> np.ndarray:
    """Batch angular residuals in degrees."""
    if NUMBA_ENABLED:
        return _residuals_scalar(pose.rotation, pose.translation,
                                 corrs.world_points, corrs.bearings)
    return _residuals_numpy(pose.rotation, pose.translation,
                            corrs.world_points, corrs.bearings)


def _draw_samples(seed: int, iterations: int, n: int, k: int) -> np.ndarray:
    """(iterations, k) distinct-index samples from Philox keyed by (seed, i)."""
    out = np.empty((iterations, k), dtype=np.int64)
    for it in range(iterations):
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, it], dtype=np.uint64)))
        count = 0
        while count < k:
            cand = int(gen.integers(0, n))
            duplicate = False
            for j in range(count):
                if out[it, j] == cand:
                    duplicate = True
                    break
            if not duplicate:
                out[it, count] = cand
                count += 1
    return out


def ransac_pnp(corrs: Correspondences, cfg: RansacConfig = None, threads: int = 1) -> PoseEstimate:
    """Robust pose estimate; see module docstring for determinism contract.

    The best model maximizes the inlier count; ties break on lower mean
    inlier residual, then on lower iteration index. With
    ``cfg.refit_on_inliers`` the winner is re-solved over its inliers and
    the inlier set recomputed once against the refit pose. ``threads > 1``
    spreads the hypothesis chunks over a thread pool (numpy releases the GIL
    in its array loops); the result is bitwise the same for any value.
    """
    if cfg is None:
        cfg = RansacConfig()
    n = len(corrs)
    if n < cfg.min_sample:
        raise ValueError(f"need at least {cfg.min_sample} correspondences, got {n}")

    pts = corrs.world_points
    brs = corrs.bearings
    samples = _draw_samples(cfg.seed, cfg.iterations, n, cfg.min_sample)

    bases = _tangent_bases(brs)
    lift = _lift_points(pts, brs)
    oks = np.zeros(cfg.iterations, dtype=np.bool_)
    counts = np.zeros(cfg.iterations, dtype=np.int64)
    sums = np.zeros(cfg.iterations)
    rots = np.zeros((cfg.iterations, 3, 3))
    ts = np.zeros((cfg.iterations, 3))

    def evaluate(lo):
        hi = min(lo + _HYPOTHESIS_CHUNK, cfg.iterations)
        idx = samples[lo:hi]
        ok, rot, t = _solve_epnp_batch(pts[idx], brs[idx], bases[idx])
        count, total = _score_hypotheses(rot, t, pts, brs, lift, cfg.inlier_threshold_deg)
        oks[lo:hi] = ok
        counts[lo:hi] = np.where(ok, count, 0)
        sums[lo:hi] = np.where(ok, total, 0.0)
        rots[lo:hi] = rot
        ts[lo:hi] = t

    # chunk boundaries depend on the iteration count only, never on threads
    starts = range(0, cfg.iterations, _HYPOTHESIS_CHUNK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(evaluate, starts))
    else:
        for lo in starts:
            evaluate(lo)

    best_it = -1
    best_count = 0
    candidates = np.flatnonzero(oks & (counts > 0))
    if candidates.size:
        means = sums[candidates] / counts[candidates]
        # most inliers, then lower mean residual, then lower iteration index
        order = np.lexsort((candidates, means, -counts[candidates]))
        best_it = int(candidates[order[0]])
        best_count = int(counts[best_it])

    best_effort = None
    if best_it >= 0:
        pose = Pose(rots[best_it], ts[best_it])
        res = angular_residuals(pose, corrs)
        inliers = np.flatnonzero(res < cfg.inlier_threshold_deg)
        best_effort = PoseEstimate(pose, inliers,
                                   float(res[inliers].mean()) if inliers.size else 180.0,
                                   cfg.iterations, cfg)

    if best_it < 0 or best_count < cfg.min_sample + 1:
        raise NoConsensusError(
            f"no model with more than {cfg.min_sample} inliers after {cfg.iterations} iterations",
            estimate=best_effort)

    estimate = best_effort
    if cfg.refit_on_inliers and estimate.inlier_indices.size >= 4:
        try:
            refit = epnp_bearing(corrs.subset(estimate.inlier_indices))
        except DegenerateConfigError:
            refit = None
        if refit is not None:
            res = angular_residuals(refit, corrs)
            inliers = np.flatnonzero(res < cfg.inlier_threshold_deg)
            if inliers.size:
                estimate = PoseEstimate(refit, inliers, float(res[inliers].mean()),
                                        cfg.iterations, cfg)
    return estimate
