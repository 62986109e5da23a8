"""Absolute pose from 2D-3D correspondences on a spherical camera.

A deterministic RANSAC loop with an angular inlier test takes its
hypotheses from Lambda Twist P3P (Persson & Nordberg, ECCV 2018), which
works on bearing vectors directly. Samples come from one Philox stream
keyed by the seed. The minimal solves run in numpy on stacked samples, a
fixed-size chunk of hypotheses at a time: each sample solves on its first
three points and its other points pick one of the up to four candidate
poses. Once the depths are known, the (sample, candidate) slots that may
hold a root, about a fifth of them on noisy data, are gathered into flat
arrays; the refinement, the checks, the poses and the pick run on those
alone, each 3-vector as three component planes. Scoring takes three
levels, and only the last decides. The points are centred on their
coordinate-wise median (which a few far label flips do not move) and
lifted to q (x) b: one GEMM gives c = g . b for every (hypothesis, point)
pair and a second gives kappa |g|^2, where g is the point in the camera
frame and kappa = cos^2 of a slightly widened threshold angle. A pair
survives when c |c| >= kappa |g|^2 - sigma, where sigma bounds the
rounding of both GEMMs and of the exact test. An inlier has
c >= cos(angle) |g| |b| > 0, so the prefilter never drops one
(_prefilter_bounds derives the bound), and a hypothesis's survivor count
bounds its inlier count from above. Level one runs this test in float32
on each chunk, a bounded block of hypotheses at a time
(``_SCORE_PAIRS``), with a slack that grows with each point's distance
from the frame's median and the median's distance from the camera. Level
two runs it in float64, with a slack near rounding, lazily and a block at
a time, on the hypotheses whose float32 bound still reaches the most
inliers found. Level three, the exact pass, visits the hypotheses by
decreasing bound and takes the exact arctan2 residual of every point for
each, until the next bound is below the most inliers found: no
hypothesis after it can win, as in Capel's bail-out test (BMVC 2005) but
exact. ``residual < threshold`` decides every
inlier, so any bounds that are never below the exact counts give the
same winner bit for bit: the bound levels change what is scored, not the
result. Every hypothesis's arithmetic is independent of its neighbours,
the bounds hold whatever the block shapes, and the exact pass runs after
all chunks, so results are the same bit for bit whatever the chunk size.
The winner is refit, as in LO-RANSAC, on the points within a threshold
shrinking to the real one, by EPnP (Lepetit et al., IJCV 2009)
generalized to bearing vectors, each bearing giving two linear
constraints in the plane perpendicular to it. That solver is plain
numpy, with no loop over points, and serves both ``epnp_bearing`` and
the refit.
"""

from dataclasses import dataclass
import math

import numpy as np

from .geometry import Pose

__all__ = [
    "DegenerateConfigError",
    "NoConsensusError",
    "Correspondences",
    "RansacConfig",
    "PoseEstimate",
    "epnp_bearing",
    "angular_residuals",
    "ransac_pnp",
]

_GN_ITERATIONS = 10
_CENTER_EPS = 1e-12
# Relative eigenvalue-of-scatter thresholds (squared singular value ratios).
_PLANAR_TOL = 1e-14
_COLLINEAR_TOL = 1e-14
# P3P's first three points are also collinear when |d12 x d13| is within
# this many u max|x| (|d12| + |d13|), the size coordinate rounding gives it.
_COLLINEAR_ROUNDING = 64
# Points in a RANSAC sample: three for P3P, one to pick its pose.
_SAMPLE_SIZE = 4
# RANSAC hypotheses solved and bounded per batch: large, as P3P costs numpy
# call overhead more than arithmetic, yet small enough that the solver's
# temporaries stay near 1 MB. At the default 1000 iterations one chunk
# holds them all; 2048 and 4096 raise the peak memory for little speed.
_HYPOTHESIS_CHUNK = 1024
# P3P: Newton steps on the cubic's root, Gauss-Newton steps on the depths,
# and the largest relative error of the point distances they may leave.
_CUBIC_NEWTON_STEPS = 16
_P3P_REFINE_STEPS = 5
_P3P_DISTANCE_TOL = 1e-6
# Inlier threshold multiples whose points the successive refits solve on.
_REFIT_WIDENING = (2.0, 1.5, 1.0)
# Unit roundoff of float64, and the relative and absolute (radian) widening
# of the inlier angle in the scoring prefilter; see _prefilter_bounds.
_U = 2.0 ** -53
_PREFILTER_MARGIN = 1e-12
# Unit roundoff of float32, and the float32 bound's operand range: a pose
# takes the float64 bound where |t_c| or a coordinate lies outside it or
# its rotation is further from orthonormal than _SINGLE_DEV.
_U32 = 2.0 ** -24
_SINGLE_RANGE = (2.0 ** -20, 2.0 ** 56)
_SINGLE_DEV = 2.0 ** -20
# Most (hypothesis, point) pairs scored at once. Both scoring passes work
# on blocks of whole hypotheses, so their temporaries stay a few MB.
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


class Correspondences:
    """Array-backed set of correspondences.

    Bearings are normalized on construction; zero-length bearings raise.
    """

    def __init__(self, bearings: np.ndarray, world_points: np.ndarray):
        b = np.ascontiguousarray(bearings, dtype=np.float64).reshape(-1, 3)
        w = np.ascontiguousarray(world_points, dtype=np.float64).reshape(-1, 3)
        if b.shape[0] != w.shape[0]:
            raise ValueError("bearings and world_points must have matching lengths")
        norms = np.linalg.norm(b, axis=1)
        if np.any(norms < 1e-12):
            raise ValueError("bearings must be nonzero")
        self.bearings = b / norms[:, None]
        self.world_points = w

    def __len__(self) -> int:
        return self.bearings.shape[0]

    def subset(self, indices) -> "Correspondences":
        idx = np.asarray(indices)
        return Correspondences(self.bearings[idx], self.world_points[idx])


@dataclass(frozen=True)
class RansacConfig:
    iterations: int = 1000
    inlier_threshold_deg: float = 0.22
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.inlier_threshold_deg < 90.0:
            raise ValueError("inlier threshold must be in (0, 90) degrees")


@dataclass
class PoseEstimate:
    pose: Pose
    inlier_indices: np.ndarray
    mean_inlier_angle_deg: float


# ---------------------------------------------------------------------------
# Residuals and EPnP on bearing vectors (Lepetit et al., IJCV 2009)
# ---------------------------------------------------------------------------


def _residuals(rot, t, pts, brs):
    """Angular residuals in degrees; R is camera-to-world, t the pose offset.

    atan2(|g x b|, g . b) stays exact near zero where acos saturates. With
    ``rot`` (H, 3, 3) and ``t`` (H, 3) the result is (H, n); ``pts`` and
    ``brs`` are (n, 3), shared by all poses, or (H, n, 3).
    """
    # g = pts R + t as contiguous component planes, worked on in place
    g = np.moveaxis(np.matmul(pts, rot), -1, 0).copy()
    g += np.moveaxis(t, -1, 0)[..., None]
    gx, gy, gz = g
    bx, by, bz = np.moveaxis(brs, -1, 0).copy()
    tmp = np.empty_like(gx)
    cx = np.multiply(gy, bz)
    cx -= np.multiply(gz, by, out=tmp)
    cy = np.multiply(gz, bx)
    cy -= np.multiply(gx, bz, out=tmp)
    cz = np.multiply(gx, by)
    cz -= np.multiply(gy, bx, out=tmp)
    # |g x b| into cx, g . b into cy, each summed in component order
    cx *= cx
    cx += np.multiply(cy, cy, out=cy)
    cx += np.multiply(cz, cz, out=cz)
    np.sqrt(cx, out=cx)
    np.multiply(gx, bx, out=cy)
    cy += np.multiply(gy, by, out=tmp)
    cy += np.multiply(gz, bz, out=tmp)
    out = np.degrees(np.arctan2(cx, cy, out=cx), out=cx)
    gx *= gx
    gx += np.multiply(gy, gy, out=gy)
    gx += np.multiply(gz, gz, out=gz)
    out[np.sqrt(gx, out=gx) < _CENTER_EPS] = 180.0
    return out


def _damped_lstsq(mat, rhs, k):
    """Least-squares x of each stacked system mat @ x ~= rhs, (h, r, c) and
    (h, r), by normal equations damped by 1e-12 of their mean diagonal over
    the ``k`` unknowns a system uses; its zero columns past those get a
    zero step."""
    mt = np.swapaxes(mat, 1, 2)
    gram = mt @ mat
    damp = 1e-12 * np.trace(gram, axis1=1, axis2=2) / k + 1e-300
    gram += damp[:, None, None] * np.eye(mat.shape[2])
    return np.linalg.solve(gram, mt @ rhs[..., None])[..., 0]


def _init_betas(gram, rho):
    """Closed-form start for k null-space coefficients, from the (npairs, k, k)
    Gram matrices of the kernel's control-point differences and the squared
    world distances ``rho`` between the control points."""
    k = gram.shape[1]
    if k == 1:
        d2 = gram[:, 0, 0]
        return np.array([np.sqrt(d2) @ np.sqrt(rho) / d2.sum()])
    if k == 4:
        # solve for the products beta_1 beta_a and divide by beta_1
        sol = _damped_lstsq(gram[None, :, 0] * [1.0, 2.0, 2.0, 2.0], rho[None], 4)[0]
        b1 = math.sqrt(abs(sol[0]))
        return np.r_[b1, sol[1:] / b1] if b1 > 1e-12 else np.r_[b1, 0.0, 0.0, 0.0]
    # k = 2, 3: solve for every product beta_a beta_b, take the squares'
    # roots and the signs of beta_1 beta_a
    iu, ju = np.triu_indices(k)
    mat = gram[:, iu, ju] * np.where(iu == ju, 1.0, 2.0)
    sol = _damped_lstsq(mat[None], rho[None], len(iu))[0]
    beta = np.sqrt(np.abs(sol[iu == ju]))
    beta[1:] *= np.where((sol[0] > 0.0) != (sol[1:k] > 0.0), -1.0, 1.0)
    return beta


def _align_control_points(ctrl_w, ctrl_c):
    """Rigid maps A, t with ctrl_c[h] ~= A[h] @ ctrl_w + t[h] (A proper
    rotations) for stacked camera-frame control points (h, m, 3)."""
    cw, cc = ctrl_w.mean(axis=0), ctrl_c.mean(axis=1)
    u, _, vt = np.linalg.svd((ctrl_w - cw).T @ (ctrl_c - cc[:, None]))
    vt[np.linalg.det(u) * np.linalg.det(vt) < 0.0, 2] *= -1.0
    amat = np.swapaxes(vt, 1, 2) @ np.swapaxes(u, 1, 2)
    return amat, cc - amat @ cw


def _solve_epnp(pts, brs):
    """EPnP on n >= 4 points and their unit bearings.

    Returns (ok, R, T, mean_residual_deg) with R camera-to-world and T the
    world->camera offset. ``ok`` is False for degenerate geometry. The
    control points are the mean and the principal axes scaled by their
    spread (two axes for planar points), so a point's barycentric weights
    are its coordinates in that frame. Each bearing b gives two rows of
    constraints sum_j alpha_j c_j . e = 0, for e spanning the plane
    perpendicular to b. Their products add up to the projector I - b b^T,
    so M^T M = sum_i (alpha_i alpha_i^T) (x) (I - b_i b_i^T), whatever the
    tangent axes. The solutions from k = 1 to 4 null-space vectors (1 to 2
    when planar) are refined together, as k-vectors padded with zeros, and
    the one with the least mean angular residual wins.
    """
    n = pts.shape[0]
    mean = pts.mean(axis=0)
    centered = pts - mean
    evals, evecs = np.linalg.eigh(centered.T @ centered)
    if evals[2] <= 1e-20 or evals[1] / evals[2] <= _COLLINEAR_TOL:
        return False, np.eye(3), np.zeros(3), math.inf
    planar = evals[0] / evals[2] <= _PLANAR_TOL
    m = 3 if planar else 4

    scales = np.sqrt(evals[::-1][:m - 1] / n)
    axes = evecs[:, ::-1][:, :m - 1]
    ctrl_w = np.vstack([mean, mean + (axes * scales).T])
    local = centered @ (axes / scales)
    alphas = np.column_stack([1.0 - local.sum(axis=1), local])

    ab = (alphas[:, :, None] * brs[:, None, :]).reshape(n, 3 * m)
    mtm = np.kron(alphas.T @ alphas, np.eye(3)) - ab.T @ ab
    kernel = np.linalg.eigh(mtm)[1][:, :2 if planar else 4]

    dim = kernel.shape[1]
    iu, ju = np.triu_indices(m, 1)
    rho = np.sum((ctrl_w[iu] - ctrl_w[ju]) ** 2, axis=1)
    blocks = kernel.reshape(m, 3, dim)
    diffs = blocks[iu] - blocks[ju]
    gram = np.einsum("pra,prb->pab", diffs, diffs)

    # Gauss-Newton on the control-point distances, for every k at once
    ks = np.arange(1, dim + 1)
    active = np.arange(dim) < ks[:, None]
    grams = gram * (active[:, None, :, None] & active[:, None, None, :])
    beta = np.zeros((dim, dim))
    for k in ks:
        beta[k - 1, :k] = _init_betas(gram[:, :k, :k], rho)
    for _ in range(_GN_ITERATIONS):
        gb = (grams @ beta[:, None, :, None])[..., 0]
        beta += _damped_lstsq(2.0 * gb, rho - np.sum(gb * beta[:, None], axis=2), ks)

    ctrl_c = (beta @ kernel.T).reshape(dim, m, 3)
    # the points lie in front of their bearings
    front = np.median(np.sum((alphas @ ctrl_c) * brs, axis=2), axis=1)
    ctrl_c[front < 0.0] *= -1.0
    amat, t = _align_control_points(ctrl_w, ctrl_c)
    rot = np.swapaxes(amat, 1, 2)
    mres = _residuals(rot, t, pts, brs).mean(axis=1)
    mres[np.isnan(mres)] = math.inf
    best = int(np.argmin(mres))
    return bool(mres[best] < math.inf), rot[best], t[best], float(mres[best])


# ---------------------------------------------------------------------------
# Batched minimal solver: Lambda Twist P3P (numpy; all RANSAC hypotheses at once)
# ---------------------------------------------------------------------------


def _dot(a, b):
    """a . b of component-major 3-vectors: a[0], a[1], a[2] are the planes."""
    ab = a * b
    return ab[0] + ab[1] + ab[2]


def _cross(a, b):
    """a x b of component-major 3-vectors stacked on the first axis."""
    return a[[1, 2, 0]] * b[[2, 0, 1]] - a[[2, 0, 1]] * b[[1, 2, 0]]


def _frame(first, normal):
    """The orthonormal frame (first, normal x first, normal) of
    component-major 3-vectors, as one (3, 3, ...) array. ``normal`` is
    projected off ``first`` again: a cross product of nearly parallel
    vectors is off-normal by about u / sin(angle)."""
    first = first / np.sqrt(_dot(first, first))
    normal = normal - _dot(normal, first) * first
    normal = normal / np.sqrt(_dot(normal, normal))
    return np.stack([first, _cross(normal, first), normal])


def _quadratic_roots(b, c):
    """Roots of x^2 + b x + c, larger magnitude first (discriminant clamped at 0)."""
    r1 = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * c, 0.0)), b))
    return r1, c / r1


def _cubic_root(b, c, d):
    """A real root of x^3 + b x^2 + c x + d, polished by Newton steps.

    With two stationary points Newton starts as in Lambda Twist, left of
    the local maximum (if positive) or right of the local minimum. A
    monotonic cubic, y^3 + p y + q about its inflection point (p >= 0),
    starts from y = -q / (p + |q|^(2/3)), close for small and large |q|.
    """
    disc = b * b - 3.0 * c
    v = np.sqrt(np.maximum(disc, 0.0))
    t1, t2 = (-b - v) / 3.0, (-b + v) / 3.0
    k1 = ((t1 + b) * t1 + c) * t1 + d
    k2 = ((t2 + b) * t2 + c) * t2 + d
    x0 = -b / 3.0
    q = ((x0 + b) * x0 + c) * x0 + d
    r = np.where(disc > 0.0, np.where(k1 > 0.0, t1 - np.sqrt(k1 / v), t2 + np.sqrt(-k2 / v)),
                 x0 - q / (np.cbrt(q * q) - disc / 3.0))
    for _ in range(_CUBIC_NEWTON_STEPS):
        fpx = (3.0 * r + 2.0 * b) * r + c
        r = r - np.where(fpx != 0.0, (((r + b) * r + c) * r + d) / fpx, 0.0)
    return r


def _refine_depths(depths, sides, coefs):
    """Gauss-Newton on P3P's three distance equations
    l_i^2 + l_j^2 + b_ij l_i l_j = a_ij for the pairs 12, 13 and 23, given
    the depths (l1, l2, l3), squared world distances (a12, a13, a23) and
    bearing terms (b12, b13, b23) of each slot, as rows of (3, K) arrays.
    A step that raises the residual is not taken. Returns the depths and
    whether each slot meets every distance within ``_P3P_DISTANCE_TOL``:
    depths that miss them come from roots that hold no solution.
    """
    l1, l2, l3 = depths
    a12, a13, a23 = sides
    b12, b13, b23 = coefs

    def residual(l1, l2, l3):
        return (l1 * l1 + l2 * l2 + b12 * l1 * l2 - a12,
                l1 * l1 + l3 * l3 + b13 * l1 * l3 - a13,
                l2 * l2 + l3 * l3 + b23 * l2 * l3 - a23)

    r1, r2, r3 = residual(l1, l2, l3)
    for _ in range(_P3P_REFINE_STEPS):
        j11, j12 = 2.0 * l1 + b12 * l2, 2.0 * l2 + b12 * l1
        j21, j23 = 2.0 * l1 + b13 * l3, 2.0 * l3 + b13 * l1
        j32, j33 = 2.0 * l2 + b23 * l3, 2.0 * l3 + b23 * l2
        det = 1.0 / (-j11 * j23 * j32 - j12 * j21 * j33)
        n1 = l1 - det * (-j23 * j32 * r1 - j12 * j33 * r2 + j12 * j23 * r3)
        n2 = l2 - det * (-j21 * j33 * r1 + j11 * j33 * r2 - j11 * j23 * r3)
        n3 = l3 - det * (j21 * j32 * r1 - j11 * j32 * r2 - j12 * j21 * r3)
        q1, q2, q3 = residual(n1, n2, n3)
        take = np.abs(q1) + np.abs(q2) + np.abs(q3) <= np.abs(r1) + np.abs(r2) + np.abs(r3)
        l1, l2, l3 = np.where(take, n1, l1), np.where(take, n2, l2), np.where(take, n3, l3)
        r1, r2, r3 = np.where(take, q1, r1), np.where(take, q2, r2), np.where(take, q3, r3)
    root = ((np.abs(r1) <= _P3P_DISTANCE_TOL * a12) & (np.abs(r2) <= _P3P_DISTANCE_TOL * a13)
            & (np.abs(r3) <= _P3P_DISTANCE_TOL * a23))
    return (l1, l2, l3), root


@np.errstate(all="ignore")
def _p3p_slots(pts, brs):
    """Lambda Twist P3P (Persson & Nordberg, ECCV 2018) on stacked samples.

    Solves on the first three points of each (H, k >= 3, 3) sample. A
    sample has four slots, one per candidate pose; slot j of sample h is
    4 h + j. Returns (slots, R, T): the slots that hold a pose, increasing,
    and their camera-to-world rotations R[j, i] (3, 3, K) and offsets T[i]
    (3, K) as component planes over the K slots. The cubic and the depths
    are solved for every sample; the refinement, the checks and the pose
    only for the slots that may hold a root. Each slot's arithmetic is
    elementwise, so its result does not depend on the other samples in
    the stack.
    """
    # the first three points and bearings, each component-major (3, H)
    x1, x2, x3 = np.moveaxis(pts[:, :3], 0, 2)
    y1, y2, y3 = np.moveaxis(brs[:, :3], 0, 2)
    d12, d13, d23 = x1 - x2, x1 - x3, x2 - x3
    a12, a13, a23 = _dot(d12, d12), _dot(d13, d13), _dot(d23, d23)
    c12, c13, c23 = _dot(y1, y2), _dot(y1, y3), _dot(y2, y3)
    b12, b13, b23 = -2.0 * c12, -2.0 * c13, -2.0 * c23
    blob = c12 * c23 * c13 - 1.0
    s12, s13, s23 = 1.0 - c12 * c12, 1.0 - c13 * c13, 1.0 - c23 * c23
    # (near-)collinear first points: a normal n = d12 x d13 that is small
    # against the sides, or that coordinate rounding alone could make
    n = _cross(d12, d13)
    nn = _dot(n, n)
    reach = np.abs(np.stack([x1, x2, x3])).reshape(9, -1).max(axis=0)
    rounding = _COLLINEAR_ROUNDING * _U * reach * (np.sqrt(a12) + np.sqrt(a13))
    solid = (nn > _COLLINEAR_TOL * a12 * a13) & (np.sqrt(nn) > rounding)

    # gamma making D1 - gamma D2 singular, from det(D1 - gamma D2) = 0
    p3 = a13 * (a23 * s13 - a13 * s23)
    p2 = 2.0 * blob * a23 * a13 + a13 * (2.0 * a12 + a13) * s23 + a23 * (a23 - a12) * s13
    p1 = a23 * (a13 - a23) * s12 - a12 * a12 * s23 - 2.0 * a12 * (blob * a23 + a13 * s23)
    p0 = a12 * (a12 * s23 - a23 * s12)
    g = _cubic_root(p2 / p3, p1 / p3, p0 / p3)

    # D0 = D1 - g D2 has a zero eigenvalue; eigenvectors of the other two in
    # closed form, as (u0, u1, 1) normalized
    m00, m01, m02 = a23 * (1.0 - g), 0.5 * a23 * b12, -0.5 * a23 * b13 * g
    m11, m12, m22 = a23 - a12 + a13 * g, 0.5 * b23 * (a13 * g - a12), g * (a13 - a23) - a12
    e1, e2 = _quadratic_roots(-(m00 + m11 + m22), m00 * m11 + m00 * m22 + m11 * m22
                              - m01 * m01 - m02 * m02 - m12 * m12)
    def eigenvector(e):
        inv = 1.0 / (e * (m00 + m11) - m00 * m11 - e * e + m01 * m01)
        u0 = -(e * m02 + (m01 * m12 - m02 * m11)) * inv
        u1 = -(e * m12 + (m01 * m02 - m00 * m12)) * inv
        norm = 1.0 / np.sqrt(u0 * u0 + u1 * u1 + 1.0)
        return u0 * norm, u1 * norm, norm

    (v00, v10, v20), (v01, v11, v21) = eigenvector(e1), eigenvector(e2)

    # lambda_1 = w0 lambda_2 + w1 lambda_3 for s = +-sqrt(-e2 / e1); then a
    # quadratic in tau = lambda_3 / lambda_2; slots (+s, tau1), (+s, tau2),
    # (-s, tau1), (-s, tau2)
    col = (slice(None), None)
    v = np.sqrt(np.maximum(0.0, -e2 / e1))
    s = np.stack([v, -v], axis=1)
    w2 = 1.0 / (s * v01[col] - v00[col])
    w0 = (v10[col] - s * v11[col]) * w2
    w1 = (v20[col] - s * v21[col]) * w2
    a12, a13, a23 = a12[col], a13[col], a23[col]
    b12, b13, b23 = b12[col], b13[col], b23[col]
    inv = 1.0 / ((a13 - a12) * w1 * w1 - a12 * b13 * w1 - a12)
    qb = (a13 * b12 * w1 - a12 * b13 * w0 - 2.0 * w0 * w1 * (a12 - a13)) * inv
    qc = ((a13 - a12) * w0 * w0 + a13 * b12 * w0 + a13) * inv
    tau = np.stack(_quadratic_roots(qb, qc), axis=2).reshape(-1, 4)
    w0, w1 = np.repeat(w0, 2, axis=1), np.repeat(w1, 2, axis=1)
    den = tau * (b23 + tau) + 1.0
    l2 = np.sqrt(a23 / den)
    l3 = tau * l2
    l1 = w0 * l2 + w1 * l3
    valid = (np.repeat(qb * qb - 4.0 * qc >= 0.0, 2, axis=1) & (tau > 0.0) & (den > 0.0)
             & (l1 >= 0.0) & solid[col])

    # the rest runs on the slots that may hold a root, sample h = slot >> 2
    slots = np.flatnonzero(valid)
    h = slots >> 2
    depths = np.stack([l1, l2, l3]).reshape(3, -1)[:, slots]
    terms = np.stack([a12, a13, a23, b12, b13, b23])[:, h, 0]
    (l1, l2, l3), root = _refine_depths(depths, terms[:3], terms[3:])
    slots, h, l1, l2, l3 = slots[root], h[root], l1[root], l2[root], l3[root]

    # R = C W^T with W the orthonormal frame of d12 and n and C that of
    # their images yd1 and yd1 x yd2: Y X^-1 for X = [d12, d13, n] when the
    # depths are exact, and a rotation to rounding, which keeps the scoring
    # prefilter tight, when they are not
    world = _frame(d12, n)[:, :, h]
    x1, y1, y2, y3 = np.stack([x1, y1, y2, y3])[:, :, h]
    ry1 = y1 * l1
    yd1 = ry1 - y2 * l2
    cam = _frame(yd1, _cross(yd1, ry1 - y3 * l3))
    # camera-to-world R[j, i] = sum_k W[k, j] C[k, i]
    rot = sum(w[:, None] * c for w, c in zip(world, cam))
    t = ry1 - (x1[0] * rot[0] + x1[1] * rot[1] + x1[2] * rot[2])
    return slots, rot, t


@np.errstate(all="ignore")
def _solve_p3p_batch(pts, brs):
    """(ok, R, T) for stacked (H, k >= 4, 3) samples: P3P on the first three
    points, then the candidate with the least summed angular residual over
    the other k - 3. Where the first three world points are (near-)collinear
    or no candidate exists, ``ok`` is False and R, T are zero."""
    slots, rot, t = _p3p_slots(pts, brs)
    # the other points of each slot's sample, component-major (3, K, k - 3)
    xs = np.moveaxis(pts[:, 3:], 2, 0)[:, slots >> 2]
    bs = np.moveaxis(brs[:, 3:], 2, 0)[:, slots >> 2]
    g = (xs[0] * rot[0, :, :, None] + xs[1] * rot[1, :, :, None] + xs[2] * rot[2, :, :, None]
         + t[:, :, None])
    sin_part = _cross(g, bs)
    score = np.arctan2(np.sqrt(_dot(sin_part, sin_part)), _dot(g, bs)).sum(axis=1)
    scores = np.full((len(pts), 4), np.inf)
    scores.ravel()[slots] = np.where(np.isfinite(score), score, np.inf)
    best = np.argmin(scores, axis=1)
    ok = np.isfinite(scores[np.arange(len(pts)), best])
    win = np.searchsorted(slots, 4 * np.flatnonzero(ok) + best[ok])
    rots, ts = np.zeros((len(pts), 3, 3)), np.zeros((len(pts), 3))
    rots[ok], ts[ok] = np.moveaxis(rot[:, :, win], 2, 0), t[:, win].T
    return ok, rots, ts


# ---------------------------------------------------------------------------
# Hypothesis scoring: a float32 GEMM bound for every hypothesis, a float64
# one for those that may still win, then exact residuals
# ---------------------------------------------------------------------------


def _lift_points(pts, brs):
    """Per-call operands of :func:`_prefilter_bounds`.

    The points are centred on their coordinate-wise median (``mean`` below)
    so that the prefilter's rounding scales with the frame's spread, not
    with the map's coordinates or a few far outliers. Returns
    (mean, dot_rows (12, n), norm_rows (7, n), single): dot_rows holds the
    lifted q_k b_i (k major) and b; norm_rows holds q, ones, |q|^2, and z
    and z^2 for z = |p| + |mean|, which bounds each point's rounding.
    ``single`` holds the float32 level's operands, dot_rows and the rows q,
    ones, |q|^2 and |q|, each rounded to float32; it is None when a
    coordinate is not finite or |q| or |mean| passes ``_SINGLE_RANGE``.
    """
    n = len(pts)
    mean = np.median(pts, axis=0)
    q = pts - mean
    dot_rows = np.empty((12, n))
    np.multiply(q.T[:, None], brs.T[None], out=dot_rows[:9].reshape(3, 3, n))
    dot_rows[9:] = brs.T
    qq = np.sum(q * q, axis=1)
    z = np.sqrt(np.sum(pts * pts, axis=1)) + math.sqrt(mean @ mean)
    norm_rows = np.stack([*q.T, np.ones(n), qq, z, z * z])
    single = None
    if np.max(np.r_[qq, mean @ mean]) <= _SINGLE_RANGE[1] ** 2:  # False for NaN
        rows = np.empty((6, n), dtype=np.float32)
        rows[:5], rows[5] = norm_rows[:5], np.sqrt(qq)
        single = (dot_rows.astype(np.float32), rows)
    return mean, dot_rows, norm_rows, single


def _prefilter_bounds(rot, t, lift, threshold_deg, single=False):
    """Upper bounds on the inlier count of each pose in a stack.

    Two GEMMs over the lifted points keep a (pose, point) pair only if it
    may lie within the threshold; a pose's bound is its number of kept
    pairs. The prefilter never drops a pair whose exact residual
    (:func:`_residuals`) is below ``threshold_deg``, so the bound is never
    below the exact inlier count. In float64 (the default) the slack sigma
    is in world scale and tight; with ``single`` the GEMMs run on float32
    operands, at half the memory traffic, with a camera-centred slack.

    Why, with u = 2**-53, g = p R + t the camera-frame point in exact
    arithmetic and G its rounded value in _residuals. For a pose and a
    point p, let s = 1 + dev bound the norm of R (dev >= |R R^T - I|), z =
    |p| + |mean| >= |p|, |mean|, |q|, T = |t|, and let t_c = mean R + t
    (rounded) be the translation for centred points, g' = q R + t_c and
    span = s z + |t_c| >= |g'|.
      1. |G - g| <= sqrt(3) * gamma_4 * (s z + T) <= E1 = 8u (s z + T),
         which also bounds the rounding of t_c.
      2. res = degrees(arctan2(|G x b|, G . b)) < theta means the angle
         between G and b is below theta1 = theta (1 + 4u) + 8u (radians):
         the cross and dot products are off by at most 6.2u |G| |b|, and
         arctan2 and the degree conversion by a few ulps.
      3. Then g . b >= |b| (cos(theta1) |g| - 2 E1).
      4. |g' - g| <= e1 = u s z + E1 (rounding of q and t_c), so g' . b >=
         |b| (cos(theta1) |g| - e64) with e64 = 3 E1 + u s z. The dot GEMM
         returns d = g' . b within 32u span. So with a = |b| cos(theta1) |g|
         and eta = 3 E1 + 33u span, d >= a - eta, which gives
         d |d| >= a^2 - 2 a eta - eta^2 >= a^2 - eta (2 span + 3 eta)
         (x |x| is increasing, so this holds for a < eta too).
      5. The norm GEMM returns m ~ kappa |g'|^2 - sigma, using
         |q R|^2 = |q|^2 within dev z^2 and other rounding within 21u
         span^2. Also |g|^2 >= |g'|^2 - 2 span (u span + E1). With
         sigma >= 2 ((dev + 32u) span^2 + 2 span (u span + E1)
                     + eta (2 span + 3 eta))
         and kappa = (1 - M) cos^2(theta (1 + M) + M) <= (1 - 6u) cos^2(theta1)
         (M = _PREFILTER_MARGIN >> u; 1 - 6u bounds |b|^2 from below, as
         Correspondences normalizes the bearings),
         every pair that _residuals accepts has d |d| >= m.
      6. With L = s z + |t_c| + T: span <= L, E1 <= 8u L and eta <= 57u L,
         so the right side of 5 is at most 2 (dev + 164u + 1e4 u^2) L^2.
         sigma = 2 (dev + 170u) L^2 leaves 12u L^2 for the rounding that
         the norm GEMM's three terms of sigma add (under 4u L^2). It is a
         quadratic in z, which the GEMM takes from the rows z and z^2 of
         each point, so a far point loosens the test of its own pairs only.
    sigma is an absolute bound: it keeps points next to a camera centre,
    whose exact residual is rounding noise. A threshold within M of 90
    degrees keeps every pair.

    The float32 level keeps steps 1-4 up to e64 and adds the rounding of
    the operands and of float32 arithmetic, with v = 2**-24 and Higham's
    gamma_k = k v / (1 - k v) (Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1): a sum of k products is within gamma_k of
    the sum of their absolute values, in any order, with or without FMA.
    Let P = s |q| + |t_c| >= |g'|, |b| <= 1 + 3u, and L as in 6.
      7. The dot GEMM takes R, t_c, b and q_k b_j rounded to float32, each
         within v (v + 2u for q_k b_j, rounded twice), and sums 12
         products within gamma_12. The absolute values of its terms sum to
         at most |b| (sqrt(3) s |q| + |t_c|) (the Frobenius norm of R is at
         most sqrt(3) s), so D is within eta32 = 14.001v (sqrt(3) s |q| +
         |t_c|) |b| of g' . b and, with step 4, D >= a - eta for eta =
         e64 |b| + eta32. So D^2 >= D |D| >= a^2 - 2 a eta - eta^2, and
         the rounded D^2 is within v D^2 <= 1.00001 v P^2 of D^2; the
         comparison is exact. (The test takes D^2, one pass fewer than
         D |D|: it keeps every pair that D |D| keeps.)
      8. The norm GEMM takes its 6 coefficients, 2 kappa R t_c, kappa
         |t_c|^2 - w0, kappa - w2 and -w1, and the rows q, ones, |q|^2 and
         |q|, each rounded to float32: it returns m within 8.0001v of the
         absolute values of its terms, which sum to at most (|q| + s
         |t_c|)^2 + sigma for the slack sigma = w2 |q|^2 + w1 |q| + w0.
         kappa |q|^2 is kappa |q R|^2 within dev |q|^2.
      9. With a <= (1 + 3u)(P + e1), |g|^2 >= |g'|^2 - 2 P e1, and P <=
         (1 + u) L, the terms of 7 and 8 add up to at most
         v s^2 (57.52 |q|^2 + 94.52 |q| |t_c| + 37.02 |t_c|^2) + dev |q|^2
         + 68.03u L^2 + 8.0001v sigma, and L <= s (1 + 2u) |q| + C for C
         = 2 s |mean| + |t_c| + T. So
           w2 = 58 v s^2 + 2 dev + 72u s^2 (1 + 2u)^2,
           w1 = 95 v s^2 |t_c| + 144u s (1 + 2u) C,
           w0 = 38 v s^2 |t_c|^2 + 72u C^2
         cover them, and every pair that _residuals accepts is kept. The
         v terms are a quadratic in |q| + |t_c|, the distances of the
         point from the frame's mean and of the mean from the camera, so
         a far point loosens only its own pairs, as in 6.
     10. The float32 bound holds only while no value overflows and none
         underflows enough to matter. A pose takes the float64 bound
         instead unless |t_c| lies in _SINGLE_RANGE, T is below its top
         and dev below _SINGLE_DEV, and a call whose coordinates pass the
         range or are not finite takes it for every pose (_lift_points).
         Then every float32 value is below 2**120, and an underflow
         (an operand or a result below 2**-126) adds at most 2**-150 per
         operation, times at most |t_c| or s for an operand. That moves D
         by eps < 2**-92 and m by less than 2**-145, so D^2 by under
         3 P eps < 2**-90 P. The v terms of w0, w1 and w2 exceed what 9
         needs by over 0.35 v P^2 >= 2**-46 P (P >= |t_c| >= 2**-20),
         which covers both. Fallback poses keep the float64 bound. A
         NaN compares false, which keeps its pair.

    The per-pose terms are computed once for the stack; the GEMMs run on
    blocks of at most ``_SCORE_PAIRS`` pairs, and every pose's arithmetic
    is independent of the others in its block.
    """
    mean, dot_rows, norm_rows, rows32 = lift
    h, n = rot.shape[0], dot_rows.shape[1]
    theta = math.radians(threshold_deg) * (1 + _PREFILTER_MARGIN) + _PREFILTER_MARGIN
    if theta >= math.pi / 2:
        return np.full(h, n, dtype=np.int64)
    t_c = np.matmul(mean, rot) + t
    t_c_norm = np.sqrt(np.sum(t_c * t_c, axis=1))
    t_norm = np.sqrt(np.sum(t * t, axis=1))
    drift = np.linalg.norm(np.matmul(rot, np.swapaxes(rot, 1, 2)) - np.eye(3), axis=(1, 2))
    dev = drift + 16 * _U * (1.0 + drift)
    s = 1.0 + dev
    kappa = (1 - _PREFILTER_MARGIN) * math.cos(theta) ** 2
    r_tc = np.matmul(rot, t_c[:, :, None])[:, :, 0]
    if single and rows32 is None:
        return _prefilter_bounds(rot, t, lift, threshold_deg)
    if single:
        low, high = _SINGLE_RANGE
        fits = (t_c_norm >= low) & (t_c_norm <= high) & (t_norm <= high) & (dev <= _SINGLE_DEV)
        if not fits.all():
            bounds = np.empty(h, dtype=np.int64)
            bounds[~fits] = _prefilter_bounds(rot[~fits], t[~fits], lift, threshold_deg)
            if fits.any():
                bounds[fits] = _prefilter_bounds(rot[fits], t[fits], lift, threshold_deg, True)
            return bounds
        far = 2 * s * math.sqrt(mean @ mean) + t_c_norm + t_norm
        s1 = s * (1 + 2 * _U)
        w2 = 58 * _U32 * s * s + 2 * dev + 72 * _U * s1 * s1
        w1 = 95 * _U32 * s * s * t_c_norm + 144 * _U * s1 * far
        w0 = 38 * _U32 * s * s * t_c_norm ** 2 + 72 * _U * far * far
        norm_coef = np.column_stack([2 * kappa * r_tc, kappa * t_c_norm ** 2 - w0,
                                     kappa - w2, -w1]).astype(np.float32)
        dot_rows, norm_rows = rows32
    else:
        # sigma = k (s z + c)^2 for each pair, as coefficients of 1, z and z^2
        c = t_c_norm + t_norm
        k = 2 * (dev + 170 * _U)
        norm_coef = np.column_stack([2 * kappa * r_tc, kappa * t_c_norm ** 2 - k * c * c,
                                     np.full(h, kappa), -2 * k * s * c, -k * s * s])
    dtype = norm_coef.dtype
    dot_coef = np.concatenate([rot.reshape(h, 9), t_c], axis=1).astype(dtype)

    bounds = np.empty(h, dtype=np.int64)
    rows = max(1, min(h, _SCORE_PAIRS // n))
    # one set of block buffers per stack, so the blocks allocate nothing
    dot, dot_sq, norm = np.empty((3, rows, n), dtype=dtype)
    drop = np.empty((rows, n), dtype=np.bool_)
    for lo in range(0, h, rows):
        r = min(rows, h - lo)
        np.matmul(dot_coef[lo:lo + r], dot_rows, out=dot[:r])
        np.matmul(norm_coef[lo:lo + r], norm_rows, out=norm[:r])
        if single:  # D^2 >= m keeps every pair that D |D| >= m keeps
            sq = np.multiply(dot[:r], dot[:r], out=dot[:r])
        else:
            sq = np.multiply(dot[:r], np.abs(dot[:r], out=dot_sq[:r]), out=dot_sq[:r])
        np.less(sq, norm[:r], out=drop[:r])
        # summing the bytes as uint32 counts twice as fast as count_nonzero
        bounds[lo:lo + r] = n - drop[:r].view(np.uint8).sum(axis=1, dtype=np.uint32)
    return bounds


def _exact_scores(rot, t, pts, brs, threshold_deg):
    """(residuals, counts, sums) of a stack of poses over every point.

    ``counts`` holds each pose's number of residuals below ``threshold_deg``
    and ``sums`` their sum, added in point order.
    """
    res = _residuals(rot, t, pts, brs)
    inl = res < threshold_deg
    # cumsum adds in point order; the zeros of outliers leave it unchanged
    sums = np.cumsum(np.where(inl, res, 0.0), axis=1)[:, -1]
    return res, np.count_nonzero(inl, axis=1), sums


def _exact_pass(bounds, rot, t, pts, brs, threshold_deg, rebound):
    """The best of a stack of poses by exact score, visiting only those that
    can still win.

    ``bounds`` are upper bounds on the poses' inlier counts, and
    ``rebound`` maps an index array to tighter bounds of those poses (the
    float64 level of the cascade). Each pose is re-bounded before it is
    scored, by decreasing bound, a block of ``_SCORE_PAIRS`` pairs' worth
    of poses at a time, and only while its bound can still reach the best
    count; once no pose left can beat that count, the rest go in one call.
    Re-bounded poses are visited by decreasing bound (ties by lower
    index), the first alone and then a block at a time, and scored by
    :func:`_exact_scores`; a block not yet re-bounded goes first whenever
    the largest bound in it exceeds that of every re-bounded pose waiting.
    The best has the most inliers, then the lower mean inlier residual,
    then the lower index. A pose whose bound is below the best inlier
    count found so far cannot win, and neither can any pose after it, so
    the visit stops there. Returns (counts, sums, best, residuals): counts
    is -1 for poses not visited; best is -1 and residuals None when no
    pose has an inlier.
    """
    h = len(bounds)
    bounds = np.array(bounds, dtype=np.int64)
    block = max(1, _SCORE_PAIRS // pts.shape[0])
    order = np.argsort(-bounds, kind="stable")
    # order[pos:] is not re-bounded yet; pending is, and waits to be scored,
    # by decreasing bound and then index
    pending, pos = order[:0], 0
    counts = np.full(h, -1, dtype=np.int64)
    sums = np.zeros(h)
    best, best_key, best_res = -1, None, None
    top = 1  # a winner has at least one inlier
    visit = 1  # the largest bound alone first: it usually wins
    while True:
        head = bounds[order[pos]] if pos < h else -1
        lead = bounds[pending[0]] if pending.size else -1
        if max(head, lead) < top:
            break
        if head > lead:
            # once no pose left can beat the best count, the count stays and
            # every pose left must be re-bounded: one call takes them all
            idx = order[pos:pos + (block if best_key is None or head > top else h)]
            pos += idx.size
            idx = idx[bounds[idx] >= top]
            bounds[idx] = np.minimum(bounds[idx], rebound(idx))
            pending = np.concatenate([pending, idx])
            pending = pending[np.lexsort((pending, -bounds[pending]))]
            continue
        # the re-bounded poses whose bounds are at least every other's
        k = np.count_nonzero(bounds[pending[:visit]] >= max(head, top))
        idx, pending = pending[:k], pending[k:]
        visit = block
        res, c, s = _exact_scores(rot[idx], t[idx], pts, brs, threshold_deg)
        counts[idx], sums[idx] = c, s
        for j in np.flatnonzero(c >= top):
            key = (-c[j], s[j] / c[j], idx[j])
            if best_key is None or key < best_key:
                best, best_key, best_res, top = int(idx[j]), key, res[j], int(c[j])
    return counts, sums, best, best_res


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def epnp_bearing(corrs: Correspondences) -> Pose:
    """Absolute pose from >= 4 bearing/world-point correspondences, by EPnP;
    from 4 by P3P on each triple, the left-out point picking the candidate
    and the least mean residual the triple (EPnP's Gauss-Newton stops at a
    wrong minimum on about half of the noiseless 4-point sets)."""
    if len(corrs) < 4:
        raise ValueError(f"need at least 4 correspondences, got {len(corrs)}")
    pts, brs = corrs.world_points, corrs.bearings
    if len(corrs) == 4:
        triples = (np.arange(4) + np.arange(4)[:, None]) % 4  # every point picks once
        ok, rot, t = _solve_p3p_batch(pts[triples], brs[triples])
        best = int(np.argmin(np.where(ok, _residuals(rot, t, pts, brs).mean(axis=1), np.inf)))
        ok, rot, t = ok[best], rot[best], t[best]
    else:
        ok, rot, t, _ = _solve_epnp(pts, brs)
    if not ok:
        raise DegenerateConfigError("correspondences are collinear or otherwise degenerate")
    return Pose(rot, t)


def angular_residuals(pose: Pose, corrs: Correspondences) -> np.ndarray:
    """Angle in degrees between each bearing and the predicted direction.

    A world point coinciding with the camera centre has no direction and
    scores 180 degrees (always an outlier).
    """
    return _residuals(pose.rotation, pose.translation, corrs.world_points, corrs.bearings)


def _draw_samples(seed: int, iterations: int, n: int, k: int) -> np.ndarray:
    """(iterations, k) distinct indices in [0, n) from Philox keyed by ``seed``.

    Row i is made from doubles i*k to i*k + k - 1 of one stream, so it
    depends only on (seed, i, k) and a longer run extends a shorter one row
    for row. The j-th index is drawn from the n - j points not yet picked,
    then shifted past the earlier picks in increasing order, so each row is
    uniform over ordered k-subsets.
    """
    u = np.random.Generator(np.random.Philox(key=seed)).random((iterations, k))
    out = np.empty((iterations, k), dtype=np.int64)
    for j in range(k):
        pick = (u[:, j] * (n - j)).astype(np.int64)
        for earlier in np.sort(out[:, :j], axis=1).T:
            pick += pick >= earlier
        out[:, j] = pick
    return out


def ransac_pnp(corrs: Correspondences, cfg: RansacConfig = None) -> PoseEstimate:
    """Robust pose estimate; see module docstring for determinism contract.

    The best model maximizes the inlier count; ties break on lower mean
    inlier residual (summed in point order), then on lower iteration index.
    The bound pass gives every hypothesis an upper bound on its inlier
    count; the exact pass scores hypotheses by decreasing bound and stops at
    the first whose bound is below the best exact count, so it picks the
    same winner as scoring all of them exactly. The winner is then re-solved
    by EPnP over the points within 2, 1.5 and 1 times the threshold in turn,
    each time from the pose kept so far; a refit is kept only if it has at
    least as many inliers as that pose.
    """
    if cfg is None:
        cfg = RansacConfig()
    n = len(corrs)
    if n < _SAMPLE_SIZE:
        raise ValueError(f"need at least {_SAMPLE_SIZE} correspondences, got {n}")

    pts = corrs.world_points
    brs = corrs.bearings
    samples = _draw_samples(cfg.seed, cfg.iterations, n, _SAMPLE_SIZE)

    lift = _lift_points(pts, brs)
    bounds = np.zeros(cfg.iterations, dtype=np.int64)
    rots = np.zeros((cfg.iterations, 3, 3))
    ts = np.zeros((cfg.iterations, 3))
    for lo in range(0, cfg.iterations, _HYPOTHESIS_CHUNK):
        hi = min(lo + _HYPOTHESIS_CHUNK, cfg.iterations)
        idx = samples[lo:hi]
        ok, rot, t = _solve_p3p_batch(pts[idx], brs[idx])
        # samples without a pose keep a zero bound: their zero pose would
        # pass every pair through the prefilter
        bounds[lo:hi][ok] = _prefilter_bounds(rot[ok], t[ok], lift, cfg.inlier_threshold_deg,
                                              single=True)
        rots[lo:hi] = rot
        ts[lo:hi] = t

    def rebound(idx):
        return _prefilter_bounds(rots[idx], ts[idx], lift, cfg.inlier_threshold_deg)

    _, _, best_it, res = _exact_pass(bounds, rots, ts, pts, brs, cfg.inlier_threshold_deg,
                                     rebound)
    best_effort = None
    if best_it >= 0:
        inliers = np.flatnonzero(res < cfg.inlier_threshold_deg)
        best_effort = PoseEstimate(Pose(rots[best_it], ts[best_it]), inliers,
                                   float(res[inliers].mean()))

    if best_effort is None or inliers.size < _SAMPLE_SIZE + 1:
        raise NoConsensusError(
            f"no model with more than {_SAMPLE_SIZE} inliers after {cfg.iterations} iterations",
            estimate=best_effort)

    # LO-RANSAC (Chum et al., DAGM 2003; Lebeda et al., BMVC 2012): a refit is
    # kept only if it loses no inliers at the real threshold
    estimate = best_effort
    for widen in _REFIT_WIDENING:
        near = np.flatnonzero(res < widen * cfg.inlier_threshold_deg)
        try:  # fewer than 4 points, or degenerate ones
            refit = epnp_bearing(corrs.subset(near))
        except ValueError:
            continue
        refit_res = angular_residuals(refit, corrs)
        inliers = np.flatnonzero(refit_res < cfg.inlier_threshold_deg)
        if inliers.size >= estimate.inlier_indices.size:
            res = refit_res
            estimate = PoseEstimate(refit, inliers, float(res[inliers].mean()))
    return estimate
