"""Lie-group and projective geometry primitives.

SE(3) poses (camera-from-world convention), pinhole projection, Plücker
lines, the orthonormal 4-DOF line parameterization, and midpoint /
plane-intersection triangulation.

Projection and triangulation run on stacks, one row per point, line or
(point, camera) pair: `PoseStack` holds the pose-derived arrays of a camera
list, built once per camera, and the stacked functions return a mask of the
rows they accept instead of raising. Their floats are those of the scalar
one-pose, two-view formulas, row for row (Triggs et al., "Bundle
Adjustment — A Modern Synthesis", 2000, evaluate per view in batches).

Row numerics. Every stacked stage (simulation, gating, triangulation, VP
detection, LM retraction) keeps the floats of its per-row formula. Equal to
it bit for bit: `np.vecdot(a, b)` (`a[i] @ b[i]`, one BLAS dot per row),
`row_norms(a)` (`math.sqrt(a[i] @ a[i])`; `np.linalg.norm(a[i])` ravels the
row first, so it may differ on strided rows of over three entries),
`mv(M, v)` (`M[i] @ v[i]` in `M[i]`'s memory layout, or `M @ v[i]`) and
`acos_deg` (libm `acos`). Rounding differently: `np.linalg.norm(axis=...)`,
`einsum`, `np.hypot` and `np.arccos`. Deliberate exception: the graph
kernels and `graph._tangent_bases` keep `np.linalg.norm(axis=1)`, whose
floats the optimized outputs are pinned to.

Block rule. A pass whose scratch arrays would grow with the scene (the track
matcher's same-frame pairs, the VP sampler's attempts, the consensus
columns, the LM scatter's terms) runs in blocks of at most `BLOCK_ELEMS`
entries per array (`block_runs` cuts consecutive items into such blocks):
each float64 array then stays below glibc's default 128 KiB mmap threshold,
so it comes from the heap where a whole-scene array would be a fresh
mapping on every call. A block holds whole items, one item larger than a
block being a block alone, and every per-item float is that of the
unblocked pass.

All types are immutable values; all functions are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Camera-frame depth below which a point counts as behind the camera.
EPS_Z = 1e-6
# Threshold on the image-line (a, b) norm, after unit-normalizing the full
# homogeneous vector, below which the projected line is degenerate.
EPS_IMAGE_LINE = 1e-12
# Parallax below which two-view triangulation rejects a row: the angle between
# a point's two viewing rays, and between a line's two back-projected planes.
MIN_RAY_ANGLE_DEG = 0.05
MIN_PLANE_ANGLE_DEG = 1.0
# Entries per scratch array of a blocked pass (see the block rule):
# 12,000 float64 entries are 96,000 bytes, below 128 KiB.
BLOCK_ELEMS = 12_000


class BehindCameraError(ValueError):
    """Point to project has camera-frame depth <= EPS_Z."""


class DegenerateLineError(ValueError):
    """Projected image line is (numerically) at infinity."""


# The generators of so(3), one per axis: skew(v) = sum_k v[k] * basis[k].
_SKEW_BASIS = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
                        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]).reshape(3, 9)


def skew(v) -> np.ndarray:
    """3x3 skew-symmetric matrix such that skew(v) @ u == cross(v, u).

    A stack of vectors (..., 3) gives a stack of matrices (..., 3, 3).
    """
    v = np.asarray(v, dtype=float)
    return (v @ _SKEW_BASIS).reshape(v.shape + (3,))


def row_norms(a) -> np.ndarray:
    """Euclidean norms (n,) of the rows of a (n, k)."""
    return np.sqrt(np.vecdot(a, a))


def block_runs(sizes) -> list[tuple[int, int]]:
    """Runs [a, b) of consecutive items, in order, whose `sizes` sum to at
    most `BLOCK_ELEMS`; an item larger than that is a run of its own."""
    ends = np.cumsum(sizes)
    runs, a = [], 0
    while a < len(ends):
        base = int(ends[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(ends, base + BLOCK_ELEMS, side="right")))
        runs.append((a, b))
        a = b
    return runs


def mv(M, v) -> np.ndarray:
    """Matrix-vector products (n, i) of a stack (n, i, j) or one matrix
    (i, j) with the rows of v (n, j)."""
    return (M @ v[:, :, None])[:, :, 0]


def acos_deg(c) -> np.ndarray:
    """Degrees of `math.acos` of each entry of c, clipped to [0, 1] first
    (a NaN stays NaN)."""
    return np.array([math.degrees(math.acos(x)) for x in np.clip(c, 0.0, 1.0).tolist()])


# ---------------------------------------------------------------------------
# SO(3) / SE(3)
# ---------------------------------------------------------------------------

def exp_stack(w, with_v: bool):
    """Rodrigues' formula on axis-angle rows w (N, 3) and, with `with_v`, the
    SE(3) left Jacobian V (else None), each with its second-order series
    below |w| = 1e-10 (rotation) and 1e-8 (V), which keeps the rotation
    orthonormal to machine precision near zero. Row for row these are the
    floats of the per-vector formulas that the tests keep as oracles
    (`float_power` is the scalar `**`)."""
    theta = row_norms(w)
    W = skew(w)
    WW = W @ W
    sin, cos = np.sin(theta), np.cos(theta)
    series = theta < 1e-10
    th = np.where(series, 1.0, theta)
    A = np.where(series, 1.0, sin / th)
    B = np.where(series, 0.5, (1.0 - cos) / np.float_power(th, 2.0))
    R = np.eye(3) + A[:, None, None] * W + B[:, None, None] * WW
    if not with_v:
        return R, None
    series = theta < 1e-8
    th = np.where(series, 1.0, theta)
    B = np.where(series, 0.5, (1.0 - cos) / np.float_power(th, 2.0))
    C = (th - sin) / np.float_power(th, 3.0)
    CWW = np.where(series[:, None, None], WW / 6.0, C[:, None, None] * WW)
    return R, np.eye(3) + B[:, None, None] * W + CWW


def so3_exp(w) -> np.ndarray:
    """Rodrigues formula. w holds axis-angle 3-vectors (..., 3) (radians);
    returns their rotations (..., 3, 3)."""
    w = np.asarray(w, dtype=float)
    return exp_stack(w.reshape(-1, 3), False)[0].reshape(w.shape[:-1] + (3, 3))


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics (no distortion)."""
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("fx", "fy"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    def matrix(self) -> np.ndarray:
        return np.array([[self.fx, 0.0, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])

    def inverse_matrix(self) -> np.ndarray:
        return np.array([[1.0 / self.fx, 0.0, -self.cx / self.fx],
                         [0.0, 1.0 / self.fy, -self.cy / self.fy],
                         [0.0, 0.0, 1.0]])

    def line_projection_matrix(self) -> np.ndarray:
        """K_L mapping a camera-frame Plücker normal to a homogeneous image line."""
        return np.array([
            [self.fy, 0.0, 0.0],
            [0.0, self.fx, 0.0],
            [-self.fy * self.cx, -self.fx * self.cy, self.fx * self.fy],
        ])


@dataclass(frozen=True)
class Pose:
    """Camera-from-world rigid transform: x_c = rotation @ x_w + translation."""
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        err = np.abs(R @ R.T - np.eye(3)).max()
        if not (err <= 1e-6 and np.linalg.det(R) >= 0):  # NaN fails both
            raise ValueError("rotation is not orthonormal with det +1")
        if not np.isfinite(t).all():
            raise ValueError("translation is not finite")
        R.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def from_world_camera(cls, r_wc, c_w) -> "Pose":
        """Build from the camera's orientation and position in the world."""
        r_wc = np.asarray(r_wc, dtype=float)
        c_w = np.asarray(c_w, dtype=float)
        r_cw = r_wc.T
        return cls(r_cw, -r_cw @ c_w)

    @property
    def r_wc(self) -> np.ndarray:
        return self.rotation.T

    def camera_center(self) -> np.ndarray:
        """Camera position in the world frame."""
        return -self.rotation.T @ self.translation

    def compose(self, other: "Pose") -> "Pose":
        """self ∘ other: apply `other` first, then `self`."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        return Pose(self.rotation.T, -self.rotation.T @ self.translation)


def se3_exp(twist) -> Pose:
    """Exponential map. twist = (rho, theta): translation part first."""
    twist = np.asarray(twist, dtype=float).reshape(6)
    R, V = exp_stack(twist[None, 3:], True)
    return Pose(R[0], V[0] @ twist[:3])


@dataclass(frozen=True, eq=False)
class PoseStack:
    """The pose-derived arrays of n cameras, each built once per camera:
    camera centres, translations, and C copies of each `pose.r_wc`.
    Indexing with integer rows picks cameras, one row per use, by array
    indexing alone.

    BLAS sums a matrix-vector product in the order of the matrix's memory
    layout. Every pose the program stacks comes from `Pose.from_world_camera`,
    whose rotation is the F-ordered transpose of `r_wc`, so `rotate`
    multiplies by the transposed view of the C copy: row for row, `rotate`
    and `to_world` equal `pose.rotation @ v` and `pose.r_wc @ v` bit for bit.
    """
    r_wc: np.ndarray         # (n, 3, 3) C copies of `pose.r_wc`
    translation: np.ndarray  # (n, 3)
    center: np.ndarray       # (n, 3) `pose.camera_center()`

    @classmethod
    def of(cls, poses) -> "PoseStack":
        return cls(np.array([p.r_wc for p in poses]).reshape(-1, 3, 3),
                   np.array([p.translation for p in poses]).reshape(-1, 3),
                   np.array([p.camera_center() for p in poses]).reshape(-1, 3))

    def __len__(self) -> int:
        return len(self.r_wc)

    def __getitem__(self, rows) -> "PoseStack":
        rows = np.asarray(rows, dtype=np.intp)
        return PoseStack(self.r_wc[rows], self.translation[rows], self.center[rows])

    def rotate(self, v) -> np.ndarray:
        """`pose.rotation @ v` per row of `v` ((n, 3) or (n, k, 3))."""
        lead = (slice(None),) + (None,) * (v.ndim - 2)
        return (self.r_wc.transpose(0, 2, 1)[lead] @ v[..., None])[..., 0]

    def transform(self, p_w) -> np.ndarray:
        """Camera coordinates (n, k, 3), `pose.rotation @ p + pose.translation`
        per point, of the same k points (k, 3) in every camera or of k points
        per camera (n, k, 3)."""
        p = np.asarray(p_w, dtype=float)
        return self.rotate(np.broadcast_to(p, (len(self),) + p.shape[-2:])) \
            + self.translation[:, None]

    def to_world(self, v) -> np.ndarray:
        """`pose.r_wc @ v` per row of `v` (n, 3): a camera-frame direction in
        the world."""
        return mv(self.r_wc, v)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def pinhole(p_c, intr: CameraIntrinsics) -> np.ndarray:
    """Pixels (..., 2) of camera-frame points (..., 3)."""
    x, y, z = np.moveaxis(p_c, -1, 0)
    return np.stack([intr.fx * x / z + intr.cx, intr.fy * y / z + intr.cy], axis=-1)


def project_points(p_w, cams: PoseStack, intr: CameraIntrinsics):
    """Pixels of world points in each of n cameras: the same k points
    (k, 3) in every camera, or k points per camera (n, k, 3).

    Returns the mask (n,) of the cameras that see all their k points at depth
    z > EPS_Z, and the pixels (m, k, 2) in those m cameras (camera points
    from `PoseStack.transform`).
    """
    p_c = cams.transform(p_w)
    in_front = ~(p_c[..., 2] <= EPS_Z).any(axis=1)
    return in_front, pinhole(p_c[in_front], intr)


# ---------------------------------------------------------------------------
# Orthonormal line parameterization
# ---------------------------------------------------------------------------

def plucker_to_orthonormal(normals, directions) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal parameterizations (U (n, 3, 3), W (n, 2, 2)) of Plücker
    lines given as normal and direction rows (n, 3): U's columns are n/|n|,
    d/|d| and their cross product, W the rotation [[w1, -w2], [w2, w1]] with
    (w1, w2) = (|n|, |d|) / hypot(|n|, |d|). A line through the origin
    (|n| < 1e-12 |d|) takes for u1 the unit cross product of d/|d| with the
    axis of its smallest entry, and (w1, w2) = (0, 1).

    Row for row the floats of the one-line form: the norms are `row_norms`
    and the hypotenuse `math.hypot` (`np.hypot` may round differently)."""
    n = np.asarray(normals, dtype=float).reshape(-1, 3)
    d = np.asarray(directions, dtype=float).reshape(-1, 3)
    nn, nd = row_norms(n), row_norms(d)
    u2 = d / nd[:, None]
    origin = nn < 1e-12 * nd
    axis = np.eye(3)[np.argmin(np.abs(u2), axis=1)]
    u1 = np.where(origin[:, None], _unit_rows(np.cross(u2, axis)),
                  n / np.where(origin, 1.0, nn)[:, None])
    h = np.array([math.hypot(a, b) for a, b in zip(nn.tolist(), nd.tolist())])
    w1, w2 = np.where(origin, 0.0, nn / h), np.where(origin, 1.0, nd / h)
    U = np.stack([u1, u2, np.cross(u1, u2)], axis=2)
    return U, np.stack([w1, -w2, w2, w1], axis=1).reshape(-1, 2, 2)


# ---------------------------------------------------------------------------
# Triangulation: one row per point or line, every step stacked
# ---------------------------------------------------------------------------
#
# Each row's floats are those of the scalar two-view formulas (see "Row
# numerics" above); 2x2 systems go through stacked `np.linalg.det`/`solve`
# (equal to the one-matrix calls), and every matrix-vector product keeps the
# layout of its scalar form (`PoseStack`; `K.T` stays a transposed view).
# Rejected rows are masked out, never raised.

def _unit_rows(v) -> np.ndarray:
    return v / row_norms(v)[:, None]


def backproject(px, cams: PoseStack, intr: CameraIntrinsics) -> np.ndarray:
    """Unit world directions (n, 3) of the viewing rays through pixels px
    (n, 2), one camera per row; each ray starts at its `cams.center`."""
    h = np.column_stack([px, np.ones(len(px))])
    return _unit_rows(cams.to_world(mv(intr.inverse_matrix(), h)))


def triangulate_points(px_a, px_b, cams_a: PoseStack, cams_b: PoseStack,
                       intr: CameraIntrinsics):
    """Midpoint triangulation of n points, each from its pixels px_a and
    px_b (n, 2) in the cameras of the same row of cams_a and cams_b.

    Returns the mask (n,) of the rows with parallax (camera centres at least
    1e-9 apart, rays at least MIN_RAY_ANGLE_DEG apart) and their points
    (m, 3), each the midpoint of the closest points of the two rays.
    """
    ra, rb = backproject(px_a, cams_a, intr), backproject(px_b, cams_b, intr)
    base, ab = cams_b.center - cams_a.center, np.vecdot(ra, rb)
    ok = ~(row_norms(base) < 1e-9)
    ok &= ~(acos_deg(np.abs(ab)) < MIN_RAY_ANGLE_DEG)
    ca, cb, ra, rb, ab, base = (cams_a.center[ok], cams_b.center[ok], ra[ok], rb[ok],
                                ab[ok], base[ok])
    # the ray parameters (s, t) of the closest points
    A = np.column_stack([np.vecdot(ra, ra), -ab, ab, -np.vecdot(rb, rb)]).reshape(-1, 2, 2)
    b = np.column_stack([np.vecdot(base, ra), np.vecdot(base, rb)])
    st = np.linalg.solve(A, b[..., None])[..., 0]
    return ok, 0.5 * ((ca + st[:, :1] * ra) + (cb + st[:, 1:] * rb))


def backprojected_planes(ends, cams: PoseStack, intr: CameraIntrinsics):
    """Planes a·x + b = 0 through the camera centres and the image segments
    `ends` (n, 4), one camera per row: normals a (n, 3) and offsets b (n,),
    P^T l for the image line l and P = K [R | t]."""
    ones = np.ones(len(ends))
    l_img = np.cross(np.column_stack([ends[:, :2], ones]),
                     np.column_stack([ends[:, 2:], ones]))
    kl = mv(intr.matrix().T, l_img)
    return cams.to_world(kl), np.vecdot(cams.translation, kl)


def triangulate_lines(ends_a, ends_b, cams_a: PoseStack, cams_b: PoseStack,
                      intr: CameraIntrinsics):
    """World lines of n pairs of image segments (n, 4), each seen in the
    cameras of its row of cams_a and cams_b, by back-projected plane
    intersection.

    Returns the mask (n,) of the rows whose planes are at least
    MIN_PLANE_ANGLE_DEG apart, and the Plücker normals and directions
    (m, 3) of their lines.
    """
    na, ba = backprojected_planes(ends_a, cams_a, intr)
    nb, bb = backprojected_planes(ends_b, cams_b, intr)
    c = np.abs(np.vecdot(_unit_rows(na), _unit_rows(nb)))
    ok = ~(acos_deg(c) < MIN_PLANE_ANGLE_DEG)
    na, nb, rhs = na[ok], nb[ok], -np.column_stack([ba, bb])[ok]
    d = np.cross(na, nb)
    # the least-norm point on both planes; lstsq does not stack
    x = np.array([np.linalg.lstsq(np.stack([a, b]), r, rcond=None)[0]
                  for a, b, r in zip(na, nb, rhs)]).reshape(-1, 3)
    return ok, np.cross(x, d), d


def closest_points_on_lines(normal, direction, origin, ray) -> np.ndarray:
    """Points (n, 3) on the Plücker lines (normal, direction) (n, 3) closest
    to the rays from `origin` along `ray` (n, 3). Where a line and its ray
    are parallel (|det| < 1e-12) it is the line's point closest to the world
    origin. Used to recover 3D segment endpoints."""
    p0 = np.cross(direction, normal) / np.vecdot(direction, direction)[:, None]
    d, r = _unit_rows(direction), _unit_rows(ray)
    dr, ones = np.vecdot(d, r), np.ones(len(d))
    # minimize ||p0 + s d - (o + t r)||^2 over (s, t)
    A = np.column_stack([ones, -dr, dr, -ones]).reshape(-1, 2, 2)
    op = origin - p0
    b = np.column_stack([np.vecdot(op, d), np.vecdot(op, r)])
    solvable = ~(np.abs(np.linalg.det(A)) < 1e-12)
    out = p0.copy()
    s = np.linalg.solve(A[solvable], b[solvable, :, None])[:, :1, 0]
    out[solvable] += s * d[solvable]
    return out
