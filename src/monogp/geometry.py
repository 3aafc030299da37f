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

All types are immutable values; all functions are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .segments import acos_deg, row_norms, rowdot

# Camera-frame depth below which a point counts as behind the camera.
EPS_Z = 1e-6
# Threshold on the image-line (a, b) norm, after unit-normalizing the full
# homogeneous vector, below which the projected line is degenerate.
EPS_IMAGE_LINE = 1e-12
# Parallax below which two-view triangulation rejects a row: the angle between
# a point's two viewing rays, and between a line's two back-projected planes.
MIN_RAY_ANGLE_DEG = 0.05
MIN_PLANE_ANGLE_DEG = 1.0


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


def cross3(a, b) -> np.ndarray:
    """Cross product of two 3-vectors (much faster than np.cross here)."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize zero vector")
    return v / n


# ---------------------------------------------------------------------------
# SO(3) / SE(3)
# ---------------------------------------------------------------------------

def so3_exp(w) -> np.ndarray:
    """Rodrigues formula. w is an axis-angle 3-vector (radians)."""
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w)
    W = skew(w)
    if theta < 1e-10:
        # Second-order series keeps the result orthonormal to machine
        # precision near zero.
        return np.eye(3) + W + 0.5 * (W @ W)
    A = math.sin(theta) / theta
    B = (1.0 - math.cos(theta)) / theta**2
    return np.eye(3) + A * W + B * (W @ W)


def _left_jacobian_V(w: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(w)
    W = skew(w)
    if theta < 1e-8:
        return np.eye(3) + 0.5 * W + (W @ W) / 6.0
    B = (1.0 - math.cos(theta)) / theta**2
    C = (theta - math.sin(theta)) / theta**3
    return np.eye(3) + B * W + C * (W @ W)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics (no distortion)."""
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

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
        if err > 1e-6 or np.linalg.det(R) < 0:
            raise ValueError("rotation is not orthonormal with det +1")
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

    def transform(self, p_w) -> np.ndarray:
        """Camera coordinates of a world point (3,) or of stacked points (k, 3).

        Each point is one matrix-vector product with the rotation in its own
        memory layout (BLAS sums in the layout's order), so a stacked call
        equals one call per point bit for bit.
        """
        p = np.asarray(p_w, dtype=float)
        return (self.rotation @ p[..., None])[..., 0] + self.translation

    def compose(self, other: "Pose") -> "Pose":
        """self ∘ other: apply `other` first, then `self`."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        return Pose(self.rotation.T, -self.rotation.T @ self.translation)

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.translation
        return T


def se3_exp(twist) -> Pose:
    """Exponential map. twist = (rho, theta): translation part first."""
    twist = np.asarray(twist, dtype=float).reshape(6)
    rho, theta = twist[:3], twist[3:]
    R = so3_exp(theta)
    t = _left_jacobian_V(theta) @ rho
    return Pose(R, t)


@dataclass(frozen=True, eq=False)
class PoseStack:
    """The pose-derived arrays of n cameras, each built once per camera:
    camera centres, translations, and C copies of each rotation and of its
    transpose. Indexing with integer rows picks cameras, one row per use, by
    array indexing alone.

    BLAS sums a matrix-vector product in the order of the matrix's memory
    layout, and `Pose.from_world_camera` makes F-ordered rotations, so
    `rotate` and `to_world` multiply each row in its pose's own layout
    (`f_order`): row for row they equal `pose.rotation @ v` and
    `pose.r_wc @ v` bit for bit, where a C copy of an F-ordered rotation
    rounds differently.
    """
    f_order: np.ndarray      # (n,) rotation is F-ordered
    rotation: np.ndarray     # (n, 3, 3) C copies of `pose.rotation`
    r_wc: np.ndarray         # (n, 3, 3) C copies of `pose.rotation.T`
    translation: np.ndarray  # (n, 3)
    center: np.ndarray       # (n, 3) `pose.camera_center()`

    @classmethod
    def of(cls, poses) -> "PoseStack":
        return cls(np.array([p.rotation.flags.f_contiguous for p in poses], dtype=bool),
                   np.array([p.rotation for p in poses]).reshape(-1, 3, 3),
                   np.array([p.rotation.T for p in poses]).reshape(-1, 3, 3),
                   np.array([p.translation for p in poses]).reshape(-1, 3),
                   np.array([p.camera_center() for p in poses]).reshape(-1, 3))

    def __len__(self) -> int:
        return len(self.f_order)

    def __getitem__(self, rows) -> "PoseStack":
        rows = np.asarray(rows, dtype=np.intp)
        return PoseStack(self.f_order[rows], self.rotation[rows], self.r_wc[rows],
                         self.translation[rows], self.center[rows])

    def _matvec(self, c_form, f_form, v):
        """Row i of `v` ((n, 3) or (n, k, 3)) times matrix i, in the C or
        the F form as `f_order` says."""
        lead = (slice(None),) + (None,) * (v.ndim - 2)
        f = self.f_order.reshape((-1,) + (1,) * v.ndim)
        v = v[..., None]
        return np.where(f, f_form[lead] @ v, c_form[lead] @ v)[..., 0]

    def rotate(self, v) -> np.ndarray:
        """`pose.rotation @ v` per row."""
        return self._matvec(self.rotation, self.r_wc.transpose(0, 2, 1), v)

    def to_world(self, v) -> np.ndarray:
        """`pose.r_wc @ v` per row: a camera-frame direction in the world."""
        return self._matvec(self.rotation.transpose(0, 2, 1), self.r_wc, v)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def project_points(p_w, cams: PoseStack, intr: CameraIntrinsics):
    """Pixels of world points in each of n cameras: the same k points
    (k, 3) in every camera, or k points per camera (n, k, 3).

    Returns the mask (n,) of the cameras that see all their k points at depth
    z > EPS_Z, and the pixels (m, k, 2) in those m cameras. Each camera point
    is bit for bit `pose.transform(p)` (see `PoseStack`).
    """
    p = np.asarray(p_w, dtype=float)
    p = np.broadcast_to(p, (len(cams),) + p.shape[-2:])
    p_c = cams.rotate(p) + cams.translation[:, None]
    in_front = ~(p_c[..., 2] <= EPS_Z).any(axis=1)
    x, y, z = np.moveaxis(p_c[in_front], -1, 0)
    return in_front, np.stack([intr.fx * x / z + intr.cx,
                               intr.fy * y / z + intr.cy], axis=-1)


# ---------------------------------------------------------------------------
# Plücker lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PluckerLine:
    """3D line as (normal, direction) with n·d = 0. Unnormalized internally;
    comparisons should use canonical_coords()."""
    normal: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(3)
        d = np.asarray(self.direction, dtype=float).reshape(3)
        dn = np.linalg.norm(d)
        if dn == 0.0:
            raise ValueError("line direction must be nonzero")
        scale = max(1.0, np.linalg.norm(n)) * dn
        if abs(float(n @ d)) > 1e-9 * scale:
            raise ValueError("Plücker constraint n·d = 0 violated")
        n.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "direction", d)

    @classmethod
    def from_two_points(cls, p, q) -> "PluckerLine":
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        return cls(cross3(p, q - p), q - p)

    def unit_direction(self) -> np.ndarray:
        return self.direction / np.linalg.norm(self.direction)

    def canonical_coords(self) -> np.ndarray:
        """Unit-norm 6-vector (n, d) with canonical sign, for comparisons."""
        v = np.concatenate([self.normal, self.direction])
        v = v / np.linalg.norm(v)
        k = int(np.argmax(np.abs(v)))
        return v if v[k] >= 0 else -v


# ---------------------------------------------------------------------------
# Orthonormal line parameterization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrthonormalLine:
    """Minimal SO(3) x SO(2) line parameterization (4 DOF updates)."""
    U: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float).reshape(3, 3)
        W = np.asarray(self.W, dtype=float).reshape(2, 2)
        if np.abs(U @ U.T - np.eye(3)).max() > 1e-6:
            raise ValueError("U is not orthonormal")
        if np.abs(W @ W.T - np.eye(2)).max() > 1e-6:
            raise ValueError("W is not orthonormal")
        U.setflags(write=False)
        W.setflags(write=False)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "W", W)


def plucker_to_orthonormal(line: PluckerLine) -> OrthonormalLine:
    n, d = line.normal, line.direction
    nn, nd = np.linalg.norm(n), np.linalg.norm(d)
    u2 = d / nd
    if nn < 1e-12 * nd:
        # Line through the origin: any unit vector orthogonal to d works.
        k = int(np.argmin(np.abs(u2)))
        u1 = _unit(cross3(u2, np.eye(3)[k]))
        w1, w2 = 0.0, 1.0
    else:
        u1 = n / nn
        h = math.hypot(nn, nd)
        w1, w2 = nn / h, nd / h
    u3 = cross3(u1, u2)
    U = np.column_stack([u1, u2, u3])
    W = np.array([[w1, -w2], [w2, w1]])
    return OrthonormalLine(U, W)


# ---------------------------------------------------------------------------
# Triangulation: one row per point or line, every step stacked
# ---------------------------------------------------------------------------
#
# Each row's floats are those of the scalar two-view formulas: dot products
# and norms go through `rowdot` and `row_norms`, angles through `acos_deg`,
# 2x2 systems through stacked `np.linalg.det`/`solve` (equal to the one-matrix
# calls), and every matrix-vector product keeps the layout of its scalar form
# (`PoseStack`; `K.T` stays a transposed view). Rejected rows are masked out,
# never raised.

def _cross_rows(a, b) -> np.ndarray:
    """Row-wise `cross3` of (n, 3) rows, C-ordered."""
    return np.ascontiguousarray(cross3(a.T, b.T).T)


def _unit_rows(v) -> np.ndarray:
    return v / row_norms(v)[:, None]


def backproject(px, cams: PoseStack, intr: CameraIntrinsics) -> np.ndarray:
    """Unit world directions (n, 3) of the viewing rays through pixels px
    (n, 2), one camera per row; each ray starts at its `cams.center`."""
    h = np.column_stack([px, np.ones(len(px))])
    return _unit_rows(cams.to_world((intr.inverse_matrix() @ h[:, :, None])[:, :, 0]))


def triangulate_points(px_a, px_b, cams_a: PoseStack, cams_b: PoseStack,
                       intr: CameraIntrinsics):
    """Midpoint triangulation of n points, each from its pixels px_a and
    px_b (n, 2) in the cameras of the same row of cams_a and cams_b.

    Returns the mask (n,) of the rows with parallax (camera centres at least
    1e-9 apart, rays at least MIN_RAY_ANGLE_DEG apart) and their points
    (m, 3), each the midpoint of the closest points of the two rays.
    """
    ra, rb = backproject(px_a, cams_a, intr), backproject(px_b, cams_b, intr)
    base, ab = cams_b.center - cams_a.center, rowdot(ra, rb)
    ok = ~(row_norms(base) < 1e-9)
    ok &= ~(acos_deg(np.clip(np.abs(ab), 0.0, 1.0)) < MIN_RAY_ANGLE_DEG)
    ca, cb, ra, rb, ab, base = (cams_a.center[ok], cams_b.center[ok], ra[ok], rb[ok],
                                ab[ok], base[ok])
    # the ray parameters (s, t) of the closest points
    A = np.column_stack([rowdot(ra, ra), -ab, ab, -rowdot(rb, rb)]).reshape(-1, 2, 2)
    b = np.column_stack([rowdot(base, ra), rowdot(base, rb)])
    st = np.linalg.solve(A, b[..., None])[..., 0]
    return ok, 0.5 * ((ca + st[:, :1] * ra) + (cb + st[:, 1:] * rb))


def backprojected_planes(ends, cams: PoseStack, intr: CameraIntrinsics):
    """Planes a·x + b = 0 through the camera centres and the image segments
    `ends` (n, 4), one camera per row: normals a (n, 3) and offsets b (n,),
    P^T l for the image line l and P = K [R | t]."""
    ones = np.ones(len(ends))
    l_img = _cross_rows(np.column_stack([ends[:, :2], ones]),
                        np.column_stack([ends[:, 2:], ones]))
    kl = (intr.matrix().T @ l_img[:, :, None])[:, :, 0]
    return cams.to_world(kl), rowdot(cams.translation, kl)


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
    c = np.abs(rowdot(_unit_rows(na), _unit_rows(nb)))
    ok = ~(acos_deg(np.clip(c, 0.0, 1.0)) < MIN_PLANE_ANGLE_DEG)
    na, nb, rhs = na[ok], nb[ok], -np.column_stack([ba, bb])[ok]
    d = _cross_rows(na, nb)
    # the least-norm point on both planes; lstsq does not stack
    x = np.array([np.linalg.lstsq(np.stack([a, b]), r, rcond=None)[0]
                  for a, b, r in zip(na, nb, rhs)]).reshape(-1, 3)
    return ok, _cross_rows(x, d), d


def closest_points_on_lines(normal, direction, origin, ray) -> np.ndarray:
    """Points (n, 3) on the Plücker lines (normal, direction) (n, 3) closest
    to the rays from `origin` along `ray` (n, 3). Where a line and its ray
    are parallel (|det| < 1e-12) it is the line's point closest to the world
    origin. Used to recover 3D segment endpoints."""
    p0 = _cross_rows(direction, normal) / rowdot(direction, direction)[:, None]
    d, r = _unit_rows(direction), _unit_rows(ray)
    dr, ones = rowdot(d, r), np.ones(len(d))
    # minimize ||p0 + s d - (o + t r)||^2 over (s, t)
    A = np.column_stack([ones, -dr, dr, -ones]).reshape(-1, 2, 2)
    op = origin - p0
    b = np.column_stack([rowdot(op, d), rowdot(op, r)])
    solvable = ~(np.abs(np.linalg.det(A)) < 1e-12)
    out = p0.copy()
    s = np.linalg.solve(A[solvable], b[solvable, :, None])[:, :1, 0]
    out[solvable] += s * d[solvable]
    return out
