"""Lie-group and projective geometry primitives.

SE(3) poses (camera-from-world convention), pinhole projection, Plücker
lines, the orthonormal 4-DOF line parameterization, and midpoint /
plane-intersection triangulation.

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


class BehindCameraError(ValueError):
    """Point to project has camera-frame depth <= EPS_Z."""


class DegenerateLineError(ValueError):
    """Projected image line is (numerically) at infinity."""


class TriangulationError(ValueError):
    """Insufficient parallax or degenerate two-view configuration."""


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


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def project_points(p_w, poses, intr: CameraIntrinsics):
    """Pixels of world points p_w (k, 3) in each of n cameras.

    Returns the mask (n,) of the cameras that see all k points at depth
    z > EPS_Z, and the pixels (m, k, 2) in those m cameras. Each camera point
    is bit for bit `pose.transform(p)`: BLAS sums a matrix-vector product in
    the order of the matrix's memory layout, so each rotation is multiplied
    in its own layout (a C copy of the F-ordered rotation that
    `Pose.from_world_camera` makes rounds differently).
    """
    p = np.asarray(p_w, dtype=float).reshape(1, -1, 3, 1)
    f_order = np.array([pose.rotation.flags.f_contiguous for pose in poses], dtype=bool)
    r_f = np.array([pose.rotation.T for pose in poses]).reshape(-1, 3, 3).transpose(0, 2, 1)
    r_c = np.array([pose.rotation for pose in poses]).reshape(-1, 3, 3)
    t = np.array([pose.translation for pose in poses]).reshape(-1, 1, 3)
    p_c = np.where(f_order[:, None, None, None], r_f[:, None] @ p,
                   r_c[:, None] @ p)[..., 0] + t
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

    def closest_point_to_origin(self) -> np.ndarray:
        d = self.direction
        return cross3(d, self.normal) / float(d @ d)

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


def rot2(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def orthonormal_update(o: OrthonormalLine, delta) -> OrthonormalLine:
    """Left-multiplicative update: U <- exp([delta_u]x) U, W <- R(delta_phi) W."""
    delta = np.asarray(delta, dtype=float).reshape(4)
    return OrthonormalLine(so3_exp(delta[:3]) @ o.U, rot2(delta[3]) @ o.W)


# ---------------------------------------------------------------------------
# Triangulation
# ---------------------------------------------------------------------------

def _backproject_ray(obs, pose: Pose, intr: CameraIntrinsics):
    """World-frame (origin, unit direction) of the viewing ray through a pixel."""
    v_c = intr.inverse_matrix() @ np.array([obs[0], obs[1], 1.0])
    return pose.camera_center(), _unit(pose.r_wc @ v_c)


def triangulate_point(obs_a, obs_b, pose_a: Pose, pose_b: Pose,
                      intr: CameraIntrinsics,
                      min_ray_angle_deg: float = 0.05) -> np.ndarray:
    """Midpoint triangulation of a point from two pixel observations."""
    ca, ra = _backproject_ray(obs_a, pose_a, intr)
    cb, rb = _backproject_ray(obs_b, pose_b, intr)
    if np.linalg.norm(cb - ca) < 1e-9:
        raise TriangulationError("insufficient parallax: identical camera centers")
    cos_ang = np.clip(abs(float(ra @ rb)), 0.0, 1.0)
    if math.degrees(math.acos(cos_ang)) < min_ray_angle_deg:
        raise TriangulationError("insufficient parallax: rays nearly parallel")
    # Closest points on the two rays: solve for (s, t).
    A = np.array([[ra @ ra, -(ra @ rb)], [ra @ rb, -(rb @ rb)]])
    b = np.array([(cb - ca) @ ra, (cb - ca) @ rb])
    s, t = np.linalg.solve(A, b)
    return 0.5 * ((ca + s * ra) + (cb + t * rb))


def _backprojected_plane(seg, pose: Pose, intr: CameraIntrinsics) -> np.ndarray:
    """Homogeneous plane (a, b) through the camera center and an image segment."""
    ps = np.array([seg.p_start[0], seg.p_start[1], 1.0])
    pe = np.array([seg.p_end[0], seg.p_end[1], 1.0])
    l_img = cross3(ps, pe)
    # plane = P^T l with P = K [R | t]
    K = intr.matrix()
    a = pose.rotation.T @ (K.T @ l_img)
    b = float(pose.translation @ (K.T @ l_img))
    return np.concatenate([a, [b]])


def triangulate_line(seg_a, seg_b, pose_a: Pose, pose_b: Pose,
                     intr: CameraIntrinsics,
                     min_plane_angle_deg: float = 1.0) -> PluckerLine:
    """World line from two image segments via back-projected plane intersection."""
    pa = _backprojected_plane(seg_a, pose_a, intr)
    pb = _backprojected_plane(seg_b, pose_b, intr)
    na, nb = _unit(pa[:3]), _unit(pb[:3])
    cos_ang = np.clip(abs(float(na @ nb)), 0.0, 1.0)
    if math.degrees(math.acos(cos_ang)) < min_plane_angle_deg:
        raise TriangulationError("insufficient parallax: planes nearly parallel")
    d = cross3(pa[:3], pb[:3])
    # Least-norm point satisfying both plane equations a·x + b = 0.
    A = np.vstack([pa[:3], pb[:3]])
    rhs = -np.array([pa[3], pb[3]])
    x, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return PluckerLine(cross3(x, d), d)


def closest_point_on_line_to_ray(line: PluckerLine, origin, direction) -> np.ndarray:
    """Point on `line` closest to the ray (used to recover 3D segment endpoints)."""
    p0 = line.closest_point_to_origin()
    d = line.unit_direction()
    o = np.asarray(origin, dtype=float)
    r = _unit(np.asarray(direction, dtype=float))
    # minimize ||p0 + s d - (o + t r)||^2 over (s, t)
    A = np.array([[1.0, -(d @ r)], [d @ r, -1.0]])
    b = np.array([(o - p0) @ d, (o - p0) @ r])
    det = np.linalg.det(A)
    if abs(det) < 1e-12:
        return p0
    s, _ = np.linalg.solve(A, b)
    return p0 + s * d
