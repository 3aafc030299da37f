"""Trajectory I/O (TUM format), Umeyama alignment, and ATE RMSE.

Monocular evaluation aligns with scale (Sim(3)) by default; pass
with_scale=False for rigid SE(3) alignment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose


@dataclass
class Trajectory:
    timestamps: np.ndarray   # strictly increasing, seconds
    poses: list              # Pose (camera-from-world)

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        if len(self.timestamps) != len(self.poses):
            raise ValueError("timestamp/pose count mismatch")
        if np.any(np.diff(self.timestamps) <= 0):
            raise ValueError("non-monotonic timestamps")

    def positions(self) -> np.ndarray:
        """Camera centers in the world frame, (n, 3)."""
        return np.array([p.camera_center() for p in self.poses])


def _normalized(q) -> list:
    """`q` divided by sqrt(q0² + q1² + q2² + q3²), summed in that order."""
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    return [v / n for v in q]


def _matrix_from_quat(q) -> np.ndarray:
    """Rotation matrix of quaternion `q` = [x, y, z, w] (normalized first),
    bit for bit scipy's `Rotation.from_quat(q).as_matrix()`."""
    x, y, z, w = _normalized(q.tolist())
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array([[x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
                     [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
                     [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2]])


def _quat_from_matrix(m) -> list:
    """Unit quaternion [x, y, z, w] of rotation matrix `m` by Shepperd's
    method (J. Guidance and Control 1(3), 1978), bit for bit scipy's
    `Rotation.from_matrix(m).as_quat()`: the branch is the first largest of
    [m00, m11, m22, trace].

    scipy rejects det <= 0, and replaces a matrix whose m mᵀ is not
    `np.isclose` to I (rtol 1e-5, atol 1e-12) by its nearest rotation (SVD)
    before converting. Both raise ValueError here, so a quaternion written
    from a matrix scipy would have changed never differs from scipy's."""
    if np.linalg.det(m) <= 0:
        raise ValueError("rotation matrix has a non-positive determinant")
    if not np.isclose(m @ m.T, np.eye(3), rtol=1e-5, atol=1e-12).all():
        raise ValueError("rotation matrix is not orthonormal to 1e-12")
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m.tolist()
    trace = m00 + m11 + m22
    decision = [m00, m11, m22, trace]
    branch = decision.index(max(decision))
    if branch == 0:
        q = [1 - trace + 2 * m00, m10 + m01, m20 + m02, m21 - m12]
    elif branch == 1:
        q = [m10 + m01, 1 - trace + 2 * m11, m21 + m12, m02 - m20]
    elif branch == 2:
        q = [m20 + m02, m21 + m12, 1 - trace + 2 * m22, m10 - m01]
    else:
        q = [m21 - m12, m02 - m20, m10 - m01, 1 + trace]
    return _normalized(q)


def load_tum(path) -> Trajectory:
    """Each line: `timestamp tx ty tz qx qy qz qw` (world-from-camera)."""
    stamps, poses = [], []
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            parts = raw.split()
            if len(parts) != 8:
                raise ValueError(f"parse error at line {lineno}: "
                                 f"expected 8 fields, got {len(parts)}")
            try:
                vals = [float(p) for p in parts]
            except ValueError as e:
                raise ValueError(f"parse error at line {lineno}: {e}") from None
            if not np.isfinite(vals).all():
                raise ValueError(f"parse error at line {lineno}: non-finite value")
            q = np.array(vals[4:8])
            qn = np.linalg.norm(q)
            if abs(qn - 1.0) > 1e-3:
                raise ValueError(f"parse error at line {lineno}: "
                                 f"quaternion norm {qn:.4f} too far from 1")
            r_wc = _matrix_from_quat(q / qn)
            stamps.append(vals[0])
            poses.append(Pose.from_world_camera(r_wc, vals[1:4]))
    return Trajectory(np.array(stamps), poses)


def save_tum(traj: Trajectory, path) -> None:
    """Write `traj` as TUM lines. A rotation that is not orthonormal to
    1e-12 (see `_quat_from_matrix`) raises ValueError before `path` is
    opened."""
    lines = []
    for ts, pose in zip(traj.timestamps, traj.poses):
        c = pose.camera_center()
        q = _quat_from_matrix(pose.r_wc)
        fields = [ts, c[0], c[1], c[2], q[0], q[1], q[2], q[3]]
        lines.append(" ".join(repr(float(v)) for v in fields) + "\n")
    with open(path, "w") as f:
        f.writelines(lines)


def _associate(est: Trajectory, ref: Trajectory):
    """Exact-timestamp association (simulated data shares one clock)."""
    ref_idx = {float(t): i for i, t in enumerate(ref.timestamps)}
    pairs = [(i, ref_idx[float(t)]) for i, t in enumerate(est.timestamps)
             if float(t) in ref_idx]
    return pairs


def umeyama_align(est: Trajectory, ref: Trajectory,
                  with_scale: bool = True) -> dict:
    """Closed-form similarity minimizing sum ||s R p_est + t - p_ref||^2."""
    pairs = _associate(est, ref)
    if len(pairs) < 3:
        raise ValueError("insufficient pairs: need >= 3 associated poses")
    P = est.positions()[[i for i, _ in pairs]]
    Q = ref.positions()[[j for _, j in pairs]]
    mu_p, mu_q = P.mean(axis=0), Q.mean(axis=0)
    Pc, Qc = P - mu_p, Q - mu_q
    cov = Qc.T @ Pc / len(P)
    U, D, Vt = np.linalg.svd(cov)
    if D[1] < 1e-12 * max(D[0], 1e-300):
        raise ValueError("degenerate geometry: positions are collinear")
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    if with_scale:
        var_p = (Pc**2).sum() / len(P)
        s = float(np.trace(np.diag(D) @ S) / var_p)
    else:
        s = 1.0
    t = mu_q - s * R @ mu_p
    return {"s": s, "R": R, "t": t}


def ate_rmse(est: Trajectory, ref: Trajectory,
             with_scale: bool = True, align: bool = True) -> float:
    """RMSE of position residuals (meters), aligned first unless align=False."""
    pairs = _associate(est, ref)
    if not pairs:
        raise ValueError("insufficient pairs: no associated poses")
    P = est.positions()[[i for i, _ in pairs]]
    Q = ref.positions()[[j for _, j in pairs]]
    if align:
        a = umeyama_align(est, ref, with_scale=with_scale)
        P = a["s"] * (a["R"] @ P.T).T + a["t"]
    resid = P - Q
    return float(np.sqrt(np.mean(np.sum(resid**2, axis=1))))
