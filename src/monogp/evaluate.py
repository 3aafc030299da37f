"""Trajectory I/O (TUM format), Umeyama alignment, and ATE RMSE.

Monocular evaluation aligns with scale (Sim(3)) by default; pass
with_scale=False for rigid SE(3) alignment.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

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
            r_wc = Rotation.from_quat(q / qn).as_matrix()
            stamps.append(vals[0])
            poses.append(Pose.from_world_camera(r_wc, vals[1:4]))
    return Trajectory(np.array(stamps), poses)


def save_tum(traj: Trajectory, path) -> None:
    with open(path, "w") as f:
        for ts, pose in zip(traj.timestamps, traj.poses):
            c = pose.camera_center()
            q = Rotation.from_matrix(pose.r_wc).as_quat()
            fields = [ts, c[0], c[1], c[2], q[0], q[1], q[2], q[3]]
            f.write(" ".join(repr(float(v)) for v in fields) + "\n")


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
    P = est.positions()[[i for i, _ in pairs]]
    Q = ref.positions()[[j for _, j in pairs]]
    if align:
        a = umeyama_align(est, ref, with_scale=with_scale)
        P = a["s"] * (a["R"] @ P.T).T + a["t"]
    resid = P - Q
    return float(np.sqrt(np.mean(np.sum(resid**2, axis=1))))
