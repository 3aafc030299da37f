"""Reference computations the benchmark checks monogp's outputs against.

Nothing here calls `monogp.evaluate` or `monogp.vanishing`:

- similarity alignment by Horn's closed-form quaternion method (Horn, "Closed-form
  solution of absolute orientation using unit quaternions", JOSA A 1987), with the
  least-squares scale of Umeyama (1991), and the ATE RMSE after it;
- ground-truth vanishing directions from the planted family directions and the
  ground-truth rotations;
- sign-free angles between directions.
"""
from __future__ import annotations

import math

import numpy as np


def camera_centers(poses) -> np.ndarray:
    """World positions of camera-from-world poses, (n, 3): c = -R^T t."""
    return np.array([-(np.asarray(p.rotation).T @ np.asarray(p.translation))
                     for p in poses])


def _quaternion_to_rotation(q) -> np.ndarray:
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ])


def similarity_align(src, dst):
    """(s, R, t) minimizing sum ||s R src_i + t - dst_i||^2.

    The rotation is the eigenvector of Horn's symmetric 4x4 matrix with the
    largest eigenvalue, read as a unit quaternion; the scale is the least-squares
    scale for that rotation.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if len(src) != len(dst) or len(src) < 3:
        raise ValueError("need at least 3 corresponding positions")
    mu_s, mu_d = src.mean(axis=0), dst.mean(axis=0)
    a, b = src - mu_s, dst - mu_d
    (sxx, sxy, sxz), (syx, syy, syz), (szx, szy, szz) = a.T @ b
    n = np.array([
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz],
    ])
    _, vecs = np.linalg.eigh(n)
    r = _quaternion_to_rotation(vecs[:, -1])
    s = float(np.sum(b * (a @ r.T)) / np.sum(a * a))
    t = mu_d - s * r @ mu_s
    return s, r, t


def ate_rmse(est_positions, ref_positions) -> float:
    """RMSE in metres of the positions after similarity alignment."""
    s, r, t = similarity_align(est_positions, ref_positions)
    resid = s * np.asarray(est_positions) @ r.T + t - np.asarray(ref_positions)
    return float(np.sqrt(np.mean(np.sum(resid ** 2, axis=1))))


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def axis_angle_deg(u, v) -> float:
    """Angle in degrees between the lines along u and v (sign-free, in [0, 90])."""
    u, v = unit(u), unit(v)
    return math.degrees(math.atan2(np.linalg.norm(np.cross(u, v)), abs(float(u @ v))))


def nearest_angles_deg(targets, candidates) -> list[float]:
    """For each target direction, the angle to its nearest candidate (180 if none)."""
    return [min((axis_angle_deg(t, c) for c in candidates), default=180.0)
            for t in targets]


def camera_directions(vps, fx, fy, cx, cy) -> list[np.ndarray]:
    """Unit camera-frame directions of homogeneous image vanishing points."""
    k = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    return [unit(np.linalg.solve(k, np.asarray(v, dtype=float))) for v in vps]


def planted_camera_directions(family_directions, r_cw) -> list[np.ndarray]:
    """Ground-truth vanishing directions of the planted families in one camera."""
    return [np.asarray(r_cw) @ unit(d) for d in family_directions]
