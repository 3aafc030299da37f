"""Vanishing-point detection from 2D segments and lifting to world directions.

Pipeline: random two-segment hypotheses -> J-Linkage preference-set
clustering -> least-squares refinement per cluster -> lifting through the
intrinsics and camera rotation to a unit world-frame vanishing direction.

Vanishing points are kept in spherical normalization (||v|| = 1) so points
at infinity need no special cases.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import cross3, CameraIntrinsics
from .segments import Segment2D, segment_line

DEFAULT_N_HYPOTHESES = 500
DEFAULT_CONSENSUS_DEG = 2.0
DEFAULT_MIN_CLUSTER_SIZE = 3

_EPS_INF = 1e-9


def canonical_direction(d) -> np.ndarray:
    """Unit vector with the largest-magnitude component made positive."""
    d = np.asarray(d, dtype=float)
    d = d / np.linalg.norm(d)
    k = int(np.argmax(np.abs(d)))
    return -d if d[k] < 0 else d


@dataclass
class VanishingPointEstimate:
    """A refined VP: spherically normalized homogeneous image point."""
    vp_homogeneous: np.ndarray
    member_segment_ids: frozenset
    residual_rms: float  # consensus angle, degrees


def sample_vp_hypotheses(segments: list[Segment2D], m: int,
                         rng_seed: int) -> list[np.ndarray]:
    """m VP hypotheses from random pairs of distinct segments, seeded."""
    if len(segments) < 2:
        raise ValueError("too few segments: need at least 2")
    rng = np.random.default_rng(rng_seed)
    lines = [segment_line(s) for s in segments]
    hypotheses = []
    attempts = 0
    while len(hypotheses) < m and attempts < 50 * m:
        attempts += 1
        i, j = rng.choice(len(segments), size=2, replace=False)
        v = cross3(lines[i], lines[j])
        n = np.linalg.norm(v)
        if n < 1e-12:
            continue  # numerically identical lines
        hypotheses.append(v / n)
    return hypotheses


def consensus(seg: Segment2D, vp) -> float:
    """Angle (degrees) between the segment direction and the midpoint-to-VP ray.

    VPs at infinity (|v_w| < 1e-9) use the direction (v_x, v_y). Range [0, 90].
    """
    vp = np.asarray(vp, dtype=float)
    if abs(vp[2]) < _EPS_INF:
        to_vp = vp[:2]
    else:
        to_vp = vp[:2] / vp[2] - seg.midpoint
        if np.linalg.norm(to_vp) < 1e-9:
            raise ValueError("vp at segment midpoint")
    u = seg.direction
    dot = abs(float(u @ to_vp))
    cross = abs(float(u[0] * to_vp[1] - u[1] * to_vp[0]))
    # atan2 keeps full precision for tiny angles (acos saturates near 1)
    return math.degrees(math.atan2(cross, dot))


def _consensus_matrix(segments, hypotheses) -> np.ndarray:
    """(n_segments, n_hypotheses) matrix of consensus angles in degrees."""
    mids = np.array([s.midpoint for s in segments])            # (n, 2)
    dirs = np.array([s.direction for s in segments])           # (n, 2)
    H = np.asarray(hypotheses, dtype=float)                    # (m, 3)
    finite = np.abs(H[:, 2]) >= _EPS_INF
    to_vp = np.broadcast_to(H[None, :, :2], (len(segments), len(H), 2)).copy()
    if finite.any():
        px = H[finite, :2] / H[finite, 2:3]                    # (mf, 2)
        to_vp[:, finite, :] = px[None, :, :] - mids[:, None, :]
    norms = np.linalg.norm(to_vp, axis=2)
    norms = np.where(norms < 1e-9, np.nan, norms)
    dot = np.abs(np.einsum("nd,nmd->nm", dirs, to_vp))
    cross = np.abs(dirs[:, None, 0] * to_vp[:, :, 1]
                   - dirs[:, None, 1] * to_vp[:, :, 0])
    ang = np.degrees(np.arctan2(cross, dot))
    return np.where(np.isnan(norms), 90.0, ang)


def jlinkage_cluster(segments: list[Segment2D], hypotheses,
                     theta_cons_deg: float = DEFAULT_CONSENSUS_DEG,
                     min_cluster_size: int = DEFAULT_MIN_CLUSTER_SIZE,
                     ) -> list[frozenset]:
    """J-Linkage clustering of segments by VP hypothesis preference sets.

    Agglomerative merging by minimum Jaccard distance of cluster preference
    sets (intersection of member preferences), stopping when the minimum
    distance reaches 1. Clusters smaller than min_cluster_size are dropped.
    Returns disjoint frozensets of segment ids.

    The distance matrix is built once. A merge of j into i changes only
    cluster i's preference set, so only row/column i is recomputed, from
    one (n, m) @ (m,) product of exact integer counts; j's row and column
    become +inf. Arrays keep their size, so indices keep the input order.
    """
    if not segments or len(hypotheses) == 0:
        raise ValueError("need non-empty segments and hypotheses")
    pref = _consensus_matrix(segments, hypotheses) < theta_cons_deg  # (n, m)

    members = [frozenset([s.id]) for s in segments]
    P = pref.astype(np.float64)
    sizes = P.sum(axis=1)
    # min id per cluster gives order-independent tie-breaking
    keys = [min(m) for m in members]
    alive = np.ones(len(members), dtype=bool)

    def jaccard(inter, size):
        union = sizes + size - inter
        with np.errstate(invalid="ignore", divide="ignore"):
            d = 1.0 - inter / union
        d[union == 0] = 1.0
        return d

    dist = jaccard(P @ P.T, sizes[:, None])
    np.fill_diagonal(dist, np.inf)

    while True:
        dmin = dist.min()
        if dmin >= 1.0 - 1e-12:  # also a lone cluster: everything is +inf
            break
        # Among ties, merge the pair with lexicographically smallest keys.
        rows, cols = np.divmod(np.flatnonzero(dist <= dmin + 1e-15), len(members))
        ties = [(int(i), int(j)) for i, j in zip(rows, cols) if i < j]
        i, j = min(ties, key=lambda ij: tuple(sorted((keys[ij[0]], keys[ij[1]]))))
        members[i] = members[i] | members[j]
        P[i] = P[i] * P[j]  # preference-set intersection
        sizes[i] = P[i].sum()
        keys[i] = min(keys[i], keys[j])
        alive[j] = False
        row = jaccard(P @ P[i], sizes[i])
        row[~alive] = np.inf
        row[i] = np.inf
        dist[i, :] = row
        dist[:, i] = row
        dist[j, :] = np.inf
        dist[:, j] = np.inf

    clusters = [m for m, a in zip(members, alive) if a and len(m) >= min_cluster_size]
    clusters.sort(key=lambda c: (-len(c), min(c)))
    return clusters


def refine_vp(cluster_segments: list[Segment2D]) -> VanishingPointEstimate:
    """Least-squares VP of a cluster: smallest singular vector of stacked lines."""
    if len(cluster_segments) < 2:
        raise ValueError("cluster must contain at least 2 segments")
    # Condition the system: shift/scale pixel coordinates before the SVD.
    ends = np.array([[*s.p_start, *s.p_end] for s in cluster_segments])
    mid = ends.reshape(-1, 2).mean(axis=0)
    scale = max(float(np.abs(ends.reshape(-1, 2) - mid).mean()), 1e-9)
    L = []
    for seg in cluster_segments:
        a = np.array([*(seg.p_start - mid) / scale, 1.0])
        b = np.array([*(seg.p_end - mid) / scale, 1.0])
        l = cross3(a, b)
        n = np.hypot(l[0], l[1])
        L.append(l / n)
    L = np.array(L)
    _, s, vt = np.linalg.svd(L, full_matrices=True)
    if s[1] < 1e-9 * s[0]:
        raise ValueError("rank deficient: segment lines are all identical")
    vp = vt[-1]
    # undo the normalization: x_norm = (x - mid) / scale
    vp = np.array([scale * vp[0] + mid[0] * vp[2],
                   scale * vp[1] + mid[1] * vp[2],
                   vp[2]])
    vp = vp / np.linalg.norm(vp)
    residuals = [consensus(seg, vp) for seg in cluster_segments]
    rms = math.sqrt(float(np.mean(np.square(residuals))))
    return VanishingPointEstimate(vp, frozenset(s.id for s in cluster_segments), rms)


def lift_vanishing_point(vp, intr: CameraIntrinsics, r_wc) -> np.ndarray:
    """Lift an image VP to a canonical unit vanishing direction in the world."""
    vp = np.asarray(vp, dtype=float)
    v_cam = intr.inverse_matrix() @ vp
    v_cam = v_cam / np.linalg.norm(v_cam)
    return canonical_direction(np.asarray(r_wc) @ v_cam)


def detect_vanishing_points(segments: list[Segment2D],
                            n_hypotheses: int = DEFAULT_N_HYPOTHESES,
                            theta_cons_deg: float = DEFAULT_CONSENSUS_DEG,
                            min_cluster_size: int = DEFAULT_MIN_CLUSTER_SIZE,
                            rng_seed: int = 0) -> list[VanishingPointEstimate]:
    """Full per-frame VP detection: sample, cluster, refine.

    Segments get their cluster_label set (index into the returned list,
    None for outliers).
    """
    if len(segments) < 2:
        return []
    hyps = sample_vp_hypotheses(segments, n_hypotheses, rng_seed)
    if not hyps:
        return []
    clusters = jlinkage_cluster(segments, hyps, theta_cons_deg, min_cluster_size)
    estimates = []
    label_of = {}
    for cluster in clusters:
        members = [s for s in segments if s.id in cluster]
        try:
            est = refine_vp(members)
        except ValueError:
            continue
        for sid in cluster:
            label_of[sid] = len(estimates)
        estimates.append(est)
    for s in segments:
        s.cluster_label = label_of.get(s.id)
    return estimates
