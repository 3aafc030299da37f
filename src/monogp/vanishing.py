"""Vanishing-point detection from 2D segments and lifting to world directions.

Pipeline: random two-segment hypotheses -> J-Linkage preference-set
clustering -> least-squares refinement per cluster -> lifting through the
intrinsics and camera rotation to a unit world-frame vanishing direction.

Vanishing points are kept in spherical normalization (||v|| = 1) so points
at infinity need no special cases.

The per-frame front end stacks a frame's endpoints once, runs on arrays and
keeps the floats of a per-pair, per-segment loop:
- the hypothesis pairs are decoded in bulk from the seeded generator's
  uint32 words, exactly as `Generator.choice(n, 2, replace=False)` draws
  them (Floyd's algorithm with Lemire's bounded draw), one block of words
  per batch of attempts;
- the preference matrix (consensus angle < θ) is built one block of
  hypothesis columns at a time, `max(1, _BLOCK_ELEMS // n)` columns for n
  segments: each (n, block) float temporary stays below glibc's default
  128 KiB mmap threshold, so it comes from the heap where a whole (n, m)
  plane would be a fresh mapping on every call;
- J-Linkage keeps each preference set as a 0/1 float row and takes set sizes
  and intersections from BLAS (`S @ S.T` once, `S @ S[i]` per merge): sums
  of 0/1 products are exact integers, whatever the BLAS thread count; rows
  are ordered by segment id, which turns the tie rule (smallest sorted id
  pair among the minimum distances) into the first minimum in row-major
  order, `argmin`. Distinct distances differ by far more than rounding for
  fewer than 2²⁴ hypotheses (see `jlinkage_cluster`);
- each cluster is refined from its rows of the stacked endpoints, in input
  order;
- norms and the refinement's dot products go through `segments.rowdot`
  and `row_norms`, which call the same BLAS dot as `np.linalg.norm` and `@`
  on one vector (`np.linalg.norm(axis=...)` and `einsum` round differently).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics
from .segments import (
    endpoints,
    lines_through,
    row_norms,
    rowdot,
    segment_frames,
)

DEFAULT_N_HYPOTHESES = 500
DEFAULT_CONSENSUS_DEG = 2.0
DEFAULT_MIN_CLUSTER_SIZE = 3

_EPS_INF = 1e-9
_WORD = 1 << 32  # the generator's uint32 words
# Float elements per consensus block: an (n, block) float64 plane stays
# below glibc's default 128 KiB mmap threshold, so it is not a fresh mmap.
_BLOCK_ELEMS = 12_000
# Fewer hypotheses than this keep distinct Jaccard distances > 1e-15 apart,
# which J-Linkage's tie rule needs (see `jlinkage_cluster`).
_MAX_HYPOTHESES = 1 << 24


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


def _bounded(words, k):
    """Lemire's bounded draw in [0, k) of numpy's `Generator`, one per word.

    Returns (w·k) >> 32 and the mask of rejected words, those with
    (w·k) mod 2³² < (2³² − k) mod k.
    """
    wk = words.astype(np.uint64) * np.uint64(k)
    return ((wk >> np.uint64(32)).astype(np.intp),
            (wk & np.uint64(_WORD - 1)) < np.uint64((_WORD - k) % k))


def _decode_pairs(words, n: int):
    """Index pairs drawn from uint32 words as `Generator.choice(n, 2,
    replace=False)` draws them from the same stream.

    Decodes as many whole draws as `words` holds and returns the (t, 2)
    pairs and the number of words they used. One draw is Floyd's algorithm
    with Lemire's bounded draw: a = bounded(n − 1), which takes no word when
    n = 2; b = bounded(n), and b = n − 1 if b == a; then a shuffle word
    whose top bit keeps (a, b) when 1 and gives (b, a) when 0. A rejected
    word is skipped and the next word takes its role, so the first rejected
    word is dropped and the rest decoded again (a word is rejected with
    probability below k / 2³²).
    """
    per = 2 if n == 2 else 3
    dropped = 0
    while True:
        t = len(words) // per
        w = words[:per * t].reshape(t, per)
        rejected = np.zeros(w.shape, dtype=bool)
        b, rejected[:, -2] = _bounded(w[:, -2], n)
        if n == 2:
            a = np.zeros(t, dtype=np.intp)
        else:
            a, rejected[:, 0] = _bounded(w[:, 0], n - 1)
        if not rejected.any():
            break
        words = np.delete(words, np.argmax(rejected))  # first in stream order
        dropped += 1
    b = np.where(b == a, n - 1, b)
    keep = (w[:, -1] >> np.uint32(31)).astype(bool)
    pairs = np.where(keep[:, None], np.column_stack([a, b]), np.column_stack([b, a]))
    return pairs, per * t + dropped


def sample_vp_hypotheses(ends, m: int, rng_seed: int) -> np.ndarray:
    """Up to m VP hypotheses (k, 3) from random pairs of distinct segments, seeded.

    `ends` holds the segments' stacked endpoints (n, 4).
    Each attempt draws its pair as `rng.choice(n, 2, replace=False)` would;
    a batch of attempts takes one block of words. A pair of numerically
    identical lines (||v|| < 1e-12) is skipped, up to 50·m attempts in all.
    """
    n = len(ends)
    if n < 2:
        raise ValueError("too few segments: need at least 2")
    rng = np.random.default_rng(rng_seed)
    lines = lines_through(ends[:, :2], ends[:, 2:])
    per = 2 if n == 2 else 3
    words = np.empty(0, dtype=np.uint32)
    found = [np.empty((0, 3))]
    count = attempts = 0
    while count < m and attempts < 50 * m:
        batch = min(m - count, 50 * m - attempts)
        words = np.concatenate([words, rng.integers(0, _WORD, per * batch, dtype=np.uint32)])
        pairs, used = _decode_pairs(words, n)
        words = words[used:]
        v = np.cross(lines[pairs[:, 0]], lines[pairs[:, 1]])
        norm = row_norms(v)
        ok = ~(norm < 1e-12)
        found.append(v[ok] / norm[ok, None])
        attempts += len(pairs)
        count += int(ok.sum())
    return np.concatenate(found)


def _rays(mids, hyps):
    """x and y planes (n, m) of the rays from each midpoint to each
    hypothesis; a hypothesis at infinity (|w| < 1e-9) gives its (x, y)."""
    finite = np.abs(hyps[:, 2]) >= _EPS_INF
    w = np.where(finite, hyps[:, 2], 1.0)
    return (np.where(finite, hyps[:, 0] / w - mids[:, :1], hyps[:, 0]),
            np.where(finite, hyps[:, 1] / w - mids[:, 1:], hyps[:, 1]))


def consensus_angles(ends, vp) -> np.ndarray:
    """Angle (degrees) between each segment's direction and its midpoint-to-VP ray.

    `ends` holds stacked endpoints (n, 4). VPs at infinity (|v_w| < 1e-9) use
    the direction (v_x, v_y). Range [0, 90]. Raises ValueError when the VP
    sits on a segment midpoint.
    """
    mids, dirs = segment_frames(ends)
    to_vp = np.hstack(_rays(mids, np.asarray(vp, dtype=float)[None, :]))
    if (row_norms(to_vp) < 1e-9).any():
        raise ValueError("vp at segment midpoint")
    dot = np.abs(rowdot(dirs, to_vp))
    cross = np.abs(dirs[:, 0] * to_vp[:, 1] - dirs[:, 1] * to_vp[:, 0])
    # atan2 keeps full precision for tiny angles (acos saturates near 1);
    # math.atan2 rather than np.arctan2, which rounds differently
    return np.array([math.degrees(math.atan2(c, d))
                     for c, d in zip(cross.tolist(), dot.tolist())])


def _angle_block(mids, dirs, hyps) -> np.ndarray:
    """(n, k) consensus angles in degrees of n segments (midpoints and unit
    directions) against k hypotheses; 90 where a hypothesis sits on a
    segment midpoint."""
    tx, ty = _rays(mids, hyps)
    ux, uy = dirs[:, :1], dirs[:, 1:]
    ang = np.degrees(np.arctan2(np.abs(ux * ty - uy * tx), np.abs(ux * tx + uy * ty)))
    return np.where(np.sqrt(tx * tx + ty * ty) >= 1e-9, ang, 90.0)


def preference_matrix(ends, hypotheses, theta_cons_deg: float) -> np.ndarray:
    """(n, m) bool: segment r's consensus angle with hypothesis c is below θ.

    `ends` holds stacked endpoints (n, 4). The angles are built one block of
    `max(1, _BLOCK_ELEMS // n)` hypothesis columns at a time, so no float
    temporary is a fresh mmap; each entry is elementwise, so the blocks do
    not change its bits.
    """
    mids, dirs = segment_frames(ends)
    hyps = np.asarray(hypotheses, dtype=float)
    n, m = len(mids), len(hyps)
    step = max(1, _BLOCK_ELEMS // n)
    pref = np.empty((n, m), dtype=bool)
    for c in range(0, m, step):
        pref[:, c:c + step] = _angle_block(mids, dirs, hyps[c:c + step]) < theta_cons_deg
    return pref


def jlinkage_cluster(ids, pref, min_cluster_size: int = DEFAULT_MIN_CLUSTER_SIZE,
                     ) -> list[frozenset]:
    """J-Linkage clustering of segments by their VP hypothesis preference sets.

    `ids` (n,) are the unique segment ids and `pref` (n, m) says which of m
    hypotheses each segment is consistent with. Agglomerative merging by
    minimum Jaccard distance of cluster preference sets (intersection of
    member preferences), stopping when the minimum distance reaches 1.
    Clusters smaller than min_cluster_size are dropped. Returns disjoint
    frozensets of segment ids.

    Preference sets are 0/1 float rows S, ordered by segment id. The counts
    come from BLAS: S @ S.T once (the set sizes are its diagonal), then
    x = S @ S[i] after each merge. Sums of 0/1 products are exact integers
    in any order, so they do not depend on the BLAS build or thread count.
    A distance is 1 − |A∩B| / max(|A∪B|, 1), which is 1 for two empty sets.
    A merge of rows i < j keeps row i, so each cluster's smallest id is its
    row index, and only the upper triangle of the distance matrix holds
    values (+inf elsewhere). The merge intersects row i with row j, zeroes
    row j (its distance from i then reads 1.0), rewrites row and column i
    from x and sets row and column j to +inf.

    Ties: the pair merged is the smallest sorted id pair among the minimum
    distances, which is the first minimum in row-major order, `argmin`.
    Unions are at most m, so two distinct distances 1 − a/b and 1 − c/d
    differ by |ad − bc| / bd ≥ 1/m², more than 1e-15 even after rounding
    for m < 2²⁴ (1/m² > 3.5e-15). Below that size the distances within
    1e-15 of the minimum are exactly the minima, so `argmin` picks the pair
    a tolerance scan over dmin + 1e-15 would; m ≥ 2²⁴ raises ValueError.
    The loop stops when the minimum is >= 1 − 1e-12, which for such m means
    no two clusters share a hypothesis. The result does not depend on
    input order.
    """
    ids = np.asarray(ids)
    pref = np.asarray(pref, dtype=bool)
    if pref.size == 0:
        raise ValueError("need non-empty segments and hypotheses")
    n, m = pref.shape
    if m >= _MAX_HYPOTHESES:
        raise ValueError(f"too many hypotheses for exact ties: {m} >= 2**24")
    order = np.argsort(ids)
    S = pref[order].astype(np.float64)
    inter = S @ S.T
    sizes = inter.diagonal().copy()
    members = [frozenset([sid]) for sid in ids[order].tolist()]
    alive = np.ones(n, dtype=bool)

    dist = 1.0 - inter / np.maximum(sizes[:, None] + sizes - inter, 1.0)
    dist[np.tril_indices(n)] = np.inf

    while True:
        i, j = divmod(int(dist.argmin()), n)
        if dist[i, j] >= 1.0 - 1e-12:  # also a lone cluster: everything is +inf
            break
        members[i] = members[i] | members[j]
        S[i] *= S[j]  # preference-set intersection
        S[j] = 0.0
        alive[j] = False
        x = S @ S[i]
        sizes[i] = x[i]
        row = 1.0 - x / np.maximum(sizes + sizes[i] - x, 1.0)
        dist[:i, i] = row[:i]
        dist[i, i + 1:] = row[i + 1:]
        dist[:j, j] = np.inf
        dist[j, j + 1:] = np.inf

    clusters = [c for c, a in zip(members, alive) if a and len(c) >= min_cluster_size]
    clusters.sort(key=lambda c: (-len(c), min(c)))
    return clusters


def refine_vp(ends, member_ids) -> VanishingPointEstimate:
    """Least-squares VP of a cluster from its stacked endpoints (n, 4):
    smallest singular vector of the stacked lines."""
    if len(ends) < 2:
        raise ValueError("cluster must contain at least 2 segments")
    # Condition the system: shift/scale pixel coordinates before the SVD.
    pts = ends.reshape(-1, 2)
    mid = pts.mean(axis=0)
    scale = max(float(np.abs(pts - mid).mean()), 1e-9)
    L = lines_through((ends[:, :2] - mid) / scale, (ends[:, 2:] - mid) / scale)
    _, s, vt = np.linalg.svd(L, full_matrices=True)
    if s[1] < 1e-9 * s[0]:
        raise ValueError("rank deficient: segment lines are all identical")
    vp = vt[-1]
    # undo the normalization: x_norm = (x - mid) / scale
    vp = np.array([scale * vp[0] + mid[0] * vp[2],
                   scale * vp[1] + mid[1] * vp[2],
                   vp[2]])
    vp = vp / np.linalg.norm(vp)
    residuals = consensus_angles(ends, vp)
    rms = math.sqrt(float(np.mean(np.square(residuals))))
    return VanishingPointEstimate(vp, frozenset(member_ids), rms)


def lift_vanishing_point(vp, intr: CameraIntrinsics, r_wc) -> np.ndarray:
    """Lift an image VP to a canonical unit vanishing direction in the world."""
    vp = np.asarray(vp, dtype=float)
    v_cam = intr.inverse_matrix() @ vp
    v_cam = v_cam / np.linalg.norm(v_cam)
    return canonical_direction(np.asarray(r_wc) @ v_cam)


def detect_vanishing_points(segments,
                            n_hypotheses: int = DEFAULT_N_HYPOTHESES,
                            theta_cons_deg: float = DEFAULT_CONSENSUS_DEG,
                            min_cluster_size: int = DEFAULT_MIN_CLUSTER_SIZE,
                            rng_seed: int = 0,
                            ids=None) -> list[VanishingPointEstimate]:
    """Full per-frame VP detection: sample, cluster, refine.

    `segments` is a list of `Segment2D`, every one of which gets its
    cluster_label set (index into the returned list, None for outliers) on
    every return; or, with their segment `ids`, stacked endpoints (n, 4),
    which carry no labels. Segment ids must be unique: clusters are sets of
    ids. Each cluster is refined from its endpoint rows, in input order.
    """
    if ids is None:
        labelled, ends, ids = segments, endpoints(segments), [s.id for s in segments]
    else:
        labelled, ends = [], segments
    row_of = {}
    for r, sid in enumerate(ids):
        if sid in row_of:
            raise ValueError(f"duplicate segment id {sid}")
        row_of[sid] = r
    for s in labelled:
        s.cluster_label = None
    if len(ids) < 2:
        return []
    hyps = sample_vp_hypotheses(ends, n_hypotheses, rng_seed)
    if len(hyps) == 0:
        return []
    pref = preference_matrix(ends, hyps, theta_cons_deg)
    estimates = []
    for cluster in jlinkage_cluster(list(row_of), pref, min_cluster_size):
        rows = sorted(row_of[sid] for sid in cluster)
        try:
            est = refine_vp(ends[rows], cluster)
        except ValueError:
            continue
        if labelled:
            for r in rows:
                labelled[r].cluster_label = len(estimates)
        estimates.append(est)
    return estimates
