"""Vanishing-point detection from 2D segments and lifting to world directions.

Pipeline: random two-segment hypotheses -> J-Linkage preference-set
clustering -> least-squares refinement per cluster -> lifting through the
intrinsics and camera rotation to a unit world-frame vanishing direction.

Vanishing points are kept in spherical normalization (||v|| = 1) so points
at infinity need no special cases.

`detect_scene_vanishing_points` runs a scene's frames in the sampler's
groups: per group, sampling (one draw loop), then consensus and J-Linkage
frame by frame, so one group's hypotheses are held at a time; after the
last group, one refinement pass over every frame's clusters.
`detect_vanishing_points` is its one-frame case, on a frame's `Segment2D`
list. Each frame gets the floats of a per-frame, per-pair, per-segment
loop:
- the hypothesis pairs are decoded in bulk from each frame's seeded
  generator's uint32 words, exactly as `Generator.choice(n, 2,
  replace=False)` draws them (Floyd's algorithm with Lemire's bounded draw),
  one block of words per batch of attempts. The scene is cut once into
  groups of frames whose attempts fit one block (`geometry`'s block rule,
  three entries per attempt), and `sample_vp_hypotheses` draws each group
  in one loop: a frame left short by degenerate pairs draws its next batch
  in the next pass, and the lines, cross products and norms of a pass run
  on all the group's pairs at once;
- the preference matrix (consensus angle below θ = `CONSENSUS_DEG`) is
  built one block of hypothesis columns at a time, `max(1, BLOCK_ELEMS //
  n)` columns for n segments, so no (n, m) plane is a fresh mapping on
  every call. Two matrix products per block decide every entry at least
  1e-9 rad from the θ boundary; the rest (about none) take
  `consensus_angles`, the exact angle that refinement also uses;
- J-Linkage keeps each preference set as a float32 0/1 row and takes set
  sizes and intersections from BLAS (`S @ S.T` once, `S @ S[i]` per merge):
  sums of 0/1 products are exact integers below 2²⁴, whatever the BLAS
  thread count; rows are ordered by segment id, which turns the tie rule
  (smallest sorted id pair among the maximum Jaccard similarities, the
  minimum distances) into the first maximum in row-major order, `argmax`.
  Counts, set sizes and similarities are float32: distinct similarities
  differ by more than twice float32's rounding for fewer than 2¹¹
  hypotheses (see `jlinkage_cluster`). A merge records the merged-away row
  in a union-find `parent` list and retires it by setting its size to
  +inf; the clusters are read off `parent` once, after the last merge;
- all of a scene's clusters are refined in one stacked pass, each from its
  rows of the stacked endpoints, in input order; only the reductions (the
  conditioning mean and scale, the SVD, the RMS) run per cluster;
- norms and the refinement's dot products keep the per-row floats
  (see `geometry`'s row numerics).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .geometry import BLOCK_ELEMS, CameraIntrinsics, block_runs, row_norms
from .segments import endpoints, lines_through, segment_frames

DEFAULT_N_HYPOTHESES = 500
DEFAULT_MIN_CLUSTER_SIZE = 3

# J-Linkage's consensus angle θ, in degrees; `preference_matrix` relies on
# 0° < θ < 90°.
CONSENSUS_DEG = 2.0

_EPS_INF = 1e-9
_WORD = 1 << 32  # the generator's uint32 words
# Fewer hypotheses than this keep distinct float32 Jaccard similarities
# apart, which J-Linkage's tie rule needs (see `jlinkage_cluster`).
_MAX_HYPOTHESES = 1 << 11


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


def sample_vp_hypotheses(scene_ends, m: int, rng_seeds) -> list[np.ndarray]:
    """Up to m VP hypotheses (k, 3) per frame from random pairs of its
    distinct segments, each frame from its own seeded generator.

    `scene_ends` holds each frame's stacked endpoints (n, 4), n >= 2, and
    `rng_seeds` one seed per frame. Each attempt draws its pair as
    `rng.choice(n, 2, replace=False)` would on the frame's generator; a batch
    of attempts takes one block of words. A pair of numerically identical
    lines (||v|| < 1e-12) is skipped, up to 50·m attempts per frame: a frame
    short of m after a batch draws another in the next pass of the loop.
    The frames are sampled as one group, all of them in each pass
    (`detect_scene_vanishing_points` hands it one group at a time). Lines,
    cross products and normalization run on all of a pass's pairs at once;
    they are elementwise or per-row BLAS dots, so each frame gets the
    hypotheses it gets alone. The replay of `Generator.choice`
    (`_decode_pairs`) is what holds acceptance criteria 4 and 8 where they
    are: a plain batched draw of the pairs, equally uniform, takes other
    pairs from the stream and fails both.
    """
    sizes = [len(ends) for ends in scene_ends]
    if not sizes:
        return []
    if min(sizes) < 2:
        raise ValueError("too few segments: need at least 2")
    starts = list(accumulate(sizes[:-1], initial=0))
    stacked = np.concatenate(scene_ends)
    lines = lines_through(stacked[:, :2], stacked[:, 2:])
    rngs = [np.random.default_rng(seed) for seed in rng_seeds]
    words = [np.empty(0, dtype=np.uint32)] * len(sizes)
    found = [[np.empty((0, 3))] for _ in sizes]
    count, attempts = [0] * len(sizes), [0] * len(sizes)
    todo = [f for f in range(len(sizes)) if m > 0]
    while todo:
        pairs, bounds = [], [0]
        for f in todo:
            n = sizes[f]
            batch = min(m - count[f], 50 * m - attempts[f])
            w = np.concatenate([words[f], rngs[f].integers(
                0, _WORD, (2 if n == 2 else 3) * batch, dtype=np.uint32)])
            drawn, used = _decode_pairs(w, n)
            words[f] = w[used:]
            attempts[f] += len(drawn)
            pairs.append(drawn + starts[f])
            bounds.append(bounds[-1] + len(drawn))
        pairs = np.concatenate(pairs)
        v = np.cross(lines[pairs[:, 0]], lines[pairs[:, 1]])
        norm = row_norms(v)
        ok = ~(norm < 1e-12)
        for f, a, b in zip(todo, bounds, bounds[1:]):
            keep = ok[a:b]
            found[f].append(v[a:b][keep] / norm[a:b][keep, None])
            count[f] += int(keep.sum())
        todo = [f for f in todo if count[f] < m and attempts[f] < 50 * m]
    return [np.concatenate(hyps) for hyps in found]


def _rays(mids, hyps):
    """x and y of the rays from midpoints (..., 2) to hypotheses (..., 3),
    broadcast; a hypothesis at infinity (|w| < 1e-9) gives its (x, y)."""
    finite = np.abs(hyps[..., 2]) >= _EPS_INF
    w = np.where(finite, hyps[..., 2], 1.0)
    return (np.where(finite, hyps[..., 0] / w - mids[..., 0], hyps[..., 0]),
            np.where(finite, hyps[..., 1] / w - mids[..., 1], hyps[..., 1]))


def consensus_angles(ends, vps) -> np.ndarray:
    """Angle (degrees) between each segment's direction and its midpoint-to-VP ray.

    `ends` holds stacked endpoints (n, 4) and `vps` one VP per row (n, 3).
    VPs at infinity (|v_w| < 1e-9) use the direction (v_x, v_y). Range
    [0, 90]; NaN where the VP sits on the segment's midpoint (a ray shorter
    than 1e-9).
    """
    mids, dirs = segment_frames(ends)
    to_vp = np.column_stack(_rays(mids, np.asarray(vps, dtype=float)))
    dot = np.abs(np.vecdot(dirs, to_vp))
    cross = np.abs(dirs[:, 0] * to_vp[:, 1] - dirs[:, 1] * to_vp[:, 0])
    # atan2 keeps full precision for tiny angles (acos saturates near 1);
    # math.atan2 rather than np.arctan2, which rounds differently
    ang = np.array([math.degrees(math.atan2(c, d))
                    for c, d in zip(cross.tolist(), dot.tolist())])
    ang[row_norms(to_vp) < 1e-9] = np.nan
    return ang


def preference_matrix(ends, hypotheses) -> np.ndarray:
    """(n, m) bool: segment r's consensus angle with hypothesis c is below
    `CONSENSUS_DEG`.

    `ends` holds stacked endpoints (n, 4). The entries are built one block of
    `max(1, BLOCK_ELEMS // n)` hypothesis columns at a time, so no float
    temporary is a fresh mmap. Every entry is the exact angle's test,
    `consensus_angles(...) < CONSENSUS_DEG`, but a prefilter decides most
    entries without it.

    With c = |u×t| and d = |u·t| for the segment's unit direction u and its
    ray t to the hypothesis, φ = atan2(c, d) and r = hypot(c, d) ≤ c + d,
    the value d·sin θ − c·cos θ is r·sin(θ − φ). Two matrix products give it
    per block as e = |sin θ·u·t| − |cos θ·u×t|, with t = p − m written as
    the hypothesis column (p, 1) (or (x, y, 0) at infinity) against the
    segment row (u, −u·m); their rounding is below ~1e-15·(|p| + |m|). With
    tol = 2e-9·(|p| + max |m| + 1) per hypothesis, which exceeds
    1e-9·(c + d) (c + d ≤ √2·|t|) plus that rounding, an entry is in when
    e > tol and out when e < −tol: at least 1e-9 rad from the boundary,
    millions of times the rounding of the exact angle (~1e-15 relative).
    Only entries with |e| ≤ tol take the exact angle: the boundary band,
    every ray shorter than 1e-9 (NaN, so out; |e| ≤ c + d < 2e-9 ≤ tol),
    NaN or infinite values (they fail both tests), and every entry of a
    hypothesis whose |p| + max |m| is not below 1e300, where e could
    overflow (tol = inf).
    """
    mids, dirs = segment_frames(ends)
    hyps = np.asarray(hypotheses, dtype=float)
    n, m = len(mids), len(hyps)
    step = max(1, BLOCK_ELEMS // n)
    # columns (p, 1), or (x, y, 0) at infinity: t = p - m is a product
    P = np.array([*_rays(np.zeros(2), hyps), np.abs(hyps[:, 2]) >= _EPS_INF])
    scale = np.hypot(P[0], P[1]) + np.hypot(*mids.T).max() + 1.0
    tol = np.where(scale < 1e300, 2e-9 * scale, np.inf)
    a = math.radians(CONSENSUS_DEG)
    ux, uy, mx, my = dirs[:, 0], dirs[:, 1], mids[:, 0], mids[:, 1]
    along = math.sin(a) * np.column_stack([ux, uy, -(ux * mx + uy * my)])
    across = math.cos(a) * np.column_stack([-uy, ux, uy * mx - ux * my])
    pref = np.empty((n, m), dtype=bool)
    for c in range(0, m, step):
        e = np.abs(along @ P[:, c:c + step])
        e -= np.abs(across @ P[:, c:c + step])
        block = pref[:, c:c + step]
        np.greater(e, tol[c:c + step], out=block)
        band = np.flatnonzero(~(np.abs(e, out=e) > tol[c:c + step]))
        if band.size:
            r, k = np.divmod(band, e.shape[1])
            block[r, k] = consensus_angles(ends[r], hyps[c + k]) < CONSENSUS_DEG
    return pref


def jlinkage_cluster(ids, pref, min_cluster_size: int = DEFAULT_MIN_CLUSTER_SIZE,
                     ) -> list[frozenset]:
    """J-Linkage clustering of segments by their VP hypothesis preference sets.

    `ids` (n,) are the unique segment ids and `pref` (n, m) says which of m
    hypotheses each segment is consistent with. Agglomerative merging by
    maximum Jaccard similarity |A∩B| / |A∪B| of cluster preference sets
    (intersection of member preferences), stopping when no two clusters
    share a hypothesis (Jaccard distance 1). Clusters smaller than
    min_cluster_size are dropped. Returns disjoint frozensets of segment ids.

    Preference sets are float32 0/1 rows S, ordered by segment id. The
    counts come from BLAS: S @ S.T once (the set sizes are its diagonal),
    then S @ S[i] after each merge, into one preallocated row. Sums of 0/1
    products are integers of at most m, which float32's 24-bit significand
    holds exactly for m < 2²⁴, in any order, so they do not depend on the
    BLAS build or thread count; the sums of two set sizes (at most 2m) and
    the unions are exact too. The similarities are float32, each one
    correctly rounded division, in a symmetric matrix with a zero
    diagonal; two empty sets start at 0 / max(0, 1) = 0. A merge of rows
    i < j keeps row i, so each cluster's smallest id is its row index, and
    records `parent[j] = i`; the clusters are read off `parent` once, at
    the end. The merge intersects S[i] with S[j], retires j by setting its
    size to +inf (its similarity to any row then reads 0; its row of S
    stays as it is), writes row and column i from the new counts and
    zeroes row and column j. A merged cluster shares at least one
    hypothesis, so every union with it is at least 1.

    Ties: the pair merged is the smallest sorted id pair among the maximum
    similarities, which is the first maximum in row-major order, `argmax`
    (in a symmetric matrix with a zero diagonal, a first maximum at (r, c)
    with c < r would have its mirror (c, r) in an earlier row). A union is
    a set of hypotheses, at most m, so two distinct similarities a/b and
    c/d in [0, 1] differ by |ad − bc| / bd ≥ 1/m². Rounding to float32
    moves each by at most 2⁻²⁴, the two together by at most 2⁻²³, which
    stays below 1/m² while m² < 2²³, that is m < 2,896. Rounding is
    monotone, so distinct similarities stay distinct floats in their
    order, and equal fractions divide to equal floats. So `argmax` of the
    float32 a/b picks the pair, ties included, that `argmax` of the exact
    fractions, or `argmin` of the distance 1 − a/b, picks. Every positive
    similarity is at least 1/m, so the stop "maximum ≤ 0" is the distance
    stop "minimum ≥ 1 − 1e-12". `_MAX_HYPOTHESES` (2¹¹, the power of two
    below 2,896) bounds the tie rule; m ≥ 2¹¹ raises ValueError. The result
    does not depend on input order.
    """
    ids = np.asarray(ids)
    pref = np.asarray(pref, dtype=bool)
    if pref.size == 0:
        raise ValueError("need non-empty segments and hypotheses")
    n, m = pref.shape
    if m >= _MAX_HYPOTHESES:
        raise ValueError(f"too many hypotheses for exact ties: {m} >= 2**11")
    order = np.argsort(ids)
    S = pref[order].astype(np.float32)
    inter = S @ S.T
    sizes = inter.diagonal().copy()

    sim = sizes[:, None] + sizes
    sim -= inter
    np.maximum(sim, 1.0, out=sim)
    np.divide(inter, sim, out=sim)
    sim.flat[::n + 1] = 0.0

    parent = list(range(n))
    counts, row = np.empty(n, dtype=np.float32), np.empty(n, dtype=np.float32)
    while True:
        i, j = divmod(int(sim.argmax()), n)
        if sim[i, j] <= 0.0:  # also a lone cluster
            break
        parent[j] = i
        sizes[j] = np.inf
        S[i] *= S[j]  # preference-set intersection
        np.matmul(S, S[i], out=counts)
        sizes[i] = counts[i]
        np.add(sizes, sizes[i], out=row)
        row -= counts
        np.divide(counts, row, out=row)
        row[i] = 0.0
        sim[i] = row
        sim[:, i] = row
        sim[j] = 0.0
        sim[:, j] = 0.0

    # parent[r] <= r, so one ascending pass resolves every root
    members = {}
    for r, sid in enumerate(ids[order].tolist()):
        parent[r] = parent[parent[r]]
        members.setdefault(parent[r], []).append(sid)
    clusters = [frozenset(c) for c in members.values() if len(c) >= min_cluster_size]
    clusters.sort(key=lambda c: (-len(c), min(c)))
    return clusters


def refine_vps(ends, clusters) -> list:
    """Least-squares VPs of clusters of stacked endpoints (n, 4), in one pass.

    `clusters` holds (rows, member ids) per cluster, rows indexing `ends`.
    Each VP is the smallest singular vector of its cluster's lines, after
    shifting and scaling the pixel coordinates. Returns per cluster a
    `VanishingPointEstimate`, or the ValueError that rejects it: fewer than
    2 segments, a segment that conditioning shrinks to a point, identical
    lines (rank deficient), a VP on a segment midpoint, or `LinAlgError`.
    Only the reductions run per cluster (the conditioning mean and scale,
    the SVD, the RMS), each on its cluster's contiguous rows as it would
    alone; lines, de-normalization and residual angles are elementwise or
    per-row BLAS dots on all rows at once, so each estimate's bits are those
    of the cluster refined by itself.
    """
    if not clusters:
        return []
    rows = [np.asarray(r, dtype=np.intp) for r, _ in clusters]
    sizes = [len(r) for r in rows]
    bounds = np.cumsum([0, *sizes]).tolist()
    E = ends[np.concatenate(rows)]
    out = [None] * len(rows)
    mids, scales = np.zeros((len(rows), 2)), np.ones(len(rows))
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if b - a < 2:
            out[k] = ValueError("cluster must contain at least 2 segments")
            continue
        # sum / size: `np.mean`'s own reduction and division, without its overhead
        pts = E[a:b].reshape(-1, 2)
        mids[k] = pts.sum(axis=0) / len(pts)
        scales[k] = max(float(np.abs(pts - mids[k]).sum() / pts.size), 1e-9)
    # Condition the system: shift/scale pixel coordinates before the SVD.
    mid_r = np.repeat(mids, sizes, axis=0)
    scale_r = np.repeat(scales, sizes)[:, None]
    p, q = (E[:, :2] - mid_r) / scale_r, (E[:, 2:] - mid_r) / scale_r
    owner = np.repeat(np.arange(len(rows)), sizes)
    point = np.flatnonzero((p == q).all(axis=1))
    if point.size:
        for k in owner[point].tolist():
            out[k] = out[k] or ValueError("zero-length segment has no line")
        p[point], q[point] = (0.0, 0.0), (1.0, 0.0)  # any line: the cluster is rejected
    L = lines_through(p, q)
    V = np.tile([0.0, 0.0, 1.0], (len(rows), 1))  # stays for a rejected cluster
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if out[k] is not None:
            continue
        try:
            # U is never read; a 2-line cluster needs the full V for its null vector
            _, s, vt = np.linalg.svd(L[a:b], full_matrices=b - a < 3)
        except np.linalg.LinAlgError as err:
            out[k] = err
            continue
        if s[1] < 1e-9 * s[0]:
            out[k] = ValueError("rank deficient: segment lines are all identical")
        else:
            V[k] = vt[-1]
    # undo the normalization: x_norm = (x - mid) / scale
    vps = np.column_stack([scales * V[:, 0] + mids[:, 0] * V[:, 2],
                           scales * V[:, 1] + mids[:, 1] * V[:, 2],
                           V[:, 2]])
    vps /= row_norms(vps)[:, None]
    sq = np.square(consensus_angles(E, np.repeat(vps, sizes, axis=0)))
    for k in owner[np.isnan(sq)].tolist():
        out[k] = out[k] or ValueError("vp at segment midpoint")
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if out[k] is None:
            rms = math.sqrt(float(sq[a:b].sum() / (b - a)))
            out[k] = VanishingPointEstimate(vps[k].copy(), frozenset(clusters[k][1]), rms)
    return out


def lift_vanishing_point(vp, intr: CameraIntrinsics, r_wc) -> np.ndarray:
    """Lift an image VP to a canonical unit vanishing direction in the world."""
    vp = np.asarray(vp, dtype=float)
    v_cam = intr.inverse_matrix() @ vp
    v_cam = v_cam / np.linalg.norm(v_cam)
    return canonical_direction(np.asarray(r_wc) @ v_cam)


def detect_scene_vanishing_points(frames, n_hypotheses: int, min_cluster_size: int
                                  ) -> list[list[VanishingPointEstimate]]:
    """VP detection on every frame of a scene: sample and cluster one group
    of frames at a time, then refine every cluster at once. Returns each
    frame's estimates.

    `frames` holds per frame its stacked endpoints (n, 4), their segment ids
    (n,) and its seed. Segment ids must be unique within a frame: clusters
    are sets of ids. A frame with fewer than 2 segments, or whose pairs give
    no hypothesis, has no estimates. The usable frames are cut once into groups
    whose first batches fit one block (`block_runs`, three entries per
    attempt), so only one group's hypotheses are held at a time: per group,
    one `sample_vp_hypotheses` call, then consensus and J-Linkage frame by
    frame.
    One `refine_vps` call then refines every frame's clusters, each from its
    endpoint rows in input order; every frame's estimates are those it gets
    alone.
    """
    row_ofs = []
    for _, ids, _ in frames:
        row_of = {}
        for r, sid in enumerate(ids):
            if sid in row_of:
                raise ValueError(f"duplicate segment id {sid}")
            row_of[sid] = r
        row_ofs.append(row_of)
    usable = [f for f, row_of in enumerate(row_ofs) if len(row_of) >= 2]
    starts = list(accumulate((len(ends) for ends, _, _ in frames), initial=0))
    clusters, owner = [], []
    for a, b in block_runs([3 * n_hypotheses] * len(usable)):
        group = usable[a:b]
        hyps = sample_vp_hypotheses([frames[f][0] for f in group], n_hypotheses,
                                    [frames[f][2] for f in group])
        for f, h in zip(group, hyps):
            if len(h) == 0:
                continue
            row_of = row_ofs[f]
            for c in jlinkage_cluster(list(row_of), preference_matrix(frames[f][0], h),
                                      min_cluster_size):
                clusters.append((sorted(starts[f] + row_of[sid] for sid in c), c))
                owner.append(f)
    out = [[] for _ in frames]
    if clusters:
        stacked = np.concatenate([ends for ends, _, _ in frames])
        for f, est in zip(owner, refine_vps(stacked, clusters)):
            if not isinstance(est, ValueError):
                out[f].append(est)
    return out


def detect_vanishing_points(segments, rng_seed: int = 0) -> list[VanishingPointEstimate]:
    """VP detection on one frame's list of `Segment2D`: the one-frame case of
    `detect_scene_vanishing_points`, with `DEFAULT_N_HYPOTHESES` hypotheses
    and clusters of at least `DEFAULT_MIN_CLUSTER_SIZE` segments. Every
    segment gets its cluster_label set (index into the returned list, None for
    outliers) on every return."""
    estimates, = detect_scene_vanishing_points(
        [(endpoints(segments), [s.id for s in segments], rng_seed)],
        DEFAULT_N_HYPOTHESES, DEFAULT_MIN_CLUSTER_SIZE)
    label = {sid: k for k, est in enumerate(estimates) for sid in est.member_segment_ids}
    for s in segments:
        s.cluster_label = label.get(s.id)
    return estimates
