"""Vanishing-point sampling, consensus, J-Linkage, refinement, lifting."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from monogp import geometry
from monogp.geometry import CameraIntrinsics, so3_exp
from monogp.scenarios import structured
from monogp.segments import endpoints, segment_frames
from monogp.simulate import generate_trajectory, generate_world, render_measurements
from monogp.tracking import filter_short
import monogp.vanishing as vanishing
from monogp.vanishing import (
    DEFAULT_MIN_CLUSTER_SIZE,
    DEFAULT_N_HYPOTHESES,
    _decode_pairs,
    canonical_direction,
    consensus_angles,
    detect_scene_vanishing_points,
    detect_vanishing_points,
    jlinkage_cluster,
    lift_vanishing_point,
    preference_matrix,
    refine_vps,
    sample_vp_hypotheses,
)
from golden import vp_clutter_config
from test_segments import midpoint, p_end, p_start, segment, segment_line

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)


def sample(ends, m, rng_seed):
    """`sample_vp_hypotheses` on a scene of one frame."""
    hyps, = sample_vp_hypotheses([ends], m, [rng_seed])
    return hyps


def segments_through(vp_xy, n, rng, length=(30.0, 80.0), start_id=0):
    """n segments whose infinite lines pass exactly through vp_xy."""
    segs = []
    while len(segs) < n:
        a = rng.uniform([20.0, 20.0], [620.0, 460.0])
        u = np.asarray(vp_xy, dtype=float) - a
        d = np.linalg.norm(u)
        if d < 1.0:
            continue
        u = u / d
        segs.append(segment(a, a + rng.uniform(*length) * u,
                            id=start_id + len(segs)))
    return segs


def cluttered_frame(seed):
    """Four noisy planted families, 12 outliers and three exact duplicates."""
    rng = np.random.default_rng(seed)
    segs = []
    for vp in ([1500.0, 260.0], [300.0, -1800.0], [330.0, 230.0], [-900.0, 520.0]):
        for s in segments_through(vp, 12, rng):
            segs.append(segment(p_start(s) + rng.normal(0.0, 0.5, 2),
                                p_end(s) + rng.normal(0.0, 0.5, 2), id=len(segs)))
    for _ in range(12):
        a = rng.uniform([0.0, 0.0], [640.0, 480.0])
        th = rng.uniform(0.0, 2.0 * np.pi)
        u = np.array([np.cos(th), np.sin(th)])
        segs.append(segment(a, a + rng.uniform(30.0, 80.0) * u, id=len(segs)))
    for src in (0, 13, 50):
        segs.append(segment(p_start(segs[src]), p_end(segs[src]), id=len(segs)))
    return segs


def naive_jlinkage_cluster(ids, pref, min_cluster_size):
    """Oracle: J-Linkage that rebuilds every pairwise count on each merge,
    with the preference sets as float rows in input order."""
    members = [frozenset([sid]) for sid in ids]
    P = pref.astype(np.float64)
    # min id per cluster gives order-independent tie-breaking
    keys = [min(m) for m in members]

    while len(members) > 1:
        inter = P @ P.T
        sizes = P.sum(axis=1)
        union = sizes[:, None] + sizes[None, :] - inter
        with np.errstate(invalid="ignore", divide="ignore"):
            dist = 1.0 - inter / union
        dist[union == 0] = 1.0
        iu = np.triu_indices(len(members), k=1)
        if iu[0].size == 0:
            break
        dmin = dist[iu].min()
        if dmin >= 1.0 - 1e-12:
            break
        # Among ties, merge the pair with lexicographically smallest keys.
        ties = np.argwhere(np.triu(dist <= dmin + 1e-15, k=1))
        i, j = min(ties, key=lambda ij: tuple(sorted((keys[ij[0]], keys[ij[1]]))))
        i, j = int(i), int(j)
        members[i] = members[i] | members[j]
        P[i] = P[i] * P[j]  # preference-set intersection
        keys[i] = min(keys[i], keys[j])
        del members[j], keys[j]
        P = np.delete(P, j, axis=0)

    clusters = [m for m in members if len(m) >= min_cluster_size]
    clusters.sort(key=lambda c: (-len(c), min(c)))
    return clusters


def ids_of(segments):
    return [s.id for s in segments]


def preferences(segments, hypotheses):
    return preference_matrix(endpoints(segments), hypotheses)


def cluster(segments, hypotheses, min_cluster_size):
    return jlinkage_cluster(ids_of(segments), preferences(segments, hypotheses),
                            min_cluster_size)


def naive_cluster(segments, hypotheses, min_cluster_size):
    return naive_jlinkage_cluster(ids_of(segments), preferences(segments, hypotheses),
                                  min_cluster_size)


def refine(segments):
    """`refine_vps` on one cluster of every segment; raises its rejection."""
    est, = refine_vps(endpoints(segments), [(range(len(segments)), ids_of(segments))])
    if isinstance(est, ValueError):
        raise est
    return est


def loop_sample_vp_hypotheses(segments, m, rng_seed):
    """Oracle: one `Generator.choice` draw and one scalar norm per attempt.

    Returns the hypotheses and the number of attempts made."""
    rng = np.random.default_rng(rng_seed)
    lines = [segment_line(s) for s in segments]
    hypotheses = []
    attempts = 0
    while len(hypotheses) < m and attempts < 50 * m:
        attempts += 1
        i, j = rng.choice(len(segments), size=2, replace=False)
        v = np.cross(lines[i], lines[j])
        n = np.linalg.norm(v)
        if n < 1e-12:
            continue  # numerically identical lines
        hypotheses.append(v / n)
    return np.array(hypotheses).reshape(-1, 3), attempts


def lemire(words, pos, k):
    """Scalar transcription of numpy's bounded draw in [0, k) (Lemire)."""
    if k == 1:
        return 0, pos  # a range of one value takes no word
    while True:
        wk = int(words[pos]) * k
        pos += 1
        if wk % 2**32 >= (2**32 - k) % k:
            return wk >> 32, pos


def floyd_pair(words, pos, n):
    """Scalar transcription of `Generator.choice(n, 2, replace=False)`."""
    a, pos = lemire(words, pos, n - 1)
    b, pos = lemire(words, pos, n)
    if b == a:
        b = n - 1
    swap, pos = lemire(words, pos, 2)  # shuffle step: keep (a, b) if 1
    return ((a, b) if swap == 1 else (b, a)), pos


def einsum_consensus_matrix(segments, hypotheses):
    """Oracle: the broadcast copy, masked write and einsum formulation."""
    mids = np.array([midpoint(s) for s in segments])
    dirs = np.array([(p_end(s) - p_start(s)) / np.linalg.norm(p_end(s) - p_start(s))
                     for s in segments])
    H = np.asarray(hypotheses, dtype=float)
    finite = np.abs(H[:, 2]) >= 1e-9
    to_vp = np.broadcast_to(H[None, :, :2], (len(segments), len(H), 2)).copy()
    if finite.any():
        px = H[finite, :2] / H[finite, 2:3]
        to_vp[:, finite, :] = px[None, :, :] - mids[:, None, :]
    norms = np.linalg.norm(to_vp, axis=2)
    norms = np.where(norms < 1e-9, np.nan, norms)
    dot = np.abs(np.einsum("nd,nmd->nm", dirs, to_vp))
    cross = np.abs(dirs[:, None, 0] * to_vp[:, :, 1]
                   - dirs[:, None, 1] * to_vp[:, :, 0])
    ang = np.degrees(np.arctan2(cross, dot))
    return np.where(np.isnan(norms), 90.0, ang)


def scalar_consensus(seg, vp):
    """Oracle: the consensus angle of one segment, in scalar steps."""
    vp = np.asarray(vp, dtype=float)
    if abs(vp[2]) < 1e-9:
        to_vp = vp[:2]
    else:
        to_vp = vp[:2] / vp[2] - midpoint(seg)
        if np.linalg.norm(to_vp) < 1e-9:
            raise ValueError("vp at segment midpoint")
    u = (p_end(seg) - p_start(seg)) / np.linalg.norm(p_end(seg) - p_start(seg))
    dot = abs(float(u @ to_vp))
    cross = abs(float(u[0] * to_vp[1] - u[1] * to_vp[0]))
    return math.degrees(math.atan2(cross, dot))


def loop_refine_vp(cluster_segments):
    """Oracle: refinement with one line and one consensus angle per segment."""
    ends = np.array([[*p_start(s), *p_end(s)] for s in cluster_segments])
    mid = ends.reshape(-1, 2).mean(axis=0)
    scale = max(float(np.abs(ends.reshape(-1, 2) - mid).mean()), 1e-9)
    L = []
    for seg in cluster_segments:
        a = np.array([*(p_start(seg) - mid) / scale, 1.0])
        b = np.array([*(p_end(seg) - mid) / scale, 1.0])
        l = np.cross(a, b)
        L.append(l / np.hypot(l[0], l[1]))
    _, s, vt = np.linalg.svd(np.array(L), full_matrices=True)
    if s[1] < 1e-9 * s[0]:
        raise ValueError("rank deficient")
    vp = vt[-1]
    vp = np.array([scale * vp[0] + mid[0] * vp[2],
                   scale * vp[1] + mid[1] * vp[2],
                   vp[2]])
    vp = vp / np.linalg.norm(vp)
    residuals = [scalar_consensus(seg, vp) for seg in cluster_segments]
    return vp, math.sqrt(float(np.mean(np.square(residuals))))


def oracle_detect_vanishing_points(segments, rng_seed, theta_cons_deg=2.0,
                                   min_cluster_size=3):
    """Oracle: detection over segment lists, one oracle per stage (the
    `choice` sampler, the einsum consensus, the full-recompute J-Linkage, the
    per-segment refinement). Returns the estimates as (vp, sorted member ids,
    rms) and the labels."""
    labels = [None] * len(segments)
    if len(segments) < 2:
        return [], labels
    hyps, _ = loop_sample_vp_hypotheses(segments, 500, rng_seed)
    if len(hyps) == 0:
        return [], labels
    pref = einsum_consensus_matrix(segments, hyps) < theta_cons_deg
    estimates, label_of = [], {}
    for ids in naive_jlinkage_cluster(ids_of(segments), pref, min_cluster_size):
        members = [s for s in segments if s.id in ids]
        try:
            vp, rms = loop_refine_vp(members)
        except ValueError:
            continue
        for sid in ids:
            label_of[sid] = len(estimates)
        estimates.append((vp.tolist(), sorted(ids), rms))
    return estimates, [label_of.get(s.id) for s in segments]


def angle_block(ends, hyps):
    """(n, k) `consensus_angles` of n segments (stacked endpoints) against k
    hypotheses, the exact angle every preference entry is decided by."""
    n, k = len(ends), len(hyps)
    return consensus_angles(np.repeat(ends, k, axis=0), np.tile(hyps, (n, 1))).reshape(n, k)


def random_segments(n, rng):
    return [segment(rng.uniform(0, 640, 2), rng.uniform(0, 480, 2), id=i)
            for i in range(n)]


def angle(seg, vp):
    return float(consensus_angles(endpoints([seg]), [vp])[0])


# -- hypothesis sampling -----------------------------------------------------

def test_hypotheses_from_parallel_segments_lie_at_infinity():
    segs = [segment([0.0, 0.0], [10.0, 0.0], id=0),
            segment([0.0, 5.0], [10.0, 5.0], id=1)]
    hyps = sample(endpoints(segs), 10, rng_seed=0)
    for h in hyps:
        assert abs(h[2]) < 1e-9
        assert abs(abs(h[0]) - 1.0) < 1e-9  # direction along x


def test_hypotheses_from_converging_segments():
    segs = [segment([0.0, 0.0], [50.0, 50.0], id=0),
            segment([200.0, 100.0], [150.0, 100.0], id=1)]
    hyps = sample(endpoints(segs), 5, rng_seed=1)
    expected = np.array([100.0, 100.0, 1.0])
    expected /= np.linalg.norm(expected)
    for h in hyps:
        assert np.allclose(h, expected, atol=1e-9) or \
            np.allclose(h, -expected, atol=1e-9)


def test_hypotheses_deterministic_given_seed():
    rng = np.random.default_rng(2)
    segs = segments_through([1000.0, 300.0], 10, rng)
    h1 = sample(endpoints(segs), 50, rng_seed=42)
    h2 = sample(endpoints(segs), 50, rng_seed=42)
    assert all(np.array_equal(a, b) for a, b in zip(h1, h2))


@pytest.mark.parametrize("n", [2, 3, 38, 100])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sampler_equals_choice_loop(n, seed):
    segs = random_segments(n, np.random.default_rng(100 + seed))
    got = sample(endpoints(segs), 200, rng_seed=seed)
    want, _ = loop_sample_vp_hypotheses(segs, 200, seed)
    assert got.shape == want.shape == (200, 3)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_sampler_equals_choice_loop_with_degenerate_pairs(seed):
    segs = cluttered_frame(seed)  # three exact duplicates
    got = sample(endpoints(segs), 3000, rng_seed=seed)
    want, attempts = loop_sample_vp_hypotheses(segs, 3000, seed)
    assert attempts > 3000  # degenerate pairs forced extra attempts
    assert np.array_equal(got, want)


def test_sampler_on_copies_stops_at_attempt_cap():
    seg = segment([10.0, 20.0], [200.0, 90.0], id=0)
    copies = [segment(p_start(seg), p_end(seg), id=i) for i in range(5)]
    got = sample(endpoints(copies), 40, rng_seed=4)
    want, attempts = loop_sample_vp_hypotheses(copies, 40, 4)
    assert attempts == 50 * 40 and got.shape == want.shape == (0, 3)
    # one distinct segment: 4 of 6 pairs are degenerate, over many batches
    mixed = copies[:3] + [segment([5.0, 400.0], [300.0, 380.0], id=3)]
    got = sample(endpoints(mixed), 40, rng_seed=4)
    want, attempts = loop_sample_vp_hypotheses(mixed, 40, 4)
    assert attempts > 80 and np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3, 38, 100])
def test_decode_pairs_equals_choice_on_the_same_stream(n):
    words = np.random.default_rng(5).integers(0, 2**32, 300, dtype=np.uint32)
    pairs, used = _decode_pairs(words, n)
    rng = np.random.default_rng(5)
    want = [rng.choice(n, size=2, replace=False) for _ in range(len(pairs))]
    assert np.array_equal(pairs, want)
    assert used == len(words) - len(words) % (2 if n == 2 else 3)


@pytest.mark.parametrize("n", [3, 38, 100])
def test_decode_pairs_rejection_matches_scalar_lemire(n):
    assert (2**32 - (n - 1)) % (n - 1) > 0 or (2**32 - n) % n > 0
    rng = np.random.default_rng(6)
    words = rng.integers(0, 2**32, 120, dtype=np.uint32)
    words[[0, 4, 5, 6, 50, 51, 52, 53, 119]] = 0  # 0 is rejected unless k is 2^j
    pairs, used = _decode_pairs(words, n)
    want, pos = [], 0
    while True:
        try:
            pair, nxt = floyd_pair(words, pos, n)
        except IndexError:
            break
        want.append(pair)
        pos = nxt
    assert len(pairs) < 40  # rejected words were skipped
    assert np.array_equal(pairs, want) and used == pos


def test_too_few_segments_raises():
    with pytest.raises(ValueError, match="too few segments"):
        sample(endpoints([segment([0, 0], [1, 0], id=0)]), 10, rng_seed=0)


# -- consensus ---------------------------------------------------------------

def test_consensus_perfect_for_vp_at_infinity():
    seg = segment([100.0, 50.0], [200.0, 50.0], id=0)
    assert angle(seg, [1.0, 0.0, 0.0]) < 1e-12


def test_consensus_perpendicular_vp():
    seg = segment([-10.0, 0.0], [10.0, 0.0], id=0)
    vp = np.array([0.0, 1000.0, 1.0])
    vp /= np.linalg.norm(vp)
    assert abs(angle(seg, vp) - 90.0) < 1e-9


def test_consensus_two_degree_construction():
    mid = np.array([320.0, 240.0])
    vp_xy = mid + 500.0 * np.array([1.0, 0.0])
    ang = np.radians(2.0)
    u = np.array([np.cos(ang), np.sin(ang)])
    seg = segment(mid - 40.0 * u, mid + 40.0 * u, id=0)
    vp = np.array([*vp_xy, 1.0])
    vp /= np.linalg.norm(vp)
    assert abs(angle(seg, vp) - 2.0) < 1e-6


def test_consensus_invariant_to_endpoint_swap_and_vp_scale():
    rng = np.random.default_rng(3)
    for _ in range(100):
        seg = segment(rng.uniform(0, 640, 2), rng.uniform(0, 640, 2), id=0)
        vp = rng.normal(0.0, 1.0, 3)
        vp /= np.linalg.norm(vp)
        swapped = segment(p_end(seg), p_start(seg), id=0)
        assert abs(angle(seg, vp) - angle(swapped, vp)) < 1e-9
        assert abs(angle(seg, vp) - angle(seg, -vp)) < 1e-9


def test_consensus_vp_at_midpoint_raises():
    seg = segment([100.0, 100.0], [200.0, 200.0], id=0)
    vp = np.array([150.0, 150.0, 1.0])
    vp /= np.linalg.norm(vp)
    other = segment([0.0, 10.0], [50.0, 10.0], id=1)
    got = consensus_angles(endpoints([other, seg]), [vp, vp])
    assert np.isnan(got[1]) and got[0] == scalar_consensus(other, vp)
    # refinement rejects such a cluster, so detection drops it
    with pytest.raises(ValueError, match="vp at segment midpoint"):
        refine([segment([100.0, 150.0], [200.0, 150.0], id=2),
                   segment([150.0, 100.0], [150.0, 200.0], id=3), seg])


def test_consensus_angles_equal_scalar_steps():
    rng = np.random.default_rng(15)
    segs = random_segments(300, rng)
    for vp in [*rng.normal(0.0, 1.0, (20, 3)), [0.6, 0.8, 0.0], [0.6, 0.8, 5e-10]]:
        vp = np.asarray(vp) / np.linalg.norm(vp)
        got = consensus_angles(endpoints(segs), np.tile(vp, (len(segs), 1)))
        assert got.tolist() == [scalar_consensus(s, vp) for s in segs]


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_consensus_matrix_equals_scalar_steps(seed):
    segs = cluttered_frame(seed)
    hyps = sample(endpoints(segs), 500, rng_seed=seed)
    on_mid = np.array([*midpoint(segs[5]), 1.0])
    extra = np.array([[0.6, 0.8, 0.0], [0.8, -0.6, 5e-10], [0.8, -0.6, -1e-9],
                      on_mid / np.linalg.norm(on_mid)])
    H = np.vstack([hyps, extra])
    got = angle_block(endpoints(segs), H)
    assert np.isnan(got[5, -1])  # the hypothesis at segment 5's midpoint
    got[5, -1] = -1.0
    want = [[scalar_consensus(s, h) if (r, c) != (5, len(H) - 1) else -1.0
             for c, h in enumerate(H)] for r, s in enumerate(segs)]
    assert got.tolist() == want


def edge_hypotheses(segs, rng_seed):
    """Sampled hypotheses, then ones at infinity, with |w| at, just above and
    just below 1e-9 (either sign), and one on segment 1's midpoint."""
    hyps = sample(endpoints(segs), 500, rng_seed=rng_seed)
    up, down = np.nextafter(1e-9, 1.0), np.nextafter(1e-9, 0.0)
    on_mid = np.array([*midpoint(segs[1]), 1.0])
    extra = [[0.6, 0.8, 0.0], [0.0, 1.0, 0.0], [0.8, -0.6, 1e-9],
             [0.8, -0.6, up], [0.8, -0.6, down], [-0.6, 0.8, -up], [-0.6, 0.8, -down],
             on_mid / np.linalg.norm(on_mid)]
    return np.vstack([hyps, extra])


@pytest.mark.parametrize("n", [2, 39, 100, 1000])
def test_blocked_preferences_equal_einsum_threshold(n, monkeypatch):
    # 1, 2, 5 and 43 column blocks for 508 hypotheses
    segs = random_segments(n, np.random.default_rng(n))
    H = edge_hypotheses(segs, rng_seed=n)
    angles = einsum_consensus_matrix(segs, H)
    assert angles[1, -1] == 90.0
    for theta in (0.5, 2.0, 89.999):
        monkeypatch.setattr(vanishing, "CONSENSUS_DEG", theta)
        got = preference_matrix(endpoints(segs), H)
        assert got.dtype == bool and np.array_equal(got, angles < theta)


def aimed_segments(deg, start_id):
    """Segments whose ray at `deg` from their direction passes through the
    origin from a far midpoint (|p| << |t| there)."""
    segs = []
    for i, m in enumerate([[500.0, 300.0], [-400.0, 200.0], [50.0, -450.0]]):
        m = np.array(m)
        b = math.atan2(-m[1], -m[0]) - math.radians(deg)
        u = np.array([math.cos(b), math.sin(b)])
        segs.append(segment(m - 20.0 * u, m + 20.0 * u, id=start_id + i))
    return segs


def boundary_hypotheses(mids, dirs, deg, length):
    """Hypotheses on rays from every midpoint at `deg` either side of its
    direction, nudged by -3..3 ulps of the angle: at `length` and at the
    midpoint's distance from the origin (through the origin for
    `aimed_segments`), and at infinity."""
    H = []
    for m, u in zip(mids, dirs):
        base = math.atan2(u[1], u[0])
        a = math.radians(deg)
        for sign in (1.0, -1.0):
            for k in range(-3, 4):
                b = base + sign * (a + k * math.ulp(a))
                v = np.array([math.cos(b), math.sin(b)])
                H += [[*(m + length * v), 1.0], [*(m + np.hypot(*m) * v), 1.0], [*v, 0.0]]
    return np.array(H)


def near_midpoint_hypotheses(mids, dirs):
    """With w = 1, so x/w and y/w are exact: on segment 0's midpoint, within
    1e-9 px of it (a NaN angle; along its direction too), and just beyond."""
    m, u = mids[0], dirs[0]
    return np.array([[*m, 1.0], [m[0] + 4e-10, m[1], 1.0], [m[0], m[1] - 9e-10, 1.0],
                     [*(m + 9e-10 * u), 1.0], [m[0] + 8e-10, m[1] + 8e-10, 1.0],
                     [*(m + 2e-9 * u), 1.0]])


@pytest.mark.parametrize("scale", [1.0, 1e-5])
@pytest.mark.parametrize("deg", [0.5, 2.0, 45.0, 89.9])
def test_prefilter_equals_exact_angles_at_the_boundary(deg, scale, monkeypatch):
    # scale 1e-5: every coordinate below 0.01, so the NaN rule's 1e-9 is large
    segs = random_segments(20, np.random.default_rng(21)) + aimed_segments(deg, 20)
    ends = scale * endpoints(segs)
    mids, dirs = segment_frames(ends)
    H = np.vstack([boundary_hypotheses(mids, dirs, deg, 300.0 * scale),
                   edge_hypotheses(segs, rng_seed=21), near_midpoint_hypotheses(mids, dirs)])
    angles = angle_block(ends, H)
    assert np.isnan(angles[0, -6:-2]).all() and (angles[0, -2:] < 90.0).all()
    near = np.unique(angles[np.abs(angles - deg) < 1e-9])
    assert len(near) >= 4  # computed angles at, above and below θ

    def prefs(theta):
        monkeypatch.setattr(vanishing, "CONSENSUS_DEG", theta)
        return preference_matrix(ends, H)
    for theta in [deg, *near, *np.nextafter(near, 0.0), *np.nextafter(near, 90.0)]:
        assert np.array_equal(prefs(theta), angles < theta)
    # an angle equal to θ is out, one ulp above θ it is in
    theta = near[0]
    assert not prefs(theta)[angles == theta].any()
    assert prefs(np.nextafter(theta, 90.0))[angles == theta].all()


# -- clustering --------------------------------------------------------------

def test_single_planted_cluster_recovered():
    rng = np.random.default_rng(4)
    segs = segments_through([900.0, 250.0], 20, rng)
    hyps = sample(endpoints(segs), 200, rng_seed=0)
    clusters = cluster(segs, hyps, 3)
    assert len(clusters) == 1
    assert clusters[0] == frozenset(range(20))


def test_three_planted_families_no_contamination():
    rng = np.random.default_rng(5)
    fams = [segments_through([2000.0, 240.0], 20, rng, start_id=0),
            segments_through([320.0, -1500.0], 20, rng, start_id=20),
            segments_through([320.0, 240.0], 20, rng, start_id=40)]
    segs = [s for fam in fams for s in fam]
    outliers = []
    for i in range(12):
        a = rng.uniform([0, 0], [640, 480])
        th = rng.uniform(0.0, 2 * np.pi)
        outliers.append(segment(a, a + 50.0 * np.array([np.cos(th), np.sin(th)]),
                                id=60 + i))
    hyps = sample(endpoints(segs + outliers), 500, rng_seed=0)
    clusters = cluster(segs + outliers, hyps, 3)
    big = [c for c in clusters if len(c) >= 18]
    assert len(big) == 3
    for c in big:
        fam_ids = {sid // 20 for sid in c if sid < 60}
        assert len(fam_ids) == 1  # no cross-family contamination


def test_cluster_partition_invariant_to_input_order():
    rng = np.random.default_rng(6)
    segs = segments_through([1200.0, 100.0], 10, rng) + \
        segments_through([-400.0, 300.0], 10, rng, start_id=10)
    hyps = sample(endpoints(segs), 300, rng_seed=7)
    c1 = set(cluster(segs, hyps, 3))
    c2 = set(cluster(list(reversed(segs)), hyps, 3))
    assert c1 == c2


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("theta", [1.0, 2.0, 5.0])
def test_jlinkage_matches_full_recompute_oracle(seed, theta, monkeypatch):
    monkeypatch.setattr(vanishing, "CONSENSUS_DEG", theta)
    segs = cluttered_frame(seed)
    hyps = sample(endpoints(segs), 300, rng_seed=seed)
    for order in (segs, list(reversed(segs))):
        assert cluster(order, hyps, 1) == naive_cluster(order, hyps, 1)
        assert cluster(order, hyps, 3) == naive_cluster(order, hyps, 3)


def test_jlinkage_oracle_with_empty_preference_sets():
    segs = cluttered_frame(14)
    # hypotheses from the first family alone leave most segments preferring none
    hyps = sample(endpoints(segs[:12]), 100, rng_seed=0)
    empty = ~preferences(segs, hyps).any(axis=1)
    assert empty.sum() >= 2  # pairs with union == 0 exist
    for order in (segs, list(reversed(segs))):
        assert cluster(order, hyps, 1) == naive_cluster(order, hyps, 1)


@pytest.mark.parametrize("scheme", ["shuffled", "sparse", "negative"])
@pytest.mark.parametrize("seed", [11, 12])
def test_jlinkage_matches_oracle_on_ids_out_of_input_order(scheme, seed):
    segs = cluttered_frame(seed)
    rng = np.random.default_rng(seed)
    new_ids = {"shuffled": rng.permutation(len(segs)),
               "sparse": [(i % 7) * 100000 + i for i in range(len(segs))],
               "negative": -5 * rng.permutation(len(segs)) - 1}[scheme]
    for s, sid in zip(segs, new_ids):
        s.id = int(sid)
    hyps = sample(endpoints(segs), 300, rng_seed=seed)
    for order in (segs, list(reversed(segs)), [segs[i] for i in rng.permutation(len(segs))]):
        for k in (1, 3):
            assert cluster(order, hyps, k) == naive_cluster(order, hyps, k)


def float64_jlinkage_cluster(ids, pref, min_cluster_size):
    """Oracle: `jlinkage_cluster`'s merge loop with float64 set sizes and
    similarities (the float32 counts cast up)."""
    ids = np.asarray(ids)
    pref = np.asarray(pref, dtype=bool)
    n = len(pref)
    order = np.argsort(ids)
    S = pref[order].astype(np.float32)
    inter = (S @ S.T).astype(np.float64)
    sizes = inter.diagonal().copy()
    sim = sizes[:, None] + sizes
    sim -= inter
    np.maximum(sim, 1.0, out=sim)
    np.divide(inter, sim, out=sim)
    sim.flat[::n + 1] = 0.0
    parent = list(range(n))
    counts = np.empty(n, dtype=np.float32)
    row = np.empty(n)
    while True:
        i, j = divmod(int(sim.argmax()), n)
        if sim[i, j] <= 0.0:
            break
        parent[j] = i
        sizes[j] = np.inf
        S[i] *= S[j]
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
    members = {}
    for r, sid in enumerate(ids[order].tolist()):
        parent[r] = parent[parent[r]]
        members.setdefault(parent[r], []).append(sid)
    clusters = [frozenset(c) for c in members.values() if len(c) >= min_cluster_size]
    clusters.sort(key=lambda c: (-len(c), min(c)))
    return clusters


def planted_preferences(rng, n, m):
    """A random (n, m) preference matrix with some rows and columns copies
    of others (exact ties), at a random density."""
    pref = rng.random((n, m)) < rng.uniform(0.02, 0.5)
    rows = rng.integers(0, n, n // 4)
    pref[rng.integers(0, n, len(rows))] = pref[rows]
    cols = rng.integers(0, m, m // 4)
    pref[:, rng.integers(0, m, len(cols))] = pref[:, cols]
    return pref


@pytest.mark.parametrize("seed", range(4))
def test_float32_jlinkage_equals_float64_oracle(seed):
    rng = np.random.default_rng(seed)
    for n, m in ((120, 2047), (rng.integers(2, 121), rng.integers(1, 2048)), (60, 500),
                 (rng.integers(2, 40), rng.integers(1, 30))):
        pref = planted_preferences(rng, n, m)
        ids = rng.permutation(10 * n)[:n] - 3 * n
        for k in (1, 3):
            assert jlinkage_cluster(ids, pref, k) == float64_jlinkage_cluster(ids, pref, k)


def test_float32_similarities_keep_every_fraction_apart():
    # every a/b with 0 <= a <= b <= 2047, as jlinkage_cluster divides them:
    # distinct fractions stay distinct float32 values, in the same order
    b = np.repeat(np.arange(1, 2048), np.arange(2, 2049))
    a = np.concatenate([np.arange(k + 1) for k in range(1, 2048)])
    exact = a / b  # float64: distinct fractions differ by >= 2047**-2, far above its rounding
    single = a.astype(np.float32) / b.astype(np.float32)
    order = np.argsort(exact, kind="stable")
    step64, step32 = np.diff(exact[order]), np.diff(single[order])
    assert (step32 >= 0).all() and np.array_equal(step64 > 0, step32 > 0)


def test_jlinkage_rejects_hypothesis_counts_from_2_pow_11():
    ok = np.ones((2, 2047), dtype=bool)
    assert jlinkage_cluster([0, 1], ok, 2) == [frozenset([0, 1])]
    with pytest.raises(ValueError, match="too many hypotheses"):
        jlinkage_cluster([0, 1], np.ones((2, 2048), dtype=bool), 2)


def test_jlinkage_stays_in_bounded_memory():
    # a 100-segment frame at the one-frame detector's 500 hypotheses: float32
    # counts and similarities peak at ~341 KiB above entry (482 KiB with the
    # float64 similarities); checked on numpy 2.4
    rng = np.random.default_rng(0)
    pref, ids = rng.random((100, 500)) < 0.1, list(range(100))
    want = jlinkage_cluster(ids, pref, 3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = jlinkage_cluster(ids, pref, 3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got == want and peak < 400 * 2**10


def ring_preferences(n):
    """Preference sets {i, i+1 mod n}: each neighbour pair at distance 2/3,
    every other pair disjoint."""
    pref = np.zeros((n, n), dtype=bool)
    for i in range(n):
        pref[i, [i, (i + 1) % n]] = True
    return pref


def test_jlinkage_exact_ties_at_positive_distance():
    # four neighbour pairs tie at 2/3; the smallest sorted id pair is (-5, 12)
    ids = [30, -5, 12, 7]
    got = jlinkage_cluster(ids, ring_preferences(4), 1)
    assert got == [frozenset([-5, 12]), frozenset([7, 30])]
    assert got == naive_jlinkage_cluster(ids, ring_preferences(4), 1)
    rng = np.random.default_rng(3)
    for n in (5, 6, 9, 16):
        pref = ring_preferences(n)[:, rng.permutation(n)]
        for _ in range(4):
            ids = rng.permutation(100 * n)[:n] - 50 * n
            assert jlinkage_cluster(ids, pref, 1) == \
                naive_jlinkage_cluster(ids.tolist(), pref, 1)


def test_jaccard_distances_are_more_than_the_tie_tolerance_apart():
    # every |A∩B| = a <= |A∪B| = b <= 500, as the float64 oracle rounds them
    b = np.repeat(np.arange(1, 501), np.arange(2, 502)).astype(float)
    a = np.concatenate([np.arange(k + 1) for k in range(1, 501)]).astype(float)
    values = np.unique(1.0 - a / b)
    assert len(values) > 70_000  # the distinct fractions a/b
    assert np.diff(values).min() > 1e-15
    assert values[-2] < 1.0 - 1e-12 and values[-1] == 1.0  # a > 0 stays below the stop


def test_jaccard_similarities_order_like_distances():
    # the fractions of the distance test above, as similarities a/b
    b = np.repeat(np.arange(1, 501), np.arange(2, 502)).astype(float)
    a = np.concatenate([np.arange(k + 1) for k in range(1, 501)]).astype(float)
    sim = a / b
    sims, sim_rank = np.unique(sim, return_inverse=True)
    dists, dist_rank = np.unique(1.0 - sim, return_inverse=True)
    # descending similarity: the order and the ties of ascending distance
    assert len(sims) == len(dists)
    assert np.array_equal(dist_rank, len(sims) - 1 - sim_rank)
    assert np.diff(sims).min() > 1e-15
    assert (sim[a > 0] > 0.0).all() and (sim[a == 0] == 0.0).all()  # "max <= 0" stops


def test_jlinkage_rejects_hypothesis_counts_from_2_pow_24():
    pref = np.broadcast_to(True, (2, 1 << 24))  # a view: nothing is allocated
    with pytest.raises(ValueError, match="too many hypotheses"):
        jlinkage_cluster([0, 1], pref, 1)


def test_jlinkage_hypothesis_limit_is_exclusive(monkeypatch):
    monkeypatch.setattr(vanishing, "_MAX_HYPOTHESES", 4)
    shared = np.array([[1, 1, 0], [1, 0, 1]], dtype=bool)
    assert jlinkage_cluster([0, 1], shared, 2) == [frozenset([0, 1])]
    with pytest.raises(ValueError, match="too many hypotheses"):
        jlinkage_cluster([0, 1], np.ones((2, 4), dtype=bool), 2)


def test_jlinkage_two_segments():
    shared = np.array([[1, 1, 0], [1, 0, 0]], dtype=bool)
    disjoint = np.array([[1, 0, 0], [0, 1, 1]], dtype=bool)
    assert jlinkage_cluster([5, -1], shared, 2) == [frozenset([5, -1])]
    assert jlinkage_cluster([5, -1], disjoint, 2) == []
    assert jlinkage_cluster([5, -1], disjoint, 1) == [frozenset([-1]), frozenset([5])]
    for pref in (shared, disjoint):
        for k in (1, 2):
            assert jlinkage_cluster([5, -1], pref, k) == \
                naive_jlinkage_cluster([5, -1], pref, k)


@pytest.mark.parametrize("share", [1.0, 0.95])
def test_jlinkage_dense_rows_equal_full_recompute_oracle(share):
    # 2047 hypotheses, the most `jlinkage_cluster` takes: set sizes and
    # intersections in the thousands, all held exactly by the float32 counts
    rng = np.random.default_rng(17)
    pref = rng.random((30, 2047)) < share
    ids = rng.permutation(1000)[:30].tolist()
    for k in (1, 3):
        got = jlinkage_cluster(ids, pref, k)
        assert got == naive_jlinkage_cluster(ids, pref, k)
    if share == 1.0:
        assert got == [frozenset(ids)]


def test_jlinkage_every_segment_merges():
    rng = np.random.default_rng(12)
    segs = segments_through([700.0, -300.0], 25, rng, start_id=40)
    hyps = sample(endpoints(segs), 200, rng_seed=1)
    assert cluster(segs, hyps, 3) == [frozenset(range(40, 65))]
    assert cluster(segs, hyps, 3) == naive_cluster(segs, hyps, 3)
    ids = rng.permutation(1000)[:30].tolist()
    assert jlinkage_cluster(ids, np.ones((30, 70), dtype=bool), 3) == [frozenset(ids)]


# -- refinement --------------------------------------------------------------

def test_refine_vp_exact_intersection():
    segs = [segment([320.0 - 100.0, 240.0 - 50.0], [320.0 - 10.0, 240.0 - 5.0], id=0),
            segment([320.0 + 80.0, 240.0 - 80.0], [320.0 + 8.0, 240.0 - 8.0], id=1)]
    est = refine(segs)
    expected = np.array([320.0, 240.0, 1.0])
    expected /= np.linalg.norm(expected)
    vp = est.vp_homogeneous
    if vp @ expected < 0:
        vp = -vp
    assert np.allclose(vp, expected, atol=1e-9)


def test_refine_vp_planted_cluster():
    rng = np.random.default_rng(8)
    target = np.array([150.0, 700.0])
    segs = segments_through(target, 20, rng)
    est = refine(segs)
    vp = est.vp_homogeneous
    expected = np.array([*target, 1.0])
    expected /= np.linalg.norm(expected)
    if vp @ expected < 0:
        vp = -vp
    assert np.allclose(vp, expected, atol=1e-7)
    vps = np.tile(est.vp_homogeneous, (len(segs), 1))
    assert (consensus_angles(endpoints(segs), vps) < 1e-6).all()


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_refine_vp_equals_per_segment_loop(seed):
    segs = cluttered_frame(seed)
    hyps = sample(endpoints(segs), 500, rng_seed=seed)
    clusters = cluster(segs, hyps, 2)
    assert len(clusters) >= 4
    for ids in clusters:
        members = [s for s in segs if s.id in ids]
        est = refine(members)
        vp, rms = loop_refine_vp(members)
        assert np.array_equal(est.vp_homogeneous, vp) and est.residual_rms == rms


def test_refine_vp_identical_lines_rank_deficient():
    segs = [segment([0.0, 10.0], [100.0, 10.0], id=i) for i in range(4)]
    with pytest.raises(ValueError, match="rank deficient"):
        refine(segs)


def test_refine_vps_rejects_only_the_clusters_that_fail():
    # a 2e-16 px segment far from its cluster's centre: conditioning shrinks
    # it to a point, so that cluster has no line; the others are refined as
    # if alone
    rng = np.random.default_rng(18)
    good = segments_through([150.0, 700.0], 6, rng)
    far = [segment([1e6, 1e6 + 40.0 * i], [1e6 + 30.0, 1e6 + 40.0 * i + 5.0], id=10 + i)
           for i in range(3)]
    tiny = segment([1.0, 1.0], [np.nextafter(1.0, 2.0), 1.0], id=13)
    flat = [segment([0.0, 10.0], [100.0, 10.0], id=20 + i) for i in range(3)]
    segs = good + far + [tiny] + flat + [good[0]]
    ends = endpoints(segs)
    got = refine_vps(ends, [(range(6), ids_of(good)), (range(6, 10), [10, 11, 12, 13]),
                            (range(10, 13), [20, 21, 22]), ([13], [0])])
    assert str(got[1]) == "zero-length segment has no line"
    assert str(got[2]).startswith("rank deficient")
    assert str(got[3]) == "cluster must contain at least 2 segments"
    alone = refine(good)
    assert np.array_equal(got[0].vp_homogeneous, alone.vp_homogeneous)
    assert got[0].residual_rms == alone.residual_rms


# -- lifting -----------------------------------------------------------------

def test_lift_principal_point_is_optical_axis():
    vp = np.array([320.0, 240.0, 1.0])
    vp /= np.linalg.norm(vp)
    assert np.allclose(lift_vanishing_point(vp, K, np.eye(3)),
                       [0.0, 0.0, 1.0], atol=1e-12)


def test_lift_hand_value():
    vp = np.array([820.0, 240.0, 1.0])
    vp /= np.linalg.norm(vp)
    d = lift_vanishing_point(vp, K, np.eye(3))
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(d, [s, 0.0, s], atol=1e-12)


def test_lift_with_rotation_stays_unit():
    vp = np.array([820.0, 240.0, 1.0])
    vp /= np.linalg.norm(vp)
    r_wc = so3_exp([0.0, np.pi / 2, 0.0])
    d = lift_vanishing_point(vp, K, r_wc)
    assert abs(np.linalg.norm(d) - 1.0) < 1e-12
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(d, canonical_direction(r_wc @ [s, 0.0, s]), atol=1e-12)


def test_lift_sign_invariant():
    rng = np.random.default_rng(9)
    for _ in range(100):
        vp = rng.normal(0.0, 1.0, 3)
        vp /= np.linalg.norm(vp)
        assert np.allclose(lift_vanishing_point(vp, K, np.eye(3)),
                           lift_vanishing_point(-vp, K, np.eye(3)), atol=1e-12)


# -- full detection ----------------------------------------------------------

def test_detect_sets_cluster_labels():
    rng = np.random.default_rng(10)
    segs = segments_through([1500.0, 240.0], 15, rng)
    lone = segment([10.0, 400.0], [60.0, 330.0], id=15)
    ests = detect_vanishing_points(segs + [lone], rng_seed=0)
    assert len(ests) >= 1
    assert all(s.cluster_label == 0 for s in segs)
    assert ests[0].member_segment_ids >= frozenset(range(15))


def test_detect_rejects_duplicate_segment_ids():
    rng = np.random.default_rng(16)
    segs = segments_through([1500.0, 240.0], 8, rng) + \
        segments_through([300.0, -900.0], 8, rng, start_id=8)
    for i, s in enumerate(segs):
        s.id = i % 6  # ids 0-5 repeated across both families
    with pytest.raises(ValueError, match="duplicate segment id 0"):
        detect_vanishing_points(segs, rng_seed=0)


def test_detect_clears_stale_labels_on_every_return():
    rng = np.random.default_rng(10)
    segs = segments_through([1500.0, 240.0], 15, rng)
    copies = [segment(p_start(segs[0]), p_end(segs[0]), id=100 + i) for i in range(3)]
    assert detect_vanishing_points(segs + copies, rng_seed=0)
    assert all(s.cluster_label == 0 for s in segs + copies)
    # identical lines: no hypothesis
    assert detect_vanishing_points(copies, rng_seed=0) == []
    assert [s.cluster_label for s in copies] == [None] * 3
    # fewer than two segments
    assert detect_vanishing_points(segs[:1], rng_seed=0) == []
    assert segs[0].cluster_label is None


# -- scene detection -----------------------------------------------------------

def scene_input(scene):
    """`detect_scene_vanishing_points` input of [(segments, seed)] per frame."""
    return [(endpoints(segs), [s.id for s in segs], seed) for segs, seed in scene]


def estimate_bits(estimates):
    return [(e.vp_homogeneous.tobytes(), sorted(e.member_segment_ids), e.residual_rms.hex())
            for e in estimates]


def assert_scene_equals_per_frame(scene):
    """The scene detector's estimates are, bit for bit, each frame's alone."""
    got = detect_scene_vanishing_points(scene_input(scene), DEFAULT_N_HYPOTHESES,
                                        DEFAULT_MIN_CLUSTER_SIZE)
    want = [detect_vanishing_points(segs, rng_seed=seed) for segs, seed in scene]
    assert [estimate_bits(e) for e in got] == [estimate_bits(e) for e in want]
    return got


def duplicated_frame():
    """A planted family and ten exact copies of its first segment: about a
    fifth of the pairs are identical lines."""
    segs = segments_through([1500.0, 240.0], 15, np.random.default_rng(10))
    return segs + [segment(p_start(segs[0]), p_end(segs[0]), id=100 + i) for i in range(10)]


def copies_frame():
    """Three copies of one segment: no pair gives a hypothesis."""
    seg = segment([10.0, 20.0], [200.0, 90.0], id=0)
    return [segment(p_start(seg), p_end(seg), id=i) for i in range(3)]


def test_scene_sampler_equals_choice_loop_per_frame():
    rng = np.random.default_rng(3)
    scene = [(random_segments(38, rng), 0), (duplicated_frame(), 1), (copies_frame(), 2),
             (random_segments(2, rng), 3)]
    got = sample_vp_hypotheses([endpoints(segs) for segs, _ in scene], 300,
                               [seed for _, seed in scene])
    attempts = []
    for hyps, (segs, seed) in zip(got, scene):
        want, n = loop_sample_vp_hypotheses(segs, 300, seed)
        assert np.array_equal(hyps, want)
        attempts.append(n)
    # the duplicated frame drew a second batch; the copies ran to the cap
    assert attempts[0] == 300 and attempts[1] > 300 and attempts[2] == 50 * 300
    assert [len(h) for h in got] == [300, 300, 0, 300]
    assert sample_vp_hypotheses([], 300, []) == []


@pytest.mark.parametrize("block", [7, 500, 2_000])
def test_scene_sampler_block_seams_are_exact(monkeypatch, block):
    # structured(0)'s frames as the pipeline samples them, cut into groups
    # as `detect_scene_vanishing_points` cuts them, small (every frame alone,
    # or two at a time) and by default (two groups of its 20 frames), and
    # sampled group by group: the hypotheses of one call on all frames, byte
    # for byte
    cfg = structured(0)
    poses = generate_trajectory(cfg)
    frames = render_measurements(generate_world(cfg), poses, cfg)
    ends = [fr.ends[filter_short(fr.ends)] for fr in frames]
    seeds = [cfg.rng_seed * 1009 + t for t in range(len(frames))]
    want = sample_vp_hypotheses(ends, 300, seeds)
    assert all(len(h) == 300 for h in want)
    groups = geometry.block_runs([3 * 300] * len(frames))
    monkeypatch.setattr(geometry, "BLOCK_ELEMS", block)
    small = geometry.block_runs([3 * 300] * len(frames))
    assert len(groups) == 2 and len(small) > 2
    for runs in (groups, small):
        got = [h for a, b in runs for h in sample_vp_hypotheses(ends[a:b], 300, seeds[a:b])]
        assert [h.tobytes() for h in got] == [h.tobytes() for h in want]


@pytest.mark.parametrize("block", [7, 2_000])
def test_scene_detection_block_seams_are_exact(monkeypatch, block):
    # structured(0)'s frames as the pipeline detects them, sampled and
    # clustered in groups cut small (every frame alone, or two at a time,
    # with one-column consensus blocks at 7) and in the default two groups:
    # the same estimates, byte for byte
    cfg = structured(0)
    frames = render_measurements(generate_world(cfg), generate_trajectory(cfg), cfg)
    scene = [(fr.ends[filter_short(fr.ends)], fr.ids[filter_short(fr.ends)].tolist(),
              cfg.rng_seed * 1009 + t) for t, fr in enumerate(frames)]
    want = detect_scene_vanishing_points(scene, 300, 6)
    monkeypatch.setattr(geometry, "BLOCK_ELEMS", block)
    monkeypatch.setattr(vanishing, "BLOCK_ELEMS", block)
    assert len(geometry.block_runs([3 * 300] * len(frames))) >= len(frames) // 2
    got = detect_scene_vanishing_points(scene, 300, 6)
    assert [estimate_bits(e) for e in got] == [estimate_bits(e) for e in want]
    assert sum(map(len, want)) >= 2 * len(frames)


def test_scene_detection_equals_per_frame_on_degenerate_frames():
    lone = [segment([10.0, 400.0], [60.0, 330.0], id=7)]
    scene = [(cluttered_frame(11), 3), (duplicated_frame(), 4), (lone, 5), (copies_frame(), 6),
             ([], 7), (cluttered_frame(12), 8)]
    got = assert_scene_equals_per_frame(scene)
    assert [bool(e) for e in got] == [True, True, False, False, False, True]
    assert [e.member_segment_ids for e in got[1]] == [{s.id for s in duplicated_frame()}]


def test_scene_detection_without_a_usable_frame():
    lone = [segment([10.0, 400.0], [60.0, 330.0], id=7)]
    settings = DEFAULT_N_HYPOTHESES, DEFAULT_MIN_CLUSTER_SIZE
    assert detect_scene_vanishing_points(
        scene_input([(lone, 0), ([], 1), (copies_frame(), 2)]), *settings) == [[], [], []]
    assert detect_scene_vanishing_points([], *settings) == []


def test_scene_detection_rejects_duplicate_ids_in_a_frame():
    segs = cluttered_frame(11)
    scene = scene_input([(segs, 0), (segs[:5], 1)])
    scene[1][1][4] = scene[1][1][0]
    with pytest.raises(ValueError, match="duplicate segment id 0"):
        detect_scene_vanishing_points(scene, DEFAULT_N_HYPOTHESES, DEFAULT_MIN_CLUSTER_SIZE)


def clutter_frames(ts=(0, 9, 21, 33)):
    """Segments of frames ts of the golden clutter scene at seed 5."""
    cfg = vp_clutter_config(5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        frames = render_measurements(generate_world(cfg), generate_trajectory(cfg), cfg)
    return [frames[t].segments for t in ts]


@pytest.mark.parametrize("t", range(4))
def test_detect_equals_oracle_path_on_clutter_frames(t, monkeypatch):
    segs = clutter_frames()[t]
    for order, theta, k in ((segs, 2.0, 3), (list(reversed(segs)), 1.0, 6)):
        monkeypatch.setattr(vanishing, "CONSENSUS_DEG", theta)
        seed = 5 * 1009 + t
        ests, = detect_scene_vanishing_points(scene_input([(order, seed)]),
                                              DEFAULT_N_HYPOTHESES, k)
        want, labels = oracle_detect_vanishing_points(order, seed, theta, k)
        got = [(e.vp_homogeneous.tolist(), sorted(e.member_segment_ids), e.residual_rms)
               for e in ests]
        assert len(got) >= 4 and got == want
        label = {sid: i for i, e in enumerate(ests) for sid in e.member_segment_ids}
        assert [label.get(s.id) for s in order] == labels
        if k == DEFAULT_MIN_CLUSTER_SIZE:  # the one-frame detector, which writes the labels
            assert estimate_bits(detect_vanishing_points(order, rng_seed=seed)) == \
                estimate_bits(ests)
            assert [s.cluster_label for s in order] == labels


def test_jlinkage_equals_full_recompute_oracle_on_clutter_frames():
    # ~86 merges a frame at the shipped hypothesis count; equal partitions
    # give equal clusters for every min_cluster_size, so k = 1 covers them
    ts = range(2, 40, 4)
    for t, segs in zip(ts, clutter_frames(ts)):
        hyps = sample(endpoints(segs), DEFAULT_N_HYPOTHESES, rng_seed=5 * 1009 + t)
        for order in (segs, list(reversed(segs))):
            got = cluster(order, hyps, 1)
            assert got == naive_cluster(order, hyps, 1)
            assert len(segs) - len(got) >= 60  # merges


# Recorded from the full-recompute J-Linkage; a front-end rewrite must keep them.
PINNED_VPS = [
    ([-0.9871878263170812, -0.1595613227607842, -0.0006163198723146306],
     [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 60],
     0.6458756339793637),
    ([-0.16380503627208454, 0.986492575323735, -0.0005558084616312669],
     [12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 61],
     0.6194920092884393),
    ([-0.8204379978225195, -0.5717301067814493, -0.0024853025264766635],
     [24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 56],
     1.2416372631048989),
    ([0.853149296460659, -0.5216658742373254, -0.0009967973162754956],
     [36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 47],
     0.5199531035807714),
    ([0.5243725389940203, 0.851486700184409, 0.0019595300536182276],
     [50, 58, 62],
     2.185332934199159e-14),
]
PINNED_LABELS = [0] * 12 + [1] * 12 + [2] * 12 + [3] * 10 + [
    None, 3, None, None, 4, None, None, None, None, None, 2, None, 4, None, 0, 1, 4]


def test_detect_pinned_outputs_on_cluttered_frame():
    segs = cluttered_frame(11)
    ests = detect_vanishing_points(segs, rng_seed=3)
    got = [(e.vp_homogeneous.tolist(), sorted(e.member_segment_ids), e.residual_rms)
           for e in ests]
    assert got == PINNED_VPS
    assert [s.cluster_label for s in segs] == PINNED_LABELS
