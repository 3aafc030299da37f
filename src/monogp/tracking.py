"""Line-track matching and mapline verification gates.

The three verification gates run before a triangulated line is admitted to
the map for a given frame: reprojection (midpoint distance + endpoint
perpendicular distance), sensitivity (along-line displacements are
unobservable), and overlap (projected extent must cover enough of the
observed extent). Gate decisions can be dumped to an audit CSV for
golden-file reproducibility.

Matching and gating run on a scene's segment rows (`SceneSegments`):
`match_predicted` pre-gates every frame's prediction/detection pairs in
runs of predictions whose pairs fit one block (see `geometry`'s block rule),
scores the survivors in one pass and keeps only the greedy choice in Python
(per prediction in order, the first-index best among the detections not
yet taken), and `run_gates` gates every (track, frame) pair of a pose set
in one call, its decisions kept as columns until `write_gate_audit`. A
single segment pair is a one-row stack. The floats are those of the
per-pair loops they replaced:
- dot products, norms and angles keep the per-row floats (see `geometry`'s
  row numerics), and `max`/`min` keep Python's first-of-equals rule;
- audit values are Python floats, so `gate_audit.csv` keeps their `repr`.
"""
from __future__ import annotations

import csv
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .geometry import acos_deg, block_runs, row_norms
from .segments import lines_through, segment_frames

EPS_DISP = 1e-6  # px; below this the sensitivity gate has nothing to test

# `match_predicted`: the midpoint-distance and direction-angle gates and the
# score weights of a gated prediction/detection pair.
MATCH_GATE_MID_PX = 10.0
MATCH_GATE_ANG_DEG = 5.0
MATCH_W_ANGLE = 0.5
MATCH_W_OVERLAP = 0.5


# Mapline thresholds: segments shorter than TAU_S are neither tracked nor
# used for VP detection; `run_gates` applies the other four.
TAU_S = 15.0       # min segment length, px
THETA_THRE = 4.0   # midpoint distance, px
D_THRE = 3.0       # endpoint perpendicular distance, px
ALPHA_THRE = 30.0  # sensitivity, degrees
R_THRE = 0.3       # overlap ratio, dimensionless


class GateResult(NamedTuple):
    """A gate's verdict on n stacked pairs, (n,) arrays: `passed`, the failure
    `reason` (None on a pass, an object array) and the gate's `value`."""
    passed: np.ndarray
    reason: np.ndarray
    value: np.ndarray


def _reasons(failed, reason: str) -> np.ndarray:
    """Object array of `reason` where `failed`, None elsewhere; it holds the
    one `reason` object, not a string per row."""
    out = np.full(len(failed), None, dtype=object)
    out[failed] = reason
    return out


def _first_max(a, b):
    """`max(a, b)` per element: a unless b > a (the first of equals wins)."""
    return np.where(b > a, b, a)


def _first_min(a, b):
    """`min(a, b)` per element: a unless b < a."""
    return np.where(b < a, b, a)


class SceneSegments(NamedTuple):
    """The segments of a list of frames (`simulate.FrameObservations`), frame
    by frame, each frame's detections before its predictions: endpoints (N, 4)
    and per row its id, frame index and track id (-1 on a detection)."""
    ends: np.ndarray
    ids: np.ndarray
    frame: np.ndarray
    track: np.ndarray

    @classmethod
    def of(cls, frames) -> "SceneSegments":
        blocks = [(e, i, np.full(len(i), t), k) for t, fr in enumerate(frames)
                  for e, i, k in ((fr.ends, fr.ids, np.full(len(fr.ids), -1)),
                                  (fr.pred_ends, fr.pred_ids, fr.pred_tracks))]
        return cls(*map(np.concatenate, zip(*blocks)))


def filter_short(ends) -> np.ndarray:
    """Mask of the rows of `ends` (n, 4) at least `TAU_S` long (boundary kept).

    The lengths are `row_norms` of the endpoint differences, bit for bit
    `np.linalg.norm(p_end - p_start)` of each segment."""
    return row_norms(ends[:, 2:] - ends[:, :2]) >= TAU_S


def match_predicted(pred, pred_frame, det, det_frame) -> np.ndarray:
    """Fuse flow-predicted tracks with fresh detections, all frames at once.

    `pred` (n, 4) and `det` (k, 4) are endpoint rows with their frames, both
    sorted by frame. Returns per prediction the row of the detection that
    represents its track, or -1 (it continues as predicted-only).

    Candidates are same-frame pairs gated on midpoint distance
    (MATCH_GATE_MID_PX) and direction angle (MATCH_GATE_ANG_DEG), scored with
    MATCH_W_ANGLE (1 - angle/gate) + MATCH_W_OVERLAP overlap. A midpoint
    pre-gate 1e-6 px wider than the gate picks the candidates, over runs of
    consecutive predictions whose same-frame pairs fit one block
    (`block_runs`), and the exact gates and the score run on the survivors
    of all runs, in pair order. Only the greedy choice runs in Python: per
    prediction in order, the first-index maximum among its gated detections
    not yet taken, the choice of a strict `score > best` scan from best = -1.
    """
    lo = np.searchsorted(det_frame, pred_frame, side="left")
    count = np.searchsorted(det_frame, pred_frame, side="right") - lo
    pred_mid, pred_dir = segment_frames(pred)
    det_mid, det_dir = segment_frames(det)
    near_pairs = [(np.empty(0, dtype=np.intp),) * 2]
    for a, b in block_runs(count):
        n = count[a:b]
        i = np.repeat(np.arange(a, b), n)
        k = np.arange(len(i)) + np.repeat(lo[a:b] - (np.cumsum(n) - n), n)
        near = np.hypot(det_mid[k, 0] - pred_mid[i, 0],
                        det_mid[k, 1] - pred_mid[i, 1]) < MATCH_GATE_MID_PX + 1e-6
        near_pairs.append((i[near], k[near]))
    i, k = map(np.concatenate, zip(*near_pairs))
    gated = ~(row_norms(det_mid[k] - pred_mid[i]) >= MATCH_GATE_MID_PX)
    i, k = i[gated], k[gated]
    c = np.abs(np.vecdot(det_dir[k], pred_dir[i]))
    c /= row_norms(det_dir)[k] * row_norms(pred_dir)[i]
    ang = acos_deg(c)
    gated = ~(ang >= MATCH_GATE_ANG_DEG)
    i, k, ang = i[gated], k[gated], ang[gated]
    overlap = np.clip(overlap_ratio(pred[i, :2], pred[i, 2:],
                                    det[k, :2], det[k, 2:]), 0.0, 1.0)
    score = (MATCH_W_ANGLE * (1.0 - ang / MATCH_GATE_ANG_DEG)
             + MATCH_W_OVERLAP * overlap)
    chosen = np.full(len(pred), -1)
    taken: set[int] = set()
    for row, pairs in groupby(zip(i.tolist(), k.tolist(), score.tolist()), itemgetter(0)):
        best, top = -1, -1.0
        for _, d, s in pairs:
            if s > top and d not in taken:
                best, top = d, s
        if best >= 0:
            chosen[row] = best
            taken.add(best)
    return chosen


def reprojection_gate(p_ori_mid, p_proj_mid, d_s, d_e,
                      theta_thre: float, d_thre: float) -> GateResult:
    """Midpoint-distance and endpoint perpendicular-distance checks on
    midpoints (n, 2) and endpoint distances (n,)."""
    mid_err = row_norms(p_ori_mid - p_proj_mid)
    d = _first_max(d_s, d_e)
    far = mid_err > theta_thre
    off = ~far & (d > d_thre)
    value = np.where(far, mid_err, np.where(off, d, _first_max(mid_err, d)))
    reason = _reasons(far, "midpoint")
    reason[off] = "perpendicular"
    return GateResult(~(far | off), reason, value)


def sensitivity_gate(v_ori, p_ori_mid, p_proj_mid,
                     alpha_thre: float) -> GateResult:
    """Reject displacements sliding along the line (unobservable errors):
    unit directions `v_ori` and midpoints, (n, 2) each."""
    disp = p_proj_mid - p_ori_mid
    norm = row_norms(disp)
    moved = ~(norm < EPS_DISP)  # below it there is nothing to test
    c = np.abs(np.vecdot(v_ori[moved], disp[moved])) / norm[moved]
    value = np.zeros(len(disp))
    value[moved] = 90.0 - acos_deg(c)
    passed = ~(moved & (value > alpha_thre))
    reason = _reasons(~passed, "sensitivity")
    return GateResult(passed, reason, value)


def overlap_ratio(p_ori_s, p_ori_e, p_proj_s, p_proj_e) -> np.ndarray:
    """Share of the original extent that the projected extent covers, (n,)
    for n stacked pairs of segments, their endpoints (n, 2) each.

    Both extents are measured along the original direction in units of the
    original length; the ratio is at most 1 and negative when they are apart.
    """
    l_ori = row_norms(p_ori_e - p_ori_s)
    if not l_ori.all():
        raise ValueError("original segment has zero length")
    v = (p_ori_e - p_ori_s) / l_ori[:, None]
    r1 = np.vecdot(p_proj_s - p_ori_s, v) / l_ori
    r2 = np.vecdot(p_proj_e - p_ori_s, v) / l_ori
    lo, hi = _first_min(r1, r2), _first_max(r1, r2)
    return _first_min(hi, 1.0) - _first_max(lo, 0.0)


def overlap_gate(p_ori_s, p_ori_e, p_proj_s, p_proj_e,
                 r_thre: float) -> GateResult:
    """Projected-extent overlap ratio r; fail when r < r_thre."""
    r = overlap_ratio(p_ori_s, p_ori_e, p_proj_s, p_proj_e)
    passed = ~(r < r_thre)
    reason = _reasons(~passed, "overlap")
    return GateResult(passed, reason, r)


class GateAudit(NamedTuple):
    """One `run_gates` call's decisions as columns: each pair's frame and
    track id, and per gate its name, threshold and stacked result."""
    frame_id: np.ndarray
    track_id: np.ndarray
    gates: list  # (name, threshold, GateResult)


def write_gate_audit(audit: list[GateAudit], path) -> None:
    """One row per pair and gate, pair by pair; values and thresholds are
    the `repr` of Python floats."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["frame_id", "track_id", "gate", "value", "threshold", "verdict"])
        for block in audit:
            gates = [(name, repr(thr), [repr(v) for v in res.value.tolist()],
                      np.where(res.passed, "pass", res.reason).tolist())
                     for name, thr, res in block.gates]
            for row, (t, k) in enumerate(zip(block.frame_id.tolist(),
                                             block.track_id.tolist())):
                w.writerows([t, k, name, values[row], thr, verdicts[row]]
                            for name, thr, values, verdicts in gates)


def run_gates(frame_id, track_id, observed, projected, audit: list[GateAudit]):
    """Run all three gates on n observed/projected segment pairs, stacked
    endpoints (n, 4), x1 y1 x2 y2 per row; `frame_id` and `track_id` hold the
    frame and track id of each row. Returns the (n,) pass mask. `audit` gets
    one `GateAudit` per call that gates any pair.
    """
    if (projected[:, :2] == projected[:, 2:]).all(axis=1).any():
        raise ValueError("zero-length segment")
    ones = np.ones((len(observed), 1))
    l_proj = lines_through(projected[:, :2], projected[:, 2:])
    d_s = np.abs(np.vecdot(l_proj, np.hstack([observed[:, :2], ones])))
    d_e = np.abs(np.vecdot(l_proj, np.hstack([observed[:, 2:], ones])))
    ori_mid, _ = segment_frames(observed)
    proj_mid, proj_dir = segment_frames(projected)
    results = [
        ("reprojection", max(THETA_THRE, D_THRE),
         reprojection_gate(ori_mid, proj_mid, d_s, d_e, THETA_THRE, D_THRE)),
        ("sensitivity", ALPHA_THRE,
         sensitivity_gate(proj_dir, ori_mid, proj_mid, ALPHA_THRE)),
        ("overlap", R_THRE,
         overlap_gate(observed[:, :2], observed[:, 2:], projected[:, :2],
                      projected[:, 2:], R_THRE)),
    ]
    if len(observed):
        audit.append(GateAudit(np.asarray(frame_id), np.asarray(track_id), results))
    return np.logical_and.reduce([res.passed for _, _, res in results])
