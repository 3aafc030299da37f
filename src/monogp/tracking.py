"""Line-track maintenance and mapline verification gates.

The three verification gates run before a triangulated line is admitted to
the map for a given frame: reprojection (midpoint distance + endpoint
perpendicular distance), sensitivity (along-line displacements are
unobservable), and overlap (projected extent must cover enough of the
observed extent). Gate decisions can be dumped to an audit CSV for
golden-file reproducibility.

Matching and gating run on stacked arrays: `match_predicted` scores a
frame's prediction/detection pairs in one block and keeps only the greedy
choice in Python, and `run_gates` gates every observation of every
triangulated track of a pose set in one call. Each gate is one stacked
function; a single segment pair is a one-row stack. The floats are those of
the per-pair loops they replaced:
- dot products and norms go through `segments.rowdot` and `row_norms`, the
  BLAS dot of `a @ b` and `np.linalg.norm` on one row (`einsum` and
  `np.linalg.norm(axis=...)` round differently);
- angles take `math.acos` of each gated entry (`segments.acos_deg`;
  `np.arccos` rounds differently), and `max`/`min` keep Python's
  first-of-equals rule;
- audit values are Python floats, so `gate_audit.csv` keeps their `repr`.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .segments import (
    Segment2D,
    acos_deg,
    endpoints,
    lines_through,
    row_norms,
    rowdot,
    segment_frames,
)

EPS_DISP = 1e-6  # px; below this the sensitivity gate has nothing to test

# `match_predicted`: the midpoint-distance and direction-angle gates and the
# score weights of a gated prediction/detection pair.
MATCH_GATE_MID_PX = 10.0
MATCH_GATE_ANG_DEG = 5.0
MATCH_W_ANGLE = 0.5
MATCH_W_OVERLAP = 0.5


@dataclass
class GateThresholds:
    tau_s: float = 15.0       # min segment length, px
    theta_thre: float = 4.0   # midpoint distance, px
    d_thre: float = 3.0       # endpoint perpendicular distance, px
    alpha_thre: float = 30.0  # sensitivity, degrees
    r_thre: float = 0.3       # overlap ratio, dimensionless

    def __post_init__(self):
        if min(self.tau_s, self.theta_thre, self.d_thre, self.alpha_thre,
               self.r_thre) <= 0 or self.r_thre > 1:
            raise ValueError("invalid gate thresholds")


@dataclass
class LineTrack:
    track_id: int
    observations: list = field(default_factory=list)  # (frame_id, Segment2D)

    @property
    def age(self) -> int:
        return len(self.observations)

    def add(self, frame_id, seg: Segment2D):
        if self.observations and frame_id <= self.observations[-1][0]:
            raise ValueError("observations must be in strictly increasing frame order")
        self.observations.append((frame_id, seg))


class GateResult(NamedTuple):
    """A gate's verdict: `passed`, the failure `reason` (None on a pass) and
    the gate's `value`; a bool, str and float for one pair, (n,) arrays for
    n stacked pairs."""
    passed: bool
    reason: str | None
    value: float


def _rows(x) -> np.ndarray:
    """(n, 2) points or (n, 4) endpoints from one row or a stack of them."""
    return np.atleast_2d(np.asarray(x, dtype=float))


def _verdict(one: bool, passed, reason, value) -> GateResult:
    """The stacked verdict, or its only row as Python scalars when `one`."""
    if one:
        return GateResult(bool(passed[0]), reason[0], float(value[0]))
    return GateResult(passed, reason, value)


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


def filter_short(segments: list[Segment2D], tau_s: float) -> list[Segment2D]:
    """Keep segments with length >= tau_s (boundary kept), order preserved.

    The lengths are `row_norms` of the stacked endpoint differences, bit for
    bit `np.linalg.norm(p_end - p_start)` of each segment."""
    ends = endpoints(segments)
    keep = row_norms(ends[:, 2:] - ends[:, :2]) >= tau_s
    return [s for s, k in zip(segments, keep.tolist()) if k]


def match_predicted(predicted: list[Segment2D], detected: list[Segment2D]
                    ) -> list[tuple[int, Segment2D, str]]:
    """Fuse flow-predicted tracks with fresh detections.

    Candidates are gated on midpoint distance (MATCH_GATE_MID_PX) and
    direction angle (MATCH_GATE_ANG_DEG), scored with
    MATCH_W_ANGLE (1 - angle/gate) + MATCH_W_OVERLAP overlap, and the
    best-scoring gated detection represents the track. A prediction with no
    gated detection continues as predicted-only; predictions without a track
    are dropped.

    One (n_pred, n_det) score block per call: a vectorized midpoint pre-gate,
    1e-6 px wider than the gate, picks the candidate pairs, and the exact
    gates and the score run on those pairs alone. Then, for each prediction
    in order, the first-index maximum over its gated detections that no
    earlier prediction took wins, the choice of a strict `score > best`
    scan in detection order.
    """
    predicted = [p for p in predicted if p.track_id is not None]
    pred, det = endpoints(predicted), endpoints(detected)
    pred_mid, pred_dir = segment_frames(pred)
    det_mid, det_dir = segment_frames(det)
    near = np.hypot(det_mid[None, :, 0] - pred_mid[:, None, 0],
                    det_mid[None, :, 1] - pred_mid[:, None, 1])
    i, k = np.nonzero(near < MATCH_GATE_MID_PX + 1e-6)
    gated = ~(row_norms(det_mid[k] - pred_mid[i]) >= MATCH_GATE_MID_PX)
    i, k = i[gated], k[gated]
    c = np.abs(rowdot(det_dir[k], pred_dir[i]))
    c /= row_norms(det_dir)[k] * row_norms(pred_dir)[i]
    ang = acos_deg(np.clip(c, 0.0, 1.0))
    gated = ~(ang >= MATCH_GATE_ANG_DEG)
    i, k, ang = i[gated], k[gated], ang[gated]
    overlap = np.clip(overlap_ratio(pred[i, :2], pred[i, 2:],
                                    det[k, :2], det[k, 2:]), 0.0, 1.0)
    score = (MATCH_W_ANGLE * (1.0 - ang / MATCH_GATE_ANG_DEG)
             + MATCH_W_OVERLAP * overlap)
    keep = score > -1.0  # the scan's starting best
    scores = np.full((len(predicted), len(detected)), -np.inf)
    scores[i[keep], k[keep]] = score[keep]
    out = [(p.track_id, p, "predicted") for p in predicted]
    for row in np.flatnonzero(np.isfinite(scores).any(axis=1)).tolist():
        best = int(scores[row].argmax())
        if scores[row, best] > -np.inf:
            scores[:, best] = -np.inf  # taken
            p, d = predicted[row], detected[best]
            chosen = Segment2D(d.p_start, d.p_end, id=d.id, track_id=p.track_id)
            out[row] = (p.track_id, chosen, "detected")
    return out


def reprojection_gate(p_ori_mid, p_proj_mid, d_s, d_e,
                      theta_thre: float, d_thre: float) -> GateResult:
    """Midpoint-distance and endpoint perpendicular-distance checks."""
    mid_err = row_norms(_rows(p_ori_mid) - _rows(p_proj_mid))
    d = _first_max(np.atleast_1d(d_s), np.atleast_1d(d_e))
    far = mid_err > theta_thre
    off = ~far & (d > d_thre)
    value = np.where(far, mid_err, np.where(off, d, _first_max(mid_err, d)))
    reason = _reasons(far, "midpoint")
    reason[off] = "perpendicular"
    return _verdict(np.ndim(p_ori_mid) == 1, ~(far | off), reason, value)


def sensitivity_gate(v_ori, p_ori_mid, p_proj_mid,
                     alpha_thre: float) -> GateResult:
    """Reject displacements sliding along the line (unobservable errors)."""
    disp = _rows(p_proj_mid) - _rows(p_ori_mid)
    norm = row_norms(disp)
    moved = ~(norm < EPS_DISP)  # below it there is nothing to test
    c = np.abs(rowdot(_rows(v_ori)[moved], disp[moved])) / norm[moved]
    value = np.zeros(len(disp))
    value[moved] = 90.0 - acos_deg(np.clip(c, 0.0, 1.0))
    passed = ~(moved & (value > alpha_thre))
    reason = _reasons(~passed, "sensitivity")
    return _verdict(np.ndim(p_ori_mid) == 1, passed, reason, value)


def overlap_ratio(p_ori_s, p_ori_e, p_proj_s, p_proj_e):
    """Share of the original extent that the projected extent covers.

    Both extents are measured along the original direction in units of the
    original length; the ratio is at most 1 and negative when they are apart.
    A float for one pair of segments, (n,) for n stacked pairs.
    """
    o_s, o_e = _rows(p_ori_s), _rows(p_ori_e)
    l_ori = row_norms(o_e - o_s)
    if not l_ori.all():
        raise ValueError("original segment has zero length")
    v = (o_e - o_s) / l_ori[:, None]
    r1 = rowdot(_rows(p_proj_s) - o_s, v) / l_ori
    r2 = rowdot(_rows(p_proj_e) - o_s, v) / l_ori
    lo, hi = _first_min(r1, r2), _first_max(r1, r2)
    r = _first_min(hi, 1.0) - _first_max(lo, 0.0)
    return float(r[0]) if np.ndim(p_ori_s) == 1 else r


def overlap_gate(p_ori_s, p_ori_e, p_proj_s, p_proj_e,
                 r_thre: float) -> GateResult:
    """Projected-extent overlap ratio r; fail when r < r_thre."""
    r = np.atleast_1d(overlap_ratio(p_ori_s, p_ori_e, p_proj_s, p_proj_e))
    passed = ~(r < r_thre)
    reason = _reasons(~passed, "overlap")
    return _verdict(np.ndim(p_ori_s) == 1, passed, reason, r)


@dataclass
class GateAuditRow:
    frame_id: int
    track_id: int
    gate: str
    value: float
    threshold: float
    verdict: str


def write_gate_audit(rows: list[GateAuditRow], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["frame_id", "track_id", "gate", "value", "threshold", "verdict"])
        for r in rows:
            w.writerow([r.frame_id, r.track_id, r.gate,
                        repr(r.value), repr(r.threshold), r.verdict])


def run_gates(frame_id, track_id, observed, projected,
              thresholds: GateThresholds,
              audit: list[GateAuditRow] | None = None):
    """Run all three gates on observed/projected segment pairs.

    One pair: `observed` and `projected` are `Segment2D`s, `frame_id` and
    `track_id` are ints, and the result is a bool. n pairs: they are stacked
    endpoints (n, 4), x1 y1 x2 y2 per row, `frame_id` and `track_id` hold the
    frame and track id of each row, and the result is the (n,) pass mask.
    Audit rows go pair by pair, each with its reprojection, sensitivity and
    overlap row.
    """
    one = isinstance(observed, Segment2D)
    if one:
        observed, projected = endpoints([observed]), endpoints([projected])
        frame_id, track_id = [frame_id], [track_id]
    if (projected[:, :2] == projected[:, 2:]).all(axis=1).any():
        raise ValueError("zero-length segment")
    ones = np.ones((len(observed), 1))
    l_proj = lines_through(projected[:, :2], projected[:, 2:])
    d_s = np.abs(rowdot(l_proj, np.hstack([observed[:, :2], ones])))
    d_e = np.abs(rowdot(l_proj, np.hstack([observed[:, 2:], ones])))
    ori_mid, _ = segment_frames(observed)
    proj_mid, proj_dir = segment_frames(projected)
    results = [
        ("reprojection", max(thresholds.theta_thre, thresholds.d_thre),
         reprojection_gate(ori_mid, proj_mid, d_s, d_e,
                           thresholds.theta_thre, thresholds.d_thre)),
        ("sensitivity", thresholds.alpha_thre,
         sensitivity_gate(proj_dir, ori_mid, proj_mid, thresholds.alpha_thre)),
        ("overlap", thresholds.r_thre,
         overlap_gate(observed[:, :2], observed[:, 2:], projected[:, :2],
                      projected[:, 2:], thresholds.r_thre)),
    ]
    if audit is not None:
        columns = []
        for name, thr, res in results:
            verdicts = res.reason.copy()
            verdicts[res.passed] = "pass"
            columns.append((name, thr, res.value.tolist(), verdicts.tolist()))
        for row, (t, k) in enumerate(zip(frame_id, track_id)):
            for name, thr, values, verdicts in columns:
                audit.append(GateAuditRow(t, k, name, values[row], thr, verdicts[row]))
    passed = np.logical_and.reduce([res.passed for _, _, res in results])
    return bool(passed[0]) if one else passed
