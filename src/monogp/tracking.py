"""Line-track maintenance and mapline verification gates.

The three verification gates run before a triangulated line is admitted to
the map for a given frame: reprojection (midpoint distance + endpoint
perpendicular distance), sensitivity (along-line displacements are
unobservable), and overlap (projected extent must cover enough of the
observed extent). Gate decisions can be dumped to an audit CSV for
golden-file reproducibility.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .segments import Segment2D, segment_line

EPS_DISP = 1e-6  # px; below this the sensitivity gate has nothing to test


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
class MatchParams:
    gate_mid_px: float = 10.0
    gate_ang_deg: float = 5.0
    w_angle: float = 0.5
    w_overlap: float = 0.5


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
    passed: bool
    reason: str | None
    value: float


def filter_short(segments: list[Segment2D], tau_s: float) -> list[Segment2D]:
    """Keep segments with length >= tau_s (boundary kept), order preserved."""
    return [s for s in segments if s.length >= tau_s]


def _angle_between_deg(u, v) -> float:
    c = abs(float(np.asarray(u) @ np.asarray(v)))
    c /= (np.linalg.norm(u) * np.linalg.norm(v))
    return math.degrees(math.acos(np.clip(c, 0.0, 1.0)))


def match_predicted(predicted: list[Segment2D], detected: list[Segment2D],
                    params: MatchParams | None = None,
                    ) -> list[tuple[int, Segment2D, str]]:
    """Fuse flow-predicted tracks with fresh detections.

    Candidates are gated on midpoint distance and direction angle, scored
    with w_a (1 - angle/gate) + w_o overlap, and the best-scoring gated
    detection represents the track. A prediction with no gated detection
    continues as predicted-only.

    A vectorized midpoint pre-gate, 1e-6 px wider than the gate, picks the
    candidates; the exact scalar gate and the scoring then run on those alone,
    in detection order, so the choice is the same as testing every detection.
    """
    params = params or MatchParams()
    out = []
    taken: set[int] = set()
    det_mids = np.array([det.midpoint for det in detected]).reshape(-1, 2)
    for pred in predicted:
        if pred.track_id is None:
            continue
        pred_mid = pred.midpoint
        near = np.hypot(det_mids[:, 0] - pred_mid[0], det_mids[:, 1] - pred_mid[1])
        best_seg, best_score = None, -1.0
        for k in np.flatnonzero(near < params.gate_mid_px + 1e-6).tolist():
            if k in taken:
                continue
            det = detected[k]
            if np.linalg.norm(det_mids[k] - pred_mid) >= params.gate_mid_px:
                continue
            ang = _angle_between_deg(det.direction, pred.direction)
            if ang >= params.gate_ang_deg:
                continue
            overlap = np.clip(overlap_ratio(pred.p_start, pred.p_end,
                                            det.p_start, det.p_end), 0.0, 1.0)
            score = (params.w_angle * (1.0 - ang / params.gate_ang_deg)
                     + params.w_overlap * overlap)
            if score > best_score:
                best_seg, best_score, best_k = det, score, k
        if best_seg is not None:
            taken.add(best_k)
            chosen = Segment2D(best_seg.p_start, best_seg.p_end, id=best_seg.id,
                               track_id=pred.track_id)
            out.append((pred.track_id, chosen, "detected"))
        else:
            out.append((pred.track_id, pred, "predicted"))
    return out


def reprojection_gate(p_ori_mid, p_proj_mid, d_s: float, d_e: float,
                      theta_thre: float, d_thre: float) -> GateResult:
    """Midpoint-distance and endpoint perpendicular-distance checks."""
    mid_err = float(np.linalg.norm(np.asarray(p_ori_mid) - np.asarray(p_proj_mid)))
    if mid_err > theta_thre:
        return GateResult(False, "midpoint", mid_err)
    d = max(d_s, d_e)
    if d > d_thre:
        return GateResult(False, "perpendicular", d)
    return GateResult(True, None, max(mid_err, d))


def sensitivity_gate(v_ori, p_ori_mid, p_proj_mid,
                     alpha_thre: float) -> GateResult:
    """Reject displacements sliding along the line (unobservable errors)."""
    disp = np.asarray(p_proj_mid, dtype=float) - np.asarray(p_ori_mid, dtype=float)
    norm = np.linalg.norm(disp)
    if norm < EPS_DISP:
        return GateResult(True, None, 0.0)
    c = abs(float(np.asarray(v_ori) @ disp)) / norm
    alpha = math.degrees(math.acos(np.clip(c, 0.0, 1.0)))
    if 90.0 - alpha > alpha_thre:
        return GateResult(False, "sensitivity", 90.0 - alpha)
    return GateResult(True, None, 90.0 - alpha)


def overlap_ratio(p_ori_s, p_ori_e, p_proj_s, p_proj_e) -> float:
    """Share of the original extent that the projected extent covers.

    Both extents are measured along the original direction in units of the
    original length; the ratio is at most 1 and negative when they are apart.
    """
    p_ori_s = np.asarray(p_ori_s, dtype=float)
    p_ori_e = np.asarray(p_ori_e, dtype=float)
    l_ori = float(np.linalg.norm(p_ori_e - p_ori_s))
    if l_ori == 0.0:
        raise ValueError("original segment has zero length")
    v = (p_ori_e - p_ori_s) / l_ori
    r1 = float((np.asarray(p_proj_s) - p_ori_s) @ v) / l_ori
    r2 = float((np.asarray(p_proj_e) - p_ori_s) @ v) / l_ori
    r1p, r2p = min(r1, r2), max(r1, r2)
    return min(r2p, 1.0) - max(r1p, 0.0)


def overlap_gate(p_ori_s, p_ori_e, p_proj_s, p_proj_e,
                 r_thre: float) -> GateResult:
    """Projected-extent overlap ratio r; fail when r < r_thre."""
    r = overlap_ratio(p_ori_s, p_ori_e, p_proj_s, p_proj_e)
    if r < r_thre:
        return GateResult(False, "overlap", r)
    return GateResult(True, None, r)


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


def run_gates(frame_id: int, track_id: int, observed: Segment2D,
              projected: Segment2D, thresholds: GateThresholds,
              audit: list[GateAuditRow] | None = None) -> bool:
    """Run all three gates for one observed/projected segment pair."""
    l_proj = segment_line(projected)
    d_s = abs(float(l_proj @ np.array([*observed.p_start, 1.0])))
    d_e = abs(float(l_proj @ np.array([*observed.p_end, 1.0])))
    rep = reprojection_gate(observed.midpoint, projected.midpoint, d_s, d_e,
                            thresholds.theta_thre, thresholds.d_thre)
    sen = sensitivity_gate(projected.direction, observed.midpoint,
                           projected.midpoint, thresholds.alpha_thre)
    ove = overlap_gate(observed.p_start, observed.p_end,
                       projected.p_start, projected.p_end, thresholds.r_thre)
    results = [("reprojection", rep, max(thresholds.theta_thre, thresholds.d_thre)),
               ("sensitivity", sen, thresholds.alpha_thre),
               ("overlap", ove, thresholds.r_thre)]
    if audit is not None:
        for name, res, thr in results:
            audit.append(GateAuditRow(frame_id, track_id, name, res.value, thr,
                                      "pass" if res.passed else res.reason))
    return all(res.passed for _, res, _ in results)
