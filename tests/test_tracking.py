"""Line tracking and the three mapline verification gates.

The stacked matcher, gates and mapping passes are checked against the
per-pair and per-track loops they replaced, kept below verbatim as oracles
(renamed `oracle_*`).
"""
import csv
import math
from typing import NamedTuple

import numpy as np
import pytest

from monogp.geometry import EPS_Z, CameraIntrinsics, Pose, so3_exp
from monogp.pipeline import (
    _triangulate_lines,
    _triangulate_points,
    build_line_tracks,
    perturb_poses,
)
from monogp.scenarios import default_corridor, nonoverlap, perturbed_corridor, structured
from monogp.segments import Segment2D, endpoints
from monogp.simulate import generate_trajectory, generate_world, render_measurements
from monogp import geometry as geometry_module
from monogp import tracking as tracking_module
from monogp.tracking import (
    ALPHA_THRE,
    D_THRE,
    R_THRE,
    TAU_S,
    THETA_THRE,
    GateResult,
    SceneSegments,
    filter_short,
    overlap_gate,
    overlap_ratio,
    reprojection_gate,
    run_gates,
    sensitivity_gate,
    write_gate_audit,
)
from test_geometry import (
    OracleTriangulationError,
    oracle_backproject_ray,
    oracle_closest_point_on_line_to_ray,
    oracle_triangulate_line,
    oracle_triangulate_point,
)
from test_graph import (
    closest_point_to_origin,
    grouped,
    oracle_plucker_to_orthonormal,
    to_camera,
)
from test_segments import Tracked, midpoint, predicted_segments, segment_line


def seg(x1, y1, x2, y2, sid=0, track_id=None):
    return Tracked([x1, y1], [x2, y2], id=sid, track_id=track_id)


def direction(s):
    """Unit direction of a segment, start to end."""
    d = s.p_end - s.p_start
    return d / np.linalg.norm(d)


# -- filtering / tracks ------------------------------------------------------

def test_filter_short_lengths():
    ends = endpoints([seg(0, 0, TAU_S / 2, 0, 0), seg(0, 0, 2 * TAU_S, 0, 1),
                      seg(0, 0, 4 * TAU_S, 0, 2)])
    assert filter_short(ends).tolist() == [False, True, True]


def test_filter_short_boundary_kept():
    ends = endpoints([seg(0, 0, TAU_S, 0, 0), seg(0, 0, np.nextafter(TAU_S, 0.0), 0, 1)])
    assert filter_short(ends).tolist() == [True, False]


@pytest.mark.parametrize("config", [structured(0), structured(1), structured(2),
                                    nonoverlap(0), perturbed_corridor(0)],
                         ids=lambda c: f"{c.name}({c.rng_seed})")
def test_track_frames_strictly_increase(config):
    frames = render_measurements(generate_world(config), generate_trajectory(config),
                                 config)
    tracks = build_line_tracks(SceneSegments.of(frames))
    assert tracks and any(len(obs) >= 2 for obs in tracks.values())
    for obs in tracks.values():
        t = [t for t, _ in obs]
        assert all(a < b for a, b in zip(t, t[1:])), t


# -- matching ----------------------------------------------------------------

def match_predicted(predicted, detected):
    """`tracking.match_predicted` on one frame in the oracle's form: (track
    id, chosen segment, source) per prediction."""
    chosen = tracking_module.match_predicted(
        endpoints(predicted), np.zeros(len(predicted), dtype=int),
        endpoints(detected), np.zeros(len(detected), dtype=int))
    return [(p.track_id, p, "predicted") if k < 0 else
            (p.track_id, Tracked(detected[k].p_start, detected[k].p_end,
                                 id=detected[k].id, track_id=p.track_id), "detected")
            for p, k in zip(predicted, chosen.tolist())]


def test_match_identical_detection_scores_one():
    pred = seg(100, 100, 200, 100, sid=0, track_id=5)
    det = seg(100, 100, 200, 100, sid=9)
    out = match_predicted([pred], [det])
    assert len(out) == 1
    track_id, chosen, source = out[0]
    assert track_id == 5 and chosen.id == 9 and source == "detected"


def test_match_prefers_detection_near_truth():
    # the true line is y=100; the prediction drifted 5 px, a detection sits 1 px off
    pred = seg(100, 105, 200, 105, sid=0, track_id=1)
    det = seg(100, 101, 200, 101, sid=2)
    out = match_predicted([pred], [det])
    assert out[0][2] == "detected"
    assert out[0][1].id == 2
    assert abs(midpoint(out[0][1])[1] - 101.0) < 1e-12


def test_match_falls_back_to_prediction():
    pred = seg(100, 100, 200, 100, sid=0, track_id=3)
    det = seg(400, 400, 500, 400, sid=1)  # far outside the gate
    out = match_predicted([pred], [det])
    track_id, chosen, source = out[0]
    assert track_id == 3 and source == "predicted"
    assert np.allclose(chosen.p_start, pred.p_start)


def test_match_detection_not_shared_between_tracks():
    preds = [seg(100, 100, 200, 100, sid=0, track_id=0),
             seg(100, 102, 200, 102, sid=1, track_id=1)]
    det = seg(100, 100, 200, 100, sid=7)
    out = match_predicted(preds, [det])
    sources = [source for _, _, source in out]
    assert sources.count("detected") == 1


def test_match_midpoint_gate_boundary():
    gate = tracking_module.MATCH_GATE_MID_PX
    inside = np.nextafter(gate, 0.0)
    pred = seg(-50, 0, 50, 0, sid=0, track_id=4)
    at_gate = seg(-50, gate, 50, gate, sid=1)
    at_gate_diagonal = seg(-44, 8, 56, 8, sid=2)  # midpoint offset (6, 8)
    out = match_predicted([pred], [at_gate, at_gate_diagonal])
    assert out[0][2] == "predicted"
    just_inside = seg(-50, inside, 50, inside, sid=3)
    out = match_predicted([pred], [at_gate, just_inside, at_gate_diagonal])
    assert out[0][2] == "detected" and out[0][1].id == 3


def test_match_without_detections_continues_predictions():
    preds = [seg(100, 100, 200, 100, sid=0, track_id=0),
             seg(300, 100, 300, 200, sid=2, track_id=2)]
    out = match_predicted(preds, [])
    assert [(tid, chosen.id, source) for tid, chosen, source in out] == \
        [(0, 0, "predicted"), (2, 2, "predicted")]


# -- gates -------------------------------------------------------------------

def one_pair(*args):
    """Each gate argument as a stack of one pair: a point (2,) as (1, 2), a
    distance as (1,)."""
    return [np.array([a], dtype=float) for a in args]


def first(res):
    """The only row of a stacked `GateResult`, as Python scalars."""
    return GateResult(bool(res.passed[0]), res.reason[0], float(res.value[0]))


def test_reprojection_gate_pass():
    res = first(reprojection_gate(*one_pair([100, 100], [100, 100], 0.0, 0.0), 4.0, 3.0))
    assert res.passed and res.reason is None


def test_reprojection_gate_midpoint_fail():
    res = first(reprojection_gate(*one_pair([0, 0], [3, 0], 0.0, 0.0), 2.0, 3.0))
    assert not res.passed and res.reason == "midpoint"
    assert abs(res.value - 3.0) < 1e-12


def test_reprojection_gate_perpendicular_max():
    res = first(reprojection_gate(*one_pair([0, 0], [0, 0], 1.0, 4.0), 10.0, 3.0))
    assert not res.passed and res.reason == "perpendicular"
    assert res.value == 4.0


def test_sensitivity_gate_lateral_displacement_passes():
    res = first(sensitivity_gate(*one_pair([1.0, 0.0], [0, 0], [0, 5]), 30.0))
    assert res.passed and abs(res.value) < 1e-9


def test_sensitivity_gate_sliding_fails():
    res = first(sensitivity_gate(*one_pair([1.0, 0.0], [0, 0], [5, 0]), 10.0))
    assert not res.passed and res.reason == "sensitivity"
    assert abs(res.value - 90.0) < 1e-9


def test_sensitivity_gate_zero_displacement_passes():
    res = first(sensitivity_gate(*one_pair([1.0, 0.0], [7, 7], [7, 7]), 10.0))
    assert res.passed and res.value == 0.0


def test_overlap_gate_perfect():
    res = first(overlap_gate(*one_pair([0, 0], [10, 0], [0, 0], [10, 0]), 1.0))
    assert res.passed and abs(res.value - 1.0) < 1e-12


def test_overlap_gate_half():
    res = first(overlap_gate(*one_pair([0, 0], [10, 0], [5, 0], [15, 0]), 0.3))
    assert res.passed
    assert abs(res.value - 0.5) < 1e-12


def test_overlap_gate_disjoint_negative():
    res = first(overlap_gate(*one_pair([0, 0], [10, 0], [12, 0], [20, 0]), 0.3))
    assert not res.passed and res.reason == "overlap"
    assert abs(res.value - (-0.2)) < 1e-12


def test_overlap_gate_endpoint_swap_invariant():
    rng = np.random.default_rng(0)
    for _ in range(100):
        o_s, o_e = rng.uniform(0, 100, 2), rng.uniform(0, 100, 2)
        p_s, p_e = rng.uniform(0, 100, 2), rng.uniform(0, 100, 2)
        if np.allclose(o_s, o_e):
            continue
        r1 = first(overlap_gate(*one_pair(o_s, o_e, p_s, p_e), 0.3)).value
        r2 = first(overlap_gate(*one_pair(o_e, o_s, p_e, p_s), 0.3)).value
        assert abs(r1 - r2) < 1e-9
        assert r1 <= 1.0 + 1e-12


# -- audit CSV ---------------------------------------------------------------

def test_run_gates_audit_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    paths = []
    for run in range(2):
        audit = []
        rows_rng = np.random.default_rng(1)
        for i in range(20):
            a = rows_rng.uniform([50, 50], [500, 400])
            u = rows_rng.normal(0.0, 1.0, 2)
            u /= np.linalg.norm(u)
            observed = Segment2D(a, a + 60 * u, id=i)
            shift = rows_rng.normal(0.0, 2.0, 2)
            projected = Segment2D(a + shift, a + 60 * u + shift, id=i)
            run_gates([0], [i], endpoints([observed]), endpoints([projected]), audit)
        path = tmp_path / f"audit{run}.csv"
        write_gate_audit(audit, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    header = paths[0].read_text().splitlines()[0]
    assert header == "frame_id,track_id,gate,value,threshold,verdict"


def test_run_gates_all_pass_on_exact_projection():
    observed = Segment2D([100, 100], [200, 150], id=0)
    projected = Segment2D([100, 100], [200, 150], id=0)
    assert run_gates([0], [0], endpoints([observed]), endpoints([projected]), [])[0]


# -- oracles: the per-pair loops, verbatim -------------------------------------

class OracleGateResult(NamedTuple):
    passed: bool
    reason: str | None
    value: float


class OracleAuditRow(NamedTuple):
    frame_id: int
    track_id: int
    gate: str
    value: float
    threshold: float
    verdict: str


def oracle_write_gate_audit(rows, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["frame_id", "track_id", "gate", "value", "threshold", "verdict"])
        for r in rows:
            w.writerow([r.frame_id, r.track_id, r.gate,
                        repr(r.value), repr(r.threshold), r.verdict])


def oracle_angle_between_deg(u, v) -> float:
    c = abs(float(np.asarray(u) @ np.asarray(v)))
    c /= (np.linalg.norm(u) * np.linalg.norm(v))
    return math.degrees(math.acos(np.clip(c, 0.0, 1.0)))


def oracle_match_predicted(predicted, detected):
    # the gates and weights, read as `match_predicted` reads them
    gate_mid_px, gate_ang_deg, w_angle, w_overlap = (
        tracking_module.MATCH_GATE_MID_PX, tracking_module.MATCH_GATE_ANG_DEG,
        tracking_module.MATCH_W_ANGLE, tracking_module.MATCH_W_OVERLAP)
    out = []
    taken: set[int] = set()
    det_mids = np.array([midpoint(det) for det in detected]).reshape(-1, 2)
    for pred in predicted:
        if pred.track_id is None:
            continue
        pred_mid = midpoint(pred)
        near = np.hypot(det_mids[:, 0] - pred_mid[0], det_mids[:, 1] - pred_mid[1])
        best_seg, best_score = None, -1.0
        for k in np.flatnonzero(near < gate_mid_px + 1e-6).tolist():
            if k in taken:
                continue
            det = detected[k]
            if np.linalg.norm(det_mids[k] - pred_mid) >= gate_mid_px:
                continue
            ang = oracle_angle_between_deg(direction(det), direction(pred))
            if ang >= gate_ang_deg:
                continue
            overlap = np.clip(oracle_overlap_ratio(pred.p_start, pred.p_end,
                                                   det.p_start, det.p_end), 0.0, 1.0)
            score = (w_angle * (1.0 - ang / gate_ang_deg)
                     + w_overlap * overlap)
            if score > best_score:
                best_seg, best_score, best_k = det, score, k
        if best_seg is not None:
            taken.add(best_k)
            chosen = Tracked(best_seg.p_start, best_seg.p_end, id=best_seg.id,
                             track_id=pred.track_id)
            out.append((pred.track_id, chosen, "detected"))
        else:
            out.append((pred.track_id, pred, "predicted"))
    return out


def oracle_reprojection_gate(p_ori_mid, p_proj_mid, d_s, d_e, theta_thre, d_thre):
    mid_err = float(np.linalg.norm(np.asarray(p_ori_mid) - np.asarray(p_proj_mid)))
    if mid_err > theta_thre:
        return OracleGateResult(False, "midpoint", mid_err)
    d = max(d_s, d_e)
    if d > d_thre:
        return OracleGateResult(False, "perpendicular", d)
    return OracleGateResult(True, None, max(mid_err, d))


def oracle_sensitivity_gate(v_ori, p_ori_mid, p_proj_mid, alpha_thre):
    disp = np.asarray(p_proj_mid, dtype=float) - np.asarray(p_ori_mid, dtype=float)
    norm = np.linalg.norm(disp)
    if norm < 1e-6:
        return OracleGateResult(True, None, 0.0)
    c = abs(float(np.asarray(v_ori) @ disp)) / norm
    alpha = math.degrees(math.acos(np.clip(c, 0.0, 1.0)))
    if 90.0 - alpha > alpha_thre:
        return OracleGateResult(False, "sensitivity", 90.0 - alpha)
    return OracleGateResult(True, None, 90.0 - alpha)


def oracle_overlap_ratio(p_ori_s, p_ori_e, p_proj_s, p_proj_e):
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


def oracle_overlap_gate(p_ori_s, p_ori_e, p_proj_s, p_proj_e, r_thre):
    r = oracle_overlap_ratio(p_ori_s, p_ori_e, p_proj_s, p_proj_e)
    if r < r_thre:
        return OracleGateResult(False, "overlap", r)
    return OracleGateResult(True, None, r)


def oracle_run_gates(frame_id, track_id, observed, projected, audit=None):
    l_proj = segment_line(projected)
    d_s = abs(float(l_proj @ np.array([*observed.p_start, 1.0])))
    d_e = abs(float(l_proj @ np.array([*observed.p_end, 1.0])))
    rep = oracle_reprojection_gate(midpoint(observed), midpoint(projected), d_s, d_e,
                                   THETA_THRE, D_THRE)
    sen = oracle_sensitivity_gate(direction(projected), midpoint(observed),
                                  midpoint(projected), ALPHA_THRE)
    ove = oracle_overlap_gate(observed.p_start, observed.p_end,
                              projected.p_start, projected.p_end, R_THRE)
    results = [("reprojection", rep, max(THETA_THRE, D_THRE)),
               ("sensitivity", sen, ALPHA_THRE),
               ("overlap", ove, R_THRE)]
    if audit is not None:
        for name, res, thr in results:
            audit.append(OracleAuditRow(frame_id, track_id, name, res.value, thr,
                                        "pass" if res.passed else res.reason))
    return all(res.passed for _, res, _ in results)


def oracle_project_point(p_w, pose, intr):
    p_c = to_camera(pose, p_w)
    if p_c[2] <= EPS_Z:
        raise ValueError(f"behind camera: z={p_c[2]:.3g}")
    return np.array([intr.fx * p_c[0] / p_c[2] + intr.cx,
                     intr.fy * p_c[1] / p_c[2] + intr.cy])


def oracle_triangulate_lines(tracks, poses_init, intr, audit):
    lines, line_obs = {}, {}
    for track_id, obs in sorted(tracks.items()):
        if len(obs) < 2:
            continue
        (ta, sa), (tb, sb) = obs[0], obs[-1]
        try:
            line = oracle_triangulate_line(sa, sb, poses_init[ta], poses_init[tb], intr)
        except OracleTriangulationError:
            continue
        # 3D endpoints from the first view's observed extent
        o, _ = oracle_backproject_ray(midpoint(sa), poses_init[ta], intr)
        ray_s = oracle_backproject_ray(sa.p_start, poses_init[ta], intr)[1]
        ray_e = oracle_backproject_ray(sa.p_end, poses_init[ta], intr)[1]
        p3_s = oracle_closest_point_on_line_to_ray(line, o, ray_s)
        p3_e = oracle_closest_point_on_line_to_ray(line, o, ray_e)
        passing = []
        for t, seg in obs:
            try:
                q_s = oracle_project_point(p3_s, poses_init[t], intr)
                q_e = oracle_project_point(p3_e, poses_init[t], intr)
            except ValueError:
                continue
            projected = Segment2D(q_s, q_e, id=seg.id)
            if oracle_run_gates(t, track_id, seg, projected, audit):
                passing.append((t, seg))
        if len(passing) >= 2:
            lines[track_id] = line
            line_obs[track_id] = passing
    return lines, line_obs


def oracle_triangulate_points(frames, poses, intr):
    obs_by_point = {}
    for fr in frames:
        for pid, px in zip(fr.point_ids.tolist(), fr.point_px):
            obs_by_point.setdefault(pid, []).append((fr.frame_id, px))
    points = {}
    for pid, items in sorted(obs_by_point.items()):
        if len(items) < 2:
            continue
        (ta, pa), (tb, pb) = items[0], items[-1]
        try:
            points[pid] = oracle_triangulate_point(pa, pb, poses[ta], poses[tb], intr)
        except OracleTriangulationError:
            continue
    return points, obs_by_point


# -- stacked matcher, gates and mapping against the oracles --------------------

SCENES = [structured(0), structured(1), structured(2), nonoverlap(0), nonoverlap(1),
          nonoverlap(2), default_corridor(0), default_corridor(1), perturbed_corridor(0),
          perturbed_corridor(1), perturbed_corridor(2)]


def scene(config, ground_truth=False):
    """A scene's frames with its perturbed (or ground-truth) poses."""
    world = generate_world(config)
    poses = generate_trajectory(config)
    frames = render_measurements(world, poses, config)
    return frames, poses if ground_truth else perturb_poses(poses, config)


def match_key(matches):
    return [(tid, seg.id, source, seg.p_start.tobytes(), seg.p_end.tobytes())
            for tid, seg, source in matches]


def segment_list(scene, rows):
    """`Tracked` segments of the rows of a `SceneSegments`."""
    return [Tracked(scene.ends[r, :2], scene.ends[r, 2:], id=int(scene.ids[r]),
                    track_id=int(scene.track[r]) if scene.track[r] >= 0 else None)
            for r in rows]


def segment_tracks(tracks, scene):
    """(frame, row) tracks of a `SceneSegments` as {id: [(frame, Segment2D)]}."""
    return {k: list(zip([t for t, _ in obs], segment_list(scene, [r for _, r in obs])))
            for k, obs in tracks.items()}


@pytest.mark.parametrize("config", SCENES, ids=lambda c: f"{c.name}({c.rng_seed})")
def test_match_predicted_equals_oracle_on_scenes(config):
    # every frame in one call, against the per-frame oracle
    frames, _ = scene(config)
    rows = SceneSegments.of(frames)
    long = filter_short(rows.ends)
    assert long.tolist() == [np.linalg.norm(s.p_end - s.p_start) >= TAU_S
                             for fr in frames for s in fr.segments + predicted_segments(fr)]
    is_pred = rows.track >= 0
    pred, det = np.flatnonzero(long & is_pred), np.flatnonzero(long & ~is_pred)
    chosen = tracking_module.match_predicted(rows.ends[pred], rows.frame[pred],
                                             rows.ends[det], rows.frame[det])
    assert ((chosen < 0) | (rows.frame[det[chosen]] == rows.frame[pred])).all()
    for t in range(1, len(frames)):
        here = rows.frame[pred] == t
        predicted = segment_list(rows, pred[here])
        detected = segment_list(rows, det[rows.frame[det] == t])
        out = [(p.track_id, p, "predicted") if k < 0 else
               (p.track_id, segment_list(rows, [det[k]])[0], "detected")
               for p, k in zip(predicted, chosen[here].tolist())]
        assert match_key(out) == match_key(oracle_match_predicted(predicted, detected))
    assert (chosen >= 0).any()


@pytest.mark.parametrize("block", [7, 500, 2_000])
def test_match_predicted_block_seams_are_exact(monkeypatch, block):
    # the pre-gate's runs of predictions, cut small, choose the rows the
    # default runs choose; both cut structured(0)'s scene more than once
    rows = SceneSegments.of(scene(structured(0))[0])
    long, is_pred = filter_short(rows.ends), rows.track >= 0
    pred, det = np.flatnonzero(long & is_pred), np.flatnonzero(long & ~is_pred)
    args = (rows.ends[pred], rows.frame[pred], rows.ends[det], rows.frame[det])
    runs = []

    def recorded(sizes):
        runs.append(geometry_module.block_runs(sizes))
        return runs[-1]

    monkeypatch.setattr(tracking_module, "block_runs", recorded)
    want = tracking_module.match_predicted(*args)
    monkeypatch.setattr(geometry_module, "BLOCK_ELEMS", block)
    got = tracking_module.match_predicted(*args)
    assert got.tobytes() == want.tobytes() and (got >= 0).any()
    assert 1 < len(runs[0]) < len(runs[1])


def row_tracks(tracks):
    """Hand-made tracks {id: [(frame, Segment2D)]} as (frame, row) tracks of
    one `SceneSegments` of their segments."""
    obs = [(t, s, k) for k, items in tracks.items() for t, s in items]
    rows = SceneSegments(endpoints([s for _, s, _ in obs]),
                         np.array([s.id for _, s, _ in obs], dtype=int),
                         np.array([t for t, _, _ in obs], dtype=int),
                         np.array([k for _, _, k in obs], dtype=int))
    r = iter(range(len(obs)))
    return {k: [(t, next(r)) for t, _ in items] for k, items in tracks.items()}, rows


def obs_key(line_obs):
    return {k: [(t, s.id, endpoints([s]).tobytes()) for t, s in obs]
            for k, obs in line_obs.items()}


def row_obs_key(line_obs, tracks, rows):
    """`obs_key` of `_triangulate_lines`' (frame, endpoint row) observations,
    each segment id that of its track's row of `rows` in that frame."""
    return {k: [(t, int(rows.ids[dict(tracks[k])[t]]), e.tobytes()) for t, e in obs]
            for k, obs in line_obs.items()}


def assert_lines_equal_oracle(tracks, rows, poses, intr, tmp_path):
    """`_triangulate_lines` on (frame, row) `tracks` of `rows` equals the
    oracle on their segments; returns the oracle's audit rows."""
    audit, oracle_audit = [], []
    ids, U, W, line_obs = _triangulate_lines(tracks, rows, poses, intr, audit)
    oracle_lines, oracle_obs = oracle_triangulate_lines(segment_tracks(tracks, rows), poses,
                                                        intr, oracle_audit)
    assert row_obs_key(grouped(line_obs), tracks, rows) == obs_key(oracle_obs)
    # raw bytes: the orthonormal forms of the oracle's unnormalized lines
    assert ids.tolist() == list(oracle_lines)
    ref = [oracle_plucker_to_orthonormal(line) for line in oracle_lines.values()]
    assert U.tobytes() == np.array([o.U for o in ref]).reshape(-1, 3, 3).tobytes()
    assert W.tobytes() == np.array([o.W for o in ref]).reshape(-1, 2, 2).tobytes()
    write_gate_audit(audit, tmp_path / "stacked.csv")
    oracle_write_gate_audit(oracle_audit, tmp_path / "oracle.csv")
    assert (tmp_path / "stacked.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    return oracle_audit


@pytest.mark.parametrize("config", SCENES, ids=lambda c: f"{c.name}({c.rng_seed})")
def test_gate_audit_equals_oracle_on_scenes(config, tmp_path):
    frames, poses = scene(config)
    rows = SceneSegments.of(frames)
    audit = assert_lines_equal_oracle(build_line_tracks(rows), rows, poses,
                                      config.intrinsics, tmp_path)
    assert {r.verdict for r in audit} >= {"pass", "midpoint"}


@pytest.mark.parametrize("config", SCENES, ids=lambda c: f"{c.name}({c.rng_seed})")
def test_gate_audit_equals_oracle_on_ground_truth_poses(config, tmp_path):
    frames, poses = scene(config, ground_truth=True)
    rows = SceneSegments.of(frames)
    audit = assert_lines_equal_oracle(build_line_tracks(rows), rows, poses,
                                      config.intrinsics, tmp_path)
    assert "pass" in {r.verdict for r in audit}


@pytest.mark.parametrize("ground_truth", [False, True], ids=["perturbed", "gt"])
@pytest.mark.parametrize("config", SCENES, ids=lambda c: f"{c.name}({c.rng_seed})")
def test_triangulate_points_equals_oracle_on_scenes(config, ground_truth):
    frames, poses = scene(config, ground_truth)
    ids, points, obs = _triangulate_points(frames, poses, config.intrinsics)
    oracle_points, oracle_obs = oracle_triangulate_points(frames, poses, config.intrinsics)
    # the observations of the triangulated points, by point and then frame
    assert {k: [(t, px.tobytes()) for t, px in v] for k, v in grouped(obs).items()} == \
        {k: [(t, px.tobytes()) for t, px in oracle_obs[k]] for k in sorted(oracle_points)}
    assert ids.tolist() == list(oracle_points)
    assert points.tobytes() == np.array(list(oracle_points.values())).tobytes()
    assert len(points)


def test_match_equal_scores_first_detection_wins():
    pred = seg(100, 100, 200, 100, sid=0, track_id=1)
    twins = [seg(100, 101, 200, 101, sid=5), seg(100, 101, 200, 101, sid=3),
             seg(100, 99, 200, 99, sid=4)]
    for detected in (twins, twins[::-1]):
        out = match_predicted([pred], detected)
        assert out[0][1].id == detected[0].id
        assert match_key(out) == match_key(oracle_match_predicted([pred], detected))


def test_match_detection_taken_by_earlier_prediction():
    a = seg(100, 100, 200, 100, sid=0, track_id=0)
    b = seg(100, 103, 200, 103, sid=1, track_id=1)
    shared = seg(100, 101, 200, 101, sid=7)  # scores 1.0 for both
    second = seg(100, 104, 190, 104, sid=8)  # scores 0.95 for both
    detected = [shared, second]
    out = match_predicted([a, b], detected)
    assert [(tid, s.id, src) for tid, s, src in out] == \
        [(0, 7, "detected"), (1, 8, "detected")]
    out = match_predicted([b, a], detected)
    assert [(tid, s.id, src) for tid, s, src in out] == \
        [(1, 7, "detected"), (0, 8, "detected")]
    for preds in ([a, b], [b, a]):
        assert match_key(match_predicted(preds, detected)) == \
            match_key(oracle_match_predicted(preds, detected))


def test_match_angle_gate_boundary(monkeypatch):
    pred = seg(100, 100, 200, 100, sid=0, track_id=2)
    det = seg(100, 99, 200, 101.5, sid=9)
    ang = oracle_angle_between_deg(direction(det), direction(pred))
    for gate, source in ((ang, "predicted"), (np.nextafter(ang, np.inf), "detected")):
        monkeypatch.setattr(tracking_module, "MATCH_GATE_ANG_DEG", gate)
        out = match_predicted([pred], [det])
        assert out[0][2] == source
        assert match_key(out) == match_key(oracle_match_predicted([pred], [det]))


def test_gates_skip_frame_behind_camera(tmp_path):
    intr = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
    poses = [Pose(np.eye(3), np.zeros(3)),
             Pose.from_world_camera(so3_exp([0.0, math.pi, 0.0]), [0.0, 0.0, 0.0]),
             Pose.from_world_camera(np.eye(3), [0.1, 0.6, 0.2])]
    ends = [np.array([-1.0, 0.2, 5.0]), np.array([1.0, 0.3, 6.0])]
    track = []
    for t, pose in enumerate(poses):
        if t == 1:  # the world line is behind this camera
            assert to_camera(pose, ends[0])[2] < 0
            track.append((t, seg(100, 100, 200, 120, sid=t)))
        else:
            track.append((t, Segment2D(*(oracle_project_point(p, pose, intr)
                                         for p in ends), id=t)))
    audit = assert_lines_equal_oracle(*row_tracks({3: track}), poses, intr, tmp_path)
    assert [(r.frame_id, r.gate) for r in audit] == \
        [(t, g) for t in (0, 2) for g in ("reprojection", "sensitivity", "overlap")]
    assert all(r.verdict == "pass" for r in audit)


def pinhole(p, pose, intr):
    """A world point's pixel by the pinhole formula, whatever its depth."""
    x, y, z = to_camera(pose, p)
    return np.array([intr.fx * x / z + intr.cx, intr.fy * y / z + intr.cy])


def test_track_behind_every_camera_has_no_audit_rows(tmp_path):
    # a world line at z = -5 images through the pinhole formula; its
    # back-projected planes meet behind both cameras
    intr = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
    poses = [Pose(np.eye(3), np.zeros(3)),
             Pose.from_world_camera(np.eye(3), [0.1, 0.8, 0.0])]
    ends = [np.array([-1.0, 0.2, -5.0]), np.array([1.0, 0.5, -6.0])]
    behind = [(t, Segment2D(*(pinhole(p, pose, intr) for p in ends), id=t))
              for t, pose in enumerate(poses)]
    seen = [(t, Segment2D(*(pinhole(-p, pose, intr) for p in ends), id=10 + t))
            for t, pose in enumerate(poses)]
    line = oracle_triangulate_line(behind[0][1], behind[1][1], *poses, intr)
    assert closest_point_to_origin(line)[2] < 0  # triangulated, behind the cameras
    audit = assert_lines_equal_oracle(*row_tracks({4: behind, 9: seen}), poses, intr,
                                      tmp_path)
    assert {r.track_id for r in audit} == {9} and len(audit) == 6


def test_tracks_seen_once_are_skipped(tmp_path):
    intr = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
    poses = [Pose(np.eye(3), np.zeros(3)),
             Pose.from_world_camera(np.eye(3), [0.1, 0.8, 0.0])]
    ends = [np.array([-1.0, 0.2, 5.0]), np.array([1.0, 0.5, 6.0])]
    once = [(1, Segment2D(*(pinhole(p, poses[1], intr) for p in ends), id=0))]
    twice = [(t, Segment2D(*(pinhole(p, pose, intr) for p in ends), id=1 + t))
             for t, pose in enumerate(poses)]
    ids, U, W, _ = _triangulate_lines(*row_tracks({1: once}), poses, intr, audit := [])
    assert len(ids) == len(U) == len(W) == 0 and audit == []
    audit = assert_lines_equal_oracle(*row_tracks({2: twice, 1: once}), poses, intr,
                                      tmp_path)
    assert {r.track_id for r in audit} == {2}


def test_zero_length_projection_raises():
    # the world line is camera 1's optical axis, so both 3D endpoints project
    # onto its principal point
    intr = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
    poses = [Pose.from_world_camera(np.eye(3), [1.0, 0.0, 0.0]),
             Pose(np.eye(3), np.zeros(3)),
             Pose.from_world_camera(np.eye(3), [0.0, 1.0, 0.0])]
    ends = [np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, 6.0])]
    track = [(t, seg(300, 240, 340, 240, sid=t)) if t == 1 else
             (t, Segment2D(*(pinhole(p, pose, intr) for p in ends), id=t))
             for t, pose in enumerate(poses)]
    with pytest.raises(ValueError, match="zero-length segment"):
        _triangulate_lines(*row_tracks({0: track}), poses, intr, [])
    with pytest.raises(ValueError, match="zero-length segment"):
        oracle_triangulate_lines({0: track}, poses, intr, [])
    # run_gates itself, before it writes any audit row
    observed = endpoints([seg(100, 100, 200, 120), seg(300, 240, 340, 240)])
    projected = np.array([[100.0, 101.0, 200.0, 121.0], [320.0, 240.0, 320.0, 240.0]])
    audit = []
    with pytest.raises(ValueError, match="zero-length segment"):
        run_gates([0, 1], [7, 7], observed, projected, audit)
    assert audit == []


def test_gates_stacked_rows_equal_one_pair_calls(tmp_path):
    rng = np.random.default_rng(4)
    observed, projected = [], []
    for i in range(200):
        a = rng.uniform([50, 50], [500, 400])
        u = rng.normal(0.0, 1.0, 2)
        observed.append(Segment2D(a, a + rng.uniform(20, 80) * u / np.linalg.norm(u), id=i))
        projected.append(Segment2D(observed[-1].p_start + rng.normal(0.0, 3.0, 2),
                                   observed[-1].p_end + rng.normal(0.0, 3.0, 2), id=i))
    projected[0] = observed[0]  # no displacement
    audit, single = [], []
    mask = run_gates(list(range(200)), [0] * 200, endpoints(observed),
                     endpoints(projected), audit)
    oracle_audit = []
    for i, (o, p) in enumerate(zip(observed, projected)):
        assert run_gates([i], [0], endpoints([o]), endpoints([p]), single)[0] \
            == mask[i] == oracle_run_gates(i, 0, o, p, oracle_audit)
        r = overlap_ratio(*one_pair(o.p_start, o.p_end, p.p_start, p.p_end))[0]
        assert r == oracle_overlap_ratio(o.p_start, o.p_end, p.p_start, p.p_end)
    for rows, path in ((audit, "stacked.csv"), (single, "single.csv")):
        write_gate_audit(rows, tmp_path / path)
    oracle_write_gate_audit(oracle_audit, tmp_path / "oracle.csv")
    assert (tmp_path / "stacked.csv").read_bytes() == (tmp_path / "single.csv").read_bytes() \
        == (tmp_path / "oracle.csv").read_bytes()
    assert 0 < mask.sum() < len(mask)
