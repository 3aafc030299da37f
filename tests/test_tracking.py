"""Line tracking and the three mapline verification gates."""
import numpy as np
import pytest

from monogp.segments import Segment2D
from monogp.tracking import (
    GateThresholds,
    LineTrack,
    MatchParams,
    filter_short,
    match_predicted,
    overlap_gate,
    reprojection_gate,
    run_gates,
    sensitivity_gate,
    write_gate_audit,
)


def seg(x1, y1, x2, y2, sid=0, track_id=None):
    return Segment2D([x1, y1], [x2, y2], id=sid, track_id=track_id)


# -- filtering / tracks ------------------------------------------------------

def test_filter_short_lengths():
    segs = [seg(0, 0, 5, 0, 0), seg(0, 0, 20, 0, 1), seg(0, 0, 40, 0, 2)]
    kept = filter_short(segs, 10.0)
    assert [s.id for s in kept] == [1, 2]


def test_filter_short_boundary_kept():
    segs = [seg(0, 0, 10, 0, 0)]
    assert filter_short(segs, 10.0) == segs
    assert filter_short(segs, 0.0) == segs


def test_line_track_requires_increasing_frames():
    track = LineTrack(0)
    track.add(3, seg(0, 0, 10, 0))
    track.add(5, seg(0, 0, 10, 0))
    assert track.age == 2
    with pytest.raises(ValueError):
        track.add(5, seg(0, 0, 10, 0))


# -- matching ----------------------------------------------------------------

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
    assert abs(out[0][1].midpoint[1] - 101.0) < 1e-12


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
    gate = MatchParams().gate_mid_px
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
             seg(100, 300, 200, 300, sid=1),  # no track: dropped
             seg(300, 100, 300, 200, sid=2, track_id=2)]
    out = match_predicted(preds, [])
    assert [(tid, chosen.id, source) for tid, chosen, source in out] == \
        [(0, 0, "predicted"), (2, 2, "predicted")]


# -- gates -------------------------------------------------------------------

def test_reprojection_gate_pass():
    res = reprojection_gate([100, 100], [100, 100], 0.0, 0.0, 4.0, 3.0)
    assert res.passed and res.reason is None


def test_reprojection_gate_midpoint_fail():
    res = reprojection_gate([0, 0], [3, 0], 0.0, 0.0, 2.0, 3.0)
    assert not res.passed and res.reason == "midpoint"
    assert abs(res.value - 3.0) < 1e-12


def test_reprojection_gate_perpendicular_max():
    res = reprojection_gate([0, 0], [0, 0], 1.0, 4.0, 10.0, 3.0)
    assert not res.passed and res.reason == "perpendicular"
    assert res.value == 4.0


def test_sensitivity_gate_lateral_displacement_passes():
    res = sensitivity_gate([1.0, 0.0], [0, 0], [0, 5], 30.0)
    assert res.passed and abs(res.value) < 1e-9


def test_sensitivity_gate_sliding_fails():
    res = sensitivity_gate([1.0, 0.0], [0, 0], [5, 0], 10.0)
    assert not res.passed and res.reason == "sensitivity"
    assert abs(res.value - 90.0) < 1e-9


def test_sensitivity_gate_zero_displacement_passes():
    res = sensitivity_gate([1.0, 0.0], [7, 7], [7, 7], 10.0)
    assert res.passed and res.value == 0.0


def test_overlap_gate_perfect():
    res = overlap_gate([0, 0], [10, 0], [0, 0], [10, 0], 1.0)
    assert res.passed and abs(res.value - 1.0) < 1e-12


def test_overlap_gate_half():
    res = overlap_gate([0, 0], [10, 0], [5, 0], [15, 0], 0.3)
    assert res.passed
    assert abs(res.value - 0.5) < 1e-12


def test_overlap_gate_disjoint_negative():
    res = overlap_gate([0, 0], [10, 0], [12, 0], [20, 0], 0.3)
    assert not res.passed and res.reason == "overlap"
    assert abs(res.value - (-0.2)) < 1e-12


def test_overlap_gate_endpoint_swap_invariant():
    rng = np.random.default_rng(0)
    for _ in range(100):
        o_s, o_e = rng.uniform(0, 100, 2), rng.uniform(0, 100, 2)
        p_s, p_e = rng.uniform(0, 100, 2), rng.uniform(0, 100, 2)
        if np.allclose(o_s, o_e):
            continue
        r1 = overlap_gate(o_s, o_e, p_s, p_e, 0.3).value
        r2 = overlap_gate(o_e, o_s, p_e, p_s, 0.3).value
        assert abs(r1 - r2) < 1e-9
        assert r1 <= 1.0 + 1e-12


# -- audit CSV ---------------------------------------------------------------

def test_run_gates_audit_byte_identical(tmp_path):
    thresholds = GateThresholds()
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
            run_gates(0, i, observed, projected, thresholds, audit)
        path = tmp_path / f"audit{run}.csv"
        write_gate_audit(audit, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    header = paths[0].read_text().splitlines()[0]
    assert header == "frame_id,track_id,gate,value,threshold,verdict"


def test_run_gates_all_pass_on_exact_projection():
    thresholds = GateThresholds()
    observed = Segment2D([100, 100], [200, 150], id=0)
    projected = Segment2D([100, 100], [200, 150], id=0)
    assert run_gates(0, 0, observed, projected, thresholds)
