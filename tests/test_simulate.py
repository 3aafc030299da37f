"""Synthetic world, trajectory, and measurement rendering."""
import dataclasses
import json

import numpy as np
import pytest

from monogp import simulate
from monogp.geometry import PluckerLine
from monogp.scenarios import structured
from monogp.simulate import (
    NoiseSpec,
    ScenarioConfig,
    TrajectorySpec,
    VisibilitySpec,
    generate_trajectory,
    generate_world,
    render_measurements,
    save_observations,
)
from test_graph import line_residual, project_point


def corridor_config(**overrides):
    base = dict(name="test", rng_seed=0, n_points=60,
                trajectory=TrajectorySpec("corridor", 10, 0.25))
    base.update(overrides)
    return ScenarioConfig(**base)


# -- config -------------------------------------------------------------------

def test_config_json_roundtrip(tmp_path):
    cfg = corridor_config(outlier_fraction=0.1,
                          noise=NoiseSpec(1.0, 0.5, 0.25))
    path = tmp_path / "cfg.json"
    cfg.save(path)
    loaded = ScenarioConfig.load(path)
    assert loaded.to_json() == cfg.to_json()


def test_config_validation():
    with pytest.raises(ValueError):
        corridor_config(n_points=0)
    with pytest.raises(ValueError):
        corridor_config(outlier_fraction=1.0)


def test_config_normalizes_family_directions():
    cfg = corridor_config(direction_families=[([2.0, 0.0, 0.0], 5)])
    d, count = cfg.direction_families[0]
    assert np.allclose(d, [1.0, 0.0, 0.0]) and count == 5


# -- world --------------------------------------------------------------------

def test_world_family_bookkeeping():
    cfg = corridor_config()
    world = generate_world(cfg)
    assert len(world.lines) == 60
    assert len(world.family_directions) == 3
    for wl in world.lines.values():
        fam = world.family_directions[wl.family_id]
        assert np.allclose(wl.direction(), fam, atol=1e-12) or \
            np.allclose(wl.direction(), -fam, atol=1e-12)


def test_world_deterministic():
    w1 = generate_world(corridor_config())
    w2 = generate_world(corridor_config())
    assert all(np.array_equal(w1.points[i], w2.points[i]) for i in w1.points)
    assert all(np.array_equal(w1.lines[i].p0, w2.lines[i].p0) for i in w1.lines)


# -- trajectory ---------------------------------------------------------------

def test_corridor_path_length_exact():
    cfg = corridor_config(trajectory=TrajectorySpec("corridor", 20, 0.25))
    poses = generate_trajectory(cfg)
    centers = np.array([p.camera_center() for p in poses])
    length = np.linalg.norm(np.diff(centers, axis=0), axis=1).sum()
    assert abs(length - 4.75) < 1e-9


def test_first_pose_is_identity():
    for kind in ("corridor", "orbit", "figure8"):
        cfg = corridor_config(trajectory=TrajectorySpec(kind, 10, 0.25))
        poses = generate_trajectory(cfg)
        if kind == "corridor":
            assert np.allclose(poses[0].matrix(), np.eye(4), atol=1e-12)
        assert len(poses) == 10


def test_consecutive_rotations_bounded():
    for kind in ("corridor", "orbit", "figure8"):
        cfg = corridor_config(trajectory=TrajectorySpec(kind, 20, 0.25))
        poses = generate_trajectory(cfg)
        for a, b in zip(poses, poses[1:]):
            rel = a.compose(b.inverse()).rotation
            ang = np.degrees(np.arccos(np.clip((np.trace(rel) - 1) / 2, -1, 1)))
            assert ang < 10.0


def test_trajectory_needs_two_keyframes():
    with pytest.raises(ValueError):
        generate_trajectory(corridor_config(
            trajectory=TrajectorySpec("corridor", 1, 0.25)))


# -- rendering ----------------------------------------------------------------

def test_noiseless_points_are_exact_projections():
    cfg = corridor_config()
    world = generate_world(cfg)
    poses = generate_trajectory(cfg)
    frames = render_measurements(world, poses, cfg)
    intr = cfg.intrinsics
    for fr in frames:
        for pid, px in fr.points:
            assert np.allclose(px, project_point(world.points[pid],
                                                 poses[fr.frame_id], intr),
                               atol=1e-12)


def test_noiseless_segments_lie_on_true_lines():
    cfg = corridor_config()
    world = generate_world(cfg)
    poses = generate_trajectory(cfg)
    frames = render_measurements(world, poses, cfg)
    intr = cfg.intrinsics
    for fr in frames[:4]:
        for seg in fr.segments:
            truth = fr.truth[seg.id]
            assert not truth.outlier
            wl = world.lines[truth.line_id]
            r = line_residual(PluckerLine.from_two_points(wl.p0, wl.p1),
                              poses[fr.frame_id], seg, intr)
            assert np.max(np.abs(r)) < 1e-6


def test_outlier_count_exact():
    cfg = corridor_config(outlier_fraction=0.2)
    world = generate_world(cfg)
    poses = generate_trajectory(cfg)
    frames = render_measurements(world, poses, cfg)
    for fr in frames:
        n_out = sum(1 for s in fr.segments if fr.truth[s.id].outlier)
        assert n_out == int(round(0.2 * len(fr.segments)))


def test_segment_budget_enforced():
    cfg = corridor_config(n_l=10)
    world = generate_world(cfg)
    poses = generate_trajectory(cfg)
    frames = render_measurements(world, poses, cfg)
    assert all(len(fr.segments) <= 10 for fr in frames)


def test_predicted_segments_reference_previous_frame():
    cfg = corridor_config()
    world = generate_world(cfg)
    poses = generate_trajectory(cfg)
    frames = render_measurements(world, poses, cfg)
    assert frames[0].predicted == []
    prev_ids = {s.id for s in frames[0].segments}
    for p in frames[1].predicted:
        assert p.track_id is not None
        assert -p.id - 1 in prev_ids  # flow source segment


def test_each_world_line_projected_at_most_once_per_frame(monkeypatch):
    # the flow predictions reuse the candidates' projection of a line
    cfg = structured(0)
    world = generate_world(cfg)
    poses = generate_trajectory(cfg)
    calls = []
    project = simulate._project_world_segment

    def counting_project(wl, *args):
        calls.append(wl)
        return project(wl, *args)

    monkeypatch.setattr(simulate, "_project_world_segment", counting_project)
    render_measurements(world, poses, cfg)
    assert len(calls) <= len(world.lines) * len(poses)


def test_rendering_reproducible():
    cfg = corridor_config(noise=NoiseSpec(1.0, 1.0, 0.5), outlier_fraction=0.1)
    world = generate_world(cfg)
    poses = generate_trajectory(cfg)
    f1 = render_measurements(world, poses, cfg)
    f2 = render_measurements(world, poses, cfg)
    for a, b in zip(f1, f2):
        assert len(a.segments) == len(b.segments)
        for sa, sb in zip(a.segments, b.segments):
            assert np.array_equal(sa.p_start, sb.p_start)
            assert np.array_equal(sa.p_end, sb.p_end)


def test_visibility_partition_separates_frames():
    cfg = corridor_config(
        n_points=80,
        trajectory=TrajectorySpec("corridor", 30, 0.2),
        visibility=VisibilitySpec(max_range=14.0,
                                  partition_windows=[[0, 18], [12, 30]]))
    world = generate_world(cfg)
    poses = generate_trajectory(cfg)
    frames = render_measurements(world, poses, cfg)
    early = {pid for pid, _ in frames[1].points} | \
        {frames[1].truth[s.id].line_id for s in frames[1].segments}
    late = {pid for pid, _ in frames[29].points} | \
        {frames[29].truth[s.id].line_id for s in frames[29].segments}
    assert early and late
    assert not early & late
    fam_early = {frames[1].truth[s.id].family_id for s in frames[1].segments}
    fam_late = {frames[29].truth[s.id].family_id for s in frames[29].segments}
    assert fam_early & fam_late  # same direction families remain observable


def test_observation_jsonl_roundtrip(tmp_path):
    cfg = corridor_config(noise=NoiseSpec(0.5, 0.5, 0.25), outlier_fraction=0.1)
    world = generate_world(cfg)
    poses = generate_trajectory(cfg)
    frames = render_measurements(world, poses, cfg)
    path = tmp_path / "obs.jsonl"
    save_observations(frames, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(frames)

    def seg_fields(segs):
        return [[s.id, s.p_start.tolist(), s.p_end.tolist(), s.track_id] for s in segs]

    for fr, line in zip(frames, lines):
        d = json.loads(line)
        assert d["frame_id"] == fr.frame_id
        assert d["points"] == [[pid, px.tolist()] for pid, px in fr.points]
        assert d["segments"] == seg_fields(fr.segments)
        assert d["predicted"] == seg_fields(fr.predicted)
        assert d["truth"] == {str(sid): list(dataclasses.astuple(tr))
                              for sid, tr in fr.truth.items()}
