"""Synthetic world, trajectory, and measurement rendering."""
import dataclasses
import json
import warnings

import numpy as np
import pytest

from monogp import simulate
from monogp.geometry import Pose, PluckerLine
from monogp.scenarios import default_corridor, nonoverlap, perturbed_corridor, structured
from monogp.segments import Segment2D
from monogp.simulate import (
    MIN_DEPTH,
    MIN_OUTLIER_PX,
    MIN_SEGMENT_PX,
    FrameObservations,
    NoiseSpec,
    ScenarioConfig,
    SegmentTruth,
    TrajectorySpec,
    VisibilitySpec,
    World,
    WorldLine,
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


# -- scalar oracle: one point, one line, one clip at a time ---------------------

def oracle_allowed(landmark_id, frame_id, vis):
    if not vis.partition_windows:
        return True
    windows = vis.partition_windows
    lo, hi = windows[landmark_id % len(windows)]
    return lo <= frame_id < hi


def oracle_project_pixel(p_c, intr):
    return np.array([intr.fx * p_c[0] / p_c[2] + intr.cx,
                     intr.fy * p_c[1] / p_c[2] + intr.cy])


def oracle_clip_2d(p, q, w, h):
    """Liang-Barsky clip of segment p-q to [0,w] x [0,h]; None if outside."""
    d = q - p
    t0, t1 = 0.0, 1.0
    for num, den in ((-p[0], -d[0]), (p[0] - w, d[0]),
                     (-p[1], -d[1]), (p[1] - h, d[1])):
        # inside when num + t*den <= 0
        if abs(den) < 1e-15:
            if num > 0:
                return None
            continue
        t = -num / den
        if den < 0:
            t0 = max(t0, t)
        else:
            t1 = min(t1, t)
        if t0 > t1:
            return None
    return p + t0 * d, p + t1 * d


def oracle_project_world_segment(wl, pose, intr, width, height, max_range):
    """Visible 2D extent of a world segment, or None."""
    a = pose.rotation @ wl.p0 + pose.translation
    b = pose.rotation @ wl.p1 + pose.translation
    # clip to the z >= MIN_DEPTH half space
    if a[2] < MIN_DEPTH and b[2] < MIN_DEPTH:
        return None
    if a[2] < MIN_DEPTH or b[2] < MIN_DEPTH:
        t = (MIN_DEPTH - a[2]) / (b[2] - a[2])
        crossing = a + t * (b - a)
        if a[2] < MIN_DEPTH:
            a = crossing
        else:
            b = crossing
    if min(a[2], b[2]) > max_range:
        return None
    pa = oracle_project_pixel(a, intr)
    pb = oracle_project_pixel(b, intr)
    clipped = oracle_clip_2d(pa, pb, float(width), float(height))
    if clipped is None:
        return None
    ps, pe = clipped
    if np.linalg.norm(pe - ps) < MIN_SEGMENT_PX:
        return None
    return ps, pe


def oracle_render_measurements(world, poses, config):
    """Oracle: the per-point, per-line rendering loop with one noise draw each."""
    intr = config.intrinsics
    w, h = config.image_width, config.image_height
    vis = config.visibility
    frames = []
    for t, pose in enumerate(poses):
        rng = np.random.default_rng([config.rng_seed, 7919, t])
        pt_obs = []
        for pid in sorted(world.points):
            if not oracle_allowed(pid, t, vis):
                continue
            p_c = pose.rotation @ world.points[pid] + pose.translation
            if not (MIN_DEPTH < p_c[2] <= vis.max_range):
                continue
            px = oracle_project_pixel(p_c, intr)
            if not (0 <= px[0] <= w and 0 <= px[1] <= h):
                continue
            noise = rng.normal(0.0, 1.0, size=2) * config.noise.sigma_point_px
            pt_obs.append((pid, px + noise))
        extents = {}

        def extent(lid):
            if lid not in extents:
                extents[lid] = oracle_project_world_segment(
                    world.lines[lid], pose, intr, w, h, vis.max_range)
            return extents[lid]

        candidates = []
        for lid in sorted(world.lines):
            if not oracle_allowed(lid, t, vis):
                continue
            proj = extent(lid)
            if proj is not None:
                candidates.append((lid, proj[0], proj[1]))
        candidates.sort(key=lambda c: (-np.linalg.norm(c[2] - c[1]), c[0]))
        candidates = sorted(candidates[:config.n_l], key=lambda c: c[0])
        segments, truth = [], {}
        for i, (lid, ps, pe) in enumerate(candidates):
            sid = t * 100000 + i
            noise = rng.normal(0.0, 1.0, size=(2, 2)) * config.noise.sigma_endpoint_px
            segments.append(Segment2D(ps + noise[0], pe + noise[1], id=sid))
            truth[sid] = SegmentTruth(lid, world.lines[lid].family_id, False)
        n_out = int(round(config.outlier_fraction * len(segments)))
        if n_out > 0:
            idx = rng.choice(len(segments), size=n_out, replace=False)
            for i in sorted(int(j) for j in idx):
                for _ in range(100):
                    ps = rng.uniform([0, 0], [w, h])
                    pe = rng.uniform([0, 0], [w, h])
                    if np.linalg.norm(pe - ps) >= MIN_OUTLIER_PX:
                        break
                sid = segments[i].id
                segments[i] = Segment2D(ps, pe, id=sid)
                truth[sid] = SegmentTruth(None, None, True)
        predicted = []
        if t > 0:
            prev = frames[t - 1]
            for seg in prev.segments:
                info = prev.truth[seg.id]
                if info.outlier or info.line_id is None:
                    continue
                proj = extent(info.line_id)
                if proj is None:
                    continue
                noise = rng.normal(0.0, 1.0, size=(2, 2)) * config.noise.sigma_flow_px
                predicted.append(Segment2D(proj[0] + noise[0], proj[1] + noise[1],
                                           id=-(seg.id + 1), track_id=info.line_id))
        frames.append(FrameObservations(t, pt_obs, segments, predicted, truth))
    return frames


def assert_frames_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.frame_id == w.frame_id
        assert [pid for pid, _ in g.points] == [pid for pid, _ in w.points]
        assert all(type(pid) is int for pid, _ in g.points)
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(g.points, w.points))
        for gs, ws in ((g.segments, w.segments), (g.predicted, w.predicted)):
            assert [(s.id, s.track_id) for s in gs] == [(s.id, s.track_id) for s in ws]
            assert all(np.array_equal(a.p_start, b.p_start) and np.array_equal(a.p_end, b.p_end)
                       for a, b in zip(gs, ws))
        assert g.truth == w.truth


def orbit_clutter(seed):
    """Orbit scene with 20% outlier segments and a 100-segment budget."""
    return ScenarioConfig(
        name="orbit-clutter", rng_seed=seed, n_points=20,
        direction_families=[([1.0, 0.0, 0.0], 30), ([0.0, 1.0, 0.0], 30),
                            ([0.0, 0.0, 1.0], 30), ([1.0, 0.0, 1.0], 30)],
        trajectory=TrajectorySpec("orbit", 40, 0.25),
        noise=NoiseSpec(0.0, 1.0, 0.0), outlier_fraction=0.2, n_l=100)


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


@pytest.mark.parametrize("direction", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0],
                                       [np.inf, 0.0, 0.0], [0.0, -np.inf, 1.0]])
def test_config_rejects_zero_or_nonfinite_family_direction(direction):
    families = [([1.0, 0.0, 0.0], 5), (direction, 5)]
    with pytest.raises(ValueError, match="direction family 1: direction must be"):
        corridor_config(direction_families=families)


def test_config_rejects_negative_line_count():
    with pytest.raises(ValueError, match="direction family 0: negative line count -1"):
        corridor_config(direction_families=[([1.0, 0.0, 0.0], -1)])
    cfg = corridor_config(direction_families=[([1.0, 0.0, 0.0], 0)])
    assert cfg.direction_families[0][1] == 0


@pytest.mark.parametrize("section", [None, "trajectory", "noise", "visibility",
                                     "init_perturbation"])
def test_config_unknown_key_is_value_error(section):
    d = json.loads(corridor_config().to_json())
    (d if section is None else d[section])["n_pointz"] = 1
    name = section or "config"
    with pytest.raises(ValueError, match=f"{name}: unknown key 'n_pointz'"):
        ScenarioConfig.from_json(json.dumps(d))


def test_config_section_must_be_an_object():
    d = json.loads(corridor_config().to_json())
    d["noise"] = [1.0, 0.5, 0.25]
    with pytest.raises(ValueError, match="noise: expected a JSON object"):
        ScenarioConfig.from_json(json.dumps(d))


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


def test_world_lines_projected_in_one_pass_per_frame(monkeypatch):
    # the candidates and the flow predictions share one stacked projection
    cfg = structured(0)
    world = generate_world(cfg)
    poses = generate_trajectory(cfg)
    calls = []
    extents = simulate._line_extents

    def counting_extents(p0, *args):
        calls.append(len(p0))
        return extents(p0, *args)

    monkeypatch.setattr(simulate, "_line_extents", counting_extents)
    render_measurements(world, poses, cfg)
    assert calls == [len(world.lines)] * len(poses)


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


SCENES = ([default_corridor(s) for s in range(3)] + [structured(s) for s in range(5)]
          + [nonoverlap(s) for s in range(3)] + [perturbed_corridor(s) for s in range(3)]
          + [orbit_clutter(3)])


@pytest.mark.parametrize("cfg", SCENES, ids=lambda c: f"{c.name}-{c.rng_seed}")
def test_render_equals_scalar_oracle(cfg):
    world = generate_world(cfg)
    poses = generate_trajectory(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = oracle_render_measurements(world, poses, cfg)
    assert_frames_equal(render_measurements(world, poses, cfg), want)


CLIP_CASES = [
    ((100.0, 50.0), (100.0, 400.0)),     # vertical: den = 0 on the x edges
    ((-10.0, 50.0), (-10.0, 400.0)),     # vertical, left of the image
    ((50.0, 100.0), (600.0, 100.0)),     # horizontal
    ((50.0, 500.0), (600.0, 500.0)),     # horizontal, below the image
    ((0.0, 100.0), (0.0, 300.0)),        # on the left border
    ((0.0, 0.0), (640.0, 0.0)),          # along the top border, corner to corner
    ((640.0, 480.0), (700.0, 500.0)),    # touches the bottom-right corner only
    ((0.0, 100.0), (50.0, 300.0)),       # starts on the border, t = -0.0
    ((-100.0, -50.0), (700.0, 530.0)),   # clipped at both ends
    ((-100.0, 100.0), (-50.0, 600.0)),   # entirely outside
    ((700.0, 100.0), (-60.0, 90.0)),     # right to left across the image
    ((320.0, 240.0), (320.0 + 1e-16, 400.0)),  # |den| < 1e-15 but not zero
]


def test_clip_equals_scalar_liang_barsky():
    p = np.array([c[0] for c in CLIP_CASES])
    q = np.array([c[1] for c in CLIP_CASES])
    keep, starts, ends = simulate._clip(p, q, 640.0, 480.0)
    assert keep.sum() not in (0, len(CLIP_CASES))
    for k, (a, b) in enumerate(CLIP_CASES):
        want = oracle_clip_2d(np.array(a), np.array(b), 640.0, 480.0)
        assert bool(keep[k]) == (want is not None), (a, b)
        if want is not None:
            assert np.array_equal(starts[k], want[0]) and np.array_equal(ends[k], want[1])


@pytest.mark.parametrize("pose", [
    Pose(np.eye(3), np.zeros(3)),                       # C-ordered rotation
    Pose.from_world_camera(simulate._rot_y(0.2) @ simulate._rot_x(-0.1),
                           [0.1, -0.2, 0.3]),           # F-ordered rotation
])
def test_line_extents_equal_scalar_projection(pose):
    lines = [
        ([0.1, 0.2, 0.1], [0.5, -0.3, 5.0]),    # first endpoint behind MIN_DEPTH
        ([0.5, -0.3, 5.0], [0.1, 0.2, -2.0]),   # second endpoint behind the camera
        ([0.0, 0.0, -1.0], [1.0, 0.0, 0.2]),    # both behind MIN_DEPTH
        ([0.0, 0.5, 13.0], [1.0, 0.5, 15.0]),   # beyond max_range
        ([0.0, 0.5, 11.0], [1.0, 0.5, 14.0]),   # one endpoint within max_range
        ([-1.0, 0.3, MIN_DEPTH], [1.0, 0.3, 4.0]),  # an endpoint at exactly MIN_DEPTH
        ([-9.0, 0.0, 4.0], [9.0, 0.0, 4.0]),    # clipped on both sides
        ([0.0, -9.0, 2.0], [0.0, 9.0, 2.0]),    # vertical through the image
        ([20.0, 0.0, 4.0], [22.0, 0.0, 5.0]),   # outside the image
        ([0.0, 0.0, 4.0], [0.001, 0.0, 4.0]),   # shorter than MIN_SEGMENT_PX
    ]
    p0 = np.array([a for a, _ in lines])
    p1 = np.array([b for _, b in lines])
    intr = ScenarioConfig().intrinsics
    seen, starts, ends = simulate._line_extents(p0, p1, pose, intr, 640, 480, 12.0)
    for k, (a, b) in enumerate(lines):
        want = oracle_project_world_segment(WorldLine(np.array(a), np.array(b), 0),
                                            pose, intr, 640, 480, 12.0)
        assert bool(seen[k]) == (want is not None), (a, b)
        if want is not None:
            assert np.array_equal(starts[k], want[0]) and np.array_equal(ends[k], want[1])


def test_budget_breaks_length_ties_by_line_id():
    # lines 5 and 2 mirror each other about the optical axis: equal lengths
    lines = {5: WorldLine(np.array([-1.0, 0.5, 4.0]), np.array([-0.5, 0.5, 4.0]), 0),
             2: WorldLine(np.array([0.5, 0.5, 4.0]), np.array([1.0, 0.5, 4.0]), 0),
             9: WorldLine(np.array([0.0, -0.5, 4.0]), np.array([0.2, -0.5, 4.0]), 0)}
    world = World({i: np.array([0.1 * i, 0.0, 3.0]) for i in range(10)}, lines,
                  [np.array([1.0, 0.0, 0.0])])
    cfg = corridor_config(n_l=2, noise=NoiseSpec(0.5, 0.5, 0.5))
    poses = [Pose(np.eye(3), np.zeros(3))] * 2
    frames = render_measurements(world, poses, cfg)
    assert [frames[0].truth[s.id].line_id for s in frames[0].segments] == [2, 5]
    cfg.n_l = 1
    frames = render_measurements(world, poses, cfg)
    assert [frames[0].truth[s.id].line_id for s in frames[0].segments] == [2]
    assert_frames_equal(frames, oracle_render_measurements(world, poses, cfg))
