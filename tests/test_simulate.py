"""Synthetic world, trajectory, and measurement rendering."""
import dataclasses
import json
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from monogp import simulate
from monogp.geometry import Pose
from monogp.scenarios import default_corridor, nonoverlap, perturbed_corridor, structured
from monogp.segments import Segment2D
from monogp.simulate import (
    MIN_DEPTH,
    MIN_OUTLIER_PX,
    MIN_SEGMENT_PX,
    InitPerturbation,
    NoiseSpec,
    ScenarioConfig,
    SegmentTruth,
    TrajectorySpec,
    VisibilitySpec,
    World,
    generate_trajectory,
    generate_world,
    render_measurements,
    save_observations,
)
from test_graph import line_residual, line_through, project_point, to_camera
from test_segments import Tracked, predicted_segments


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


def oracle_project_world_segment(p0, p1, pose, intr, width, height, max_range):
    """Visible 2D extent of the world segment p0-p1, or None."""
    a = pose.rotation @ p0 + pose.translation
    b = pose.rotation @ p1 + pose.translation
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


class OracleFrame(NamedTuple):
    frame_id: int
    points: list
    segments: list
    predicted: list
    truth: dict


def oracle_render_measurements(world, poses, config):
    """Oracle: the per-point, per-line rendering loop with one noise draw each."""
    intr = config.intrinsics
    w, h = config.image_width, config.image_height
    vis = config.visibility
    frames = []
    for t, pose in enumerate(poses):
        rng = np.random.default_rng([config.rng_seed, 7919, t])
        pt_obs = []
        for pid in range(len(world.points)):
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
                    world.p0[lid], world.p1[lid], pose, intr, w, h, vis.max_range)
            return extents[lid]

        candidates = []
        for lid in range(len(world.p0)):
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
            truth[sid] = SegmentTruth(lid, int(world.family[lid]), False)
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
                predicted.append(Tracked(proj[0] + noise[0], proj[1] + noise[1],
                                         id=-(seg.id + 1), track_id=info.line_id))
        frames.append(OracleFrame(t, pt_obs, segments, predicted, truth))
    return frames


def assert_frames_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.frame_id == w.frame_id
        assert g.point_ids.dtype.kind == "i"
        assert g.point_ids.tolist() == [pid for pid, _ in w.points]
        assert all(np.array_equal(a, b) for a, (_, b) in zip(g.point_px, w.points))
        assert [s.id for s in g.segments] == [s.id for s in w.segments]
        assert [(s.id, s.track_id) for s in predicted_segments(g)] == \
            [(s.id, s.track_id) for s in w.predicted]
        for gs, ws in ((g.segments, w.segments), (predicted_segments(g), w.predicted)):
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


@pytest.mark.parametrize("name, scenario", [
    ("corridor", default_corridor), ("corridor-perturbed", perturbed_corridor),
    ("structured", structured), ("nonoverlap", nonoverlap)])
def test_config_file_is_its_scenario_at_seed_0(name, scenario):
    # the golden entries run the JSON files, the tests the functions
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    assert ScenarioConfig.load(path).to_json() == scenario(0).to_json()


def test_config_validation():
    with pytest.raises(ValueError):
        corridor_config(n_points=0)
    with pytest.raises(ValueError):
        corridor_config(outlier_fraction=1.0)
    # a config that could observe nothing fails at construction, naming the field
    nan, inf = float("nan"), float("inf")
    cases = [({"fx": nan}, "fx must be finite"), ({"fy": 0.0}, "fy must be positive"),
             ({"fx": -500.0}, "fx must be positive"), ({"cx": inf}, "cx must be finite"),
             ({"cy": nan}, "cy must be finite"),
             ({"image_width": 0}, "image_width must be positive"),
             ({"image_height": -480}, "image_height must be positive")]
    for overrides, message in cases:
        with pytest.raises(ValueError, match=message):
            corridor_config(**overrides)
    # the visibility section fails at its own construction
    for r in (0.0, -1.0, nan, inf):
        with pytest.raises(ValueError, match="visibility.max_range must be"):
            corridor_config(visibility=VisibilitySpec(max_range=r))
    for w in ([[0, 5], [0]], [[0, 5], [6, 2]], [[0, 5], [0, 1, 2]], [[0, 5], 3]):
        with pytest.raises(ValueError, match=r"visibility.partition_windows\[1\]: "
                                             r"expected a \[start, end\) pair"):
            corridor_config(visibility=VisibilitySpec(partition_windows=w))
    # from JSON too: `json` parses NaN
    d = json.loads(corridor_config().to_json())
    d["fx"] = nan
    with pytest.raises(ValueError, match="fx must be finite"):
        ScenarioConfig.from_json(json.dumps(d))
    # valid edges still construct
    corridor_config(visibility=VisibilitySpec(max_range=0.5, partition_windows=[[0, 5], [5, 5]]))
    # each section checks its own fields when constructed, so a section
    # assigned after construction (as `perturbed_corridor` does) is checked too
    sections = [(lambda v: NoiseSpec(sigma_point_px=v), "noise.sigma_point_px must be"),
                (lambda v: NoiseSpec(sigma_flow_px=v), "noise.sigma_flow_px must be"),
                (lambda v: InitPerturbation(rot_deg=v), "init_perturbation.rot_deg must be"),
                (lambda v: InitPerturbation(trans_m=v), "init_perturbation.trans_m must be"),
                (lambda v: TrajectorySpec(spacing=v), "trajectory.spacing must be")]
    for make, message in sections:
        for bad in (nan, inf, -1.0, None, "1.0", True):
            with pytest.raises(ValueError, match=message):
                make(bad)
        make(2.5)
    for bad in (1, 0, 2.0, "20", None):
        with pytest.raises(ValueError, match="trajectory.n_keyframes must be"):
            TrajectorySpec(n_keyframes=bad)
    with pytest.raises(ValueError, match="trajectory.kind must be one of corridor, orbit"):
        TrajectorySpec(kind="spiral")
    TrajectorySpec("figure8", 2, 0.5)
    # a JSON value of the wrong type is a ValueError naming the field
    for key, section, bad, message in [
            ("n_points", None, "25", "n_points must be an integer, got '25'"),
            ("n_l", None, 2.5, "n_l must be an integer"),
            ("rng_seed", None, -1, "rng_seed must be non-negative"),
            ("fx", None, "500", "fx must be a number"),
            ("outlier_fraction", None, None, "outlier_fraction must be a number"),
            ("image_width", None, True, "image_width must be an integer"),
            ("direction_families", None, {"x": 1}, "direction_families must be a list"),
            ("direction_families", None, [[1.0, 0.0, 0.0]],
             r"direction family 0: expected a \[3-vector, line count\] pair"),
            ("direction_families", None, [[[1.0, 0.0, 0.0], None]], "direction family 0"),
            ("max_range", "visibility", None, "visibility.max_range must be a number"),
            ("partition_windows", "visibility", 3, "visibility.partition_windows: expected"),
            ("partition_windows", "visibility", [["a", "b"]], "partition_windows\\[0\\]"),
            ("sigma_point_px", "noise", -1.0, "noise.sigma_point_px must be non-negative"),
            ("rot_deg", "init_perturbation", nan, "init_perturbation.rot_deg must be finite"),
            ("n_keyframes", "trajectory", 1, "trajectory.n_keyframes must be at least 2"),
            ("spacing", "trajectory", nan, "trajectory.spacing must be finite"),
            ("kind", "trajectory", 3, "trajectory.kind must be one of")]:
        d = json.loads(corridor_config().to_json())
        (d if section is None else d[section])[key] = bad
        with pytest.raises(ValueError, match=message):
            ScenarioConfig.from_json(json.dumps(d))


def test_config_sections_are_frozen():
    # a field written after construction would skip its check and fail late
    # (`n_keyframes = 1` as a division by zero in `simulate`) or not at all
    # (`image_width = 0`: gp maps nothing and reports convergence)
    cfg = default_corridor()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.trajectory.n_keyframes = 1
    for section, name, value in [("noise", "sigma_point_px", -1.0),
                                 ("visibility", "max_range", 0.0),
                                 ("init_perturbation", "rot_deg", float("nan"))]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(getattr(cfg, section), name, value)
    noise = NoiseSpec(sigma_point_px=1.0, sigma_endpoint_px=1.0, sigma_flow_px=0.5)
    for name, value in [("image_width", 0), ("n_l", 0), ("noise", noise)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    with pytest.raises(ValueError, match="read-only"):
        cfg.direction_families[0][0][0] = np.nan
    with pytest.raises(TypeError):
        cfg.direction_families[0] = (np.array([np.nan, 0.0, 0.0]), 20)
    assert cfg.to_json() == default_corridor().to_json()
    # a whole section is replaced through `replace`, checked at its own construction
    cfg = dataclasses.replace(cfg, noise=noise, name="corridor-perturbed",
                              init_perturbation=InitPerturbation(rot_deg=1.0, trans_m=0.05))
    assert cfg.to_json() == perturbed_corridor().to_json()


def test_partition_windows_cannot_be_edited_in_place():
    # held as a tuple of pairs: a window edited in place would skip the
    # check (here an end before its start) and run unnoticed
    cfg = nonoverlap(0)
    windows = cfg.visibility.partition_windows
    assert windows == ((0, 28), (22, 50))
    with pytest.raises(TypeError):
        cfg.visibility.partition_windows[0][1] = -5
    with pytest.raises(TypeError):
        cfg.visibility.partition_windows[0] = [0, -5]
    assert cfg.visibility.partition_windows == windows
    # lists and tuples construct alike, through `replace` too, and write the
    # JSON lists they are read from
    lists = dataclasses.replace(cfg.visibility, partition_windows=[[0, 28], [22, 50]])
    tuples = dataclasses.replace(cfg.visibility, partition_windows=((0, 28), (22, 50)))
    assert lists == tuples == cfg.visibility
    assert json.loads(cfg.to_json())["visibility"]["partition_windows"] == [[0, 28], [22, 50]]
    assert ScenarioConfig.from_json(cfg.to_json()).to_json() == cfg.to_json()
    with pytest.raises(ValueError, match=r"visibility.partition_windows\[0\]"):
        dataclasses.replace(cfg.visibility, partition_windows=[[0, -5]])


def test_config_normalizes_family_directions():
    cfg = corridor_config(direction_families=[([2.0, 0.0, 0.0], 5)])
    d, count = cfg.direction_families[0]
    assert np.allclose(d, [1.0, 0.0, 0.0]) and count == 5


def test_config_normalizes_family_directions_once():
    raw = [[1.0, 1.0, 0.3], [1.0, 0.0, 1.0], [1.0, 1.0, -1.0], [2.0, 0.0, 0.0]]
    cfg = corridor_config(direction_families=[(d, 5) for d in raw])
    first = [d.tobytes() for d, _ in cfg.direction_families]
    # the first construction divides each direction by its norm
    assert first == [(np.array(d) / np.linalg.norm(d)).tobytes() for d in raw]
    # constructing again (`replace`, a saved and loaded config) keeps the bytes
    for again in (dataclasses.replace(cfg, rng_seed=1),
                  dataclasses.replace(dataclasses.replace(cfg, rng_seed=1), rng_seed=0),
                  ScenarioConfig.from_json(cfg.to_json())):
        assert [d.tobytes() for d, _ in again.direction_families] == first


def test_equal_configs_compare_equal_and_hash_alike():
    a, b = structured(0), structured(0)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert dataclasses.replace(a, rng_seed=1) != a
    assert a != a.to_json()
    # non-axis families keep their bits through a JSON round trip
    cfg = corridor_config(direction_families=[([1.0, 1.0, 0.3], 5), ([2.0, 0.0, 0.0], 4)])
    again = ScenarioConfig.from_json(cfg.to_json())
    assert again == cfg and hash(again) == hash(cfg)


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
    assert world.points.shape == (60, 3)
    assert world.p0.shape == world.p1.shape == (60, 3)
    assert world.family.tolist() == [0] * 20 + [1] * 20 + [2] * 20
    for p0, p1, f in zip(world.p0, world.p1, world.family):
        fam = cfg.direction_families[f][0]
        d = (p1 - p0) / np.linalg.norm(p1 - p0)
        assert np.allclose(d, fam, atol=1e-12) or np.allclose(d, -fam, atol=1e-12)


def test_world_deterministic():
    w1 = generate_world(corridor_config())
    w2 = generate_world(corridor_config())
    for name in ("points", "p0", "p1", "family"):
        assert getattr(w1, name).tobytes() == getattr(w2, name).tobytes()


def oracle_generate_world(config):
    """Oracle: one `uniform` draw per point, and per line one for its base
    and one for its length, family by family."""
    rng = np.random.default_rng([config.rng_seed, 11])
    lo, hi = simulate._scene_box(config)
    points = [rng.uniform(lo, hi) for _ in range(config.n_points)]
    p0, p1, family = [], [], []
    for fam_id, (d, count) in enumerate(config.direction_families):
        for _ in range(count):
            base = rng.uniform(lo, hi)
            half = 0.5 * rng.uniform(1.5, 3.5)
            p0.append(base - half * d)
            p1.append(base + half * d)
            family.append(fam_id)
    return points, p0, p1, family


@pytest.mark.parametrize("cfg", [
    corridor_config(),
    structured(3),
    corridor_config(direction_families=[([1.0, 0.0, 0.0], 0), ([0.0, 0.6, 0.8], 7),
                                        ([0.0, 0.0, 1.0], 0)]),
    corridor_config(direction_families=[]),
], ids=["corridor", "structured3", "empty-families", "no-families"])
def test_world_rows_equal_per_landmark_draws(cfg):
    world = generate_world(cfg)
    points, p0, p1, family = oracle_generate_world(cfg)
    assert world.points.tobytes() == np.array(points).tobytes()
    assert world.p0.shape == world.p1.shape == (len(family), 3)
    assert world.p0.tobytes() == np.array(p0).tobytes()
    assert world.p1.tobytes() == np.array(p1).tobytes()
    assert world.family.dtype.kind == "i" and world.family.tolist() == family


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
            assert np.allclose(poses[0].rotation, np.eye(3), atol=1e-12)
            assert np.allclose(poses[0].translation, 0.0, atol=1e-12)
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
        for pid, px in zip(fr.point_ids.tolist(), fr.point_px):
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
            lid = truth.line_id
            r = line_residual(line_through(world.p0[lid], world.p1[lid]),
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
    assert predicted_segments(frames[0]) == []
    prev_ids = {s.id for s in frames[0].segments}
    for p in predicted_segments(frames[1]):
        assert p.track_id is not None
        assert -p.id - 1 in prev_ids  # flow source segment


def test_world_lines_projected_in_one_pass_per_scene(monkeypatch):
    # every frame's candidates and flow predictions share one stacked projection
    cfg = structured(0)
    world = generate_world(cfg)
    poses = generate_trajectory(cfg)
    calls = []
    extents = simulate._line_extents

    def counting_extents(a, *args):
        calls.append(len(a))
        return extents(a, *args)

    monkeypatch.setattr(simulate, "_line_extents", counting_extents)
    render_measurements(world, poses, cfg)
    assert calls == [len(world.p0) * len(poses)]


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
    early = set(frames[1].point_ids.tolist()) | \
        {frames[1].truth[s.id].line_id for s in frames[1].segments}
    late = set(frames[29].point_ids.tolist()) | \
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

    def seg_fields(segs, tracks):
        return [[s.id, s.p_start.tolist(), s.p_end.tolist(), k] for s, k in zip(segs, tracks)]

    for fr, line in zip(frames, lines):
        d = json.loads(line)
        assert d["frame_id"] == fr.frame_id
        assert d["points"] == [[pid, px.tolist()]
                               for pid, px in zip(fr.point_ids.tolist(), fr.point_px)]
        assert d["segments"] == seg_fields(fr.segments, [None] * len(fr.segments))
        predicted = predicted_segments(fr)
        assert d["predicted"] == seg_fields(predicted, [p.track_id for p in predicted])
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
    seen, starts, ends, length = simulate._line_extents(
        to_camera(pose, p0), to_camera(pose, p1), intr, 640, 480, 12.0)
    for k, (a, b) in enumerate(lines):
        want = oracle_project_world_segment(np.array(a), np.array(b),
                                            pose, intr, 640, 480, 12.0)
        assert bool(seen[k]) == (want is not None), (a, b)
        if want is not None:
            assert np.array_equal(starts[k], want[0]) and np.array_equal(ends[k], want[1])
            assert length[k] == np.linalg.norm(want[1] - want[0])


def test_budget_breaks_length_ties_by_line_id():
    # lines 5 and 2 mirror each other about the optical axis: equal lengths;
    # the other lines lie behind the camera
    p0 = np.tile([0.0, 0.0, -5.0], (10, 1))
    p1 = np.tile([1.0, 0.0, -5.0], (10, 1))
    for lid, a, b in ((5, [-1.0, 0.5, 4.0], [-0.5, 0.5, 4.0]),
                      (2, [0.5, 0.5, 4.0], [1.0, 0.5, 4.0]),
                      (9, [0.0, -0.5, 4.0], [0.2, -0.5, 4.0])):
        p0[lid], p1[lid] = a, b
    world = World(np.array([[0.1 * i, 0.0, 3.0] for i in range(10)]), p0, p1,
                  np.zeros(10, dtype=int))
    cfg = corridor_config(n_l=2, noise=NoiseSpec(0.5, 0.5, 0.5))
    poses = [Pose(np.eye(3), np.zeros(3))] * 2
    frames = render_measurements(world, poses, cfg)
    assert [frames[0].truth[s.id].line_id for s in frames[0].segments] == [2, 5]
    cfg = dataclasses.replace(cfg, n_l=1)
    frames = render_measurements(world, poses, cfg)
    assert [frames[0].truth[s.id].line_id for s in frames[0].segments] == [2]
    assert_frames_equal(frames, oracle_render_measurements(world, poses, cfg))
