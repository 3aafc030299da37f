"""End-to-end pipeline runs and CLI surface."""
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from monogp import graph, pipeline
from monogp.cli import main
from monogp.evaluate import load_tum
from monogp.geometry import EPS_Z, PoseStack
from monogp.pipeline import (
    MODES,
    PipelineError,
    build_graph,
    build_line_tracks,
    map_landmarks,
    map_primitives,
    perturb_poses,
    run_ablation,
    run_pipeline,
)
from monogp.primitives import GlobalPrimitiveRegistry
from monogp.scenarios import CONFIGS, default_corridor, nonoverlap, structured
from monogp.segments import Segment2D, endpoints, lines_through
from monogp.simulate import (
    ScenarioConfig,
    TrajectorySpec,
    frame_to_dict,
    generate_trajectory,
    generate_world,
    render_measurements,
)
from monogp.tracking import TAU_S, SceneSegments, filter_short
from monogp.vanishing import (
    detect_scene_vanishing_points,
    detect_vanishing_points,
    lift_vanishing_point,
)
from golden import assert_golden, digests, run_entries
from golden import config_path as config_file
from test_graph import (
    add_factor,
    add_gp,
    add_line,
    add_point,
    add_pose,
    assert_batches_equal,
    factor_records,
    grouped,
    oracle_packing,
    oracle_plucker_to_orthonormal,
    to_camera,
)
from test_segments import seg_row
from test_tracking import oracle_triangulate_lines, segment_tracks


def test_corridor_lp_converges_with_finite_ate():
    result = run_pipeline(default_corridor(), "lp")
    assert result.metrics["converged"]
    assert np.isfinite(result.metrics["ate_rmse_m"])
    assert result.metrics["mode"] == "lp"
    assert set(result.metrics) == {"scenario", "mode", "seed", "ate_rmse_m",
                                   "initial_ate_m", "iters", "converged",
                                   "n_gps", "cost_breakdown"}


@pytest.mark.parametrize("mode", ["lp", "gp"])
def test_noiseless_corridor_stops_at_fixed_point(mode):
    # the noiseless world starts at its optimum: LM must stop there at once
    # instead of chasing round-off until lambda overflows
    result = run_pipeline(default_corridor(), mode)
    assert result.metrics["converged"]
    assert result.metrics["iters"] <= 2


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run_pipeline(default_corridor(), "both")


def test_gp_without_line_families_degenerates_to_lp():
    cfg = ScenarioConfig(name="pointsonly", rng_seed=0, n_points=80,
                         direction_families=[],
                         trajectory=TrajectorySpec("corridor", 8, 0.25))
    lp = run_pipeline(cfg, "lp")
    gp = run_pipeline(cfg, "gp")
    assert gp.metrics["n_gps"] == 0
    assert abs(lp.metrics["ate_rmse_m"] - gp.metrics["ate_rmse_m"]) < 1e-9


def test_nonoverlap_association_edge_between_disjoint_frames():
    result = run_pipeline(nonoverlap(), "gp")
    _, edges = result.registry.association_graph()
    frames = result.config.trajectory.n_keyframes
    windows = result.config.visibility.partition_windows
    # frames before the second window opens vs after the first closes
    early = range(0, windows[1][0])
    late = range(windows[0][1], frames)
    linked = {(a, b) for a, b, _ in edges}
    assert any((a, b) in linked for a in early for b in late)


def test_ablation_report_arithmetic():
    report = run_ablation(default_corridor(), 2)
    assert not report.failures
    recomputed = (1.0 - report.mean_ate_gp / report.mean_ate_lp) * 100.0
    assert abs(report.reduction_pct - recomputed) < 1e-12
    parsed = json.loads(report.to_json())
    assert len(parsed["per_seed"]) == 2
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "seed,ate_lp,ate_gp"


def test_ablation_maps_each_seed_once_and_equals_separate_runs(monkeypatch):
    calls = {"render_measurements": 0, "map_landmarks": 0}
    for name in calls:
        def counted(*args, fn=getattr(pipeline, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(pipeline, name, counted)
    report = run_ablation(structured(), 2)
    assert calls == {"render_measurements": 2, "map_landmarks": 2}
    monkeypatch.undo()
    assert not report.failures and len(report.per_seed) == 2
    for e in report.per_seed:
        cfg = replace(structured(), rng_seed=e["seed"])
        for mode in MODES:
            ate = run_pipeline(cfg, mode).metrics["ate_rmse_m"]
            assert e[f"ate_{mode}"].hex() == ate.hex()


def test_pipeline_builds_no_segment2d(monkeypatch):
    # segments are endpoint rows from rendering through the gates into the
    # graph factors; `Segment2D` is only a boundary form for outside callers
    built = []
    init = Segment2D.__post_init__

    def counted(self):
        built.append(self.id)
        init(self)
    monkeypatch.setattr(Segment2D, "__post_init__", counted)
    for mode in MODES:
        run_pipeline(structured(0), mode)
    report = run_ablation(structured(), 2)
    assert not report.failures and built == []
    Segment2D([0.0, 0.0], [1.0, 0.0], id=3)  # the count sees a construction
    assert built == [3]


def test_pipeline_builds_no_factor_value(monkeypatch):
    # factors go from mapping's observation columns into the graph's factor
    # tables as blocks, and the pipeline reads none back: a factor is read
    # only as a row view of its table, when `graph.factors` is indexed
    built = []
    init = graph._FactorRow.__init__

    def counted(self, table, row):
        built.append(table.cls.kind)
        init(self, table, row)
    monkeypatch.setattr(graph._FactorRow, "__init__", counted)
    for cfg in (structured(1), default_corridor()):
        result = run_pipeline(cfg, "gp")
        assert len(result.graph.factors) > 1000
    assert built == []
    result.graph.factors[0]  # the count sees a view built on read
    assert built == ["point"]


def test_pipeline_stacks_only_f_ordered_rotations(monkeypatch):
    # `PoseStack` multiplies by the transposed view of its C copy of
    # `r_wc`, which is `pose.rotation @ v` bit for bit only for the
    # F-ordered rotations that `Pose.from_world_camera` makes
    layouts = []
    of = PoseStack.of.__func__

    def recorded(cls, poses):
        poses = list(poses)
        layouts.extend(p.rotation.flags.f_contiguous for p in poses)
        return of(cls, poses)
    monkeypatch.setattr(PoseStack, "of", classmethod(recorded))
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = ScenarioConfig.load(path)
        for mode in MODES:
            run_pipeline(cfg, mode)
    report = run_ablation(structured(), 2)
    assert not report.failures
    assert layouts and all(layouts)


def rendered(cfg):
    """The scenario's frames and its ground-truth poses."""
    poses = generate_trajectory(cfg)
    return render_measurements(generate_world(cfg), poses, cfg), poses


def mapped(frames, poses, cfg, mode):
    """The landmarks `run_pipeline` maps in `mode` on `poses`."""
    lm = map_landmarks(frames, poses, cfg)
    return map_primitives(frames, poses, cfg, lm) if mode == "gp" else lm


@pytest.mark.parametrize("mode", MODES)
def test_map_landmarks_on_ground_truth_poses(mode):
    cfg = structured(0)
    frames, poses = rendered(cfg)
    lm = mapped(frames, poses, cfg, mode)
    line_obs, point_obs = grouped(lm.line_obs), grouped(lm.point_obs)
    n_lines = len(lm.line_ids)
    assert n_lines and list(line_obs) == lm.line_ids.tolist()
    assert lm.U.shape == (n_lines, 3, 3) and lm.W.shape == (n_lines, 2, 2)
    assert all(len(obs) >= 2 for obs in line_obs.values())
    assert len(lm.point_ids) and list(point_obs) == lm.point_ids.tolist()
    assert lm.points.shape == (len(lm.point_ids), 3)
    for pid, p in zip(lm.point_ids.tolist(), lm.points):
        assert all(to_camera(poses[t], p)[2] > EPS_Z for t, _ in point_obs[pid])
    if mode == "lp":
        assert lm.registry is None and not len(lm.gp_links.frame)
        return
    # one GP per planted family
    assert len(lm.registry.primitives) == 3
    # each link holds one of its frame's segment rows, byte for byte: the
    # segment id of its row bytes (no two rows of a frame share them)
    id_of_row = [{e.tobytes(): sid for e, sid in zip(fr.ends, fr.ids.tolist())}
                 for fr in frames]
    assert [len(ids) for ids in id_of_row] == [len(fr.ids) for fr in frames]
    assert lm.gp_links.rows.shape[1:] == (4,)
    keys = [(t, id_of_row[t][row.tobytes()])
            for t, row in zip(lm.gp_links.frame.tolist(), lm.gp_links.rows)]
    # links ordered by frame, then segment id, each segment once
    assert keys and keys == sorted(set(keys))


def test_mapping_passes_work_through_bounded_memory():
    # the track matcher's pairs and the VP sampler's attempts go in blocks:
    # on structured(0), map_landmarks and map_primitives each stay below
    # 1 MiB of traced allocations at their peak (1.54 and 1.06 MiB when each
    # pass stacked the whole scene), below optimize's own transient
    cfg = structured(0)
    frames, poses = rendered(cfg)

    def traced_peak(stage, *args):
        tracemalloc.start()
        try:
            out = stage(frames, poses, cfg, *args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    lm, landmarks_peak = traced_peak(map_landmarks)
    _, primitives_peak = traced_peak(map_primitives, lm)
    assert landmarks_peak < 1.0 * 2**20 and primitives_peak < 1.0 * 2**20


def test_map_primitives_returns_a_copy_sharing_the_lp_landmarks():
    cfg = structured(0)
    frames, poses = rendered(cfg)
    lm = map_landmarks(frames, poses, cfg)
    U = lm.U
    U_bytes = U.tobytes()
    gp = map_primitives(frames, poses, cfg, lm)
    # the input is unchanged
    assert lm.U is U and U.tobytes() == U_bytes
    assert lm.registry is None and len(lm.gp_links.frame) == 0
    # the result shares every landmark: it adds only the GP part
    for name in ("point_ids", "points", "point_obs", "line_ids", "U", "W", "line_obs",
                 "gate_audit"):
        assert getattr(gp, name) is getattr(lm, name), name
    assert gp.registry.primitives and len(gp.gp_links.frame)


@pytest.mark.parametrize("seed", range(3))
def test_lp_and_gp_graphs_share_point_variables_and_factors(seed):
    # both arms of one seed build on one `map_landmarks`: the GP part must not
    # touch a point variable or a point factor
    cfg = structured(seed)
    frames, _, poses, lm = pipeline._map_scene(cfg)
    graphs = [build_graph(poses, m, cfg.intrinsics)
              for m in (lm, map_primitives(frames, poses, cfg, lm))]

    def point_factors(g):
        return [(a, b, obs.tobytes())
                for cls, a, b, obs in factor_records(g) if cls is graph.PointFactor]
    lp, gp = graphs
    assert lp.rows["point"] == gp.rows["point"] and lp.rows["point"]
    assert lp.X.shape == gp.X.shape and lp.X.tobytes() == gp.X.tobytes()
    assert point_factors(lp) == point_factors(gp) and point_factors(lp)


def frames_state(frames):
    """Each frame's file form and the cluster labels of its segments."""
    return [(json.dumps(frame_to_dict(fr), sort_keys=True),
             [s.cluster_label for s in fr.segments]) for fr in frames]


def test_map_primitives_leaves_its_frames_unchanged():
    cfg = structured(0)
    frames, poses = rendered(cfg)
    before = frames_state(frames)
    gp = map_primitives(frames, poses, cfg, map_landmarks(frames, poses, cfg))
    assert len(gp.gp_links.frame) and frames_state(frames) == before
    assert all(label is None for _, labels in before for label in labels)


def test_run_ablation_leaves_its_frames_unchanged(monkeypatch):
    rendered_frames = []

    def kept(*args, fn=pipeline.render_measurements):
        frames = fn(*args)
        rendered_frames.append((frames, frames_state(frames)))
        return frames
    monkeypatch.setattr(pipeline, "render_measurements", kept)
    report = run_ablation(structured(), 2)
    assert not report.failures and len(rendered_frames) == 2
    for frames, before in rendered_frames:
        assert frames_state(frames) == before


def test_vp_detection_labels_a_segment_list_it_is_given():
    cfg = structured(0)
    frames, _ = rendered(cfg)
    segs = frames[3].segments
    estimates = detect_vanishing_points(segs, rng_seed=5)
    assert estimates and frames[3].segments is segs
    for i, est in enumerate(estimates):
        assert {s.id for s in segs if s.cluster_label == i} == est.member_segment_ids
    assert {s.id for s in segs if s.cluster_label is None} == \
        {s.id for s in segs} - set().union(*(e.member_segment_ids for e in estimates))


@pytest.mark.parametrize("cfg", [structured(0), structured(1), structured(2), default_corridor()],
                         ids=["structured0", "structured1", "structured2", "corridor"])
def test_scene_vp_detection_equals_per_frame_detection(cfg):
    # the frames `map_primitives` detects on, with its settings and seeds
    frames, _ = rendered(cfg)
    scene, per_frame = [], []
    for t, fr in enumerate(frames):
        long = filter_short(fr.ends)
        seed = cfg.rng_seed * 1009 + t
        scene.append((fr.ends[long], fr.ids[long].tolist(), seed))
        segs = [s for s, keep in zip(fr.segments, long) if keep]
        per_frame += detect_scene_vanishing_points(
            [(endpoints(segs), [s.id for s in segs], seed)], pipeline.VP_HYPOTHESES,
            pipeline.VP_MIN_CLUSTER)
    got = detect_scene_vanishing_points(scene, pipeline.VP_HYPOTHESES, pipeline.VP_MIN_CLUSTER)

    def bits(estimates):
        return [(e.vp_homogeneous.tobytes(), sorted(e.member_segment_ids),
                 e.residual_rms.hex()) for e in estimates]
    assert sum(map(len, got)) >= len(frames)
    assert list(map(bits, got)) == list(map(bits, per_frame))


def oracle_graph(frames, poses, cfg, mode):
    """The factor graph as `run_pipeline` built it inline, mapping included."""
    intr = cfg.intrinsics
    point_ids, xyz, point_obs = pipeline._triangulate_points(frames, poses, intr)
    points = dict(zip(point_ids.tolist(), xyz))
    obs_by_point = grouped(point_obs)
    scene = SceneSegments.of(frames)
    lines, line_obs = oracle_triangulate_lines(
        segment_tracks(build_line_tracks(scene), scene), poses, intr, [])
    registry, seg_gp = None, {}
    if mode == "gp":
        registry = GlobalPrimitiveRegistry()
        for t, fr in enumerate(frames):
            segs = [s for s in fr.segments if np.linalg.norm(s.p_end - s.p_start) >= TAU_S]
            if len(segs) < 2:
                continue
            estimates, = detect_scene_vanishing_points(
                [(endpoints(segs), [s.id for s in segs], cfg.rng_seed * 1009 + t)],
                pipeline.VP_HYPOTHESES, pipeline.VP_MIN_CLUSTER)
            lifted = [(lift_vanishing_point(e.vp_homogeneous, intr, poses[t].r_wc),
                       e.member_segment_ids) for e in estimates]
            for gp_id, seg_ids in registry.associate_frame(t, lifted, cfg.n_l):
                for sid in seg_ids:
                    seg_gp[(t, sid)] = gp_id
    g = graph.FactorGraph(intr)
    for t, pose in enumerate(poses):
        add_pose(g, t, pose)
    for pid, p in points.items():
        add_point(g, pid, p)
        for t, px in obs_by_point[pid]:
            add_factor(g, graph.PointFactor, t, pid, np.asarray(px))
    for lid, nd in sorted(lines.items()):
        add_line(g, lid, oracle_plucker_to_orthonormal(nd))
        for t, seg in line_obs[lid]:
            add_factor(g, graph.LineFactor, t, lid, seg_row(seg))
    if mode == "gp" and registry is not None:
        for gp_id, gp in enumerate(registry.primitives):
            add_gp(g, gp_id, gp.direction)
        seg_lookup = {(fr.frame_id, s.id): s for fr in frames for s in fr.segments}
        for (t, sid), gp_id in sorted(seg_gp.items()):
            seg = seg_row(seg_lookup[(t, sid)])
            add_factor(g, graph.VdAlignFactor, t, gp_id, seg)
    return g


@pytest.mark.parametrize("scenario, perturbed, mode", [
    (structured(0), False, "gp"),
    (nonoverlap(0), False, "gp"),
    (structured(1), True, "lp"),
    (structured(1), True, "gp"),
], ids=["structured0-gt-gp", "nonoverlap0-gt-gp", "structured1-lp", "structured1-gp"])
def test_build_graph_matches_inline_construction(scenario, perturbed, mode):
    frames, poses = rendered(scenario)
    if perturbed:
        poses = perturb_poses(poses, scenario)
    g = build_graph(poses, mapped(frames, poses, scenario, mode), scenario.intrinsics)
    oracle = oracle_graph(frames, poses, scenario, mode)
    records, oracle_records = factor_records(g), factor_records(oracle)
    assert [f[:3] for f in records] == [f[:3] for f in oracle_records]
    assert [f[3].tobytes() for f in records] == [f[3].tobytes() for f in oracle_records]
    assert g.rows == oracle.rows
    for name in ("R", "t", "X", "U", "W", "G", "B"):
        a, b = getattr(g, name), getattr(oracle, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    # the packing of the block-built tables: rows, parameter columns and
    # constants byte for byte those of the per-factor packing of the oracle
    index = graph.ParameterIndex(g, [("pose", 0)])
    assert_batches_equal(graph.PackedFactors(g, index).batches, oracle_packing(oracle, index))


# Recorded from the per-pair matcher: track id -> (first frame, one entry per
# consecutive frame). An entry k >= 0 is detection k of frame t (segment id
# 100000 * t + k); a negative entry is the id of a predicted-only segment.
PINNED_TRACKS = {
    0: (0, [0, 0, 0, 0]),
    1: (0, [1, 1, 1, 1, 0, 0, 0, 0, 0]),
    3: (0, [2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]),
    4: (0, [3, -4]),
    6: (0, [4, 4, 4, 4, 3, 4, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3]),
    7: (0, [5, 5, 5, 5, 4, 5, 5, 5, 5, 5, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    9: (0, [6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 6, 6, 6, 6]),
    12: (0, [7, 8, 8, 8]),
    13: (0, [8, 9, 9, 9, 8, 9, 9, 9, 9, 9, 8, 8, 8, 8, 7, 7, 7, 7, 7, 7]),
    14: (0, [9, 10, 10, 10, 9, 10, 10, 10, 10, 10, 9, 9, 9, 9, 8, 8, 8, 8, 8, 8]),
    15: (0, [10, 11, 11, 11, 10, 11, 11, 11, 11, 11, 10, 10, 10, 10, 9, 9]),
    17: (0, [11, 13, 13, 13, 12, 13, 13]),
    19: (0, [13, 14, 14, 14, 13, 14, 14, 13, 13, 13, 12, 12, 12, 12, 11, 11, 10, 10, 10, 10]),
    20: (0, [14, 15, 15, 15, 14, 15, 15, 14, 14, 14, 13, 13, 13, 13, 12, 12, 11, 11, 11, 11]),
    23: (0, [15, 16, 16, 16, 15, 16, 16, 15, 15, 15, 14, 14, 14, 14, 13, 13, 12, 12, 12, 12]),
    24: (0, [16, 17]),
    25: (0, [17, 18, 17, 17, 16, 17, 17, 16, 16, 16, 15, 15, 15, 15, 14, 14, 13, 13, 13, 13]),
    26: (0, [18, 19, 18, 18, 17, 18, 18, 17, 17, 17, 16, 16, 16, 16, 15, 15, 14, 14, 14, 14]),
    27: (0, [19, 20, 19, 19, 18, 19, 19, 18, 18, 18, 17, 17, 17, 17, 16, 16]),
    28: (0, [20, 21, 20, 20, 19, 20, 20, 19, 19, 19, 18, 18, 18, 18, 17, 17, 15, 15, 15, 15]),
    30: (0, [21, 22, 21, 21, 20, 21, 21, 21, 21, 21, 20, 20]),
    31: (0, [22, 23, 22, 22, 21, 22]),
    32: (0, [23, 24, 23, 23, 22, 23, 22, 22, 22, 22, 21, 21, 20, 20, 19, 19, 17, 17, 17, 17]),
    33: (0, [24, 25, 24, 24, 23, 24, 23, 23, 23, 23, 22, 22, 21, 21, 20, 20, 18, 18, 18, 18]),
    35: (0, [25, 27]),
    36: (0, [26, 28, 26]),
    37: (0, [27, 29, 27, 26, 25, 26, 25, 25, 25, 25, 24, 24, 23, 23, 22, 22, 20, 20]),
    38: (0, [28, 30, 28, 27, 26, 27, 26, 26, 26, 26, 25, 25, 24, 24, 23, 23, 21, 21, 20, 20]),
    39: (0, [29, 31, 29, 28, 27, 28, 27, 27]),
    40: (0, [30, 32, 30, 29, 28, 29, 28, 28, 27, 27, 26, 26, 25, 25, 24, 24, 22, -1600023]),
    41: (0, [31, 33, 31, 30, 29, 30, 29, 29, 28, 28, 27, 27, 26, 26, 25, 25, 23, 23, 22, 21]),
    42: (0, [32, 34, 32, 31, 30, 31, 30, 30, 29, 29, 28, 28, 27, 27, 26, 26, 24, 24, 23]),
    43: (0, [33, 35, 33, 32, -300033, 32, 31, -600032, 30, 30, 29, 29, 28, 28, 27, 27, 25, 25, 24, 23]),
    45: (0, [34, 36, 34, 33, 32, 33, 32, 32, 31, 31, 30, 30, -1100031]),
    46: (0, [35, 37, 35]),
    47: (0, [36, 38, 36, 34, 33, 34, 33, 33, 32, 32, 31, 31, 30, 30, 29, 29, 26, 26, 25, 24]),
    48: (0, [37, 39, 37, 35, 34, 35, 34, 34, 33, 33, 32, 32, 31, 31, 30, 30, 27, 27, 26, 25]),
    49: (0, [38, 40, 38, 36, 35, 36, 35, 35, 34, 34, 33, 33, 32, 32, 31, 31, 28, 28, 27, 26]),
    50: (0, [39, 41, 39, -200040, 36, 37, 36, 36, 35, 35, 34, 34, 33, 33, 32, 32, 29, 29, 28, 27]),
    51: (0, [40, 42, 40]),
    52: (0, [41, 43, 41, 39, 37, 38, 37, 37, 36, 36, 35, 35]),
    54: (0, [43, 44, 42, 40, 38, 39, 38, 38, 37, 37, 36]),
    55: (0, [44, 45, 43, 41, 39, 40, 39, 39, 38, 38, 37, 37, 34, 34, 33, 33, 30, 30, 29, 28]),
    56: (0, [45, 46, 44, 42, 40, 41, 40, 40, 39, 39, 38, 38, 35, 35, 34, 34, 31, 31, 30, 29]),
    57: (0, [46, 47, 45]),
    59: (0, [47, 48, 46, 44, 41, 42, 41, 41, 40, 40, 39, 39, 36, 36, 35, 35, 32, 32, 31, 30]),
    10: (2, [7, 7, 7, 8, 8, 8, 8, 8, 7, 7, 7, 7, 6, 6, 6, 6, 6, 6]),
    16: (2, [12, 12, 11, 12, 12, 12, 12, 12, 11, 11, 11, 11, 10, 10, 9, 9, 9, 9]),
    34: (2, [25, 25, 24, 25, 24, 24, 24, 24, 23, 23, 22, 22, 21, 21, 19, 19, 19, 19]),
    5: (3, [3, 2, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]),
    8: (5, [6, 6, 6, 6, 6, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5]),
    2: (6, [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    29: (8, [20, 20, 19, 19, 19, 19, 18, 18, 16, 16, 16, 16]),
}


def test_build_line_tracks_pinned_on_structured():
    frames, _ = rendered(structured(0))
    scene = SceneSegments.of(frames)
    tracks = build_line_tracks(scene)
    expected = {tid: [(t0 + i, 100000 * (t0 + i) + k if k >= 0 else k)
                      for i, k in enumerate(ks)]
                for tid, (t0, ks) in PINNED_TRACKS.items()}
    got = {tid: [(t, int(scene.ids[r])) for t, r in obs] for tid, obs in tracks.items()}
    assert list(got) == list(expected)
    assert got == expected


# -- CLI ------------------------------------------------------------------------

@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    default_corridor().save(path)
    return path


def test_cli_simulate(tmp_path, config_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(out)]) == 0
    assert (out / "observations.jsonl").exists()
    assert (out / "groundtruth.tum").exists()


def test_cli_run_and_eval(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--mode", "lp",
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["mode"] == "lp"
    assert (out / "report.json").exists()
    assert (out / "gate_audit.csv").exists()
    capsys.readouterr()
    assert main(["eval", str(out / "estimated.tum"),
                 str(out / "groundtruth.tum")]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["ate_rmse_m"] < 1e-9


@pytest.mark.parametrize("config", [p.stem for p in sorted(CONFIGS.glob("*.json"))])
def test_cli_writes_every_config_trajectory(tmp_path, config, capsys):
    # `save_tum` raises (exit 1) on a rotation scipy's `from_matrix` would
    # re-orthogonalize: every pose written here passes its 1e-12 test.
    entries = run_entries(config, tmp_path)
    n = len(load_tum(tmp_path / "sim" / "groundtruth.tum").poses)
    for mode in MODES:
        assert len(load_tum(tmp_path / mode / "estimated.tum").poses) == n
        assert len(load_tum(tmp_path / mode / "groundtruth.tum").poses) == n
    capsys.readouterr()
    # every file each command wrote, byte for byte
    assert_golden(entries, f"simulate/{config}/", f"run/{config}/")


def test_cli_non_axis_config_same_with_and_without_its_seed(tmp_path, capsys):
    # `--seed` goes through `dataclasses.replace`, which must not normalize
    # the family directions a second time
    path = tmp_path / "oblique.json"
    path.write_text(json.dumps({
        "name": "oblique", "rng_seed": 3, "n_points": 60,
        "direction_families": [[[1.0, 1.0, 0.3], 15], [[1.0, 0.0, 1.0], 15],
                               [[0.0, 1.0, 0.0], 15]],
        "trajectory": {"kind": "corridor", "n_keyframes": 8, "spacing": 0.25}}))
    runs = []
    for seed in ([], ["--seed", "3"]):
        out = tmp_path / f"run{len(seed)}"
        assert main(["run", "--config", str(path), "--mode", "gp", *seed,
                     "--out", str(out)]) == 0
        runs.append(digests(out, "run"))
    capsys.readouterr()
    assert runs[0] == runs[1]
    assert len(json.loads((out / "registry.json").read_text())) >= 2


def test_cli_run_gp_writes_registry(tmp_path, config_path):
    out = tmp_path / "rungp"
    assert main(["run", "--config", str(config_path), "--mode", "gp",
                 "--out", str(out)]) == 0
    registry = json.loads((out / "registry.json").read_text())
    assert len(registry) == 3  # clean scene: one GP per planted family


def test_cli_detect_vp(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(15):
        a = rng.uniform([50.0, 50.0], [400.0, 400.0])
        u = np.array([900.0, 300.0]) - a
        u /= np.linalg.norm(u)
        b = a + 60.0 * u
        rows.append(" ".join([str(i)] + [repr(float(v)) for v in (*a, *b)]) + "\n")
    path = tmp_path / "segs.txt"
    path.write_text("".join(rows))
    assert main(["detect-vp", "--segments", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 1
    vp = np.array(out[0]["vp"])
    px = vp[:2] / vp[2]
    assert np.allclose(px, [900.0, 300.0], atol=1e-6)


def test_cli_missing_file_is_stage_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--mode", "lp"]) == 1


@pytest.mark.parametrize("command", [["simulate"], ["run", "--mode", "gp"], ["ablate"]])
def test_cli_bad_config_is_an_error_line(tmp_path, config_path, capsys, command):
    d = json.loads(config_path.read_text())
    for key, bad in (("n_pointz", 1), ("noise", {"sigma_pointz_px": 1.0}),
                     ("direction_families", [[[0.0, 0.0, 0.0], 20]])):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**d, key: bad}))
        assert main([command[0], "--config", str(path), *command[1:],
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [["simulate"], ["run", "--mode", "gp"]])
@pytest.mark.parametrize("kind", ["corridor", "orbit"])
def test_cli_non_positive_spacing_is_an_error_line(tmp_path, capsys, command, kind):
    # a corridor divided by its zero path length; an orbit kept every camera
    # in one place
    with open(config_file("structured")) as f:
        d = json.load(f)
    for spacing in (0.0, -0.25):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**d, "trajectory": {
            "kind": kind, "n_keyframes": 20, "spacing": spacing}}))
        assert main([command[0], "--config", str(path), *command[1:],
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trajectory.spacing" in err


@pytest.mark.parametrize("command", [["simulate"], ["run", "--mode", "gp"]])
def test_cli_wrong_value_type_is_an_error_line(tmp_path, capsys, command):
    # `null` and a quoted number, where a number is due
    with open(config_file("structured")) as f:
        d = json.load(f)
    for bad, field in (({"visibility": {"max_range": None}}, "visibility.max_range"),
                       ({"n_points": "25"}, "n_points")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**d, **bad}))
        assert main([command[0], "--config", str(path), *command[1:],
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err


def test_cli_bad_arguments_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--mode", "sideways"])
    assert exc.value.code == 2


@pytest.mark.parametrize("seeds", ["1", "0", "-3"])
def test_cli_ablate_too_few_seeds_is_a_bad_argument(tmp_path, capsys, seeds):
    out = tmp_path / "ablate"
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--config", config_file("structured"), "--seeds", seeds,
              "--out", str(out)])
    assert exc.value.code == 2
    assert "need at least 2 seeds" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="need at least 2 seeds"):
        run_ablation(structured(), int(seeds))


def raise_error(*args, **kwargs):
    raise RuntimeError("injected failure")


def test_vp_detection_failure_is_a_mapping_error(monkeypatch, tmp_path, config_path):
    monkeypatch.setattr(pipeline, "detect_scene_vanishing_points", raise_error)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(default_corridor(), "gp")
    assert exc.value.stage == "mapping"
    assert main(["run", "--config", str(config_path), "--mode", "gp",
                 "--out", str(tmp_path / "run")]) == 1


def test_optimizer_failure_is_an_optimize_error(monkeypatch):
    monkeypatch.setattr(graph, "optimize", raise_error)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(default_corridor(), "lp")
    assert exc.value.stage == "optimize"


def test_packed_segment_constants_equal_per_factor_form():
    # structured(0) gp on ground-truth poses has line and vd_align factors
    cfg = structured(0)
    frames, poses = rendered(cfg)
    g = build_graph(poses, mapped(frames, poses, cfg, "gp"), cfg.intrinsics)
    index = graph.ParameterIndex(g, [("pose", 0)])
    consts = {b.cls: b.consts for b in graph.PackedFactors(g, index).batches}
    lines = [obs for cls, _, _, obs in factor_records(g) if cls is graph.LineFactor]
    aligns = [seg for cls, _, _, seg in factor_records(g) if cls is graph.VdAlignFactor]
    assert lines and aligns
    expected = {
        (graph.LineFactor, "ends"): np.array([[[obs[0], obs[1], 1.0],
                                               [obs[2], obs[3], 1.0]]
                                              for obs in lines]),
        (graph.VdAlignFactor, "lhat"): np.array([lines_through(seg[:2], seg[2:])
                                                 for seg in aligns]),
    }
    for (cls, name), want in expected.items():
        got = consts[cls][name]
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous
