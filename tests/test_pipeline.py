"""End-to-end pipeline runs and CLI surface."""
import json
from pathlib import Path

import numpy as np
import pytest

from monogp import graph, pipeline
from monogp.cli import main
from monogp.evaluate import load_tum
from monogp.geometry import EPS_Z, plucker_to_orthonormal
from monogp.pipeline import (
    MODES,
    PipelineError,
    build_graph,
    build_line_tracks,
    map_landmarks,
    perturb_poses,
    run_ablation,
    run_pipeline,
)
from monogp.primitives import GlobalPrimitiveRegistry
from monogp.scenarios import default_corridor, nonoverlap, structured
from monogp.segments import Segment2D, endpoints
from monogp.simulate import (
    ScenarioConfig,
    TrajectorySpec,
    generate_trajectory,
    generate_world,
    render_measurements,
)
from monogp.tracking import GateThresholds, filter_short
from monogp.vanishing import detect_vanishing_points, lift_vanishing_point
from test_segments import segment_line


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
    graph = result.registry.association_graph()
    frames = result.config.trajectory.n_keyframes
    windows = result.config.visibility.partition_windows
    # frames before the second window opens vs after the first closes
    early = range(0, windows[1][0])
    late = range(windows[0][1], frames)
    linked = {(a, b) for a, b, _ in graph.edges}
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


def rendered(cfg):
    """The scenario's frames and its ground-truth poses."""
    poses = generate_trajectory(cfg)
    return render_measurements(generate_world(cfg), poses, cfg), poses


@pytest.mark.parametrize("mode", MODES)
def test_map_landmarks_on_ground_truth_poses(mode):
    cfg = structured(0)
    frames, poses = rendered(cfg)
    lm = map_landmarks(frames, poses, cfg, mode)
    assert lm.lines and list(lm.line_obs) == list(lm.lines)
    assert all(len(obs) >= 2 for obs in lm.line_obs.values())
    assert lm.points and list(lm.point_obs) == list(lm.points)
    for pid, p in lm.points.items():
        assert all(poses[t].transform(p)[2] > EPS_Z for t, _ in lm.point_obs[pid])
    if mode == "lp":
        assert lm.registry is None and not lm.gp_links and not lm.line_gp
        return
    # one GP per planted family; links ordered by frame, then segment id
    gps = lm.registry.primitives
    assert len(gps) == 3
    keys = [(t, seg.id) for t, seg, _ in lm.gp_links]
    assert keys and keys == sorted(set(keys))
    assert all(any(s is seg for s in frames[t].segments) for t, seg, _ in lm.gp_links)
    assert lm.line_gp
    for lid, gp_id in lm.line_gp.items():
        assert lm.lines[lid].unit_direction() @ gps[gp_id].direction >= 0


def oracle_graph(frames, poses, cfg, mode):
    """The factor graph as `run_pipeline` built it inline, mapping included,
    and how many lines it sign-flipped onto their GP."""
    intr, tau_s = cfg.intrinsics, GateThresholds().tau_s
    points, obs_by_point = pipeline._triangulate_points(frames, poses, intr)
    lines, line_obs = pipeline._triangulate_lines(
        build_line_tracks(frames), poses, intr, GateThresholds(), [])
    registry, seg_gp = None, {}
    if mode == "gp":
        registry = GlobalPrimitiveRegistry()
        for t, fr in enumerate(frames):
            segs = filter_short(fr.segments, tau_s)
            if len(segs) < 2:
                continue
            estimates = detect_vanishing_points(
                segs, n_hypotheses=pipeline.VP_HYPOTHESES,
                min_cluster_size=pipeline.VP_MIN_CLUSTER,
                rng_seed=cfg.rng_seed * 1009 + t)
            lifted = [(lift_vanishing_point(e.vp_homogeneous, intr, poses[t].r_wc),
                       e.member_segment_ids) for e in estimates]
            for gp_id, seg_ids in registry.associate_frame(t, lifted, cfg.n_l):
                for sid in seg_ids:
                    seg_gp[(t, sid)] = gp_id
    g = graph.FactorGraph()
    for t, pose in enumerate(poses):
        g.add_pose(t, pose)
    for pid, p in points.items():
        g.add_point(pid, p)
        for t, px in obs_by_point[pid]:
            g.add_factor(graph.PointFactor(t, pid, np.asarray(px), intr))
    line_gp, flipped = {}, 0
    if mode == "gp" and registry is not None:
        for lid, line in lines.items():
            gp_id = registry.match(line.unit_direction())
            if gp_id is not None:
                line_gp[lid] = gp_id
    for lid, line in sorted(lines.items()):
        gp_id = line_gp.get(lid)
        if gp_id is not None and \
                float(line.unit_direction() @ registry.primitives[gp_id].direction) < 0:
            line = type(line)(-line.normal, -line.direction)
            flipped += 1
        g.add_line(lid, plucker_to_orthonormal(line))
        for t, seg in line_obs[lid]:
            g.add_factor(graph.LineFactor(t, lid, seg, intr))
    if mode == "gp" and registry is not None:
        for gp_id, gp in enumerate(registry.primitives):
            g.add_gp(gp_id, gp.direction)
        seg_lookup = {(fr.frame_id, s.id): s for fr in frames for s in fr.segments}
        for (t, sid), gp_id in sorted(seg_gp.items()):
            g.add_factor(graph.VdAlignFactor(t, gp_id, seg_lookup[(t, sid)], intr))
        for lid, gp_id in sorted(line_gp.items()):
            g.add_factor(graph.StructFactor(lid, gp_id))
    return g, flipped


def observation_bytes(factor):
    obs = getattr(factor, "obs", getattr(factor, "seg", None))
    if isinstance(obs, Segment2D):
        return obs.id, endpoints([obs]).tobytes()
    return None if obs is None else np.asarray(obs).tobytes()


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
    g = build_graph(poses, map_landmarks(frames, poses, scenario, mode),
                    scenario.intrinsics)
    oracle, flipped = oracle_graph(frames, poses, scenario, mode)
    if not perturbed:
        # the sign alignment and the struct factors are exercised
        assert flipped > 0
        assert any(isinstance(f, graph.StructFactor) for f in g.factors)
    assert [type(f) for f in g.factors] == [type(f) for f in oracle.factors]
    assert [f.keys() for f in g.factors] == [f.keys() for f in oracle.factors]
    assert [observation_bytes(f) for f in g.factors] == \
        [observation_bytes(f) for f in oracle.factors]
    assert g.rows == oracle.rows
    for name in ("R", "t", "X", "U", "W", "G", "B"):
        a, b = getattr(g, name), getattr(oracle, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


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
    tracks = build_line_tracks(frames)
    expected = {tid: [(t0 + i, 100000 * (t0 + i) + k if k >= 0 else k)
                      for i, k in enumerate(ks)]
                for tid, (t0, ks) in PINNED_TRACKS.items()}
    got = {tid: [(t, seg.id) for t, seg in track.observations]
           for tid, track in tracks.items()}
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


@pytest.mark.parametrize("config", ["corridor", "corridor-perturbed",
                                    "nonoverlap", "structured"])
def test_cli_writes_every_config_trajectory(tmp_path, config, capsys):
    # `save_tum` raises (exit 1) on a rotation scipy's `from_matrix` would
    # re-orthogonalize: every pose written here passes its 1e-12 test.
    path = str(Path(__file__).resolve().parents[1] / "configs" / f"{config}.json")
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "sim")]) == 0
    n = len(load_tum(tmp_path / "sim" / "groundtruth.tum").poses)
    for mode in MODES:
        out = tmp_path / mode
        assert main(["run", "--config", path, "--mode", mode, "--seed", "7",
                     "--out", str(out)]) == 0
        assert len(load_tum(out / "estimated.tum").poses) == n
        assert len(load_tum(out / "groundtruth.tum").poses) == n
    capsys.readouterr()


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


def test_cli_bad_arguments_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--mode", "sideways"])
    assert exc.value.code == 2


def raise_error(*args, **kwargs):
    raise RuntimeError("injected failure")


def test_vp_detection_failure_is_a_mapping_error(monkeypatch, tmp_path, config_path):
    monkeypatch.setattr(pipeline, "detect_vanishing_points", raise_error)
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
    g = build_graph(poses, map_landmarks(frames, poses, cfg, "gp"), cfg.intrinsics)
    consts = {b.cls: b.consts for b in graph.PackedFactors(g.factors, g).batches}
    lines = [f for f in g.factors if isinstance(f, graph.LineFactor)]
    aligns = [f for f in g.factors if isinstance(f, graph.VdAlignFactor)]
    assert lines and aligns
    expected = {
        (graph.LineFactor, "ends"): np.array([[[f.obs.p_start[0], f.obs.p_start[1], 1.0],
                                               [f.obs.p_end[0], f.obs.p_end[1], 1.0]]
                                              for f in lines]),
        (graph.VdAlignFactor, "lhat"): np.array([segment_line(f.seg) for f in aligns]),
    }
    for (cls, name), want in expected.items():
        got = consts[cls][name]
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous
