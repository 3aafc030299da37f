"""End-to-end back-end pipeline on simulated scenes.

simulate -> perturb the poses -> map landmarks on the perturbed poses
(`map_landmarks`: line tracking and verification gates, point and line
triangulation, and in gp mode per-frame VP detection, global-primitive
fusion and line-to-GP association) -> factor graph construction
(`build_graph`) -> Levenberg-Marquardt -> ATE evaluation against ground truth.

Mapping triangulates, projects and gates in stacked passes: all points in
one midpoint triangulation, all line tracks in one plane intersection, and
every (track, frame) pair in one projection and one `run_gates` call, with
the pose-derived arrays built once per frame (`geometry.PoseStack`).

Modes: "lp" maps points and lines only; "gp" also maps the fused global
primitives, which add vanishing-direction alignment and structural-consistency
factors. Fully deterministic given the scenario config.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from itertools import compress

import numpy as np

from . import graph as fg
from .evaluate import Trajectory, ate_rmse
from .geometry import (
    PluckerLine,
    Pose,
    PoseStack,
    backproject,
    closest_points_on_lines,
    plucker_to_orthonormal,
    project_points,
    so3_exp,
    triangulate_lines,
    triangulate_points,
)
from .primitives import GlobalPrimitiveRegistry
from .segments import endpoints
from .simulate import (
    FrameObservations,
    ScenarioConfig,
    World,
    generate_trajectory,
    generate_world,
    render_measurements,
)
from .tracking import (
    GateAuditRow,
    GateThresholds,
    LineTrack,
    filter_short,
    match_predicted,
    run_gates,
)
from .vanishing import detect_vanishing_points, lift_vanishing_point

MODES = ("lp", "gp")

# Per-frame VP detection settings; `detect_vanishing_points`' own defaults
# (500 and 3) serve `monogp detect-vp`. Every other setting of the pipeline
# is a constant of the module that uses it, or a default of `GateThresholds`
# or of `detect_vanishing_points`' consensus angle.
VP_HYPOTHESES = 300
VP_MIN_CLUSTER = 6


@dataclass
class PipelineResult:
    config: ScenarioConfig
    mode: str
    estimated: Trajectory
    ground_truth: Trajectory
    initial: Trajectory
    report: fg.OptimizationReport
    registry: GlobalPrimitiveRegistry | None
    gate_audit: list
    metrics: dict
    graph: fg.FactorGraph


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def perturb_poses(poses_gt: list[Pose], config: ScenarioConfig) -> list[Pose]:
    """Initial pose estimates; the first pose stays exact (gauge anchor)."""
    pert = config.init_perturbation
    rng = np.random.default_rng([config.rng_seed, 23])
    out = [poses_gt[0]]
    for pose in poses_gt[1:]:
        d_rot = rng.normal(0.0, 1.0, size=3) * math.radians(pert.rot_deg)
        d_trans = rng.normal(0.0, 1.0, size=3) * pert.trans_m
        r_wc = so3_exp(d_rot) @ pose.r_wc
        out.append(Pose.from_world_camera(r_wc, pose.camera_center() + d_trans))
    return out


def build_line_tracks(frames: list[FrameObservations]) -> dict[int, LineTrack]:
    """Track segments across frames with flow-predicted matching."""
    tau_s = GateThresholds().tau_s
    obs: dict[int, list] = {}
    for t in range(1, len(frames)):
        predicted = filter_short(frames[t].predicted, tau_s)
        detected = filter_short(frames[t].segments, tau_s)
        for track_id, seg, _source in match_predicted(predicted, detected):
            obs.setdefault(track_id, []).append((t, seg))
    # frame 0 joins through the flow sources of frame 1's predictions
    if len(frames) > 1:
        seg0 = {s.id: s for s in filter_short(frames[0].segments, tau_s)}
        for p in frames[1].predicted:
            src = -p.id - 1
            if p.track_id in obs and src in seg0:
                obs[p.track_id].insert(0, (0, seg0[src]))
    tracks = {}
    for track_id, items in obs.items():
        track = LineTrack(track_id)
        for t, seg in items:
            track.add(t, seg)
        tracks[track_id] = track
    return tracks


def _triangulate_points(frames, poses, intr):
    """Points seen in at least two frames, each triangulated from its first
    and last observation in one stacked pass, and every point's
    observations."""
    obs_by_point: dict[int, list] = {}
    for fr in frames:
        for pid, px in fr.points:
            obs_by_point.setdefault(pid, []).append((fr.frame_id, px))
    pids = [pid for pid, items in sorted(obs_by_point.items()) if len(items) >= 2]
    cams = PoseStack.of(poses)
    first = [obs_by_point[pid][0] for pid in pids]
    last = [obs_by_point[pid][-1] for pid in pids]
    ok, xyz = triangulate_points(
        np.array([px for _, px in first], dtype=float).reshape(-1, 2),
        np.array([px for _, px in last], dtype=float).reshape(-1, 2),
        cams[[t for t, _ in first]], cams[[t for t, _ in last]], intr)
    return dict(zip(compress(pids, ok), xyz)), obs_by_point


def _triangulate_lines(tracks, poses, intr, gates, audit):
    """Triangulated lines plus gate-passing per-frame observations.

    One stacked pass over the tracks seen at least twice: each is
    triangulated from its first and last segment, its two 3D endpoints are
    recovered from the first segment's extent, and projected into all its
    observing frames; frames that see an endpoint at depth z <= EPS_Z are
    dropped, and every other (track, frame) pair, ordered by track and then
    frame, is gated in one `run_gates` call. A line is kept with its passing
    observations when at least two pass."""
    cams = PoseStack.of(poses)
    tracked = [(track_id, track.observations)
               for track_id, track in sorted(tracks.items()) if track.age >= 2]
    first = [obs[0] for _, obs in tracked]
    last = [obs[-1] for _, obs in tracked]
    ends_a = endpoints([seg for _, seg in first])
    ok, normal, direction = triangulate_lines(
        ends_a, endpoints([seg for _, seg in last]),
        cams[[t for t, _ in first]], cams[[t for t, _ in last]], intr)
    tracked = list(compress(tracked, ok))
    # 3D endpoints from the first view's observed extent
    ends_a, cams_a = ends_a[ok], cams[[t for t, _ in compress(first, ok)]]
    p3 = np.stack([closest_points_on_lines(normal, direction, cams_a.center,
                                           backproject(ends_a[:, k:k + 2], cams_a, intr))
                   for k in (0, 2)], axis=1)
    pairs = [(i, o) for i, (_, obs) in enumerate(tracked) for o in obs]
    in_front, pixels = project_points(p3[[i for i, _ in pairs]],
                                      cams[[t for _, (t, _) in pairs]], intr)
    seen = list(compress(pairs, in_front))
    passed = run_gates([t for _, (t, _) in seen], [tracked[i][0] for i, _ in seen],
                       endpoints([seg for _, (_, seg) in seen]),
                       pixels.reshape(-1, 4), gates, audit)
    passing: dict[int, list] = {}
    for (i, obs), good in zip(seen, passed.tolist()):
        if good:
            passing.setdefault(i, []).append(obs)
    lines, line_obs = {}, {}
    for i, obs in passing.items():
        if len(obs) >= 2:
            track_id = tracked[i][0]
            lines[track_id] = PluckerLine(normal[i], direction[i])
            line_obs[track_id] = obs
    return lines, line_obs


@dataclass
class Landmarks:
    """What mapping found on one pose set, each map in ascending id order. In
    lp mode the GP part (`registry`, `gp_links`, `line_gp`) is empty; in gp
    mode every line with a GP is sign-aligned to it."""
    points: dict      # point id -> (3,) world point
    point_obs: dict   # point id -> [(frame, pixel)], every observation
    lines: dict       # track id -> PluckerLine
    line_obs: dict    # track id -> [(frame, Segment2D)], gate-passing
    gate_audit: list  # GateAuditRow
    registry: GlobalPrimitiveRegistry | None = None
    gp_links: list = field(default_factory=list)  # (frame, Segment2D, gp id)
    line_gp: dict = field(default_factory=dict)   # track id -> gp id


def map_landmarks(frames: list[FrameObservations], poses: list[Pose],
                  config: ScenarioConfig, mode: str) -> Landmarks:
    """Points, gated lines and, in gp mode, global primitives mapped from
    `frames` on `poses` (one per frame)."""
    intr, gates = config.intrinsics, GateThresholds()
    tracks = build_line_tracks(frames)
    points, obs_by_point = _triangulate_points(frames, poses, intr)
    audit: list[GateAuditRow] = []
    lines, line_obs = _triangulate_lines(tracks, poses, intr, gates, audit)
    lm = Landmarks(points, {pid: obs_by_point[pid] for pid in points},
                   lines, line_obs, audit)
    if mode != "gp":
        return lm
    # per-frame VP detection, lifting and world-frame fusion; the links of a
    # frame are ordered by segment id
    lm.registry = registry = GlobalPrimitiveRegistry()
    for t, fr in enumerate(frames):
        segs = filter_short(fr.segments, gates.tau_s)
        if len(segs) < 2:
            continue
        estimates = detect_vanishing_points(
            segs, n_hypotheses=VP_HYPOTHESES, min_cluster_size=VP_MIN_CLUSTER,
            rng_seed=config.rng_seed * 1009 + t)
        lifted = [(lift_vanishing_point(est.vp_homogeneous, intr, poses[t].r_wc),
                   est.member_segment_ids) for est in estimates]
        seg_gp = {sid: gp_id for gp_id, ids in
                  registry.associate_frame(t, lifted, config.n_l) for sid in ids}
        by_id = {s.id: s for s in segs}
        lm.gp_links += [(t, by_id[sid], gp_id) for sid, gp_id in sorted(seg_gp.items())]
    for lid, line in lines.items():
        gp_id = registry.match(line.unit_direction())
        if gp_id is not None:
            lm.line_gp[lid] = gp_id
            if float(line.unit_direction() @ registry.primitives[gp_id].direction) < 0:
                lines[lid] = type(line)(-line.normal, -line.direction)
    return lm


def build_graph(poses: list[Pose], landmarks: Landmarks, intr) -> fg.FactorGraph:
    """Poses, points, lines and GPs with their point, line, vd_align and
    struct factors, from whatever `landmarks` holds."""
    g = fg.FactorGraph()
    for t, pose in enumerate(poses):
        g.add_pose(t, pose)
    for pid, p in landmarks.points.items():
        g.add_point(pid, p)
        for t, px in landmarks.point_obs[pid]:
            g.add_factor(fg.PointFactor(t, pid, np.asarray(px), intr))
    for lid, line in landmarks.lines.items():
        g.add_line(lid, plucker_to_orthonormal(line))
        for t, seg in landmarks.line_obs[lid]:
            g.add_factor(fg.LineFactor(t, lid, seg, intr))
    for gp_id, gp in enumerate(landmarks.registry.primitives if landmarks.registry else []):
        g.add_gp(gp_id, gp.direction)
    for t, seg, gp_id in landmarks.gp_links:
        g.add_factor(fg.VdAlignFactor(t, gp_id, seg, intr))
    for lid, gp_id in landmarks.line_gp.items():
        g.add_factor(fg.StructFactor(lid, gp_id))
    return g


def run_pipeline(config: ScenarioConfig, mode: str) -> PipelineResult:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")

    try:
        world = generate_world(config)
        poses_gt = generate_trajectory(config)
        frames = render_measurements(world, poses_gt, config)
    except Exception as e:  # noqa: BLE001 - stage-labeled rethrow
        raise PipelineError("simulate", str(e)) from e

    poses_init = perturb_poses(poses_gt, config)

    try:
        landmarks = map_landmarks(frames, poses_init, config, mode)
    except Exception as e:
        raise PipelineError("mapping", str(e)) from e

    try:
        g = build_graph(poses_init, landmarks, config.intrinsics)
        report = fg.optimize(g, fixed=[("pose", 0)])
    except Exception as e:
        raise PipelineError("optimize", str(e)) from e

    try:
        ts = np.arange(len(poses_gt), dtype=float)
        gt = Trajectory(ts, poses_gt)
        init = Trajectory(ts, poses_init)
        est = Trajectory(ts, [g.poses[t] for t in range(len(poses_gt))])
        ate = ate_rmse(est, gt, with_scale=True)
        initial_ate = ate_rmse(init, gt, with_scale=True)
    except Exception as e:
        raise PipelineError("evaluate", str(e)) from e

    metrics = {
        "scenario": config.name,
        "mode": mode,
        "seed": config.rng_seed,
        "ate_rmse_m": ate,
        "initial_ate_m": initial_ate,
        "iters": report.iterations,
        "converged": report.converged,
        "n_gps": len(landmarks.registry.primitives) if landmarks.registry else 0,
        "cost_breakdown": report.cost_breakdown,
    }
    return PipelineResult(config, mode, est, gt, init, report,
                          landmarks.registry, landmarks.gate_audit, metrics, g)


@dataclass
class AblationReport:
    per_seed: list          # {seed, ate_lp, ate_gp}
    failures: list          # {seed, error}
    mean_ate_lp: float
    mean_ate_gp: float
    reduction_pct: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def to_csv(self) -> str:
        rows = ["seed,ate_lp,ate_gp"]
        rows += [f"{e['seed']},{e['ate_lp']!r},{e['ate_gp']!r}"
                 for e in self.per_seed]
        rows.append(f"mean,{self.mean_ate_lp!r},{self.mean_ate_gp!r}")
        return "\n".join(rows) + "\n"


def run_ablation(config: ScenarioConfig, n_seeds: int) -> AblationReport:
    """Paired LP vs LP+GP runs over seeds with identical per-seed worlds."""
    if n_seeds < 2:
        raise ValueError("need at least 2 seeds")
    per_seed, failures = [], []
    for i in range(n_seeds):
        seed = config.rng_seed + i
        cfg = replace(config, rng_seed=seed)
        try:
            res_lp = run_pipeline(cfg, "lp")
            res_gp = run_pipeline(cfg, "gp")
            per_seed.append({"seed": seed,
                             "ate_lp": res_lp.metrics["ate_rmse_m"],
                             "ate_gp": res_gp.metrics["ate_rmse_m"]})
        except PipelineError as e:
            failures.append({"seed": seed, "error": str(e)})
    if len(per_seed) < math.ceil(0.8 * n_seeds):
        raise PipelineError("ablate",
                            f"only {len(per_seed)}/{n_seeds} seeds completed")
    mean_lp = float(np.mean([e["ate_lp"] for e in per_seed]))
    mean_gp = float(np.mean([e["ate_gp"] for e in per_seed]))
    reduction = (1.0 - mean_gp / mean_lp) * 100.0 if mean_lp > 0 else 0.0
    return AblationReport(per_seed, failures, mean_lp, mean_gp, reduction)
