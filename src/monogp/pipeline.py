"""End-to-end back-end pipeline on simulated scenes.

simulate -> perturb the poses -> map landmarks on the perturbed poses
(`map_landmarks`: line tracking and verification gates, point and line
triangulation) -> in gp mode, map global primitives onto them
(`map_primitives`: VP detection over all frames, stage by stage, then
per-frame global-primitive fusion and segment-to-GP association) -> factor
graph construction (`build_graph`) -> Levenberg-Marquardt -> ATE
evaluation against ground truth.

Mapping runs in stacked passes: one matching pass over the scene's segment
rows (`tracking.SceneSegments`) builds the line tracks as (frame, row)
indices, all points go through one midpoint triangulation, all line tracks
through one plane intersection, and every (track, frame) pair through one
projection and one `run_gates` call (`geometry.PoseStack` holds the
pose-derived arrays). Segments stay (4,) endpoint rows, x1 y1 x2 y2, from
the frames through the gates into the graph's factor tables: mapping hands
its landmarks over as rows (`Landmarks`: points, and lines in the
orthonormal form the graph optimizes) and its observations as columns
(`Observations`), which `build_graph` adds as one block per kind.

Modes: "lp" maps points and lines only; "gp" also maps the fused global
primitives, which add vanishing-direction alignment factors. `run_ablation`
simulates and maps each seed once for both modes. Fully deterministic given
the scenario config.
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
from .simulate import (
    FrameObservations,
    ScenarioConfig,
    generate_trajectory,
    generate_world,
    render_measurements,
)
from .tracking import (
    GateAudit,
    SceneSegments,
    filter_short,
    match_predicted,
    run_gates,
)
from .vanishing import (
    detect_scene_vanishing_points,
    detect_vanishing_points,  # noqa: F401 - perfbench/layers.py wraps it under this name
    lift_vanishing_point,
)

MODES = ("lp", "gp")

# Per-frame VP detection settings; `vanishing`'s `DEFAULT_N_HYPOTHESES` and
# `DEFAULT_MIN_CLUSTER_SIZE` (500 and 3) serve `monogp detect-vp` and the
# one-frame `detect_vanishing_points`. Every other setting of the pipeline
# is a constant of the module that uses it.
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
    # per pose a rotation then a translation draw, in the stream's order
    draws = rng.normal(0.0, 1.0, size=(len(poses_gt) - 1, 2, 3))
    rots = so3_exp(draws[:, 0] * math.radians(pert.rot_deg))
    out = [poses_gt[0]]
    for pose, R, d_trans in zip(poses_gt[1:], rots, draws[:, 1] * pert.trans_m):
        out.append(Pose.from_world_camera(R @ pose.r_wc, pose.camera_center() + d_trans))
    return out


def build_line_tracks(scene: SceneSegments) -> dict[int, list]:
    """Track segments across frames with flow-predicted matching: track id ->
    [(frame, row of `scene`)], frames increasing.

    One matching pass per scene over the predictions and detections at least
    `TAU_S` long (`match_predicted`). Each prediction adds its matched
    detection, or else itself, to its track, in frame and then prediction
    order, which also orders the tracks. Frame 0 joins through the flow
    sources of frame 1's predictions."""
    long = filter_short(scene.ends)
    is_pred = scene.track >= 0
    pred, det = np.flatnonzero(long & is_pred), np.flatnonzero(long & ~is_pred)
    chosen = match_predicted(scene.ends[pred], scene.frame[pred],
                             scene.ends[det], scene.frame[det])
    rows, hit = pred.copy(), chosen >= 0
    rows[hit] = det[chosen[hit]]
    tracks: dict[int, list] = {}
    for t, k, r in zip(scene.frame[pred].tolist(), scene.track[pred].tolist(),
                       rows.tolist()):
        tracks.setdefault(k, []).append((t, r))
    first = np.flatnonzero(long & ~is_pred & (scene.frame == 0))
    row_of = dict(zip(scene.ids[first].tolist(), first.tolist()))
    flow = np.flatnonzero(is_pred & (scene.frame == 1))
    for src, k in zip((-scene.ids[flow] - 1).tolist(), scene.track[flow].tolist()):
        if k in tracks and src in row_of:
            tracks[k].insert(0, (0, row_of[src]))
    return tracks


@dataclass
class Observations:
    """Observations as columns, one per row: the frame, the id of what is
    observed (a point, a line track or a GP) and the observed row (a (2,)
    pixel or a (4,) endpoint row). `build_graph` adds them as factors in
    row order."""
    frame: np.ndarray  # (N,) int
    ids: np.ndarray    # (N,) int
    rows: np.ndarray   # (N, 2) or (N, 4) float

    @classmethod
    def empty(cls) -> "Observations":
        """No endpoint-row observations: the GP links before any frame."""
        return cls(np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty((0, 4)))


def _triangulate_points(frames, poses, intr):
    """Points seen in at least two frames, each triangulated from its first
    and last observation in one stacked pass: their ids (P,) and world
    points (P, 3), and the observations of the points kept, by point id and
    then frame."""
    frame = np.concatenate([np.full(len(fr.point_ids), fr.frame_id) for fr in frames])
    pid = np.concatenate([fr.point_ids for fr in frames])
    px = np.concatenate([fr.point_px for fr in frames])
    order = np.argsort(pid, kind="stable")  # by point, each in frame order
    frame, pid, px = frame[order], pid[order], px[order]
    pids, first, count = np.unique(pid, return_index=True, return_counts=True)
    seen = count >= 2
    pids, first, last = pids[seen], first[seen], (first + count - 1)[seen]
    cams = PoseStack.of(poses)
    ok, xyz = triangulate_points(px[first], px[last], cams[frame[first]], cams[frame[last]],
                                 intr)
    keep = np.isin(pid, pids[ok])
    return pids[ok], xyz, Observations(frame[keep], pid[keep], px[keep])


def _triangulate_lines(tracks, scene: SceneSegments, poses, intr, audit):
    """Triangulated lines plus gate-passing per-frame observations.

    `tracks` holds (frame, row) pairs of `scene`. One stacked pass over the
    tracks seen at least twice: each is triangulated from its first and last
    segment, its two 3D endpoints are recovered from the first segment's
    extent, and projected into all its observing frames; frames that see an
    endpoint at depth z <= EPS_Z are dropped, and every other (track, frame)
    pair, ordered by track and then frame, is gated in one `run_gates` call.
    A line is kept with its passing observations when at least two pass.
    Returns the kept lines' track ids (L,) and orthonormal forms U (L, 3, 3)
    and W (L, 2, 2), and their observations by track and then frame."""
    cams = PoseStack.of(poses)
    tracked = [(track_id, obs) for track_id, obs in sorted(tracks.items())
               if len(obs) >= 2]
    first = np.array([obs[0] for _, obs in tracked], dtype=int).reshape(-1, 2)
    last = np.array([obs[-1] for _, obs in tracked], dtype=int).reshape(-1, 2)
    ok, normal, direction = triangulate_lines(
        scene.ends[first[:, 1]], scene.ends[last[:, 1]],
        cams[first[:, 0]], cams[last[:, 0]], intr)
    tracked = list(compress(tracked, ok))
    # 3D endpoints from the first view's observed extent
    ends_a, cams_a = scene.ends[first[ok, 1]], cams[first[ok, 0]]
    p3 = np.stack([closest_points_on_lines(normal, direction, cams_a.center,
                                           backproject(ends_a[:, k:k + 2], cams_a, intr))
                   for k in (0, 2)], axis=1)
    pairs = np.array([o for _, obs in tracked for o in obs], dtype=int).reshape(-1, 2)
    line = np.repeat(np.arange(len(tracked)), [len(obs) for _, obs in tracked])
    track_ids = np.array([track_id for track_id, _ in tracked], dtype=int)
    in_front, pixels = project_points(p3[line], cams[pairs[:, 0]], intr)
    line, (t, r) = line[in_front], pairs[in_front].T
    passed = run_gates(t, track_ids[line], scene.ends[r], pixels.reshape(-1, 4), audit)
    admitted = np.bincount(line[passed], minlength=len(tracked)) >= 2
    keep = passed & admitted[line]
    return (track_ids[admitted], *plucker_to_orthonormal(normal[admitted], direction[admitted]),
            Observations(t[keep], track_ids[line[keep]], scene.ends[r[keep]]))


@dataclass
class Landmarks:
    """What mapping found on one pose set, as rows in ascending id order, and
    each `Observations` in the order of its points or lines. `map_landmarks`
    leaves the GP part (`registry`, `gp_links`) empty; `map_primitives`
    returns a copy with it. `build_graph` adds the rows as variable blocks
    and the observations as factor blocks."""
    point_ids: np.ndarray       # (P,) int
    points: np.ndarray          # (P, 3) world points
    point_obs: Observations     # every observation of each point: pixels
    line_ids: np.ndarray        # (L,) int: track ids
    U: np.ndarray               # (L, 3, 3) orthonormal line forms
    W: np.ndarray               # (L, 2, 2)
    line_obs: Observations      # gate-passing line observations: endpoint rows
    gate_audit: list            # GateAudit
    registry: GlobalPrimitiveRegistry | None = None
    # segment-to-GP links: endpoint rows by frame, then segment id
    gp_links: Observations = field(default_factory=Observations.empty)


def map_landmarks(frames: list[FrameObservations], poses: list[Pose],
                  config: ScenarioConfig) -> Landmarks:
    """Points and gated lines mapped from `frames` on `poses` (one per
    frame)."""
    intr = config.intrinsics
    scene = SceneSegments.of(frames)
    tracks = build_line_tracks(scene)
    audit: list[GateAudit] = []
    return Landmarks(*_triangulate_points(frames, poses, intr),
                     *_triangulate_lines(tracks, scene, poses, intr, audit), audit)


def map_primitives(frames: list[FrameObservations], poses: list[Pose],
                   config: ScenarioConfig, landmarks: Landmarks) -> Landmarks:
    """A copy of `landmarks` with the GP part mapped from `frames` on `poses`:
    VP detection on all frames in one `detect_scene_vanishing_points` call,
    then frame by frame lifting and fusion into a registry, each frame's
    segment-to-GP links (frame, GP, endpoint row) in segment-id order. VP
    detection runs on each frame's endpoint rows, so `frames` (and the
    labels of their boundary `Segment2D`s) are left as they are."""
    intr = config.intrinsics
    registry, links = GlobalPrimitiveRegistry(), [Observations.empty()]
    scene = []  # per frame its segments at least TAU_S long (rows, ids) and seed
    for t, fr in enumerate(frames):
        long = filter_short(fr.ends)
        scene.append((fr.ends[long], fr.ids[long].tolist(), config.rng_seed * 1009 + t))
    detected = detect_scene_vanishing_points(scene, VP_HYPOTHESES, VP_MIN_CLUSTER)
    for t, ((ends, ids, _), estimates) in enumerate(zip(scene, detected)):
        lifted = [(lift_vanishing_point(est.vp_homogeneous, intr, poses[t].r_wc),
                   est.member_segment_ids) for est in estimates]
        seg_gp = sorted({sid: gp_id for gp_id, members in
                         registry.associate_frame(t, lifted, config.n_l)
                         for sid in members}.items())
        row_of = dict(zip(ids, range(len(ids))))
        links.append(Observations(np.full(len(seg_gp), t, dtype=int),
                                  np.array([gp_id for _, gp_id in seg_gp], dtype=int),
                                  ends[[row_of[sid] for sid, _ in seg_gp]].reshape(-1, 4)))
    gp_links = Observations(*(np.concatenate([getattr(o, name) for o in links])
                              for name in ("frame", "ids", "rows")))
    return replace(landmarks, registry=registry, gp_links=gp_links)


def build_graph(poses: list[Pose], landmarks: Landmarks, intr) -> fg.FactorGraph:
    """Poses, points, lines and GPs with their point, line and vd_align
    factors, from whatever `landmarks` holds, each kind added as one block,
    on a graph of the one camera `intr`."""
    g = fg.FactorGraph(intr)
    g.add_variables("pose", range(len(poses)), [p.rotation for p in poses],
                    [p.translation for p in poses])
    g.add_variables("point", landmarks.point_ids, landmarks.points)
    g.add_variables("line", landmarks.line_ids, landmarks.U, landmarks.W)
    gps = landmarks.registry.primitives if landmarks.registry else []
    g.add_variables("gp", range(len(gps)), [gp.direction for gp in gps])
    for cls, obs in ((fg.PointFactor, landmarks.point_obs), (fg.LineFactor, landmarks.line_obs),
                     (fg.VdAlignFactor, landmarks.gp_links)):
        g.add_factors(cls, obs.frame, obs.ids, obs.rows)
    return g


def _stage(stage: str, fn, *args, **kwargs):
    """`fn(*args, **kwargs)`, any exception re-raised as a `stage` error."""
    try:
        return fn(*args, **kwargs)
    except Exception as e:  # noqa: BLE001 - stage-labeled rethrow
        raise PipelineError(stage, str(e)) from e


def _map_scene(config: ScenarioConfig):
    """Frames, true and perturbed poses, and landmarks: what both modes share."""
    world = _stage("simulate", generate_world, config)
    poses_gt = _stage("simulate", generate_trajectory, config)
    frames = _stage("simulate", render_measurements, world, poses_gt, config)
    poses_init = perturb_poses(poses_gt, config)
    landmarks = _stage("mapping", map_landmarks, frames, poses_init, config)
    return frames, poses_gt, poses_init, landmarks


def _solve(config, mode, poses_gt, poses_init, landmarks) -> PipelineResult:
    """The optimized graph of `landmarks` from `poses_init`, scored against
    `poses_gt`; `mode` only labels the result."""
    g = _stage("optimize", build_graph, poses_init, landmarks, config.intrinsics)
    report = _stage("optimize", fg.optimize, g, fixed=[("pose", 0)])
    ts = np.arange(len(poses_gt), dtype=float)
    gt, init = Trajectory(ts, poses_gt), Trajectory(ts, poses_init)
    est = Trajectory(ts, [g.poses[t] for t in range(len(poses_gt))])
    metrics = {
        "scenario": config.name,
        "mode": mode,
        "seed": config.rng_seed,
        "ate_rmse_m": _stage("evaluate", ate_rmse, est, gt, with_scale=True),
        "initial_ate_m": _stage("evaluate", ate_rmse, init, gt, with_scale=True),
        "iters": report.iterations,
        "converged": report.converged,
        "n_gps": len(landmarks.registry.primitives) if landmarks.registry else 0,
        "cost_breakdown": report.cost_breakdown,
    }
    return PipelineResult(config, mode, est, gt, init, report,
                          landmarks.registry, landmarks.gate_audit, metrics, g)


def run_pipeline(config: ScenarioConfig, mode: str) -> PipelineResult:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    frames, poses_gt, poses_init, lm = _map_scene(config)
    if mode == "gp":
        lm = _stage("mapping", map_primitives, frames, poses_init, config, lm)
    return _solve(config, mode, poses_gt, poses_init, lm)


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
    """Paired LP vs LP+GP runs over seeds. Each seed is simulated, perturbed
    and mapped once; the gp arm adds `map_primitives` to the lp landmarks."""
    if n_seeds < 2:
        raise ValueError("need at least 2 seeds")
    per_seed, failures = [], []
    for i in range(n_seeds):
        seed = config.rng_seed + i
        cfg = replace(config, rng_seed=seed)
        try:
            frames, poses_gt, poses_init, lm = _map_scene(cfg)
            res_lp = _solve(cfg, "lp", poses_gt, poses_init, lm)
            lm = _stage("mapping", map_primitives, frames, poses_init, cfg, lm)
            res_gp = _solve(cfg, "gp", poses_gt, poses_init, lm)
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
