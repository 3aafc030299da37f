"""Deterministic synthetic worlds, trajectories, and measurements.

Scenes contain point landmarks plus 3D line segments grouped into direction
families (every line's direction equals its family direction exactly), so
the ground-truth vanishing directions are known. Rendering projects visible
landmarks per frame, adds seeded Gaussian noise, plants uniform-random
outlier segments, enforces a fixed per-frame segment budget (longest
first), and emits exact-flow predicted segments for line tracking.

Optional visibility partitioning assigns each landmark a window of frames,
so scenarios where distant frames share zero landmarks (but observe the
same direction families) can be planted by construction.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import CameraIntrinsics, Pose
from .segments import Segment2D

MIN_DEPTH = 0.3         # m; landmarks closer than this are culled
MIN_SEGMENT_PX = 2.0    # discard projected segments shorter than this
MIN_OUTLIER_PX = 25.0   # planted outlier segments are at least this long


@dataclass
class TrajectorySpec:
    kind: str = "corridor"  # corridor | orbit | figure8
    n_keyframes: int = 20
    spacing: float = 0.25   # m between consecutive keyframes


@dataclass
class NoiseSpec:
    sigma_point_px: float = 0.0
    sigma_endpoint_px: float = 0.0
    sigma_flow_px: float = 0.0


@dataclass
class VisibilitySpec:
    max_range: float = 12.0
    # Optional list of [start, end) frame windows; landmark group g =
    # landmark_id % len(windows) is visible only inside windows[g].
    partition_windows: list | None = None


@dataclass
class InitPerturbation:
    rot_deg: float = 0.0   # per-axis rotation noise, degrees
    trans_m: float = 0.0   # per-axis translation noise, meters


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    rng_seed: int = 0
    n_points: int = 200
    # [(unit direction, line count)] per family
    direction_families: list = field(default_factory=lambda: [
        ([1.0, 0.0, 0.0], 20),
        ([0.0, 1.0, 0.0], 20),
        ([0.0, 0.0, 1.0], 20),
    ])
    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    fx: float = 500.0
    fy: float = 500.0
    cx: float = 320.0
    cy: float = 240.0
    image_width: int = 640
    image_height: int = 480
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    outlier_fraction: float = 0.0
    n_l: int = 50  # per-frame segment budget
    visibility: VisibilitySpec = field(default_factory=VisibilitySpec)
    init_perturbation: InitPerturbation = field(default_factory=InitPerturbation)

    def __post_init__(self):
        if self.n_points <= 0 or self.n_l <= 0:
            raise ValueError("counts must be positive")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must be in [0, 1)")
        fams = []
        for d, count in self.direction_families:
            d = np.asarray(d, dtype=float)
            d = d / np.linalg.norm(d)
            fams.append((d, int(count)))
        self.direction_families = fams

    @property
    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(self.fx, self.fy, self.cx, self.cy)

    def to_json(self) -> str:
        d = asdict(self)
        for i, (dirn, count) in enumerate(d["direction_families"]):
            d["direction_families"][i] = [list(map(float, dirn)), count]
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        d = json.loads(text)
        d["trajectory"] = TrajectorySpec(**d.get("trajectory", {}))
        d["noise"] = NoiseSpec(**d.get("noise", {}))
        d["visibility"] = VisibilitySpec(**d.get("visibility", {}))
        d["init_perturbation"] = InitPerturbation(**d.get("init_perturbation", {}))
        return cls(**d)

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        with open(path) as f:
            return cls.from_json(f.read())

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")


@dataclass
class WorldLine:
    p0: np.ndarray
    p1: np.ndarray
    family_id: int

    def direction(self) -> np.ndarray:
        d = self.p1 - self.p0
        return d / np.linalg.norm(d)


@dataclass
class World:
    points: dict          # id -> 3-vector
    lines: dict           # id -> WorldLine
    family_directions: list  # ground-truth GP directions (unit)


@dataclass
class SegmentTruth:
    line_id: int | None
    family_id: int | None
    outlier: bool


@dataclass
class FrameObservations:
    frame_id: int
    points: list                      # (point_id, np.ndarray pixel)
    segments: list                    # Segment2D
    predicted: list                   # Segment2D with track_id set
    truth: dict = field(default_factory=dict)  # segment id -> SegmentTruth


# ---------------------------------------------------------------------------
# World + trajectory generation
# ---------------------------------------------------------------------------

def _scene_box(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    traj = config.trajectory
    if traj.kind == "corridor":
        depth = traj.spacing * (traj.n_keyframes - 1) + 9.0
        return np.array([-3.5, -2.5, 1.5]), np.array([3.5, 2.5, depth])
    # orbit / figure8 look at a fixed center ahead of the first camera
    return np.array([-3.0, -2.5, 3.0]), np.array([3.0, 2.5, 9.0])


def generate_world(config: ScenarioConfig) -> World:
    rng = np.random.default_rng([config.rng_seed, 11])
    lo, hi = _scene_box(config)
    points = {}
    for pid in range(config.n_points):
        points[pid] = rng.uniform(lo, hi)
    lines = {}
    lid = 0
    family_directions = []
    for fam_id, (d, count) in enumerate(config.direction_families):
        family_directions.append(d.copy())
        for _ in range(count):
            base = rng.uniform(lo, hi)
            half = 0.5 * rng.uniform(1.5, 3.5)
            lines[lid] = WorldLine(base - half * d, base + half * d, fam_id)
            lid += 1
    return World(points, lines, family_directions)


def _look_at_pose(position, target) -> Pose:
    z = np.asarray(target, dtype=float) - np.asarray(position, dtype=float)
    z = z / np.linalg.norm(z)
    x = np.cross(np.array([0.0, 1.0, 0.0]), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    r_wc = np.column_stack([x, y, z])
    return Pose.from_world_camera(r_wc, position)


def generate_trajectory(config: ScenarioConfig) -> list[Pose]:
    """Smooth camera-from-world keyframe poses; the first pose is identity."""
    traj = config.trajectory
    n, spacing = traj.n_keyframes, traj.spacing
    if n < 2:
        raise ValueError("need at least 2 keyframes")
    poses = []
    if traj.kind == "corridor":
        # Forward walk with a gentle lateral sway so the camera centers are
        # not collinear (similarity alignment needs a non-degenerate path);
        # positions are rescaled to make the total path length exact.
        amp = 0.08 * spacing
        centers = np.array(
            [[amp * math.sin(0.5 * k), 0.5 * amp * math.sin(0.35 * k),
              k * spacing] for k in range(n)])
        length = float(np.linalg.norm(np.diff(centers, axis=0), axis=1).sum())
        centers *= (n - 1) * spacing / length
        for k in range(n):
            yaw = 0.05 * math.sin(0.4 * k)
            pitch = 0.03 * math.sin(0.3 * k)
            r_wc = _rot_y(yaw) @ _rot_x(pitch)
            poses.append(Pose.from_world_camera(r_wc, centers[k]))
    elif traj.kind == "orbit":
        center = np.array([0.0, 0.0, 6.0])
        radius = 6.0
        dphi = spacing / radius
        for k in range(n):
            phi = k * dphi
            c = center + radius * np.array([math.sin(phi), 0.0, -math.cos(phi)])
            poses.append(_look_at_pose(c, center))
    elif traj.kind == "figure8":
        center = np.array([0.0, 0.0, 6.0])
        amp = spacing * (n - 1) / 4.0
        for k in range(n):
            t = 2.0 * math.pi * k / n
            c = np.array([amp * math.sin(t), 0.5 * amp * math.sin(2.0 * t), 0.0])
            poses.append(_look_at_pose(c, center))
    else:
        raise ValueError(f"unknown trajectory kind {traj.kind!r}")
    return poses


def _rot_x(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)


def _rot_y(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _allowed(landmark_id: int, frame_id: int, vis: VisibilitySpec) -> bool:
    if not vis.partition_windows:
        return True
    windows = vis.partition_windows
    lo, hi = windows[landmark_id % len(windows)]
    return lo <= frame_id < hi


def _project_pixel(p_c, intr) -> np.ndarray:
    return np.array([intr.fx * p_c[0] / p_c[2] + intr.cx,
                     intr.fy * p_c[1] / p_c[2] + intr.cy])


def _clip_2d(p, q, w, h):
    """Liang-Barsky clip of segment p-q to [0,w] x [0,h]; None if outside."""
    d = q - p
    t0, t1 = 0.0, 1.0
    for num, den in (( -p[0], -d[0]), (p[0] - w, d[0]),
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


def _project_world_segment(wl: WorldLine, pose: Pose, intr, width, height,
                           max_range):
    """Visible 2D extent of a world segment, or None."""
    a = pose.transform(wl.p0)
    b = pose.transform(wl.p1)
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
    pa = _project_pixel(a, intr)
    pb = _project_pixel(b, intr)
    clipped = _clip_2d(pa, pb, float(width), float(height))
    if clipped is None:
        return None
    ps, pe = clipped
    if np.linalg.norm(pe - ps) < MIN_SEGMENT_PX:
        return None
    return ps, pe


def render_measurements(world: World, poses: list[Pose],
                        config: ScenarioConfig) -> list[FrameObservations]:
    intr = config.intrinsics
    w, h = config.image_width, config.image_height
    vis = config.visibility
    frames = []
    for t, pose in enumerate(poses):
        rng = np.random.default_rng([config.rng_seed, 7919, t])
        # -- points ---------------------------------------------------------
        pt_obs = []
        for pid in sorted(world.points):
            if not _allowed(pid, t, vis):
                continue
            p_c = pose.transform(world.points[pid])
            if not (MIN_DEPTH < p_c[2] <= vis.max_range):
                continue
            px = _project_pixel(p_c, intr)
            if not (0 <= px[0] <= w and 0 <= px[1] <= h):
                continue
            noise = rng.normal(0.0, 1.0, size=2) * config.noise.sigma_point_px
            pt_obs.append((pid, px + noise))
        if len(pt_obs) < 8:
            warnings.warn(f"sparse frame {t}: only {len(pt_obs)} points visible")
        # -- segments -------------------------------------------------------
        extents = {}  # line id -> visible extent in this frame, projected once

        def extent(lid):
            if lid not in extents:
                extents[lid] = _project_world_segment(world.lines[lid], pose, intr,
                                                      w, h, vis.max_range)
            return extents[lid]

        candidates = []  # (line_id, ps, pe)
        for lid in sorted(world.lines):
            if not _allowed(lid, t, vis):
                continue
            proj = extent(lid)
            if proj is not None:
                candidates.append((lid, proj[0], proj[1]))
        # budget: longest first, id as a stable tie-break
        candidates.sort(key=lambda c: (-np.linalg.norm(c[2] - c[1]), c[0]))
        candidates = sorted(candidates[:config.n_l], key=lambda c: c[0])
        segments, truth = [], {}
        for i, (lid, ps, pe) in enumerate(candidates):
            sid = t * 100000 + i
            noise = rng.normal(0.0, 1.0, size=(2, 2)) * config.noise.sigma_endpoint_px
            segments.append(Segment2D(ps + noise[0], pe + noise[1], id=sid))
            truth[sid] = SegmentTruth(lid, world.lines[lid].family_id, False)
        # -- outliers -------------------------------------------------------
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
        # -- exact-flow predictions from frame t-1 ---------------------------
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
                                           id=-(seg.id + 1),
                                           track_id=info.line_id))
        frames.append(FrameObservations(t, pt_obs, segments, predicted, truth))
    return frames


# ---------------------------------------------------------------------------
# Serialization (JSON lines, one frame per line)
# ---------------------------------------------------------------------------

def frame_to_dict(fr: FrameObservations) -> dict:
    return {
        "frame_id": fr.frame_id,
        "points": [[pid, [float(o[0]), float(o[1])]] for pid, o in fr.points],
        "segments": [_seg_to_list(s) for s in fr.segments],
        "predicted": [_seg_to_list(s) for s in fr.predicted],
        "truth": {str(sid): [tr.line_id, tr.family_id, tr.outlier]
                  for sid, tr in fr.truth.items()},
    }


def _seg_to_list(s: Segment2D):
    return [s.id, [float(s.p_start[0]), float(s.p_start[1])],
            [float(s.p_end[0]), float(s.p_end[1])], s.track_id]


def save_observations(frames: list[FrameObservations], path) -> None:
    with open(path, "w") as f:
        for fr in frames:
            f.write(json.dumps(frame_to_dict(fr), sort_keys=True) + "\n")

