"""Deterministic synthetic worlds, trajectories, and measurements.

Scenes contain point landmarks plus 3D line segments grouped into direction
families (every line's direction equals its family direction exactly), so
the ground-truth vanishing directions are known. Rendering projects visible
landmarks per frame, adds seeded Gaussian noise, plants uniform-random
outlier segments, enforces a fixed per-frame segment budget (longest
first), and emits exact-flow predicted segments for line tracking.

Each frame is one stacked pass over all points and all world lines:
projection, the MIN_DEPTH crossing, max_range, Liang-Barsky clipping, the
length filter and the budget run on arrays, and the flow predictions reuse
the frame's line extents. The floats are those of a per-point, per-line loop
(`Pose.transform` multiplies each rotation in its own memory layout, lengths
go through `row_norms`, a clip bound moves only when strictly tighter).
Each frame's generator draws, in this order: the point noise as one block in
point-id order, the endpoint noise as one block in segment order, the
outliers (one `choice`, then per outlier its `uniform` draws), and the flow
noise as one block in the order of the previous frame's segments. A block
of k rows is the same stream as k draws of one row.

Optional visibility partitioning assigns each landmark a window of frames,
so scenarios where distant frames share zero landmarks (but observe the
same direction families) can be planted by construction.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .geometry import CameraIntrinsics, Pose
from .segments import Segment2D, row_norms

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


# the nested sections of a scenario config
_SPECS = {"trajectory": TrajectorySpec, "noise": NoiseSpec,
          "visibility": VisibilitySpec, "init_perturbation": InitPerturbation}


def _known_keys(spec, d, where: str) -> dict:
    """`d` if it is an object whose keys are all fields of the dataclass
    `spec`; else ValueError naming the first unknown key."""
    if not isinstance(d, dict):
        raise ValueError(f"{where}: expected a JSON object")
    names = {f.name for f in fields(spec)}
    for key in d:
        if key not in names:
            raise ValueError(f"{where}: unknown key {key!r}")
    return d


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
        for i, (d, count) in enumerate(self.direction_families):
            d = np.asarray(d, dtype=float)
            n = np.linalg.norm(d)
            if not (np.isfinite(d).all() and 0.0 < n < math.inf):
                raise ValueError(f"direction family {i}: direction must be "
                                 f"finite and nonzero, got {d.tolist()}")
            if int(count) < 0:
                raise ValueError(f"direction family {i}: negative line count {count}")
            fams.append((d / n, int(count)))
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
        """The config of a JSON object; an unknown key raises ValueError."""
        d = _known_keys(cls, json.loads(text), "config")
        for name, spec in _SPECS.items():
            d[name] = spec(**_known_keys(spec, d.get(name, {}), name))
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

def _allowed(ids, frame_id: int, vis: VisibilitySpec) -> np.ndarray:
    """Mask of the landmarks `ids` (k,) that the partition windows let frame
    `frame_id` see: group `id % len(windows)` sees only inside its window."""
    if not vis.partition_windows:
        return np.ones(len(ids), dtype=bool)
    lo, hi = np.array(vis.partition_windows).T
    group = ids % len(lo)
    return (lo[group] <= frame_id) & (frame_id < hi[group])


def _pixels(p_c, intr) -> np.ndarray:
    return np.column_stack([intr.fx * p_c[:, 0] / p_c[:, 2] + intr.cx,
                            intr.fy * p_c[:, 1] / p_c[:, 2] + intr.cy])


def _clip(p, q, w, h):
    """Liang-Barsky clip of the segments p-q (k, 2) to [0,w] x [0,h].

    Returns the mask of the segments that keep a part and their clipped ends.
    A parameter moves only when the new bound is strictly tighter, the rule
    of Python's `max(t0, t)` and `min(t1, t)`.
    """
    d = q - p
    t0, t1 = np.zeros(len(p)), np.ones(len(p))
    keep = np.ones(len(p), dtype=bool)
    for num, den in ((-p[:, 0], -d[:, 0]), (p[:, 0] - w, d[:, 0]),
                     (-p[:, 1], -d[:, 1]), (p[:, 1] - h, d[:, 1])):
        # inside when num + t*den <= 0
        flat = np.abs(den) < 1e-15
        keep &= ~(flat & (num > 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -num / den
        t0 = np.where(~flat & (den < 0) & (t > t0), t, t0)
        t1 = np.where(~flat & (den > 0) & (t < t1), t, t1)
        keep &= ~(t0 > t1)
    return keep, p + t0[:, None] * d, p + t1[:, None] * d


def _line_extents(p0, p1, pose: Pose, intr, width, height, max_range):
    """Visible image extents of the world segments p0-p1 (k, 3) in one frame.

    Returns the mask (k,) of the visible segments and their start and end
    pixels (k, 2): the part with z >= MIN_DEPTH, dropped beyond max_range,
    clipped to the image and dropped below MIN_SEGMENT_PX. Rows the mask
    drops may hold any value.
    """
    a, b = pose.transform(p0), pose.transform(p1)
    a_near, b_near = a[:, 2] < MIN_DEPTH, b[:, 2] < MIN_DEPTH
    # dropped rows may divide by zero on the way
    with np.errstate(divide="ignore", invalid="ignore"):
        # clip to the z >= MIN_DEPTH half space
        t = (MIN_DEPTH - a[:, 2]) / (b[:, 2] - a[:, 2])
        crossing = a + t[:, None] * (b - a)
        a = np.where(a_near[:, None], crossing, a)
        b = np.where(b_near[:, None], crossing, b)
        visible = ~(a_near & b_near) & ~(np.minimum(a[:, 2], b[:, 2]) > max_range)
        keep, ps, pe = _clip(_pixels(a, intr), _pixels(b, intr),
                             float(width), float(height))
        visible &= keep & ~(row_norms(pe - ps) < MIN_SEGMENT_PX)
    return visible, ps, pe


def render_measurements(world: World, poses: list[Pose],
                        config: ScenarioConfig) -> list[FrameObservations]:
    intr = config.intrinsics
    w, h = config.image_width, config.image_height
    vis = config.visibility
    noise = config.noise
    point_ids = np.array(sorted(world.points), dtype=int)
    points = np.array([world.points[i] for i in point_ids.tolist()],
                      dtype=float).reshape(-1, 3)
    row_of = {lid: r for r, lid in enumerate(sorted(world.lines))}
    line_ids = np.array(list(row_of), dtype=int)
    lines = [world.lines[i] for i in row_of]
    p0 = np.array([wl.p0 for wl in lines], dtype=float).reshape(-1, 3)
    p1 = np.array([wl.p1 for wl in lines], dtype=float).reshape(-1, 3)
    frames = []
    for t, pose in enumerate(poses):
        rng = np.random.default_rng([config.rng_seed, 7919, t])
        # -- points ---------------------------------------------------------
        p_c = pose.transform(points)
        near = (_allowed(point_ids, t, vis) & (MIN_DEPTH < p_c[:, 2])
                & (p_c[:, 2] <= vis.max_range))
        px = _pixels(p_c[near], intr)
        inside = (0 <= px[:, 0]) & (px[:, 0] <= w) & (0 <= px[:, 1]) & (px[:, 1] <= h)
        obs = px[inside] + (rng.normal(0.0, 1.0, size=(int(inside.sum()), 2))
                            * noise.sigma_point_px)
        pt_obs = list(zip(point_ids[near][inside].tolist(), obs))
        if len(pt_obs) < 8:
            warnings.warn(f"sparse frame {t}: only {len(pt_obs)} points visible")
        # -- segments: every line projected once, the flow reuses it ---------
        seen, ps, pe = _line_extents(p0, p1, pose, intr, w, h, vis.max_range)
        rows = np.flatnonzero(_allowed(line_ids, t, vis) & seen)
        # budget: longest first, id as a stable tie-break, then id order
        length = row_norms(pe[rows] - ps[rows])
        rows = np.sort(rows[np.lexsort((line_ids[rows], -length))[:config.n_l]])
        ends = (np.stack([ps[rows], pe[rows]], axis=1)
                + rng.normal(0.0, 1.0, size=(len(rows), 2, 2)) * noise.sigma_endpoint_px)
        segments, truth = [], {}
        for i, (lid, (a, b)) in enumerate(zip(line_ids[rows].tolist(), ends)):
            sid = t * 100000 + i
            segments.append(Segment2D(a, b, id=sid))
            truth[sid] = SegmentTruth(lid, world.lines[lid].family_id, False)
        # -- outliers -------------------------------------------------------
        n_out = int(round(config.outlier_fraction * len(segments)))
        if n_out > 0:
            idx = rng.choice(len(segments), size=n_out, replace=False)
            for i in sorted(int(j) for j in idx):
                for _ in range(100):
                    a = rng.uniform([0, 0], [w, h])
                    b = rng.uniform([0, 0], [w, h])
                    if np.linalg.norm(b - a) >= MIN_OUTLIER_PX:
                        break
                sid = segments[i].id
                segments[i] = Segment2D(a, b, id=sid)
                truth[sid] = SegmentTruth(None, None, True)
        # -- exact-flow predictions from frame t-1 ---------------------------
        predicted = []
        if t > 0:
            prev = frames[t - 1]
            sources = []  # (segment id, line id) of the inliers still visible
            for seg in prev.segments:
                info = prev.truth[seg.id]
                if not info.outlier and info.line_id is not None \
                        and seen[row_of[info.line_id]]:
                    sources.append((seg.id, info.line_id))
            rows = [row_of[lid] for _, lid in sources]
            ends = (np.stack([ps[rows], pe[rows]], axis=1)
                    + rng.normal(0.0, 1.0, size=(len(rows), 2, 2)) * noise.sigma_flow_px)
            predicted = [Segment2D(a, b, id=-(sid + 1), track_id=lid)
                         for (sid, lid), (a, b) in zip(sources, ends)]
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

