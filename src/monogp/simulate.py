"""Deterministic synthetic worlds, trajectories, and measurements.

Scenes contain point landmarks plus 3D line segments grouped into direction
families (every line's direction equals its family direction exactly), so
the ground-truth vanishing directions are known. Rendering projects visible
landmarks per frame, adds seeded Gaussian noise, plants uniform-random
outlier segments, enforces a fixed per-frame segment budget (longest
first), and emits exact-flow predicted segments for line tracking.

The geometry is one stacked pass over all frames, points and world lines:
projection, the MIN_DEPTH crossing, max_range, Liang-Barsky clipping and the
length filter run on arrays; per frame the budget and the draws follow, and
the flow predictions reuse the frame's line extents. The floats are those of
a per-point, per-line loop (`PoseStack.transform` multiplies each rotation
in the F-ordered layout of `Pose.from_world_camera`, pixels come from the
one `geometry.pinhole`, lengths keep the per-row floats (see `geometry`'s
row numerics), a clip bound moves only when strictly tighter). Each frame's
generator draws, in this order: the point noise as one block in point-id
order, the endpoint noise as one block in segment order, the outliers (one
`choice`, then per outlier its `uniform` draws), and the flow noise as one
block in the order of the previous frame's segments. A block of k rows is
the same stream as k draws of one row. A frame keeps its points, segments,
predictions and truth as columns; its `Segment2D` list and truth dict are
built only when read.

Optional visibility partitioning assigns each landmark a window of frames,
so scenarios where distant frames share zero landmarks (but observe the
same direction families) can be planted by construction.
"""
from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .geometry import CameraIntrinsics, Pose, PoseStack, pinhole, row_norms
from .segments import Segment2D

MIN_DEPTH = 0.3         # m; landmarks closer than this are culled
MIN_SEGMENT_PX = 2.0    # discard projected segments shorter than this
MIN_OUTLIER_PX = 25.0   # planted outlier segments are at least this long
# A family direction within this of unit norm (a normalized one is within
# 1.5 eps) is kept bit for bit, so `dataclasses.replace` does not move it.
UNIT_NORM_TOL = 4 * np.finfo(float).eps
TRAJECTORY_KINDS = ("corridor", "orbit")


def _check(spec, names, section: str = "", integer=False, low=None, strict=False):
    """ValueError naming the field unless each field `names` of `spec` is a
    finite number (an integer if `integer`; a bool is neither) and, if `low`
    is given, at least `low` (above it if `strict`)."""
    for name in names:
        value, where = getattr(spec, name), section + name
        if isinstance(value, bool) or not isinstance(
                value, numbers.Integral if integer else numbers.Real):
            raise ValueError(f"{where} must be {'an integer' if integer else 'a number'}, "
                             f"got {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"{where} must be finite, got {value!r}")
        if low is not None and not (value > low if strict else value >= low):
            bound = "positive" if strict else "non-negative" if low == 0 else f"at least {low}"
            raise ValueError(f"{where} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class TrajectorySpec:
    kind: str = "corridor"  # one of TRAJECTORY_KINDS
    n_keyframes: int = 20
    spacing: float = 0.25   # m between consecutive keyframes

    def __post_init__(self):
        if self.kind not in TRAJECTORY_KINDS:
            raise ValueError(f"trajectory.kind must be one of {', '.join(TRAJECTORY_KINDS)}, "
                             f"got {self.kind!r}")
        _check(self, ["n_keyframes"], "trajectory.", integer=True, low=2)
        _check(self, ["spacing"], "trajectory.", low=0, strict=True)


@dataclass(frozen=True)
class NoiseSpec:
    sigma_point_px: float = 0.0
    sigma_endpoint_px: float = 0.0
    sigma_flow_px: float = 0.0

    def __post_init__(self):
        _check(self, [f.name for f in fields(self)], "noise.", low=0)


@dataclass(frozen=True)
class VisibilitySpec:
    max_range: float = 12.0
    # Optional [start, end) frame windows; landmark group g =
    # landmark_id % len(windows) is visible only inside windows[g]. Given as
    # lists or tuples, stored as a tuple of pairs, so the section stays frozen.
    partition_windows: tuple | None = None

    def __post_init__(self):
        _check(self, ["max_range"], "visibility.", low=0, strict=True)
        windows = self.partition_windows
        if not isinstance(windows, (list, tuple, type(None))):
            raise ValueError(f"visibility.partition_windows: expected a list, got {windows!r}")
        for i, window in enumerate(windows or []):
            if np.shape(window) != (2,) or not all(isinstance(x, numbers.Real) for x in window) \
                    or not window[0] <= window[1]:
                raise ValueError(f"visibility.partition_windows[{i}]: expected a "
                                 f"[start, end) pair, got {window!r}")
        if windows is not None:
            object.__setattr__(self, "partition_windows", tuple(tuple(w) for w in windows))


@dataclass(frozen=True)
class InitPerturbation:
    rot_deg: float = 0.0   # per-axis rotation noise, degrees
    trans_m: float = 0.0   # per-axis translation noise, meters

    def __post_init__(self):
        _check(self, [f.name for f in fields(self)], "init_perturbation.", low=0)


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


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A scene, its camera and its measurement settings, checked when
    constructed and frozen after: change one through `dataclasses.replace`."""
    name: str = "scenario"
    rng_seed: int = 0
    n_points: int = 200
    # (direction, line count) per family, given as a list or tuple; stored as
    # a tuple of (read-only unit direction, count) pairs
    direction_families: tuple = field(default_factory=lambda: [
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
        # the sections check themselves when constructed
        _check(self, ["rng_seed"], integer=True, low=0)
        _check(self, ["n_points", "n_l", "image_width", "image_height"], integer=True,
               low=0, strict=True)
        _check(self, ["fx", "fy", "cx", "cy", "outlier_fraction"])
        self.intrinsics  # noqa: B018 - CameraIntrinsics checks fx > 0 and fy > 0
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must be in [0, 1)")
        if not isinstance(self.direction_families, (list, tuple)):
            raise ValueError(f"direction_families must be a list, got {self.direction_families!r}")
        fams = []
        for i, family in enumerate(self.direction_families):
            if not (isinstance(family, (list, tuple)) and len(family) == 2 and
                    np.shape(family[0]) == (3,) and isinstance(family[1], numbers.Integral)):
                raise ValueError(f"direction family {i}: expected a [3-vector, line "
                                 f"count] pair, got {family!r}")
            d, count = np.array(family[0], dtype=float), int(family[1])
            n = np.linalg.norm(d)
            if not (np.isfinite(d).all() and 0.0 < n < math.inf):
                raise ValueError(f"direction family {i}: direction must be "
                                 f"finite and nonzero, got {d.tolist()}")
            if count < 0:
                raise ValueError(f"direction family {i}: negative line count {count}")
            d = d if abs(n - 1.0) <= UNIT_NORM_TOL else d / n
            d.setflags(write=False)
            fams.append((d, count))
        object.__setattr__(self, "direction_families", tuple(fams))

    @property
    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(self.fx, self.fy, self.cx, self.cy)

    def to_json(self) -> str:
        d = asdict(self)
        d["direction_families"] = [[list(map(float, dirn)), count]
                                   for dirn, count in d["direction_families"]]
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
class World:
    """Planted landmarks as rows whose index is the id: points (P, 3), each
    line's endpoints `p0` and `p1` (L, 3) and its direction family `family`
    (L,)."""
    points: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    family: np.ndarray


@dataclass(slots=True)
class SegmentTruth:
    line_id: int | None
    family_id: int | None
    outlier: bool


@dataclass
class FrameObservations:
    """One frame's measurements as columns. Points: `point_ids` (k,) in id
    order with their pixels `point_px` (k, 2). Detections: endpoint rows
    `ends` (n, 4), x1 y1 x2 y2, with `ids`, true `line_ids` and `families`
    (-1 on an outlier) and the `outlier` mask. Flow predictions: `pred_ends`
    (m, 4) with `pred_ids` and `pred_tracks` (the predicted line). The
    boundary forms `segments` (`Segment2D` handles on the rows of `ends`)
    and `truth` (id -> `SegmentTruth`), which callers outside the pipeline
    read, are built on first read, once."""
    frame_id: int
    point_ids: np.ndarray
    point_px: np.ndarray
    ends: np.ndarray
    ids: np.ndarray
    line_ids: np.ndarray
    families: np.ndarray
    outlier: np.ndarray
    pred_ends: np.ndarray
    pred_ids: np.ndarray
    pred_tracks: np.ndarray

    @cached_property
    def segments(self) -> list[Segment2D]:
        return Segment2D.of_rows(self.ends, self.ids.tolist())

    @cached_property
    def truth(self) -> dict:
        return {sid: SegmentTruth(None, None, True) if out else SegmentTruth(lid, fam, False)
                for sid, lid, fam, out in zip(self.ids.tolist(), self.line_ids.tolist(),
                                              self.families.tolist(), self.outlier.tolist())}


# ---------------------------------------------------------------------------
# World + trajectory generation
# ---------------------------------------------------------------------------

def _scene_box(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    traj = config.trajectory
    if traj.kind == "corridor":
        depth = traj.spacing * (traj.n_keyframes - 1) + 9.0
        return np.array([-3.5, -2.5, 1.5]), np.array([3.5, 2.5, depth])
    # an orbit looks at a fixed center ahead of the first camera
    return np.array([-3.0, -2.5, 3.0]), np.array([3.0, 2.5, 9.0])


def generate_world(config: ScenarioConfig) -> World:
    """Points, then the lines of each family in turn, drawn uniformly in the
    scene box. Each is one block of draws: all points as one (n_points, 3)
    `uniform`, all lines as one (L, 4) `random`, a line's base point and
    length mapped as `uniform` maps them; the stream and the floats are
    those of one `uniform` call per point, and per line one for its base
    and one for its length."""
    rng = np.random.default_rng([config.rng_seed, 11])
    lo, hi = _scene_box(config)
    points = rng.uniform(lo, hi, size=(config.n_points, 3))
    fams = config.direction_families
    family = np.repeat(np.arange(len(fams)), [count for _, count in fams])
    dirs = np.array([d for d, _ in fams]).reshape(-1, 3)[family]
    u = rng.random((len(family), 4))
    base = lo + (hi - lo) * u[:, :3]
    half = 0.5 * (1.5 + (3.5 - 1.5) * u[:, 3:])
    return World(points, base - half * dirs, base + half * dirs, family)


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
    else:  # orbit
        center = np.array([0.0, 0.0, 6.0])
        radius = 6.0
        dphi = spacing / radius
        for k in range(n):
            phi = k * dphi
            c = center + radius * np.array([math.sin(phi), 0.0, -math.cos(phi)])
            poses.append(_look_at_pose(c, center))
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


def _line_extents(a, b, intr, width, height, max_range):
    """Visible image extents of segments a-b (k, 3) in camera coordinates.

    Returns the mask (k,) of the visible segments, their start and end pixels
    (k, 2) and their pixel lengths (k,): the part with z >= MIN_DEPTH,
    dropped beyond max_range, clipped to the image and dropped below
    MIN_SEGMENT_PX. Rows the mask drops may hold any value.
    """
    a_near, b_near = a[:, 2] < MIN_DEPTH, b[:, 2] < MIN_DEPTH
    # dropped rows may divide by zero on the way
    with np.errstate(divide="ignore", invalid="ignore"):
        # clip to the z >= MIN_DEPTH half space
        t = (MIN_DEPTH - a[:, 2]) / (b[:, 2] - a[:, 2])
        crossing = a + t[:, None] * (b - a)
        a = np.where(a_near[:, None], crossing, a)
        b = np.where(b_near[:, None], crossing, b)
        visible = ~(a_near & b_near) & ~(np.minimum(a[:, 2], b[:, 2]) > max_range)
        keep, ps, pe = _clip(pinhole(a, intr), pinhole(b, intr),
                             float(width), float(height))
        length = row_norms(pe - ps)
        visible &= keep & ~(length < MIN_SEGMENT_PX)
    return visible, ps, pe, length


def render_measurements(world: World, poses: list[Pose],
                        config: ScenarioConfig) -> list[FrameObservations]:
    intr = config.intrinsics
    w, h = config.image_width, config.image_height
    vis = config.visibility
    noise = config.noise
    point_ids, line_ids = np.arange(len(world.points)), np.arange(len(world.p0))
    # every frame's geometry in one stacked pass: camera points, line extents
    cams = PoseStack.of(poses)
    p_cam = cams.transform(world.points)
    extents = _line_extents(cams.transform(world.p0).reshape(-1, 3),
                            cams.transform(world.p1).reshape(-1, 3), intr, w, h, vis.max_range)
    seen_all, ps_all, pe_all, length_all = (
        x.reshape((len(poses), len(line_ids)) + x.shape[1:]) for x in extents)
    frames = []
    for t, p_c in enumerate(p_cam):
        rng = np.random.default_rng([config.rng_seed, 7919, t])
        # -- points ---------------------------------------------------------
        near = (_allowed(point_ids, t, vis) & (MIN_DEPTH < p_c[:, 2])
                & (p_c[:, 2] <= vis.max_range))
        px = pinhole(p_c[near], intr)
        inside = (0 <= px[:, 0]) & (px[:, 0] <= w) & (0 <= px[:, 1]) & (px[:, 1] <= h)
        obs = px[inside] + (rng.normal(0.0, 1.0, size=(int(inside.sum()), 2))
                            * noise.sigma_point_px)
        if len(obs) < 8:
            warnings.warn(f"sparse frame {t}: only {len(obs)} points visible")
        # -- segments: the flow predictions reuse the frame's extents --------
        seen, ps, pe = seen_all[t], ps_all[t], pe_all[t]
        rows = np.flatnonzero(_allowed(line_ids, t, vis) & seen)
        # budget: longest first, id as a stable tie-break, then id order
        order = np.lexsort((rows, -length_all[t, rows]))
        rows = np.sort(rows[order[:config.n_l]])
        n = len(rows)
        ends = (np.stack([ps[rows], pe[rows]], axis=1)
                + rng.normal(0.0, 1.0, size=(n, 2, 2)) * noise.sigma_endpoint_px
                ).reshape(n, 4)
        seg_lines, seg_families = rows, world.family[rows]
        outlier = np.zeros(n, dtype=bool)
        # -- outliers -------------------------------------------------------
        n_out = int(round(config.outlier_fraction * n))
        if n_out > 0:
            idx = rng.choice(n, size=n_out, replace=False)
            for i in sorted(int(j) for j in idx):
                for _ in range(100):
                    a = rng.uniform([0, 0], [w, h])
                    b = rng.uniform([0, 0], [w, h])
                    if np.linalg.norm(b - a) >= MIN_OUTLIER_PX:
                        break
                ends[i] = np.concatenate([a, b])
            outlier[idx] = True
            seg_lines[idx] = seg_families[idx] = -1
        # -- exact-flow predictions from frame t-1 ---------------------------
        pred_ids = tracks = np.empty(0, dtype=int)
        if t > 0:  # frame t-1's inliers whose line this frame still sees
            prev = frames[t - 1]
            src = np.flatnonzero(~prev.outlier)
            src = src[seen[prev.line_ids[src]]]
            pred_ids, tracks = -(prev.ids[src] + 1), prev.line_ids[src]
        pred = (np.stack([ps[tracks], pe[tracks]], axis=1)
                + rng.normal(0.0, 1.0, size=(len(tracks), 2, 2)) * noise.sigma_flow_px
                ).reshape(-1, 4)
        frames.append(FrameObservations(
            t, point_ids[near][inside], obs, ends, t * 100000 + np.arange(n), seg_lines,
            seg_families, outlier, pred, pred_ids, tracks))
    return frames


# ---------------------------------------------------------------------------
# Serialization (JSON lines, one frame per line)
# ---------------------------------------------------------------------------

def frame_to_dict(fr: FrameObservations) -> dict:
    return {
        "frame_id": fr.frame_id,
        "points": [[pid, px] for pid, px in zip(fr.point_ids.tolist(),
                                                 fr.point_px.tolist())],
        "segments": _seg_lists(fr.ends, fr.ids, [None] * len(fr.ids)),
        "predicted": _seg_lists(fr.pred_ends, fr.pred_ids, fr.pred_tracks.tolist()),
        "truth": {str(sid): [tr.line_id, tr.family_id, tr.outlier]
                  for sid, tr in fr.truth.items()},
    }


def _seg_lists(ends, ids, tracks) -> list:
    """`[id, [x1, y1], [x2, y2], track id]` per endpoint row."""
    return [[sid, e[:2], e[2:], k]
            for sid, e, k in zip(ids.tolist(), ends.tolist(), tracks)]


def save_observations(frames: list[FrameObservations], path) -> None:
    with open(path, "w") as f:
        for fr in frames:
            f.write(json.dumps(frame_to_dict(fr), sort_keys=True) + "\n")

