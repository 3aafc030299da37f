"""Robust nonlinear least-squares core.

Factor types: point reprojection, line reprojection (observed endpoints
against the projected infinite image line), vanishing-direction alignment
(homogeneous incidence of a segment line with the projected VP), and
structural consistency (3D line direction against a global direction).

Variables and their local parameterizations:
  pose  6 DOF  left-multiplicative SE(3) exponential
  point 3 DOF  additive
  line  4 DOF  orthonormal SO(3) x SO(2) update over Plücker state
  gp    2 DOF  tangent-plane step + renormalization onto the unit sphere

State. `FactorGraph` keeps the variables of each kind as stacked arrays, one
row per variable, with one id -> row map per kind: pose R (P, 3, 3) and
t (P, 3), points X (Q, 3), line U (L, 3, 3) and W (L, 2, 2), GP directions
G (M, 3) with their tangent bases B (M, 3, 2). The arrays are never written
in place, so a snapshot is the arrays themselves and a restore reassigns
them. `poses`, `points`, `lines` and `gps` read the state as mappings by id;
`Pose` and `OrthonormalLine` values are built only there. `retract` steps a
whole kind at once (SE(3) exponential with the left Jacobian V, the
SO(3) x SO(2) line update, the GP tangent step); it is the one retraction
formula, which `optimize` and `numeric_jacobian` both step with.

Levenberg-Marquardt with Huber IRLS weighting minimizes the total
covariance-weighted cost. Each factor kind has one noise SIGMA and one
Huber HUBER_DELTA, class constants. Evaluation is batched by factor kind
(Triggs et al. 2000; Agarwal et al. 2010). `PackedFactors` packs a factor
list once: per kind, the graph rows of each factor's two variables and its
constants (observation, intrinsics, the segment's image line).
Each evaluation indexes the state arrays with those rows and runs one
vectorized kernel per kind, which returns stacked residuals, an active mask
and, when asked, stacked Jacobian blocks. `_linearize` scatters the weighted
J^T Λ J blocks into the dense H in one pass; `total_cost` and
`cost_breakdown` run the same kernels without Jacobians. The per-factor
`residual`/`jacobians` methods are these kernels applied to one factor. An
inactive factor (a point at depth <= EPS_Z, a line whose image line is
degenerate) contributes nothing, and its `residual` and `jacobians` raise.
`optimize` builds the packing and the parameter layout (`ParameterIndex`)
once per call; each trial step retracts every kind with free variables once,
and a rejected step restores the snapshot. The solve/update is a
single-threaded critical section per iteration.

Stopping rules (Madsen, Nielsen & Tingleff 2004), checked in this order:
  gradient           ||g||_inf < ABS_TOL at a linearization       converged
  relative decrease  an accepted step lowers the cost by less
                     than REL_TOL * cost                          converged
  relative step      an accepted step has ||delta|| <=
                     REL_TOL * (||x|| + REL_TOL), where x is the
                     free Euclidean state (pose translations and
                     point coordinates)                           converged
  lambda overflow    lambda reaches 1e12 with no accepted step    not converged
  MAX_ITERS          the iteration budget runs out                not converged

The damping starts at LAMBDA_INIT and is divided by LAMBDA_SCALE after an
accepted step, multiplied by it after a rejected one.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    EPS_IMAGE_LINE,
    EPS_Z,
    BehindCameraError,
    CameraIntrinsics,
    DegenerateLineError,
    OrthonormalLine,
    Pose,
    skew,
)
from .segments import Segment2D, endpoints, lines_through

HUBER_2DOF = math.sqrt(5.99)  # chi^2 95%, 2 DOF
HUBER_1DOF = math.sqrt(3.84)  # chi^2 95%, 1 DOF

DOF = {"pose": 6, "point": 3, "line": 4, "gp": 2}

MAX_ITERS = 100
REL_TOL = 1e-8   # relative cost decrease and relative step
ABS_TOL = 1e-10  # gradient, ||g||_inf
LAMBDA_INIT = 1e-4
LAMBDA_SCALE = 10.0

NUMERIC_STEP = 1e-6  # central-difference step of `numeric_jacobian`


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products (N, i, j) x (N, j) -> (N, i)."""
    return (M @ v[:, :, None])[:, :, 0]


# ---------------------------------------------------------------------------
# Sphere tangent parameterization
# ---------------------------------------------------------------------------

def _tangent_bases(anchors: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal tangent-plane bases (N, 3, 2) at unit anchors (N, 3)."""
    k = np.argmin(np.abs(anchors), axis=1)
    S = skew(anchors)
    b1 = _mv(S, np.eye(3)[k])
    b1 = b1 / np.linalg.norm(b1, axis=1, keepdims=True)
    b2 = _mv(S, b1)
    return np.stack([b1, b2], axis=2)


# ---------------------------------------------------------------------------
# Robust kernel
# ---------------------------------------------------------------------------

def _huber(r_sq_weighted, delta):
    """Huber cost and IRLS weight of whitened squared residual norms (elementwise)."""
    s = np.sqrt(r_sq_weighted)
    inside = s <= delta
    cost = np.where(inside, r_sq_weighted, 2.0 * delta * s - delta * delta)
    weight = np.where(inside, 1.0, delta / np.where(inside, 1.0, s))
    return cost, weight


# ---------------------------------------------------------------------------
# Factor kernels: stacked inputs, one row per factor. Each returns residuals
# (N, dim), the active mask (N,) and, with `jac`, the Jacobian blocks
# (N, dim, dof_a + dof_b) on the two variables' local parameterizations.
# Inactive rows have zero residuals and finite Jacobians.
# ---------------------------------------------------------------------------

def _point_kernel(R, t, X, obs, intr, jac):
    """Pixel reprojection error of world points X in cameras (R, t).

    `intr` rows are (fx, fy, cx, cy). Active when the depth exceeds EPS_Z.
    """
    p_c = _mv(R, X) + t
    active = p_c[:, 2] > EPS_Z
    z = np.where(active, p_c[:, 2], 1.0)
    fx, fy, cx, cy = intr.T
    r = np.column_stack([fx * p_c[:, 0] / z + cx - obs[:, 0],
                         fy * p_c[:, 1] / z + cy - obs[:, 1]])
    r[~active] = 0.0
    if not jac:
        return r, active, None
    dpi = np.zeros((len(z), 2, 3))
    dpi[:, 0, 0] = fx / z
    dpi[:, 0, 2] = -fx * p_c[:, 0] / z**2
    dpi[:, 1, 1] = fy / z
    dpi[:, 1, 2] = -fy * p_c[:, 1] / z**2
    J = np.concatenate([dpi, dpi @ -skew(p_c), dpi @ R], axis=2)
    return r, active, J


def _line_kernel(R, t, U, W, ends, KL, jac):
    """Signed perpendicular distances of the observed endpoints (homogeneous,
    `ends` (N, 2, 3)) to the projected infinite image line of the orthonormal
    world line (U, W). `KL` is the line projection matrix. Active unless the
    image line is degenerate (projects to a point)."""
    w1, w2 = W[:, 0, 0, None], W[:, 1, 0, None]
    u1, u2 = U[:, :, 0], U[:, :, 1]
    n_w, d_w = w1 * u1, w2 * u2
    d_c = _mv(R, d_w)
    n_c = _mv(R, n_w) + _mv(skew(t), d_c)
    l = _mv(KL, n_c)
    s = np.hypot(l[:, 0], l[:, 1])
    norm = np.linalg.norm(l, axis=1)
    active = (norm != 0.0) & (s / np.where(norm == 0.0, 1.0, norm) >= EPS_IMAGE_LINE)
    s = np.where(active, s, 1.0)
    el = _mv(ends, l)
    r = el / s[:, None]
    r[~active] = 0.0
    if not jac:
        return r, active, None
    grad_s = np.zeros_like(l)
    grad_s[:, :2] = l[:, :2] / s[:, None]
    dr_dl = ends / s[:, None, None] - (el / s[:, None]**2)[:, :, None] * grad_s[:, None, :]
    A = dr_dl @ KL
    # d n_c / d pose twist (rho, theta), left-multiplicative update
    dnc_dpose = np.concatenate([-skew(d_c), -skew(n_c)], axis=2)
    # d (n_w, d_w) / d orthonormal delta (3 rotation + 1 angle)
    dnw = np.concatenate([-skew(n_w), (-w2 * u1)[:, :, None]], axis=2)
    ddw = np.concatenate([-skew(d_w), (w1 * u2)[:, :, None]], axis=2)
    dnc_dline = R @ dnw + skew(t) @ R @ ddw
    J = np.concatenate([A @ dnc_dpose, A @ dnc_dline], axis=2)
    return r, active, J


def _vd_align_kernel(R, G, B, lhat, K, jac):
    """Incidence of the unit segment lines `lhat` with the normalized projected
    VPs of the global directions G. Smooth and bounded, including VPs at
    infinity; always active. B holds the GPs' tangent bases (N, 3, 2)."""
    v_cam = _mv(R, G)
    v_img = _mv(K, v_cam)
    n = np.linalg.norm(v_img, axis=1)
    vhat = v_img / n[:, None]
    r = np.sum(lhat * vhat, axis=1)[:, None]
    active = np.ones(len(n), dtype=bool)
    if not jac:
        return r, active, None
    # d vhat / d v_img, projected onto the sphere tangent
    P = (np.eye(3) - vhat[:, :, None] * vhat[:, None, :]) / n[:, None, None]
    row = lhat[:, None, :] @ P @ K
    J = np.concatenate([np.zeros((len(n), 1, 3)), row @ -skew(v_cam), row @ R @ B], axis=2)
    return r, active, J


def _struct_kernel(D, G, B, jac):
    """|d · g - 1| for unit line directions D and GP directions G (zero iff
    parallel and sign-aligned); always active."""
    r = np.abs(np.sum(D * G, axis=1) - 1.0)[:, None]
    active = np.ones(len(r), dtype=bool)
    if not jac:
        return r, active, None
    # residual = 1 - d·g since d·g <= 1 for unit vectors
    J = np.concatenate([G[:, None, :] @ skew(D), np.zeros((len(r), 1, 1)),
                        -(D[:, None, :] @ B)], axis=2)
    return r, active, J


def _intrinsic_rows(intrs) -> np.ndarray:
    return np.array([[k.fx, k.fy, k.cx, k.cy] for k in intrs])


# ---------------------------------------------------------------------------
# Factors
# ---------------------------------------------------------------------------

class _Factor:
    """Shared per-factor API. `variables` names the kinds of the two
    variables, in `keys()` order; `inactive_error` is what `residual` and
    `jacobians` raise for an inactive factor. `SIGMA` is the kind's residual
    noise (information 1/SIGMA^2) and `HUBER_DELTA` its Huber threshold on the
    whitened residual norm. `_pack` turns a list of factors of one kind into
    their constant arrays and `_kernel` runs the kind's kernel on the graph's
    state arrays at the factors' variable rows."""

    variables: tuple = ()
    inactive_error: type = ValueError

    def _evaluate(self, graph, jac: bool) -> "_Evaluation":
        (e,) = PackedFactors([self], graph).evaluate(graph, jac)
        if not e.active[0]:
            raise self.inactive_error(f"inactive {self.kind} factor")
        return e

    def residual(self, graph) -> np.ndarray:
        return self._evaluate(graph, False).r[0]

    def jacobians(self, graph) -> dict:
        J = self._evaluate(graph, True).J[0]
        (ka, kb), da = self.keys(), DOF[self.variables[0]]
        return {ka: J[:, :da], kb: J[:, da:]}


@dataclass
class PointFactor(_Factor):
    pose_id: int
    point_id: int
    obs: np.ndarray
    intr: CameraIntrinsics
    kind = "point"
    dim = 2
    SIGMA = 1.0  # px
    HUBER_DELTA = HUBER_2DOF
    variables = ("pose", "point")
    inactive_error = BehindCameraError

    def keys(self):
        return [("pose", self.pose_id), ("point", self.point_id)]

    @staticmethod
    def _pack(factors) -> dict:
        return {"obs": np.array([f.obs for f in factors], dtype=float),
                "intr": _intrinsic_rows(f.intr for f in factors)}

    @staticmethod
    def _kernel(st, a, b, c, jac):
        return _point_kernel(st.R[a], st.t[a], st.X[b], c["obs"], c["intr"], jac)


@dataclass
class LineFactor(_Factor):
    pose_id: int
    line_id: int
    obs: Segment2D
    intr: CameraIntrinsics
    kind = "line"
    dim = 2
    SIGMA = 1.0  # px
    HUBER_DELTA = HUBER_2DOF
    variables = ("pose", "line")
    inactive_error = DegenerateLineError

    def keys(self):
        return [("pose", self.pose_id), ("line", self.line_id)]

    @staticmethod
    def _pack(factors) -> dict:
        ends = endpoints([f.obs for f in factors]).reshape(-1, 2, 2)
        # homogeneous endpoints (N, 2, 3)
        return {"ends": np.concatenate([ends, np.ones((len(ends), 2, 1))], axis=2),
                "KL": np.array([f.intr.line_projection_matrix() for f in factors])}

    @staticmethod
    def _kernel(st, a, b, c, jac):
        return _line_kernel(st.R[a], st.t[a], st.U[b], st.W[b], c["ends"], c["KL"], jac)


@dataclass
class VdAlignFactor(_Factor):
    pose_id: int
    gp_id: int
    seg: Segment2D
    intr: CameraIntrinsics
    kind = "vd_align"
    dim = 1
    SIGMA = 0.01
    HUBER_DELTA = HUBER_1DOF
    variables = ("pose", "gp")

    def keys(self):
        return [("pose", self.pose_id), ("gp", self.gp_id)]

    @staticmethod
    def _pack(factors) -> dict:
        ends = endpoints([f.seg for f in factors])
        # C-ordered like a stack of rows, so the kernel's products sum alike
        return {"lhat": np.ascontiguousarray(lines_through(ends[:, :2], ends[:, 2:])),
                "K": np.array([f.intr.matrix() for f in factors])}

    @staticmethod
    def _kernel(st, a, b, c, jac):
        return _vd_align_kernel(st.R[a], st.G[b], st.B[b], c["lhat"], c["K"], jac)


@dataclass
class StructFactor(_Factor):
    line_id: int
    gp_id: int
    kind = "struct"
    dim = 1
    SIGMA = 0.01
    HUBER_DELTA = HUBER_1DOF
    variables = ("line", "gp")

    def keys(self):
        return [("line", self.line_id), ("gp", self.gp_id)]

    @staticmethod
    def _pack(factors) -> dict:
        return {}

    @staticmethod
    def _kernel(st, a, b, c, jac):
        # the line's unit direction, sign-aligned with its Plücker direction
        D = np.copysign(1.0, st.W[a, 1, 0])[:, None] * st.U[a, :, 1]
        return _struct_kernel(D, st.G[b], st.B[b], jac)


# ---------------------------------------------------------------------------
# Packing and batched evaluation
# ---------------------------------------------------------------------------

class _Batch:
    """The packed factors of one kind. With a parameter index, `cols` holds
    the parameter column of every Jacobian column (N, dof_a + dof_b). `info`
    and `delta` are the kind's scalars; broadcast over the rows, they give
    each row the floats a per-row array of them would."""

    def __init__(self, cls, factors, positions, rows, index):
        self.cls = cls
        self.positions = np.array(positions)  # indices into the packed factor list
        ka, kb = cls.variables
        keys = [f.keys() for f in factors]
        self.rows_a = np.array([rows[ka][k[0][1]] for k in keys], dtype=np.intp)
        self.rows_b = np.array([rows[kb][k[1][1]] for k in keys], dtype=np.intp)
        self.cols = None if index is None else np.concatenate(
            [index.table[ka][self.rows_a], index.table[kb][self.rows_b]], axis=1)
        self.consts = cls._pack(factors)
        self.info = 1.0 / cls.SIGMA**2
        self.delta = cls.HUBER_DELTA


@dataclass
class _Evaluation:
    """One batch evaluated at the graph's state."""
    batch: _Batch
    r: np.ndarray        # residuals (N, dim), zero where inactive
    active: np.ndarray   # (N,) bool
    cost: np.ndarray     # Huber costs (N,), zero where inactive (r is zero)
    weight: np.ndarray   # IRLS weights (N,)
    J: np.ndarray        # Jacobian blocks (N, dim, dof_a + dof_b) or None


class PackedFactors:
    """A factor list packed by kind against a graph's variable rows and, for
    `_linearize`, a `ParameterIndex` of its free variables.

    Rows only ever get appended, so one packing serves every state of the
    graph; each `evaluate` indexes the graph's state arrays directly.
    """

    def __init__(self, factors, graph: "FactorGraph",
                 index: "ParameterIndex | None" = None):
        groups: dict = {}
        for pos, f in enumerate(factors):
            groups.setdefault(type(f), []).append(pos)
        self.batches = [_Batch(cls, [factors[p] for p in pos], pos, graph.rows, index)
                        for cls, pos in groups.items()]

    def evaluate(self, graph, jac: bool = False) -> list[_Evaluation]:
        out = []
        for b in self.batches:
            r, active, J = b.cls._kernel(graph, b.rows_a, b.rows_b, b.consts, jac)
            r_sq = np.sum(r * b.info * r, axis=1)
            cost, weight = _huber(r_sq, b.delta)
            out.append(_Evaluation(b, r, active, cost, weight, J))
        return out


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

# the state arrays of each variable kind
_FIELDS = {"pose": ("R", "t"), "point": ("X",), "line": ("U", "W"), "gp": ("G", "B")}

# the value a mapping read builds from one variable's rows
_VALUE = {"pose": Pose, "point": lambda X: X, "line": OrthonormalLine,
          "gp": lambda G, B: G}


class _Variables(Mapping):
    """Read-only view of one kind's variables by id, in insertion order.
    Each read builds the value from a copy of the variable's rows."""

    def __init__(self, graph: "FactorGraph", kind: str):
        self._graph, self._kind = graph, kind

    def __getitem__(self, vid):
        row = self._graph.rows[self._kind][vid]
        return _VALUE[self._kind](*(getattr(self._graph, name)[row].copy()
                                    for name in _FIELDS[self._kind]))

    def __iter__(self):
        return iter(self._graph.rows[self._kind])

    def __len__(self):
        return len(self._graph.rows[self._kind])


class FactorGraph:
    """Variables as stacked arrays per kind, one row per variable, with one
    id -> row map per kind in `rows`; and the factors."""

    def __init__(self):
        self.rows: dict[str, dict] = {kind: {} for kind in DOF}
        self.R = np.empty((0, 3, 3))  # pose rotations, camera from world
        self.t = np.empty((0, 3))     # pose translations
        self.X = np.empty((0, 3))     # points
        self.U = np.empty((0, 3, 3))  # orthonormal lines: U in SO(3)
        self.W = np.empty((0, 2, 2))  # and W in SO(2)
        self.G = np.empty((0, 3))     # GP unit directions
        self.B = np.empty((0, 3, 2))  # their tangent bases (`_tangent_bases`)
        self.factors: list = []
        self._buffers: dict[str, tuple] = {}  # state array -> (buffer, rows filled)

    poses = property(lambda self: _Variables(self, "pose"))
    points = property(lambda self: _Variables(self, "point"))
    lines = property(lambda self: _Variables(self, "line"))
    gps = property(lambda self: _Variables(self, "gp"))

    def _put(self, kind: str, vid: int, *values):
        """Write one variable's rows; a new id appends a row.

        A state array that is the whole filled prefix of its growth buffer
        takes an appended row in the buffer's spare room, so adding n
        variables one at a time is amortized O(n). Every array handed out
        (a snapshot's too) is a prefix no longer than the filled part, so the
        write lands outside all of them. Any other write goes to a copy.
        """
        arrays = [getattr(self, name) for name in _FIELDS[kind]]
        values = [np.asarray(v, dtype=float).reshape(a.shape[1:])
                  for v, a in zip(values, arrays)]
        rows = self.rows[kind]
        row = rows.setdefault(vid, len(rows))
        for name, a, v in zip(_FIELDS[kind], arrays, values):
            if row == len(a):
                buf, filled = self._buffers.get(name, (None, 0))
                if buf is None or a.base is not buf or len(a) != filled \
                        or filled == len(buf):
                    buf = np.empty((max(8, 2 * len(a)),) + a.shape[1:])
                    buf[:len(a)] = a
                buf[row] = v
                self._buffers[name] = (buf, row + 1)
                a = buf[:row + 1]
            else:
                a = a.copy()
                a[row] = v
            setattr(self, name, a)

    def add_pose(self, pose_id: int, pose: Pose):
        self._put("pose", pose_id, pose.rotation, pose.translation)

    def add_point(self, point_id: int, p_w):
        self._put("point", point_id, p_w)

    def add_line(self, line_id: int, line: OrthonormalLine):
        self._put("line", line_id, line.U, line.W)

    def add_gp(self, gp_id: int, direction):
        d = np.asarray(direction, dtype=float)
        n = np.linalg.norm(d)
        if abs(n - 1.0) > 1e-9:
            raise ValueError("gp direction must be unit")
        d = d / n
        self._put("gp", gp_id, d, _tangent_bases(d[None])[0])

    def add_factor(self, factor):
        for kind, vid in factor.keys():
            if vid not in self.rows[kind]:
                raise KeyError(f"factor references missing variable {(kind, vid)}")
        self.factors.append(factor)

    # -- state access -----------------------------------------------------

    def take_rows(self, kind: str, rows) -> tuple:
        """The state arrays of `kind` at `rows`, in `_FIELDS` order."""
        return tuple(getattr(self, name)[rows] for name in _FIELDS[kind])

    def put_rows(self, kind: str, rows, values):
        """Replace the state arrays of `kind` by copies with `rows` set to `values`."""
        for name, v in zip(_FIELDS[kind], values):
            a = getattr(self, name).copy()
            a[rows] = v
            setattr(self, name, a)

    def snapshot(self) -> dict:
        """The state arrays themselves: they are never written in place."""
        return {name: getattr(self, name) for names in _FIELDS.values() for name in names}

    def restore(self, snap: dict):
        """Reassign the state arrays of a snapshot. It holds values, not which
        variables exist: add no variable between the two."""
        for name, a in snap.items():
            setattr(self, name, a)


# ---------------------------------------------------------------------------
# Retraction
# ---------------------------------------------------------------------------

def _exp_stack(w: np.ndarray, with_v: bool):
    """Rodrigues' formula on axis-angle rows w (N, 3) and, with `with_v`, the
    SE(3) left Jacobian V, each with its series branch: `geometry.so3_exp`
    below |w| = 1e-10, `geometry._left_jacobian_V` below 1e-8. Row for row
    the same floats as those per-vector formulas (`float_power` is the
    scalar `**`, `vecdot` the scalar norm's dot product)."""
    theta = np.sqrt(np.vecdot(w, w))
    W = skew(w)
    WW = W @ W
    sin, cos = np.sin(theta), np.cos(theta)
    series = theta < 1e-10
    th = np.where(series, 1.0, theta)
    A = np.where(series, 1.0, sin / th)
    B = np.where(series, 0.5, (1.0 - cos) / np.float_power(th, 2.0))
    R = np.eye(3) + A[:, None, None] * W + B[:, None, None] * WW
    if not with_v:
        return R, None
    series = theta < 1e-8
    th = np.where(series, 1.0, theta)
    B = np.where(series, 0.5, (1.0 - cos) / np.float_power(th, 2.0))
    C = (th - sin) / np.float_power(th, 3.0)
    CWW = np.where(series[:, None, None], WW / 6.0, C[:, None, None] * WW)
    return R, np.eye(3) + B[:, None, None] * W + CWW


def retract(kind: str, values: tuple, deltas: np.ndarray) -> tuple:
    """Apply local-parameterization increments to a stack of variables of one
    kind and return the new state arrays (the inputs are not modified).

    `values` are the kind's state arrays in `_FIELDS` order (pose (R, t),
    point (X,), line (U, W), gp (G, B)); `deltas` is (N, DOF[kind]). Row for
    row: pose `se3_exp(delta).compose(pose)`; point `p + delta`; line
    U <- exp([delta[:3]]x) U and W <- R(delta[3]) W; gp a tangent step
    g + B delta renormalized onto the unit sphere.
    """
    if kind == "pose":
        R, t = values
        dR, V = _exp_stack(deltas[:, 3:], True)
        return dR @ R, _mv(dR, t) + _mv(V, deltas[:, :3])
    if kind == "point":
        (X,) = values
        return (X + deltas,)
    if kind == "line":
        U, W = values
        dU, _ = _exp_stack(deltas[:, :3], False)
        c, s = np.cos(deltas[:, 3]), np.sin(deltas[:, 3])
        return dU @ U, np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2) @ W
    if kind == "gp":
        G, B = values
        d = G + deltas[:, :1] * B[:, :, 0] + deltas[:, 1:] * B[:, :, 1]
        G = d / np.sqrt(np.vecdot(d, d))[:, None]
        return G, _tangent_bases(G)
    raise ValueError(f"unknown variable kind {kind!r}")


# ---------------------------------------------------------------------------
# Parameter layout
# ---------------------------------------------------------------------------

class ParameterIndex:
    """Where the free variables sit in the LM parameter vector.

    Free variables take columns kind by kind (pose, point, line, gp), by
    ascending id within a kind; fixed ones take none. `rows[kind]` holds the
    kind's free graph rows in column order, `slices[kind]` their span of the
    parameter vector and `table[kind]` the parameter columns of every graph
    row (n_params for a fixed variable). `optimize` builds one per call.
    """

    def __init__(self, graph: "FactorGraph", fixed=()):
        fixed = set(fixed)
        self.rows, self.slices = {}, {}
        n = 0
        for kind, dof in DOF.items():
            rows = graph.rows[kind]
            self.rows[kind] = np.array([rows[vid] for vid in sorted(rows)
                                        if (kind, vid) not in fixed], dtype=np.intp)
            self.slices[kind] = slice(n, n + dof * len(self.rows[kind]))
            n = self.slices[kind].stop
        self.n_params = n
        self.table = {}
        for kind, dof in DOF.items():
            table = np.full((len(graph.rows[kind]), dof), n, dtype=np.intp)
            table[self.rows[kind]] = np.arange(n)[self.slices[kind]].reshape(-1, dof)
            self.table[kind] = table


def total_cost(graph: FactorGraph, packed: PackedFactors | None = None) -> float:
    """Sum of Huber-robustified Mahalanobis squared residuals.

    `packed` is `PackedFactors(graph.factors, graph)`, packed here when not given.
    """
    packed = packed if packed is not None else PackedFactors(graph.factors, graph)
    return float(sum(e.cost.sum() for e in packed.evaluate(graph)))


def cost_breakdown(graph: FactorGraph, packed: PackedFactors | None = None) -> dict:
    """Robust cost per factor kind; a kind appears only when one of its
    factors is active, in the order of the first active factor of each kind."""
    packed = packed if packed is not None else PackedFactors(graph.factors, graph)
    active = [e for e in packed.evaluate(graph) if e.active.any()]
    active.sort(key=lambda e: e.batch.positions[e.active][0])
    return {e.batch.cls.kind: float(e.cost.sum()) for e in active}


def numeric_jacobian(factor, graph: FactorGraph) -> dict:
    """Central-difference Jacobian on each variable's local parameterization,
    stepping the variable's row with `retract` by +-NUMERIC_STEP."""
    out = {}
    for kind, vid in factor.keys():
        rows = [graph.rows[kind][vid]]
        base, snap = graph.take_rows(kind, rows), graph.snapshot()
        cols = []
        for e in np.eye(DOF[kind]) * NUMERIC_STEP:
            graph.put_rows(kind, rows, retract(kind, base, e[None]))
            r_plus = factor.residual(graph)
            graph.put_rows(kind, rows, retract(kind, base, -e[None]))
            r_minus = factor.residual(graph)
            cols.append((r_plus - r_minus) / (2.0 * NUMERIC_STEP))
        graph.restore(snap)
        out[(kind, vid)] = np.column_stack(cols)
    return out


@dataclass
class OptimizationReport:
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    cost_breakdown: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "initial_cost": self.initial_cost,
            "final_cost": self.final_cost,
            "iters": self.iterations,
            "converged": self.converged,
            "per_factor_type_cost_breakdown": self.cost_breakdown,
        }, sort_keys=True)


def _linearize(graph: FactorGraph, index: ParameterIndex, n_params: int,
               packed: PackedFactors | None = None):
    """One batched pass over all factors: robust cost, gradient, Gauss-Newton H.

    `index` places the free variables; fixed ones get no rows. `packed` is
    `PackedFactors(graph.factors, graph, index)`, packed here when not given.
    """
    packed = packed if packed is not None else PackedFactors(graph.factors, graph, index)
    m = n_params + 1  # row and column n_params collect the fixed variables' terms
    H = np.zeros((m, m))
    g = np.zeros(m)
    cost = 0.0
    for e in packed.evaluate(graph, jac=True):
        b = e.batch
        cost += e.cost.sum()
        cols = b.cols
        # inactive factors add exact zeros: their Jacobians are finite
        w = np.where(e.active, e.weight * b.info, 0.0)
        wJt = (w[:, None, None] * e.J).transpose(0, 2, 1)
        np.add.at(H.reshape(-1), (cols[:, :, None] * m + cols[:, None, :]).ravel(),
                  (wJt @ e.J).ravel())
        np.add.at(g, cols.ravel(), (wJt @ e.r[:, :, None]).ravel())
    H, g = H[:n_params, :n_params], g[:n_params]
    return float(cost), H, g


def optimize(graph: FactorGraph, fixed=()) -> OptimizationReport:
    """Levenberg-Marquardt over all variables whose (kind, id) key is not in
    `fixed` (in place).

    Stops on the ABS_TOL and REL_TOL tests (see the module docstring) report
    `converged=True`; running out of MAX_ITERS, or lambda reaching 1e12
    without an accepted step, reports `converged=False`. The final cost is
    the loop's last cost of the state it ends in: an accepted step's
    `total_cost`, or else the last `_linearize`'s."""
    fixed = set(fixed)
    if graph.poses and not fixed:
        raise ValueError("gauge unfixed: fix at least one variable")

    index = ParameterIndex(graph, fixed)
    n_params = index.n_params
    packed = PackedFactors(graph.factors, graph, index)
    blocks = [(kind, rows, index.slices[kind]) for kind, rows in index.rows.items()
              if len(rows)]
    diagonal = np.diag_indices(n_params)

    lam = LAMBDA_INIT
    converged = False
    for iters in range(1, MAX_ITERS + 1):
        cost, H, g = _linearize(graph, index, n_params, packed)
        if iters == 1:
            initial_cost = cost
        if np.max(np.abs(g), initial=0.0) < ABS_TOL:
            converged = True
            break
        x = np.concatenate([graph.t[index.rows["pose"]], graph.X[index.rows["point"]]])
        step_tol = REL_TOL * (np.linalg.norm(x) + REL_TOL)
        damping = np.clip(np.diag(H), 1e-12, None)
        snap = graph.snapshot()
        accepted = False
        while lam < 1e12:
            damped = H.copy()
            damped[diagonal] += lam * damping
            try:
                delta = np.linalg.solve(damped, -g)
            except np.linalg.LinAlgError:
                lam *= LAMBDA_SCALE
                continue
            for kind, rows, cols in blocks:
                step = delta[cols].reshape(len(rows), DOF[kind])
                graph.put_rows(kind, rows, retract(kind, graph.take_rows(kind, rows), step))
            new_cost = total_cost(graph, packed)
            if new_cost < cost:
                lam = max(lam / LAMBDA_SCALE, 1e-12)
                accepted = True
                if cost - new_cost < REL_TOL * max(cost, 1e-30) or \
                        np.linalg.norm(delta) <= step_tol:
                    converged = True
                cost = new_cost
                break
            graph.restore(snap)
            lam *= LAMBDA_SCALE
        if not accepted:
            break  # lambda overflow: no tolerance was met
        if converged:
            break

    return OptimizationReport(initial_cost, cost, iters, converged,
                              cost_breakdown(graph, packed))
