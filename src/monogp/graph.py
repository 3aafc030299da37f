"""Robust nonlinear least-squares core.

Factor types: point reprojection, line reprojection (observed endpoints
against the projected infinite image line) and vanishing-direction
alignment (homogeneous incidence of a segment line with the projected VP).

Variables and their local parameterizations:
  pose  6 DOF  left-multiplicative SE(3) exponential
  point 3 DOF  additive
  line  4 DOF  orthonormal SO(3) x SO(2) update over Plücker state
  gp    2 DOF  tangent-plane step + renormalization onto the unit sphere

State. `FactorGraph` keeps each kind's variables as stacked arrays, one row
per variable, with one id -> row map per kind: pose R (P, 3, 3) and t (P, 3),
points X (Q, 3), line U (L, 3, 3) and W (L, 2, 2), GP directions G (M, 3)
with their tangent bases B (M, 3, 2). The arrays are never written in place,
so a snapshot is the arrays themselves. `poses`, `points`, `lines` and `gps`
read them as mappings by id. `retract` steps a whole kind at once; it is the
one retraction formula, which `optimize` steps with.

Factors are stored the same way: one table per kind (`_FactorTable`), the
kinds in the fixed order `KINDS`, each kind's factors in insertion order,
appended in blocks by `add_factors`. A factor is a row of its kind's table,
and the kind classes (`PointFactor`, ...) are never instantiated: `factors`
reads each as a `_FactorRow`, (table, row). The graph holds the one camera,
`intr`, of every point, line and vd_align factor.

Levenberg-Marquardt with Huber IRLS weighting minimizes the total
covariance-weighted cost; each kind has one noise SIGMA and one Huber
HUBER_DELTA. `PackedFactors` packs the tables once per `optimize` call, per
kind (vd_align terms once per (pose, GP) pair), and each evaluation runs one
vectorized kernel per kind (`_evaluate_batch`, which a `_FactorRow`'s
`residual` runs on a one-row slice of its table too), returning residuals,
an active mask and a Jacobian thunk over the same intermediates (Triggs et
al. 2000; Agarwal et al. 2010). `total_cost` holds its evaluation, and a
`_linearize` at the same state reuses it. Each `optimize` call eliminates
one kind by the Schur complement, from the graph's own sizes: the poses
when 6 x (free poses) > 3 x (free points), else the points; lines and GPs
always stay in the reduced system. No factor joins two poses or two
points, so the eliminated kind's blocks are 6x6 or 3x3 block-diagonal.
`_linearize` scatters the weighted J^T J blocks of the live Jacobian
columns into H_cc over the kept kinds, the eliminated rows' coupling to
the kept columns (H_ec) and one block per eliminated variable, and the
gradient terms into g, all in one flat buffer (`_layout`) of two row
blocks whose rows start with their gradient entry, [g_c | H_cc] and
[g_e | H_ec | H_ee]: each entry the sum a dense H would hold, and no dense
H. It forms and scatters a kind's terms a chunk at a time through scratch
arrays of `BLOCK_ELEMS` entries (`geometry`'s block rule), at int32
positions computed once per packing, so no float or int64 array of
factors x k^2 entries is held or built. vd_align
is linearized per (pose, GP) pair: each factor's Jacobian row is lhat^T A
of its pair's 3x5 block A, so the pair adds A^T L A and A^T b, where L and
b sum the weighted lhat lhat^T and r lhat of its factors. Each LM trial
eliminates that kind (batched block inverses, one dense solve of the
reduced system, back substitution), reading [g_c | H_cc] and [g_e | H_ec]
in place from the scatter buffer and working in buffers sized once per
`optimize` call (the scatter buffer, its scratch and the trial buffers),
retracts every kind once, and restores the snapshot if the cost rose. An
inactive factor (a point at depth <= EPS_Z, a line whose image line is
degenerate) contributes nothing, and its `residual` raises.

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
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import (
    BLOCK_ELEMS,
    EPS_IMAGE_LINE,
    EPS_Z,
    BehindCameraError,
    CameraIntrinsics,
    DegenerateLineError,
    Pose,
    exp_stack,
    mv,
    row_norms,
    skew,
)
from .segments import lines_through

HUBER_2DOF = math.sqrt(5.99)  # chi^2 95%, 2 DOF
HUBER_1DOF = math.sqrt(3.84)  # chi^2 95%, 1 DOF

DOF = {"pose": 6, "point": 3, "line": 4, "gp": 2}

MAX_ITERS = 100
REL_TOL = 1e-8   # relative cost decrease and relative step
ABS_TOL = 1e-10  # gradient, ||g||_inf
LAMBDA_INIT = 1e-4
LAMBDA_SCALE = 10.0


# ---------------------------------------------------------------------------
# Sphere tangent parameterization
# ---------------------------------------------------------------------------

def _tangent_bases(anchors: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal tangent-plane bases (N, 3, 2) at unit anchors (N, 3)."""
    k = np.argmin(np.abs(anchors), axis=1)
    S = skew(anchors)
    b1 = mv(S, np.eye(3)[k])
    b1 = b1 / np.linalg.norm(b1, axis=1, keepdims=True)
    b2 = mv(S, b1)
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
# (N, dim), the active mask (N,) and a Jacobian thunk: called, it returns the
# Jacobian blocks (N, dim, k) on the two variables' local parameterizations,
# from the intermediates the residuals were computed with. k counts only the
# columns that are not structurally zero (the factor class's `live`); the
# vd_align thunk returns one block per (pose, GP) pair instead.
# Inactive rows have zero residuals and finite Jacobians.
# ---------------------------------------------------------------------------

def _point_kernel(R, t, X, obs, intr):
    """Pixel reprojection error of world points X in cameras (R, t).

    `intr` is (fx, fy, cx, cy), scalars. Active when the depth exceeds EPS_Z.
    """
    p_c = mv(R, X) + t
    active = p_c[:, 2] > EPS_Z
    z = np.where(active, p_c[:, 2], 1.0)
    fx, fy, cx, cy = intr
    r = np.column_stack([fx * p_c[:, 0] / z + cx - obs[:, 0],
                         fy * p_c[:, 1] / z + cy - obs[:, 1]])
    r[~active] = 0.0

    def jac():
        dpi = np.zeros((len(z), 2, 3))
        dpi[:, 0, 0] = fx / z
        dpi[:, 0, 2] = -fx * p_c[:, 0] / z**2
        dpi[:, 1, 1] = fy / z
        dpi[:, 1, 2] = -fy * p_c[:, 1] / z**2
        return np.concatenate([dpi, dpi @ -skew(p_c), dpi @ R], axis=2)
    return r, active, jac


def _line_kernel(R, t, U, W, ends, KL):
    """Signed perpendicular distances of the observed endpoints (homogeneous,
    `ends` (N, 2, 3)) to the projected infinite image line of the orthonormal
    world line (U, W). `KL` is the (3, 3) line projection matrix. Active
    unless the image line is degenerate (projects to a point)."""
    w1, w2 = W[:, 0, 0, None], W[:, 1, 0, None]
    u1, u2 = U[:, :, 0], U[:, :, 1]
    n_w, d_w = w1 * u1, w2 * u2
    d_c = mv(R, d_w)
    n_c = mv(R, n_w) + mv(skew(t), d_c)
    l = mv(KL, n_c)
    s = np.hypot(l[:, 0], l[:, 1])
    norm = np.linalg.norm(l, axis=1)
    active = (norm != 0.0) & (s / np.where(norm == 0.0, 1.0, norm) >= EPS_IMAGE_LINE)
    s = np.where(active, s, 1.0)
    el = mv(ends, l)
    r = el / s[:, None]
    r[~active] = 0.0

    def jac():
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
        return np.concatenate([A @ dnc_dpose, A @ dnc_dline], axis=2)
    return r, active, jac


def _vd_align_kernel(R, G, B, K, lhat, pair):
    """Incidence of the unit segment lines `lhat` with the normalized projected
    VPs of the global directions G. Smooth and bounded, including VPs at
    infinity; always active.

    R, G and B (the GPs' tangent bases) hold one row per distinct (pose, GP)
    pair and `pair` the pair of each factor, so the projected VP is computed
    once per pair and gathered; K is the (3, 3) camera matrix. The Jacobian
    thunk returns one block per pair, A (P, 3, 5) = d vhat / d (pose
    rotation, GP tangent step): factor f's Jacobian row is lhat_f^T A of its
    pair. It leaves out the pose translation, on which the residual does not
    depend."""
    v_cam = mv(R, G)
    v_img = mv(K, v_cam)
    n = np.linalg.norm(v_img, axis=1)
    vhat = v_img / n[:, None]
    r = np.sum(lhat * vhat[pair], axis=1)[:, None]
    active = np.ones(len(r), dtype=bool)

    def jac():
        # d vhat / d v_img, projected onto the sphere tangent, times K
        PK = ((np.eye(3) - vhat[:, :, None] * vhat[:, None, :]) / n[:, None, None]) @ K
        return np.concatenate([PK @ -skew(v_cam), PK @ R @ B], axis=2)
    return r, active, jac


# ---------------------------------------------------------------------------
# Factors
# ---------------------------------------------------------------------------

class _Factor:
    """A factor kind: its constants, and how its table is packed and
    evaluated. The kind classes are never instantiated; a factor is a row of
    its kind's `_FactorTable`. `variables` names the kinds of the two
    variables; `width` is the length of the constant row; `inactive_error`
    is what `_FactorRow.residual` raises for an inactive factor. `SIGMA` is
    the kind's residual noise (information 1/SIGMA^2) and `HUBER_DELTA` its
    Huber threshold on the whitened residual norm. `live` picks the Jacobian
    columns (of dof_a + dof_b) that are not structurally zero; the kernel
    computes only those. `_pack` turns a factor table of the kind and the
    graph's camera into its constant arrays and `_kernel` runs the kind's
    kernel on the graph's state arrays at the table's rows."""

    variables: tuple = ()
    inactive_error: type = ValueError
    live = slice(None)


class PointFactor(_Factor):
    kind = "point"
    dim = 2
    SIGMA = 1.0  # px
    HUBER_DELTA = HUBER_2DOF
    variables = ("pose", "point")
    width = 2  # observed pixel
    inactive_error = BehindCameraError

    @staticmethod
    def _pack(t, k) -> dict:
        return {"obs": t.consts, "intr": (k.fx, k.fy, k.cx, k.cy)}

    @staticmethod
    def _kernel(st, a, b, c):
        return _point_kernel(st.R[a], st.t[a], st.X[b], c["obs"], c["intr"])


class LineFactor(_Factor):
    kind = "line"
    dim = 2
    SIGMA = 1.0  # px
    HUBER_DELTA = HUBER_2DOF
    variables = ("pose", "line")
    width = 4  # observed endpoints x1 y1 x2 y2
    inactive_error = DegenerateLineError

    @staticmethod
    def _pack(t, k) -> dict:
        ends = t.consts.reshape(-1, 2, 2)
        # homogeneous endpoints (N, 2, 3)
        return {"ends": np.concatenate([ends, np.ones((len(ends), 2, 1))], axis=2),
                "KL": k.line_projection_matrix()}

    @staticmethod
    def _kernel(st, a, b, c):
        return _line_kernel(st.R[a], st.t[a], st.U[b], st.W[b], c["ends"], c["KL"])


class VdAlignFactor(_Factor):
    kind = "vd_align"
    dim = 1
    SIGMA = 0.01
    HUBER_DELTA = HUBER_1DOF
    variables = ("pose", "gp")
    width = 4  # segment endpoints x1 y1 x2 y2
    live = slice(3, None)  # the residual does not depend on the pose translation

    @staticmethod
    def _pack(t, k) -> dict:
        ends, rows_a, rows_b = t.consts, t.rows_a, t.rows_b
        # one integer key per (pose, GP) pair; `pair` indexes the pairs
        key = rows_a * (rows_b.max() + 1) + rows_b
        _, first, pair = np.unique(key, return_index=True, return_inverse=True)
        # C-ordered like a stack of rows, so the kernel's products sum alike
        lhat = np.ascontiguousarray(lines_through(ends[:, :2], ends[:, 2:]))
        # the factors grouped by pair (`order`, insertion order within a
        # pair; group p starts at `starts[p]`), each with lhat lhat^T | lhat
        order = np.argsort(pair, kind="stable")
        ll = np.concatenate([(lhat[:, :, None] * lhat[:, None, :]).reshape(-1, 9), lhat], axis=1)
        return {"lhat": lhat, "pose": rows_a[first], "gp": rows_b[first], "K": k.matrix(),
                "pair": pair, "order": order,
                "starts": np.searchsorted(pair[order], np.arange(len(first))), "ll": ll[order]}

    @staticmethod
    def _kernel(st, a, b, c):
        return _vd_align_kernel(st.R[c["pose"]], st.G[c["gp"]], st.B[c["gp"]], c["K"],
                                c["lhat"], c["pair"])


# the factor kinds, in the order the graph stores, packs and sums them
KINDS = (PointFactor, LineFactor, VdAlignFactor)


# ---------------------------------------------------------------------------
# Factor tables
# ---------------------------------------------------------------------------

class _FactorTable:
    """The factors of one kind as columns, one row per factor in insertion
    order: the two variables' graph rows (`rows_a`, `rows_b`) and the
    constant row `consts` (N, cls.width). The columns are never written in
    place: `append` replaces them."""

    def __init__(self, cls):
        self.cls = cls
        self.rows_a = self.rows_b = np.empty(0, dtype=np.intp)
        self.consts = np.empty((0, cls.width))

    def __len__(self):
        return len(self.rows_a)

    def append(self, graph: "FactorGraph", ids_a, ids_b, consts):
        """Append a block of factors: their variables' ids and their constant
        rows. ValueError, before the table changes, if the three differ in
        count; KeyError if a variable is not in `graph`."""
        ka, kb = self.cls.variables
        ids_a = np.asarray(ids_a, dtype=np.int64).reshape(-1)
        ids_b = np.asarray(ids_b, dtype=np.int64).reshape(-1)
        n = len(ids_a)
        consts = np.asarray(consts, dtype=float)
        if len(ids_b) != n or len(consts) != n:
            raise ValueError(f"{self.cls.kind} factor block of {n} ids_a, {len(ids_b)} "
                             f"ids_b and {len(consts)} constant rows")
        if not n:
            # keep the columns: new empty ones cost ~1 MB of peak RSS over
            # the structured scenes' lp and gp runs (ru_maxrss)
            return
        block = {"rows_a": graph.rows_of(ka, ids_a), "rows_b": graph.rows_of(kb, ids_b),
                 "consts": consts.reshape(n, self.cls.width)}
        for name, column in block.items():
            setattr(self, name, np.concatenate([getattr(self, name), column]))


# ---------------------------------------------------------------------------
# Packing and batched evaluation
# ---------------------------------------------------------------------------

def _layout(index: "ParameterIndex") -> tuple:
    """The two row blocks of `_linearize`'s scatter buffer, one flat float
    array in which every row starts with its gradient entry, as (start,
    width, size): the kept rows, (nc + 1) x (nc + 2) from 0, each [g_c |
    H_cc | collecting column]; the eliminated kind's rows, (n_e + 1) x width
    from `start`, each [g_e | H_ec | collecting column | H_ee], where width
    = n_coupled + 2 + d; `size` entries in all. nc is `index.n_reduced`, n_e
    the eliminated unknowns and d their kind's DOF: an eliminated row's last
    d columns hold its variable's block. The last row of each block and
    each block's collecting column take the fixed variables' terms, and the
    kept rows' collecting column also their terms against eliminated
    columns (H_ce, which the step takes as H_ec transposed): none of them is
    read. The step reads [g_c | H_cc] and [g_e | H_ec] in place."""
    nc, d = index.n_reduced, DOF[index.eliminated]
    start = (nc + 1) * (nc + 2)
    width = index.n_coupled + 2 + d
    return start, width, start + (index.n_params - nc + 1) * width


def _positions(cols: np.ndarray, cls, index: "ParameterIndex") -> tuple:
    """Where `_linearize` adds a kind's terms in its `_layout` buffer, from
    the parameter columns `cols` (N, k) of their live Jacobian columns, as
    (at, row): the positions of each term's J^T J block, (N, k, k), and of
    its gradient terms, which are the bases of their rows (N, k), both
    int32. Built from (N, k) int32 arrays, so no int64 temporary has N k^2
    entries. A kept column c takes kept row c, an eliminated one row c - nc
    of the eliminated rows; a fixed variable's takes its block's collecting
    row and column. ValueError if the buffer has 2^31 entries or more."""
    nc, n_k, d = index.n_reduced, index.n_coupled, DOF[index.eliminated]
    start, width, size = _layout(index)
    if size > np.iinfo(np.int32).max:
        raise ValueError(f"a scatter buffer of {size} entries: int32 positions "
                         "address fewer than 2**31")
    ka, kb = cls.variables
    eliminated = np.repeat([ka == index.eliminated, kb == index.eliminated],
                           [DOF[ka], DOF[kb]])[cls.live]
    c = cols.astype(np.int32)
    kept = np.minimum(c, nc)
    row = np.where(eliminated, start + (c - nc) * width, kept * (nc + 2))
    # each column's place in a kept row, and in an eliminated row
    in_kept = np.where(eliminated, np.int32(nc + 1), kept + 1)
    in_eliminated = np.where(eliminated, n_k + 2 + (c - nc) % d, np.minimum(c, n_k) + 1)
    at = row[:, :, None] + in_kept[:, None, :]
    at[:, eliminated] = row[:, eliminated, None] + in_eliminated[:, None, :]
    return at, row


class _Batch:
    """The packed factors of one kind. With a parameter index, `at` holds
    the `_positions` of its terms, computed once per packing from the
    parameter columns of each term's live Jacobian columns: a term is a
    factor, or for vd_align a (pose, GP) pair. No array of a batch has N k^2
    floats or int64s: the positions are int32, and `_linearize` forms the
    J^T J blocks a chunk at a time. `info` and `delta` are the kind's
    scalars; broadcast over the rows, they give each row the floats a
    per-row array of them would."""

    def __init__(self, table: _FactorTable, index, intr: CameraIntrinsics):
        self.cls = cls = table.cls
        self.rows_a, self.rows_b = table.rows_a, table.rows_b
        self.consts = cls._pack(table, intr)
        if index is not None:
            ka, kb = cls.variables
            a, b = ((self.consts["pose"], self.consts["gp"]) if cls is VdAlignFactor
                    else (self.rows_a, self.rows_b))
            self.at = _positions(np.concatenate([index.table[ka][a], index.table[kb][b]],
                                                axis=1)[:, cls.live], cls, index)
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
    jac: Callable        # () -> the live Jacobian blocks (N, dim, k); vd_align's per pair


def _evaluate_batch(b: _Batch, graph) -> _Evaluation:
    """The kind's kernel on the batch's rows of the graph's state arrays,
    with the Huber costs and IRLS weights of its residuals."""
    r, active, jac = b.cls._kernel(graph, b.rows_a, b.rows_b, b.consts)
    r_sq = np.sum(r * b.info * r, axis=1)
    cost, weight = _huber(r_sq, b.delta)
    return _Evaluation(b, r, active, cost, weight, jac)


class PackedFactors:
    """A graph's factor tables packed against its variable rows and a
    `ParameterIndex` of its free variables: one batch per
    kind that has factors, in `KINDS` order, with the factors of a kind in
    insertion order.

    Rows only ever get appended, so one packing serves every state of the
    graph; each `evaluate` indexes the graph's state arrays directly.
    `held` is at most one evaluation that `total_cost` left, with the state
    arrays it was made at: the next `evaluate` at that same state (the same
    array objects; they are never written in place) returns it instead of
    running the kernels again. Any `evaluate` drops it.
    """

    def __init__(self, graph: "FactorGraph", index: "ParameterIndex"):
        self.batches = [_Batch(t, index, graph.intr) for t in graph.tables.values() if len(t)]
        self.held: tuple | None = None

    def evaluate(self, graph) -> list[_Evaluation]:
        held, self.held = self.held, None
        if held is not None and all(a is b for a, b in zip(held[0], _state(graph))):
            return held[1]
        return [_evaluate_batch(b, graph) for b in self.batches]


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

# the state arrays of each variable kind
_FIELDS = {"pose": ("R", "t"), "point": ("X",), "line": ("U", "W"), "gp": ("G", "B")}

# the value a mapping read builds from one variable's rows: a line is its
# (U, W) pair, a gp its direction
_VALUE = {"pose": Pose, "point": lambda X: X, "line": lambda U, W: (U, W),
          "gp": lambda G, B: G}


def _state(graph) -> tuple:
    """The graph's state arrays, in `_FIELDS` order."""
    return tuple(getattr(graph, name) for names in _FIELDS.values() for name in names)


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


class _FactorRow:
    """One factor: row `row` of its kind's table `table`."""

    def __init__(self, table: _FactorTable, row: int):
        self.table, self.row = table, row

    kind = property(lambda self: self.table.cls.kind)

    def residual(self, graph) -> np.ndarray:
        """This factor's residual on `graph`, evaluated as a one-row slice of
        its table; the kind's `inactive_error` if the factor is inactive."""
        t, one = self.table, _FactorTable(self.table.cls)
        at = slice(self.row, self.row + 1)
        one.rows_a, one.rows_b, one.consts = t.rows_a[at], t.rows_b[at], t.consts[at]
        e = _evaluate_batch(_Batch(one, None, graph.intr), graph)
        if not e.active[0]:
            raise t.cls.inactive_error(f"inactive {t.cls.kind} factor")
        return e.r[0]


class _Factors(Sequence):
    """Read-only view of the graph's factors, table by table in `KINDS`
    order; each read is a `_FactorRow`."""

    def __init__(self, graph: "FactorGraph"):
        self._graph = graph

    def __getitem__(self, i):
        i = range(len(self))[i]  # IndexError out of range; negative from the end
        for t in self._graph.tables.values():
            if i < len(t):
                return _FactorRow(t, i)
            i -= len(t)

    def __len__(self):
        return sum(len(t) for t in self._graph.tables.values())


class FactorGraph:
    """Variables as stacked arrays per kind, one row per variable, with one
    id -> row map per kind in `rows`; the factors as one table per kind in
    `tables`, in `KINDS` order; and `intr`, the one camera of every point,
    line and vd_align factor."""

    def __init__(self, intr: CameraIntrinsics):
        self.intr = intr
        self.rows: dict[str, dict] = {kind: {} for kind in DOF}
        self.R = np.empty((0, 3, 3))  # pose rotations, camera from world
        self.t = np.empty((0, 3))     # pose translations
        self.X = np.empty((0, 3))     # points
        self.U = np.empty((0, 3, 3))  # orthonormal lines: U in SO(3)
        self.W = np.empty((0, 2, 2))  # and W in SO(2)
        self.G = np.empty((0, 3))     # GP unit directions
        self.B = np.empty((0, 3, 2))  # their tangent bases (`_tangent_bases`)
        self.tables = {cls: _FactorTable(cls) for cls in KINDS}

    poses = property(lambda self: _Variables(self, "pose"))
    points = property(lambda self: _Variables(self, "point"))
    lines = property(lambda self: _Variables(self, "line"))
    gps = property(lambda self: _Variables(self, "gp"))
    factors = property(lambda self: _Factors(self))

    def add_variables(self, kind: str, ids, *values):
        """Add a block of variables of one kind, or overwrite those whose id
        exists: `values` are the kind's state arrays in `_FIELDS` order, one
        row per id, except that a gp takes only its directions (each within
        1e-9 of unit norm, then normalized) and gets their tangent bases.
        The state arrays are replaced, never written in place."""
        ids = np.asarray(ids, dtype=np.int64).reshape(-1).tolist()
        if not ids:
            return
        if kind == "gp":
            G = np.asarray(values[0], dtype=float).reshape(-1, 3)
            n = row_norms(G)[:, None]
            if (np.abs(n - 1.0) > 1e-9).any():
                raise ValueError("gp direction must be unit")
            G = G / n
            values = (G, _tangent_bases(G))
        arrays = [getattr(self, name) for name in _FIELDS[kind]]
        values = [np.asarray(v, dtype=float).reshape((len(ids),) + a.shape[1:])
                  for v, a in zip(values, arrays)]
        rows = self.rows[kind]
        at = np.array([rows.setdefault(vid, len(rows)) for vid in ids], dtype=np.intp)
        for name, a, v in zip(_FIELDS[kind], arrays, values):
            out = np.empty((len(rows),) + a.shape[1:])
            out[:len(a)] = a
            out[at] = v
            setattr(self, name, out)

    def add_factors(self, cls, ids_a, ids_b, consts):
        """Append a block of factors of the kind `cls`, in order: the ids of
        each one's two variables (of the kinds `cls.variables`) and their
        constant rows (N, cls.width). ValueError if the three differ in count,
        KeyError if a variable is missing."""
        self.tables[cls].append(self, ids_a, ids_b, consts)

    def rows_of(self, kind: str, ids) -> np.ndarray:
        """The graph rows of variables of `kind` by id (an int array).
        KeyError names the first missing one."""
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        known = np.fromiter(self.rows[kind], dtype=np.int64, count=len(self.rows[kind]))
        missing = ids[~np.isin(ids, known)]
        if len(missing):
            raise KeyError(f"factor references missing variable {(kind, int(missing[0]))}")
        order = np.argsort(known)  # known[row] is the id of that row
        return order[np.searchsorted(known, ids, sorter=order)]

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
        dR, V = exp_stack(deltas[:, 3:], True)
        return dR @ R, mv(dR, t) + mv(V, deltas[:, :3])
    if kind == "point":
        (X,) = values
        return (X + deltas,)
    if kind == "line":
        U, W = values
        dU, _ = exp_stack(deltas[:, :3], False)
        c, s = np.cos(deltas[:, 3]), np.sin(deltas[:, 3])
        return dU @ U, np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2) @ W
    if kind == "gp":
        G, B = values
        d = G + deltas[:, :1] * B[:, :, 0] + deltas[:, 1:] * B[:, :, 1]
        G = d / row_norms(d)[:, None]
        return G, _tangent_bases(G)
    raise ValueError(f"unknown variable kind {kind!r}")


# ---------------------------------------------------------------------------
# Parameter layout
# ---------------------------------------------------------------------------

class ParameterIndex:
    """Where the free variables sit in the LM parameter vector, and which
    kind the Schur step eliminates.

    `eliminated` is "pose" when 6 x (free poses) > 3 x (free points), else
    "point": the larger of the two block-diagonal sets. Free variables take
    columns kind by kind, the kept kinds first in the order pose, point,
    line, gp (the `n_reduced` columns of the reduced system), then the
    eliminated kind; by ascending id within a kind; fixed ones take none.
    The eliminated kind couples with the first `n_coupled` columns: the
    poses' for points, all kept columns for poses. `rows[kind]` holds the
    kind's free graph rows in column order, `slices[kind]` their span of
    the parameter vector and `table[kind]` the parameter columns of every
    graph row (n_params for a fixed variable). `optimize` builds one per
    call.
    """

    def __init__(self, graph: "FactorGraph", fixed):
        fixed = set(fixed)
        free = {kind: np.array([rows[vid] for vid in sorted(rows) if (kind, vid) not in fixed],
                               dtype=np.intp) for kind, rows in graph.rows.items()}
        larger = DOF["pose"] * len(free["pose"]) > DOF["point"] * len(free["point"])
        self.eliminated = "pose" if larger else "point"
        self.rows, self.slices = {}, {}
        n = 0
        for kind in [k for k in DOF if k != self.eliminated] + [self.eliminated]:
            self.rows[kind] = free[kind]
            self.slices[kind] = slice(n, n + DOF[kind] * len(free[kind]))
            n = self.slices[kind].stop
        self.n_params = n
        self.n_reduced = self.slices[self.eliminated].start
        self.n_coupled = self.slices["pose"].stop if self.eliminated == "point" else self.n_reduced
        self.table = {}
        for kind, dof in DOF.items():
            table = np.full((len(graph.rows[kind]), dof), n, dtype=np.intp)
            table[self.rows[kind]] = np.arange(n)[self.slices[kind]].reshape(-1, dof)
            self.table[kind] = table


def total_cost(graph: FactorGraph, packed: PackedFactors) -> float:
    """Sum of Huber-robustified Mahalanobis squared residuals of the
    factors `packed` (a `PackedFactors` of `graph`).

    The evaluation stays held on `packed`, so a `_linearize` or
    `cost_breakdown` at this same state does not run the kernels again.
    """
    evals = packed.evaluate(graph)
    packed.held = (_state(graph), evals)
    return float(sum(e.cost.sum() for e in evals))


def cost_breakdown(graph: FactorGraph, packed: PackedFactors) -> dict:
    """Robust cost per factor kind, in `KINDS` order; a kind appears only
    when one of its factors is active. Uses the evaluation `total_cost` held
    on `packed` when it is of this state."""
    return {e.batch.cls.kind: float(e.cost.sum())
            for e in packed.evaluate(graph) if e.active.any()}


@dataclass
class OptimizationReport:
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    cost_breakdown: dict

    def to_json(self) -> str:
        return json.dumps({
            "initial_cost": self.initial_cost,
            "final_cost": self.final_cost,
            "iters": self.iterations,
            "converged": self.converged,
            "per_factor_type_cost_breakdown": self.cost_breakdown,
        }, sort_keys=True)


class _NormalEquations:
    """The Gauss-Newton system of one linearization without the dense H, in
    `ParameterIndex` order, as views of one new `_layout` buffer, `buffer`,
    for `index`: `gcc`, the kept (reduced) rows as [g_c | H_cc], and of it
    `gc` their gradient and `cc` their block; `gec`, the eliminated kind's
    rows as [g_e | H_ec], its gradient and its coupling to the kept columns
    it couples with (the first `n_coupled`: a point couples only with the
    poses that see it, a pose with points, lines and GPs); `ee` its (E, d,
    d) diagonal blocks, 6x6 for poses or 3x3 for points. Each entry is the
    sum the dense H and g would hold once `_linearize` has filled the
    buffer; the eliminated rows against the other kept columns, and two
    eliminated variables against each other, are zero and not stored.

    The scatter and the LM trials work in buffers sized once, with the
    system: `scratch`, four arrays of at most `BLOCK_ELEMS` entries
    through which `add` scatters every chunk of terms, `BLOCK_ELEMS // k^2`
    terms for k live Jacobian columns (a chunk's (terms, k, k) J^T J blocks
    and their positions fill one array each); the undamped
    diagonals; and from the first step on M^-1 [g_e | H_ec], the reduced
    system and H_ce M^-1 [g_e | H_ec]. `_linearize` refills a system it made
    in place and calls `update`, so `optimize` allocates one system per
    call. The diagonals are read only once the buffer is filled: reading
    the unwritten pages first would fault each of them in twice."""

    def __init__(self, index: ParameterIndex):
        nc, n_k, d = index.n_reduced, index.n_coupled, DOF[index.eliminated]
        start, width, size = _layout(index)
        self.buffer = np.empty(size)
        kept = self.buffer[:start].reshape(nc + 1, nc + 2)
        eliminated = self.buffer[start:].reshape(-1, width)[:-1]
        self.gcc = kept[:nc, :nc + 1]
        self.gc, self.cc = self.gcc[:, 0], self.gcc[:, 1:]
        self.gec, self.ee = eliminated[:, :n_k + 1], eliminated[:, n_k + 2:].reshape(-1, d, d)
        # writeable views of both diagonals, and their undamped values
        self.diagonals = [np.einsum("...ii->...i", H) for H in (self.cc, self.ee)]
        self.undamped = [np.empty_like(d) for d in self.diagonals]
        self.buffers = None  # the trial buffers, allocated by the first step
        # a chunk's J^T J blocks and the positions of them or of its gradient
        # terms, its weighted J and its gradient terms. Per term the last two
        # take dim / k and 1 / k of the k^2 entries, at most 2/9 for every
        # kind, so they get a quarter (at full size they raised ablation's
        # peak RSS by ~0.25 MB)
        self.scratch = (np.empty(BLOCK_ELEMS), np.empty(BLOCK_ELEMS, dtype=np.intp),
                        np.empty(BLOCK_ELEMS // 4), np.empty(BLOCK_ELEMS // 4))

    def add(self, at: tuple, J: np.ndarray, rhs: np.ndarray, w=None, L=None):
        """Add one kind's terms to the buffer at their `_positions` `at`,
        term by term in order, `BLOCK_ELEMS // k^2` terms at a time
        through `scratch`: per term, with weights `w` (N,), J^T w J and
        J^T w rhs of its Jacobian block J (dim, k); or, with `L` (N, dim,
        dim), J^T L J and J^T rhs."""
        terms, positions, weighted, grad = self.scratch
        k = J.shape[2]
        n = BLOCK_ELEMS // k**2
        for s in range(0, len(J), n):
            t = slice(s, s + n)
            Jc = J[t]
            m = len(Jc)
            if L is None:
                Jt = JtL = np.multiply(w[t, None, None], Jc,
                                       out=weighted[:Jc.size].reshape(Jc.shape)).transpose(0, 2, 1)
            else:
                Jt = Jc.transpose(0, 2, 1)
                JtL = Jt @ L[t]
            HJ = np.matmul(JtL, Jc, out=terms[:m * k * k].reshape(m, k, k))
            gJ = np.matmul(Jt, rhs[t], out=grad[:m * k].reshape(m, k, 1))
            np.copyto(positions[:m * k * k], at[0][t].reshape(-1))
            np.add.at(self.buffer, positions[:m * k * k], HJ.reshape(-1))
            np.copyto(positions[:m * k], at[1][t].reshape(-1))
            np.add.at(self.buffer, positions[:m * k], gJ.reshape(-1))

    def update(self):
        """Read the undamped diagonals of the system's current entries."""
        for d, u in zip(self.diagonals, self.undamped):
            u[...] = d

    def step(self, lam: float) -> np.ndarray:
        """The LM step at damping `lam`, by the Schur complement of the
        eliminated blocks (Triggs et al. 2000, section 6.1). Both diagonals
        are damped in place to `undamped + lam * max(undamped, 1e-12)`; the
        damped blocks M are inverted in one batch; the reduced system
        (H_cc - H_ce M^-1 H_ec) d_c = -(g_c - H_ce M^-1 g_e) is solved; and
        the eliminated kind is back-substituted, d_e = -M^-1 (g_e + H_ec d_c).
        A dead variable's block is lam * 1e-12 * I and couples to nothing.
        LinAlgError if a damped block or the reduced system is singular."""
        nc, n_e, d = len(self.cc), len(self.gec), self.ee.shape[1]
        n_k = self.gec.shape[1] - 1  # the coupled columns; column 0 is g_e
        if self.buffers is None:  # allocated once the linearization's temporaries are freed
            self.buffers = (np.empty((n_e, n_k + 1)), np.empty((nc, nc + 1)),
                            np.empty((n_k, n_k + 1)))
        W, S, T = self.buffers
        for diag, u in zip(self.diagonals, self.undamped):
            np.maximum(u, 1e-12, out=diag)
            diag *= lam
            diag += u
        M_inv = np.linalg.inv(self.ee)
        # M^-1 [g_e, H_ec], and [g_c, H_cc] less H_ce times it on the coupled rows
        np.matmul(M_inv, self.gec.reshape(-1, d, n_k + 1), out=W.reshape(-1, d, n_k + 1))
        S[...] = self.gcc
        S[:n_k, :n_k + 1] -= np.matmul(self.gec[:, 1:].T, W, out=T)
        delta = np.linalg.solve(S[:, 1:], -S[:, 0])
        return np.concatenate([delta, -(W[:, 0] + W[:, 1:] @ delta[:n_k])])


def _pair_sums(w: np.ndarray, r: np.ndarray, c: dict) -> tuple:
    """The vd_align kind's weighted sums per (pose, GP) pair, L (P, 3, 3)
    and b (P, 3, 1). Factor f of pair p has the Jacobian row lhat_f^T A_p
    (`A` from the kernel's thunk), so the pair's terms sum to A_p^T L_p A_p
    and A_p^T b_p, with L_p = sum w_f lhat_f lhat_f^T and b_p = sum w_f r_f
    lhat_f over its factors in insertion order."""
    o = c["order"]
    terms = c["ll"] * w[o, None]
    terms[:, 9:] *= r[o]
    sums = np.add.reduceat(terms, c["starts"], axis=0)
    return sums[:, :9].reshape(-1, 3, 3), sums[:, 9:, None]


def _linearize(graph: FactorGraph, index: ParameterIndex,
               packed: PackedFactors, system: _NormalEquations | None = None):
    """One batched pass over all factors: robust cost and the Gauss-Newton
    system, as `_NormalEquations`.

    `index` places the free variables; fixed ones get no rows. `packed` is
    `PackedFactors(graph, index)`. `system` is
    one this function returned for the same `index`, refilled in place (a
    new one when not given); its pieces are views of one `_layout` buffer,
    zeroed and filled.

    The residuals come from the evaluation `total_cost` held on `packed` when
    it is of this state, else from one kernel pass; either way the Jacobians
    come from the evaluation's thunks, and nothing is held afterwards. Each
    kind's weighted J^T J blocks and gradient terms are formed and
    scattered at the batch's `_positions` a chunk of terms at a time
    (`_NormalEquations.add`), kind by kind and term by term in insertion
    order, so each entry is the same sum as when a kind was scattered
    whole: per factor, except vd_align's, whose weighted terms are summed
    per (pose, GP) pair first (`_pair_sums`). Only the live Jacobian
    columns are scattered: a structurally zero column adds ±0.0 to entries
    that start at +0.0, which never changes one.
    """
    if system is None:
        system = _NormalEquations(index)
    system.buffer.fill(0.0)
    cost = 0.0
    for e in packed.evaluate(graph):
        b = e.batch
        cost += e.cost.sum()
        J = e.jac()
        # inactive factors add exact zeros: their Jacobians are finite
        w = np.where(e.active, e.weight * b.info, 0.0)
        if b.cls is VdAlignFactor:
            L, rhs = _pair_sums(w, e.r, b.consts)
            system.add(b.at, J, rhs, L=L)
        else:
            system.add(b.at, J, e.r[:, :, None], w=w)
    system.update()
    return float(cost), system


def optimize(graph: FactorGraph, fixed) -> OptimizationReport:
    """Levenberg-Marquardt over all variables whose (kind, id) key is not in
    `fixed` (in place).

    Stops on the ABS_TOL and REL_TOL tests (see the module docstring) report
    `converged=True`; running out of MAX_ITERS, or lambda reaching 1e12
    without an accepted step, reports `converged=False`. The final cost is
    the loop's last cost of the state it ends in: an accepted step's
    `total_cost`, or else the last `_linearize`'s.

    Each state is evaluated once: the first `_linearize`, and each trial's
    `total_cost`. An accepted trial's evaluation is held on the packing and
    linearized from (or, at the end, broken down by kind); a rejected one is
    dropped. Only when the loop ends back at a linearized state (a gradient
    stop or lambda overflow) does `cost_breakdown` evaluate it again, since
    `_linearize` keeps nothing through the solves.

    ValueError names the first key in `fixed` that is not a variable of
    the graph, and is raised when poses exist but nothing is fixed."""
    fixed = list(fixed)
    for kind, vid in fixed:
        if vid not in graph.rows.get(kind, ()):
            raise ValueError(f"fixed key {(kind, vid)!r} is not a variable of the graph")
    fixed = set(fixed)
    if graph.poses and not fixed:
        raise ValueError("gauge unfixed: fix at least one variable")

    index = ParameterIndex(graph, fixed)
    packed = PackedFactors(graph, index)
    blocks = [(kind, index.rows[kind], index.slices[kind]) for kind in DOF
              if len(index.rows[kind])]

    lam = LAMBDA_INIT
    converged = False
    system = None  # one system and its trial buffers per call, refilled each iteration
    for iters in range(1, MAX_ITERS + 1):
        cost, system = _linearize(graph, index, packed, system)
        if iters == 1:
            initial_cost = cost
        if max(np.max(np.abs(g), initial=0.0) for g in (system.gc, system.gec[:, 0])) < ABS_TOL:
            converged = True
            break
        x = np.concatenate([graph.t[index.rows["pose"]], graph.X[index.rows["point"]]])
        step_tol = REL_TOL * (np.linalg.norm(x) + REL_TOL)
        snap = graph.snapshot()
        accepted = False
        while lam < 1e12:
            try:
                delta = system.step(lam)
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
            packed.held = None
            graph.restore(snap)
            lam *= LAMBDA_SCALE
        if not accepted:
            break  # lambda overflow: no tolerance was met
        if converged:
            break

    return OptimizationReport(initial_cost, cost, iters, converged,
                              cost_breakdown(graph, packed))
