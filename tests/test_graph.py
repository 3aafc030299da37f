"""Factor residuals, analytic-vs-numeric Jacobians, batched retraction,
robust LM optimizer.

Each kind's batched Jacobian thunk is checked against central differences
through `retract` on the same batch; the per-factor central-difference
oracle `numeric_jacobian` is kept below for the weighted normal equations.

The batched `retract` is checked against per-variable formulas kept below as
oracles (`oracle_*`), and the pair-shared vd_align kernel and the live-column
scatter of `_linearize` against their per-factor, all-column forms. The
pieces `_linearize` assembles are checked against the dense H it scattered
before the Schur step, with each vd_align factor's Jacobian row as it was
before the (pose, GP) pairs summed their terms: bit for bit on every entry
that no vd_align term reaches, and within PAIR_RTOL of the magnitudes of the
terms an entry sums on the others (`pair_tolerance`), also where the point
kind spans several chunks of the scatter, whose memory one corridor
`optimize` call bounds. The Schur step, which
eliminates the poses when 6 x (free poses) > 3 x (free points) and else the
points, is checked bit for bit against the per-trial formula it had before
it reused its buffers, and against a dense `np.linalg.solve` of the same
damped system.
"""
import functools
import itertools
import math
import re
import tracemalloc
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from monogp import graph as graph_module
from monogp.geometry import (
    BLOCK_ELEMS,
    EPS_Z,
    BehindCameraError,
    CameraIntrinsics,
    Pose,
    PoseStack,
    mv,
    pinhole,
    project_points,
    se3_exp,
    skew,
    so3_exp,
)
from monogp.graph import (
    DOF,
    HUBER_2DOF,
    KINDS,
    LAMBDA_INIT,
    LAMBDA_SCALE,
    MAX_ITERS,
    FactorGraph,
    LineFactor,
    PackedFactors,
    ParameterIndex,
    PointFactor,
    VdAlignFactor,
    _huber,
    _linearize,
    _NormalEquations,
    _point_kernel,
    _tangent_bases,
    cost_breakdown,
    optimize,
    retract,
    total_cost,
)
from monogp.pipeline import _map_scene, build_graph, map_primitives
from monogp.scenarios import default_corridor, nonoverlap, structured
from monogp.segments import Segment2D, lines_through
from test_segments import seg_row

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
IDENTITY = Pose(np.eye(3), np.zeros(3))


def to_camera(pose, p_w):
    """Camera coordinates of world points (3,) or (k, 3): one matrix-vector
    product per point, as `PoseStack.transform` computes them for the
    F-ordered rotations of `Pose.from_world_camera`."""
    p = np.asarray(p_w, dtype=float)
    return (pose.rotation @ p[..., None])[..., 0] + pose.translation


def project_point(p_w, pose, intr):
    """One world point's pixel in one camera, through `project_points`."""
    in_front, px = project_points([p_w], PoseStack.of([pose]), intr)
    assert in_front[0], "point behind the camera"
    return px[0, 0]


def line_through(p, q):
    """The world line through points p and q as Plücker (normal, direction)
    rows: (p × (q − p), q − p)."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    return np.cross(p, q - p), q - p


def closest_point_to_origin(line):
    """The point of a Plücker line (normal, direction) nearest the world origin."""
    n, d = line
    return np.cross(d, n) / float(d @ d)


# -- one variable or factor at a time, through the block adds -------------------

def add_pose(g, vid, pose):
    g.add_variables("pose", [vid], [pose.rotation], [pose.translation])


def add_point(g, vid, p):
    g.add_variables("point", [vid], [p])


def add_line(g, vid, line):
    g.add_variables("line", [vid], [line.U], [line.W])


def add_gp(g, vid, direction):
    g.add_variables("gp", [vid], [direction])


def add_factor(g, cls, id_a, id_b, const):
    """Add one factor of the kind `cls` as a block of one: the ids of its two
    variables and its constant row. Returns its row view, as `g.factors`
    reads it."""
    g.add_factors(cls, [id_a], [id_b], [const])
    return g.factors[sum(len(g.tables[c]) for c in KINDS[:KINDS.index(cls) + 1]) - 1]


def pack(g) -> PackedFactors:
    """`g`'s factors packed as `optimize` packs them, with pose 0 fixed: for
    the cost-only calls, which read no parameter columns."""
    return PackedFactors(g, ParameterIndex(g, [("pose", 0)]))


def factor_records(g) -> list:
    """Each factor of `g`, in `g.factors` order, as the (cls, id_a, id_b,
    const) `add_factor` takes: the ids read back from the table's graph
    rows, `const` the table's constant row."""
    ids = {kind: list(rows) for kind, rows in g.rows.items()}
    out = []
    for f in g.factors:
        t = f.table
        (ka, kb), i = t.cls.variables, f.row
        out.append((t.cls, ids[ka][t.rows_a[i]], ids[kb][t.rows_b[i]], t.consts[i]))
    return out


def residual_at(cls, const, intr=K, **values):
    """The residual of one factor of the kind `cls` with the constant row
    `const` on a graph of camera `intr` holding variable 0 of each given
    kind, e.g. `residual_at(PointFactor, obs, pose=pose, point=p)`."""
    g = FactorGraph(intr)
    add = {"pose": add_pose, "point": add_point, "line": add_line, "gp": add_gp}
    for kind, value in values.items():
        add[kind](g, 0, value)
    return add_factor(g, cls, 0, 0, const).residual(g)


def grouped(obs):
    """Mapping's `Observations` as {id: [(frame, row)]}, ids in first-row order."""
    out = {}
    for t, k, row in zip(obs.frame.tolist(), obs.ids.tolist(), obs.rows):
        out.setdefault(k, []).append((t, row))
    return out


class OrthonormalLine(NamedTuple):
    """One line's orthonormal parameterization: U in SO(3), W in SO(2)."""
    U: np.ndarray
    W: np.ndarray


def oracle_plucker_to_orthonormal(line) -> OrthonormalLine:
    """`plucker_to_orthonormal` as it was, one (normal, direction) line at a
    time, with its `_unit` inlined. Kept verbatim."""
    n, d = line
    nn, nd = np.linalg.norm(n), np.linalg.norm(d)
    u2 = d / nd
    if nn < 1e-12 * nd:
        # Line through the origin: any unit vector orthogonal to d works.
        k = int(np.argmin(np.abs(u2)))
        c = np.cross(u2, np.eye(3)[k])
        u1 = c / np.linalg.norm(c)
        w1, w2 = 0.0, 1.0
    else:
        u1 = n / nn
        h = math.hypot(nn, nd)
        w1, w2 = nn / h, nd / h
    u3 = np.cross(u1, u2)
    U = np.column_stack([u1, u2, u3])
    W = np.array([[w1, -w2], [w2, w1]])
    return OrthonormalLine(U, W)


# -- per-variable retraction oracles ---------------------------------------------

def oracle_gp_retract(anchor, w1: float, w2: float) -> np.ndarray:
    """Tangent step then renormalization back onto the unit sphere."""
    anchor = np.asarray(anchor, dtype=float)
    B = _tangent_bases(anchor[None])[0]
    d = anchor + w1 * B[:, 0] + w2 * B[:, 1]
    return d / np.linalg.norm(d)


def oracle_rot2(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def oracle_orthonormal_update(o: OrthonormalLine, delta) -> OrthonormalLine:
    """Left-multiplicative update: U <- exp([delta_u]x) U, W <- R(delta_phi) W."""
    delta = np.asarray(delta, dtype=float).reshape(4)
    return OrthonormalLine(so3_exp(delta[:3]) @ o.U, oracle_rot2(delta[3]) @ o.W)


def gp_step(anchor, w1: float, w2: float) -> np.ndarray:
    """`retract` on one GP direction."""
    G = np.asarray(anchor, dtype=float)[None]
    return retract("gp", (G, _tangent_bases(G)), np.array([[w1, w2]]))[0][0]


# -- tangent parameterization -------------------------------------------------

def test_tangent_basis_right_handed_triad():
    rng = np.random.default_rng(0)
    anchors = rng.normal(0.0, 1.0, (200, 3))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    for anchor, basis in zip(anchors, _tangent_bases(anchors)):
        triad = np.column_stack([basis, anchor])
        assert np.allclose(triad.T @ triad, np.eye(3), atol=1e-12)
        assert np.linalg.det(triad) > 0


def test_gp_retract_zero_step_identity():
    anchor = np.array([0.0, 0.0, 1.0])
    assert np.allclose(gp_step(anchor, 0.0, 0.0), anchor)


def test_gp_retract_one_degree_tilt():
    anchor = np.array([0.0, 0.0, 1.0])
    out = gp_step(anchor, np.tan(np.radians(1.0)), 0.0)
    ang = np.degrees(np.arccos(np.clip(out @ anchor, -1.0, 1.0)))
    assert abs(ang - 1.0) < 1e-9


def test_gp_retract_stays_on_sphere():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        anchor = rng.normal(0.0, 1.0, 3)
        anchor /= np.linalg.norm(anchor)
        w = rng.uniform(-1.0, 1.0, 2)
        w *= rng.uniform(0.0, 1.0) / max(np.linalg.norm(w), 1e-12)
        out = gp_step(anchor, w[0], w[1])
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


# -- batched retraction ----------------------------------------------------------

# rotation-step norms: a zero step, the SO(3) series (< 1e-10), the left
# Jacobian's series (1e-10 <= |theta| < 1e-8) and ordinary steps
STEP_ANGLES = np.array([0.0, 1e-13, 3e-11, 9.9e-11, 1e-10, 4e-10, 6e-9, 9.9e-9,
                        1e-8, 1e-4, 0.05, 0.7, 2.5])


def oracle_so3_exp(w) -> np.ndarray:
    """Rodrigues formula. w is an axis-angle 3-vector (radians)."""
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w)
    W = skew(w)
    if theta < 1e-10:
        # Second-order series keeps the result orthonormal to machine
        # precision near zero.
        return np.eye(3) + W + 0.5 * (W @ W)
    A = math.sin(theta) / theta
    B = (1.0 - math.cos(theta)) / theta**2
    return np.eye(3) + A * W + B * (W @ W)


def oracle_left_jacobian_V(w: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(w)
    W = skew(w)
    if theta < 1e-8:
        return np.eye(3) + 0.5 * W + (W @ W) / 6.0
    B = (1.0 - math.cos(theta)) / theta**2
    C = (theta - math.sin(theta)) / theta**3
    return np.eye(3) + B * W + C * (W @ W)


def random_axis_steps(rng, angles):
    axes = rng.normal(0.0, 1.0, (len(angles), 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True) * angles[:, None]


def assert_rows_close(stacked, per_row):
    assert np.max(np.abs(stacked - np.array(per_row))) <= 1e-12


def test_retract_poses_match_se3_exp_compose():
    rng = np.random.default_rng(21)
    n = len(STEP_ANGLES)
    R = np.array([so3_exp(w) for w in rng.normal(0.0, 1.0, (n, 3))])
    t = rng.normal(0.0, 2.0, (n, 3))
    deltas = np.concatenate([rng.normal(0.0, 0.1, (n, 3)),
                             random_axis_steps(rng, STEP_ANGLES)], axis=1)
    deltas[0] = 0.0
    R_new, t_new = retract("pose", (R, t), deltas)
    ref = [se3_exp(d).compose(Pose(Ri, ti)) for d, Ri, ti in zip(deltas, R, t)]
    assert_rows_close(R_new, [p.rotation for p in ref])
    assert_rows_close(t_new, [p.translation for p in ref])
    assert np.array_equal(R_new[0], R[0]) and np.array_equal(t_new[0], t[0])
    assert np.max(np.abs(R_new @ R_new.transpose(0, 2, 1) - np.eye(3))) < 1e-12
    assert (np.linalg.det(R_new) > 0).all()


def rodrigues_rows(rng, n):
    """Axis-angle rows: `STEP_ANGLES`, each series threshold and its two
    float neighbours along every signed axis (|w| is exact there), and n
    random rows with angles log-uniform in [1e-12, 3]."""
    edges = [x for t in (1e-10, 1e-8)
             for x in (np.nextafter(t, 0.0), t, np.nextafter(t, 1.0))]
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    return np.concatenate([random_axis_steps(rng, STEP_ANGLES),
                           (axes[:, None] * np.array(edges)[:, None]).reshape(-1, 3),
                           random_axis_steps(rng, 10.0 ** rng.uniform(-12.0, math.log10(3.0), n))])


def test_so3_and_se3_exp_equal_scalar_oracles_bitwise():
    rng = np.random.default_rng(25)
    w = rodrigues_rows(rng, 3000)
    rho = rng.normal(0.0, 1.0, w.shape)
    for wi, ri in zip(w, rho):
        R = oracle_so3_exp(wi)
        assert so3_exp(wi).tobytes() == R.tobytes()
        pose = se3_exp(np.concatenate([ri, wi]))
        assert pose.rotation.tobytes() == R.tobytes()
        assert pose.translation.tobytes() == (oracle_left_jacobian_V(wi) @ ri).tobytes()


def test_retract_rodrigues_equals_scalar_oracles_bitwise():
    # the rotation and V of every row are the scalar formulas' floats,
    # composed as `retract` composes them
    rng = np.random.default_rng(26)
    w = rodrigues_rows(rng, 3000)
    n = len(w)
    dR = np.array([oracle_so3_exp(wi) for wi in w])
    V = np.array([oracle_left_jacobian_V(wi) for wi in w])
    R = np.array([so3_exp(wi) for wi in rng.normal(0.0, 1.0, (n, 3))])
    t, rho = rng.normal(0.0, 2.0, (2, n, 3))
    R_new, t_new = retract("pose", (R, t), np.concatenate([rho, w], axis=1))
    assert R_new.tobytes() == (dR @ R).tobytes()
    assert t_new.tobytes() == ((dR @ t[:, :, None]) + (V @ rho[:, :, None]))[:, :, 0].tobytes()
    U = np.array([oracle_plucker_to_orthonormal(line_through(p, p + d)).U
                  for p, d in rng.normal(0.0, 2.0, (n, 2, 3))])
    W = np.array([oracle_rot2(phi) for phi in rng.normal(0.0, 0.3, n)])
    U_new, _ = retract("line", (U, W), np.concatenate([w, np.zeros((n, 1))], axis=1))
    assert U_new.tobytes() == (dR @ U).tobytes()


def test_retract_points_add():
    rng = np.random.default_rng(22)
    X, deltas = rng.normal(0.0, 3.0, (2, 8, 3))
    (X_new,) = retract("point", (X,), deltas)
    assert_rows_close(X_new, [x + d for x, d in zip(X, deltas)])


def test_retract_lines_match_orthonormal_update():
    rng = np.random.default_rng(23)
    n = len(STEP_ANGLES)
    lines = [oracle_plucker_to_orthonormal(line_through(p, p + d))
             for p, d in rng.normal(0.0, 2.0, (n, 2, 3))]
    U, W = np.array([o.U for o in lines]), np.array([o.W for o in lines])
    deltas = np.concatenate([random_axis_steps(rng, STEP_ANGLES),
                             rng.normal(0.0, 0.3, (n, 1))], axis=1)
    deltas[0] = 0.0
    U_new, W_new = retract("line", (U, W), deltas)
    ref = [oracle_orthonormal_update(o, d) for o, d in zip(lines, deltas)]
    assert_rows_close(U_new, [o.U for o in ref])
    assert_rows_close(W_new, [o.W for o in ref])
    assert np.max(np.abs(U_new @ U_new.transpose(0, 2, 1) - np.eye(3))) < 1e-12
    assert np.max(np.abs(W_new @ W_new.transpose(0, 2, 1) - np.eye(2))) < 1e-12


def test_retract_gps_match_gp_retract():
    rng = np.random.default_rng(24)
    G = rng.normal(0.0, 1.0, (12, 3))
    G /= np.linalg.norm(G, axis=1, keepdims=True)
    deltas = rng.normal(0.0, 0.3, (12, 2)) * STEP_ANGLES[:12, None]
    G_new, B_new = retract("gp", (G, _tangent_bases(G)), deltas)
    assert_rows_close(G_new, [oracle_gp_retract(g, *d) for g, d in zip(G, deltas)])
    assert np.max(np.abs(np.linalg.norm(G_new, axis=1) - 1.0)) < 1e-12
    assert np.array_equal(B_new, _tangent_bases(G_new))


# -- robust kernel -------------------------------------------------------------

def test_huber_weight_values():
    _, w = _huber(np.array([0.0, 16.0, (2.0 - 1e-9) ** 2, (2.0 + 1e-9) ** 2]), 2.0)
    assert w[0] == 1.0
    assert abs(w[1] - 0.5) < 1e-12  # sqrt = 2 delta
    assert abs(w[2] - w[3]) < 1e-8  # continuous at the elbow


def test_huber_cost_values():
    cost, _ = _huber(np.array([9.0, 100.0]), 5.0)
    assert cost[0] == 9.0  # inside the quadratic region
    assert abs(cost[1] - 75.0) < 1e-12  # 2*5*10 - 25


# -- residual golden values ----------------------------------------------------

def test_point_residual_exact_observation():
    p = np.array([0.3, -0.2, 3.0])
    obs = project_point(p, IDENTITY, K)
    assert np.allclose(residual_at(PointFactor, obs, pose=IDENTITY, point=p), 0.0)


def test_point_residual_hand_value():
    r = residual_at(PointFactor, np.array([560.0, 240.0]), pose=IDENTITY, point=[1.0, 0.0, 2.0])
    assert np.allclose(r, [10.0, 0.0])


def test_point_kernel_pixel_step_equals_pinhole_bitwise():
    # the kernel computes `pinhole`'s formula inline; the two must agree bit
    # for bit, on large and negative camera coordinates too
    rng = np.random.default_rng(31)
    n = 3000
    R = np.array([so3_exp(w) for w in rng.normal(0.0, 1.0, (n, 3))])
    X = rng.normal(0.0, 1.0, (n, 3)) * 10.0 ** rng.uniform(-3.0, 6.0, (n, 1))
    p_c = mv(R, X)
    # translations that put each point in front, at depths from 1e-3 to 1e6
    t = np.zeros((n, 3))
    t[:, 2] = 10.0 ** rng.uniform(-3.0, 6.0, n) - p_c[:, 2]
    t[:, :2] = rng.normal(0.0, 1.0, (n, 2)) * 10.0 ** rng.uniform(-3.0, 6.0, (n, 1))
    obs = rng.uniform(-1e3, 2e3, (n, 2))
    intr = CameraIntrinsics(517.3, 516.5, 318.6, 255.3)
    r, active, _ = _point_kernel(R, t, X, obs, (intr.fx, intr.fy, intr.cx, intr.cy))
    p_c = mv(R, X) + t
    assert active.all() and (p_c[:, :2] < 0).any(axis=0).all()
    assert np.abs(p_c).max() > 1e5
    assert r.tobytes() == (pinhole(p_c, intr) - obs).tobytes()


def line_residual(line, pose, seg, intr=K):
    """LineFactor residual of a world line (normal, direction) observed as `seg`."""
    return residual_at(LineFactor, seg_row(seg), intr, pose=pose,
                       line=oracle_plucker_to_orthonormal(line))


def test_line_residual_perpendicular_distances():
    line = line_through([0.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    r = line_residual(line, IDENTITY, Segment2D([100.0, 243.0], [300.0, 237.0], id=0))
    assert np.allclose(np.abs(r), [3.0, 3.0], atol=1e-9)
    assert abs(r[0] + r[1]) < 1e-9  # opposite signs


def test_line_residual_scale_invariant():
    line = line_through([0.2, 0.1, 2.0], [1.2, 2.1, 2.0])
    double = (2.0 * line[0], 2.0 * line[1])
    obs = Segment2D([100.0, 200.0], [400.0, 250.0], id=0)
    assert np.allclose(np.abs(line_residual(line, IDENTITY, obs)),
                       np.abs(line_residual(double, IDENTITY, obs)), atol=1e-12)


def vd_align_residual(gp, pose, seg):
    return residual_at(VdAlignFactor, seg_row(seg), pose=pose, gp=gp)[0]


def test_vd_align_zero_through_principal_point():
    seg = Segment2D([320.0, 240.0], [520.0, 240.0], id=0)
    r = vd_align_residual([0.0, 0.0, 1.0], IDENTITY, seg)
    assert abs(r) < 1e-12


def test_vd_align_zero_for_incident_segment():
    # segment collinear with the image VP of a world direction
    gp = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    vp = K.matrix() @ gp
    vp_px = vp[:2] / vp[2]
    a = np.array([100.0, 100.0])
    u = vp_px - a
    u /= np.linalg.norm(u)
    seg = Segment2D(a, a + 80.0 * u, id=0)
    assert abs(vd_align_residual(gp, IDENTITY, seg)) < 1e-9


def test_vd_align_increases_away_from_truth():
    gp = np.array([1.0, 0.0, 0.0])  # horizontal family, VP at infinity
    a = np.array([100.0, 200.0])
    seg = Segment2D(a, a + [150.0, 0.0], id=0)
    vals = []
    for deg in np.linspace(0.0, 1.0, 11):
        pose = Pose(so3_exp([0.0, np.radians(deg), 0.0]), np.zeros(3))
        vals.append(abs(vd_align_residual(gp, pose, seg)))
    assert all(b > a for a, b in zip(vals, vals[1:]))


# -- Jacobian oracle ------------------------------------------------------------

def build_random_factor_graph(seed):
    """One of each factor type on a random, feasible configuration."""
    rng = np.random.default_rng(seed)
    g = FactorGraph(K)
    pose = se3_exp(rng.normal(0.0, 0.3, 6))
    add_pose(g, 0, pose)

    p_c = np.array([rng.normal(0.0, 0.5), rng.normal(0.0, 0.5),
                    rng.uniform(2.0, 5.0)])
    add_point(g, 0, to_camera(pose.inverse(), p_c))
    point_f = add_factor(g, PointFactor, 0, 0, rng.normal([320.0, 240.0], 50.0))

    anchor_c = np.array([rng.normal(0.0, 1.0), rng.normal(0.0, 1.0),
                         rng.uniform(2.0, 6.0)])
    d = rng.normal(0.0, 1.0, 3)
    d_c = d / np.linalg.norm(d)
    line_w = line_through(to_camera(pose.inverse(), anchor_c),
                          to_camera(pose.inverse(), anchor_c + d_c))
    add_line(g, 0, oracle_plucker_to_orthonormal(line_w))
    seg = Segment2D(rng.uniform(0.0, 640.0, 2), rng.uniform(0.0, 640.0, 2), id=0)
    line_f = add_factor(g, LineFactor, 0, 0, seg_row(seg))

    gp = rng.normal(0.0, 1.0, 3)
    add_gp(g, 0, gp / np.linalg.norm(gp))
    vd_f = add_factor(g, VdAlignFactor, 0, 0, seg_row(seg))
    return g, [point_f, line_f, vd_f]


def max_relative_error(analytic, numeric):
    scale = max(1.0, float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale


NUMERIC_STEP = 1e-6  # central-difference step


def numeric_jacobian(factor, graph) -> dict:
    """Central-difference Jacobian of one factor's residual (`factor` read
    from `graph.factors`) on each variable's local parameterization, by
    (kind, id) key, stepping the variable's row with `retract` by
    +-NUMERIC_STEP."""
    out = {}
    t = factor.table
    for kind, column in zip(t.cls.variables, (t.rows_a, t.rows_b)):
        rows = column[factor.row:factor.row + 1]
        vid = list(graph.rows[kind])[rows[0]]
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


def factor_jacobians(e) -> np.ndarray:
    """The live Jacobian blocks (N, dim, k) of each factor of an evaluation.
    vd_align's thunk returns one block A per (pose, GP) pair; factor f's
    Jacobian row is lhat_f^T A of its pair."""
    J = e.jac()
    if e.batch.cls is VdAlignFactor:
        c = e.batch.consts
        return c["lhat"][:, None, :] @ J[c["pair"]]
    return J


def batch_jacobian_errors(graph) -> dict:
    """Per kind, the worst `max_relative_error` over its two variables of the
    batch's per-factor Jacobians (`factor_jacobians` of
    `pack(graph).evaluate`), placed in the kind's `live` columns
    with zeros elsewhere, against central differences of the batch's
    residuals that step the batch's rows of the variable with `retract` by
    +-NUMERIC_STEP. The two variables of a factor are of different kinds,
    so stepping a kind's rows moves one variable of each factor."""
    out = {}
    for e in pack(graph).evaluate(graph):
        b, n = e.batch, len(e.r)
        analytic = np.zeros((n, b.cls.dim, sum(DOF[kind] for kind in b.cls.variables)))
        analytic[:, :, b.cls.live] = factor_jacobians(e)
        worst, start = 0.0, 0
        for kind, rows in zip(b.cls.variables, (b.rows_a, b.rows_b)):
            base, snap = graph.take_rows(kind, rows), graph.snapshot()
            cols = []
            for step in np.eye(DOF[kind]) * NUMERIC_STEP:
                graph.put_rows(kind, rows, retract(kind, base, np.tile(step, (n, 1))))
                r_plus = b.cls._kernel(graph, b.rows_a, b.rows_b, b.consts)[0]
                graph.put_rows(kind, rows, retract(kind, base, np.tile(-step, (n, 1))))
                r_minus = b.cls._kernel(graph, b.rows_a, b.rows_b, b.consts)[0]
                cols.append((r_plus - r_minus) / (2.0 * NUMERIC_STEP))
            graph.restore(snap)
            J = analytic[:, :, start:start + DOF[kind]]
            worst = max(worst, max_relative_error(J, np.stack(cols, axis=2)))
            start += DOF[kind]
        out[b.cls.kind] = worst
    return out


def test_jacobians_match_finite_differences():
    for seed in range(100):
        g, factors = build_random_factor_graph(seed)
        errors = batch_jacobian_errors(g)
        assert list(errors) == [f.kind for f in factors]
        for kind, error in errors.items():
            assert error < 1e-5, (kind, seed)


# -- graph bookkeeping -----------------------------------------------------------

def test_add_factor_missing_variable_rejected():
    g = FactorGraph(K)
    add_pose(g, 0, IDENTITY)
    with pytest.raises(KeyError):
        add_factor(g, PointFactor, 0, 99, np.array([0.0, 0.0]))


@pytest.mark.parametrize("ids_a, ids_b, consts", [
    ([0, 1], [0, 1, 2], np.zeros((2, 2))),
    ([0, 1, 2], [0, 1], np.zeros((3, 2))),
    ([0, 1], [0, 1], np.zeros((3, 2))),
    ([0, 1], [0, 1], np.zeros((1, 4))),
])
def test_add_factors_columns_of_unequal_length_rejected(ids_a, ids_b, consts):
    g = FactorGraph(K)
    add_pose(g, 0, IDENTITY)
    add_pose(g, 1, IDENTITY)
    for i in range(3):
        add_point(g, i, np.array([0.0, 0.0, 2.0]))
    with pytest.raises(ValueError, match="point factor block of"):
        g.add_factors(PointFactor, ids_a, ids_b, consts)
    table = g.tables[PointFactor]
    assert len(table.rows_a) == len(table.rows_b) == len(table.consts) == 0
    assert total_cost(g, pack(g)) == 0.0


def test_graph_built_one_row_at_a_time_equals_stacked_rows():
    rng = np.random.default_rng(21)
    poses = [se3_exp(rng.normal(0.0, 0.3, 6)) for _ in range(200)]
    points = rng.normal(0.0, 2.0, (2000, 3))
    g = FactorGraph(K)
    for i, pose in enumerate(poses):
        add_pose(g, i, pose)
    for i, p in enumerate(points):
        add_point(g, i, p)
    expected = {"R": np.stack([p.rotation for p in poses]),
                "t": np.stack([p.translation for p in poses]),
                "X": np.stack(list(points)),
                "U": np.empty((0, 3, 3)), "W": np.empty((0, 2, 2)),
                "G": np.empty((0, 3)), "B": np.empty((0, 3, 2))}
    state = g.snapshot()
    assert set(state) == set(expected)
    for name, ref in expected.items():
        assert state[name].shape == ref.shape and state[name].dtype == ref.dtype
        assert state[name].tobytes() == ref.tobytes(), name
        assert state[name].flags.c_contiguous


def test_snapshot_never_sees_a_later_write():
    rng = np.random.default_rng(22)
    g = FactorGraph(K)
    for i in range(5):
        add_point(g, i, rng.normal(size=3))
    first = g.snapshot()
    first_values = {k: v.copy() for k, v in first.items()}
    for i in range(5, 40):  # appends into the growth buffer
        add_point(g, i, rng.normal(size=3))
    second = g.snapshot()
    second_values = {k: v.copy() for k, v in second.items()}
    g.put_rows("point", [1], [[5.0, 5.0, 5.0]])  # a copy, outside the buffer
    add_point(g, 40, [7.0, 7.0, 7.0])  # appends to that copy
    add_point(g, 0, [9.0, 9.0, 9.0])   # overwrites
    add_point(g, 41, [8.0, 8.0, 8.0])
    for snap, values in ((first, first_values), (second, second_values)):
        for name, arr in snap.items():
            assert arr.tobytes() == values[name].tobytes(), name
    assert g.X[2:40].tobytes() == second_values["X"][2:].tobytes()
    assert g.X[[0, 1, 40, 41]].tolist() == [[9.0] * 3, [5.0] * 3, [7.0] * 3, [8.0] * 3]


def test_each_variable_kind_reads_back_as_its_added_rows():
    rng = np.random.default_rng(23)
    poses = {4: se3_exp(rng.normal(0.0, 0.3, 6)), 1: IDENTITY}
    points = {9: rng.normal(0.0, 2.0, 3), 2: rng.normal(0.0, 2.0, 3)}
    lines = {5: oracle_plucker_to_orthonormal(line_through([1.0, 2.0, 3.0], [0.0, 1.0, 5.0])),
             0: oracle_plucker_to_orthonormal(line_through([-1.0, 0.5, 4.0], [1.0, 0.5, 4.0]))}
    gps = {3: np.array([0.0, 0.6, 0.8]), 8: np.array([1.0, 0.0, 0.0])}
    g = FactorGraph(K)
    for vid, pose in poses.items():
        add_pose(g, vid, pose)
    for vid, p in points.items():
        add_point(g, vid, p)
    for vid, line in lines.items():
        add_line(g, vid, line)
    for vid, d in gps.items():
        add_gp(g, vid, d)
    before = {k: v.copy() for k, v in g.snapshot().items()}
    for vid, pose in poses.items():
        got = g.poses[vid]
        assert isinstance(got, Pose)
        assert got.rotation.tobytes() == pose.rotation.tobytes()
        assert got.translation.tobytes() == pose.translation.tobytes()
        # read-only copies: no write reaches the graph through them
        assert not got.rotation.flags.writeable and not got.translation.flags.writeable
        assert not (np.shares_memory(got.rotation, g.R) or np.shares_memory(got.translation, g.t))
    # a point and a gp read as one row, a line as its (U, W) pair
    reads = [(g.points, {vid: (p,) for vid, p in points.items()}),
             (g.lines, {vid: (line.U, line.W) for vid, line in lines.items()}),
             (g.gps, {vid: (d,) for vid, d in gps.items()})]
    for view, added in reads:
        assert list(view) == list(added)
        for vid, rows in added.items():
            got = view[vid]
            got = got if isinstance(got, tuple) else (got,)
            assert len(got) == len(rows)
            for a, b in zip(got, rows):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
                a[...] = np.nan
    for name, ref in before.items():
        assert getattr(g, name).tobytes() == ref.tobytes(), name


def test_gp_must_be_unit():
    g = FactorGraph(K)
    with pytest.raises(ValueError):
        add_gp(g, 0, [1.0, 1.0, 0.0])


def test_total_cost_zero_at_ground_truth():
    rng = np.random.default_rng(5)
    g = FactorGraph(K)
    pose = se3_exp(rng.normal(0.0, 0.2, 6))
    add_pose(g, 0, pose)
    for i in range(20):
        p_c = np.array([rng.normal(0, 0.5), rng.normal(0, 0.5),
                        rng.uniform(2, 5)])
        p_w = to_camera(pose.inverse(), p_c)
        add_point(g, i, p_w)
        add_factor(g, PointFactor, 0, i, project_point(p_w, pose, K))
    assert total_cost(g, pack(g)) < 1e-12


def test_total_cost_huber_elbow_value():
    g = FactorGraph(K)
    add_pose(g, 0, IDENTITY)
    p = np.array([0.0, 0.0, 2.0])
    add_point(g, 0, p)
    obs = project_point(p, IDENTITY, K) + [10.0, 0.0]
    add_factor(g, PointFactor, 0, 0, obs)
    assert PointFactor.SIGMA == 1.0 and PointFactor.HUBER_DELTA == HUBER_2DOF
    # past the elbow: 2 delta |r| - delta^2 at |r| = 10
    expected = 2.0 * HUBER_2DOF * 10.0 - HUBER_2DOF**2
    assert abs(total_cost(g, pack(g)) - expected) < 1e-9


def test_behind_camera_factor_deactivated():
    # behind the camera, and in front of it but not beyond EPS_Z
    for depth in (-2.0, EPS_Z / 2.0):
        g = FactorGraph(K)
        add_pose(g, 0, IDENTITY)
        add_point(g, 0, np.array([0.0, 0.0, depth]))
        f = add_factor(g, PointFactor, 0, 0, np.array([320.0, 240.0]))
        assert total_cost(g, pack(g)) == 0.0  # only factor is deactivated
        assert cost_breakdown(g, pack(g)) == {}
        with pytest.raises(BehindCameraError):
            f.residual(g)
        index = ParameterIndex(g, [("pose", 0)])
        assert index.n_params == 3
        cost, system = _linearize(g, index, PackedFactors(g, index))
        assert cost == 0.0
        assert system.cc.shape == (0, 0) and system.ee.shape == (1, 3, 3)
        assert not system.ee.any() and not gradient(system).any()


def build_assembly_graph():
    """Three poses and all three factor kinds; one point factor behind its
    camera and one past the Huber elbow."""
    rng = np.random.default_rng(11)
    g = FactorGraph(K)
    add_pose(g, 0, IDENTITY)
    add_pose(g, 1, se3_exp([0.3, 0.05, -0.1, 0.02, -0.04, 0.03]))
    add_pose(g, 2, se3_exp([0.6, -0.05, 0.1, -0.03, 0.05, -0.02]))
    for i in range(6):
        p = rng.uniform([-1.0, -1.0, 3.0], [1.0, 1.0, 6.0])
        add_point(g, i, p)
        for t in range(3):
            obs = project_point(p, g.poses[t], K) + rng.normal(0.0, 2.0, 2)
            if (i, t) == (5, 2):
                obs = obs + [20.0, 0.0]  # past the elbow
            add_factor(g, PointFactor, t, i, obs)
    add_point(g, 6, np.array([0.2, 0.1, -2.0]))
    add_factor(g, PointFactor, 1, 6, np.array([300.0, 250.0]))  # behind
    gp = np.array([1.0, 0.1, 0.05])
    add_gp(g, 0, gp / np.linalg.norm(gp))
    for lid, anchor in enumerate(([0.0, -0.5, 4.0], [0.3, 0.6, 5.0])):
        line = line_through(anchor, anchor + gp + rng.normal(0.0, 0.02, 3))
        add_line(g, lid, oracle_plucker_to_orthonormal(line))
        for t in range(3):
            a, b = (project_point(closest_point_to_origin(line) + s * gp, g.poses[t], K)
                    for s in (-0.5, 0.5))
            seg = Segment2D(a + rng.normal(0.0, 1.0, 2), b + rng.normal(0.0, 1.0, 2), id=t)
            add_factor(g, LineFactor, t, lid, seg_row(seg))
            add_factor(g, VdAlignFactor, t, 0, seg_row(seg))
    return g


def test_linearize_assembles_weighted_normal_equations(monkeypatch):
    # a line noise other than 1 px, so every kind's weight differs from 1
    monkeypatch.setattr(LineFactor, "SIGMA", 1.5)
    g = build_assembly_graph()
    keys = ([("pose", 1), ("pose", 2), ("line", 0), ("line", 1), ("gp", 0)]
            + [("point", i) for i in sorted(g.points)])
    index, n = {}, 0
    for key in keys:
        index[key] = (n, DOF[key[0]])
        n += DOF[key[0]]
    H_ref, g_ref = np.zeros((n, n)), np.zeros(n)
    inactive = elbow = 0
    for f in g.factors:
        try:
            r = f.residual(g)
        except BehindCameraError:
            inactive += 1
            continue
        cls = f.table.cls
        info = 1.0 / cls.SIGMA**2
        s = np.sqrt(info * float(r @ r))
        w = 1.0 if s <= cls.HUBER_DELTA else cls.HUBER_DELTA / s
        elbow += s > cls.HUBER_DELTA
        J = numeric_jacobian(f, g)
        for ka in J:
            if ka not in index:
                continue
            sa, da = index[ka]
            g_ref[sa:sa + da] += w * info * (J[ka].T @ r)
            for kb in J:
                if kb in index:
                    sb, db = index[kb]
                    H_ref[sa:sa + da, sb:sb + db] += w * info * (J[ka].T @ J[kb])
    assert inactive == 1 and elbow >= 1
    layout = ParameterIndex(g, [("pose", 0)])
    assert layout.n_params == n
    cost, system = _linearize(g, layout, PackedFactors(g, layout))
    H, grad = dense_H(system), gradient(system)
    assert np.max(np.abs(H - H_ref)) < 1e-5 * np.max(np.abs(H_ref))
    assert np.max(np.abs(grad - g_ref)) < 1e-5 * np.max(np.abs(g_ref))
    total = total_cost(g, pack(g))
    assert abs(cost - total) <= 1e-12 * total
    breakdown = cost_breakdown(g, pack(g))
    assert set(breakdown) == {"point", "line", "vd_align"}
    assert abs(sum(breakdown.values()) - total) <= 1e-12 * total


# -- one residual pass per state, live columns only -----------------------------

def oracle_vd_align_kernel(R, G, B, lhat, K, jac):
    """The vd_align kernel as it was before the (pose, GP) pairs shared their
    terms: one row per factor, all eight Jacobian columns. Kept verbatim."""
    v_cam = mv(R, G)
    v_img = mv(K, v_cam)
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


def oracle_scatter(H, g, m, cols, w, J, r):
    """The scatter of `_linearize` as it was before it skipped structurally
    zero columns and broadcast the one-row kinds: every column of every
    kind through stacked matmul. Kept verbatim."""
    wJt = (w[:, None, None] * J).transpose(0, 2, 1)
    np.add.at(H.reshape(-1), (cols[:, :, None] * m + cols[:, None, :]).ravel(),
              (wJt @ J).ravel())
    np.add.at(g, cols.ravel(), (wJt @ r[:, :, None]).ravel())


def oracle_factor_jacobians(graph, e) -> np.ndarray:
    """The live Jacobian blocks of each factor of an evaluation as
    `_linearize` took them before the vd_align pairs summed their terms:
    vd_align's rows from `oracle_vd_align_kernel` (bit for bit the rows the
    pair-shared kernel returned then), the other kinds' from the thunk."""
    b = e.batch
    if b.cls is not VdAlignFactor:
        return e.jac()
    g = graph
    return oracle_vd_align_kernel(g.R[b.rows_a], g.G[b.rows_b], g.B[b.rows_b], b.consts["lhat"],
                                  gathered(g.intr.matrix(), len(b.rows_a)), True)[2][:, :, 3:]


def oracle_dense_linearize(graph, index, n_params, packed=None, absolute=False):
    """`_linearize` as it was before the Schur complement, with each
    vd_align factor's Jacobian row as it was before the pairs summed their
    terms (`oracle_factor_jacobians`): every batch scattered factor by
    factor into one dense (n_params + 1)^2 H, whose last row and column
    collect the fixed variables' terms. Kept verbatim otherwise, returning
    (cost, H, g). With `absolute`, H and g sum each term's magnitude
    instead: the scale of the rounding of any other order of the same sum."""
    packed = packed if packed is not None else PackedFactors(graph, index)
    m = n_params + 1  # row and column n_params collect the fixed variables' terms
    H = np.empty((m, m))
    H.fill(0.0)
    g = np.zeros(m)
    cost = 0.0
    for e in packed.evaluate(graph):
        b = e.batch
        cost += e.cost.sum()
        ka, kb = b.cls.variables
        cols = np.concatenate([index.table[ka][b.rows_a], index.table[kb][b.rows_b]],
                              axis=1)[:, b.cls.live]
        J = oracle_factor_jacobians(graph, e)
        # inactive factors add exact zeros: their Jacobians are finite
        w = np.where(e.active, e.weight * b.info, 0.0)
        if J.shape[1] == 1:
            wJ = w[:, None] * J[:, 0]
            HJ, gJ = wJ[:, :, None] * J[:, 0, None, :], wJ * e.r
        else:
            wJt = (w[:, None, None] * J).transpose(0, 2, 1)
            HJ, gJ = wJt @ J, wJt @ e.r[:, :, None]
        if absolute:
            HJ, gJ = np.abs(HJ), np.abs(gJ)
        np.add.at(H.reshape(-1), (cols[:, :, None] * m + cols[:, None, :]).ravel(),
                  HJ.ravel())
        np.add.at(g, cols.ravel(), gJ.ravel())
    H, g = H[:n_params, :n_params], g[:n_params]
    return float(cost), H, g


# per entry, relative to the magnitudes of the terms it sums, how far a sum
# with vd_align's terms taken per (pose, GP) pair may lie from the sum of its
# per-factor terms
PAIR_RTOL = 1e-12


def pair_tolerance(graph, index, packed=None) -> tuple:
    """Per entry of the dense (H, g) of `oracle_dense_linearize`: PAIR_RTOL
    times the magnitudes of the terms it sums where a vd_align term reaches
    it, else 0, which asks for the same bits. `_linearize` sums vd_align's
    terms per (pose, GP) pair before it adds them, so only those entries
    round differently."""
    n = index.n_params
    packed = packed if packed is not None else PackedFactors(graph, index)
    _, H_abs, g_abs = oracle_dense_linearize(graph, index, n, packed, absolute=True)
    H_reach, g_reach = np.zeros((n + 1, n + 1)), np.zeros(n + 1)
    for b in packed.batches:
        if b.cls is VdAlignFactor:
            ka, kb = b.cls.variables
            cols = np.concatenate([index.table[ka][b.consts["pose"]],
                                   index.table[kb][b.consts["gp"]]], axis=1)[:, b.cls.live]
            H_reach[cols[:, :, None], cols[:, None, :]] = 1.0
            g_reach[cols] = 1.0
    return PAIR_RTOL * H_reach[:n, :n] * H_abs, PAIR_RTOL * g_reach[:n] * g_abs


def gradient(system) -> np.ndarray:
    """The gradient of a `_NormalEquations` over all parameters: g_c, then g_e."""
    return np.concatenate([system.gc, system.gec[:, 0]])


def dense_H(system):
    """The dense H of a `_NormalEquations`, with H_ce the transpose of H_ec."""
    cc, ec, ee = system.cc, system.gec[:, 1:], system.ee
    nc, (n_e, n_k), d = len(cc), ec.shape, ee.shape[1]
    H = np.zeros((nc + n_e, nc + n_e))
    H[:nc, :nc], H[nc:, :n_k], H[:n_k, nc:] = cc, ec, ec.T
    for r, block in enumerate(ee):
        H[nc + d * r:nc + d * r + d, nc + d * r:nc + d * r + d] = block
    return H


def assert_holds_dense_entries(system, H, g, index, tol=None):
    """`system` holds the matching entries of the dense (H, g) bit for bit:
    H_cc, H_ec, the eliminated blocks and g; every entry it leaves out is
    zero (the eliminated rows against kept columns they do not couple with,
    one eliminated variable against another), and H's kept-eliminated block
    is H_ec transposed up to rounding. With `tol` (`pair_tolerance`), an
    entry whose bound is not 0 is held within it."""
    nc, n_k, d = index.n_reduced, index.n_coupled, DOF[index.eliminated]
    E = (index.n_params - nc) // d

    def pieces(H, g):
        blocks = [H[nc + d * r:nc + d * r + d, nc + d * r:nc + d * r + d] for r in range(E)]
        return H[:nc, :nc], H[nc:, :n_k], np.array(blocks).reshape(E, d, d), g

    rest = H[nc:, nc:].copy()
    for r in range(E):
        rest[d * r:d * r + d, d * r:d * r + d] = 0.0
    bounds = pieces(*tol) if tol is not None else [np.zeros_like(w) for w in pieces(H, g)]
    for got, want, bound in zip((system.cc, system.gec[:, 1:], system.ee, gradient(system)),
                                pieces(H, g), bounds):
        assert got.shape == want.shape
        got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
        exact = bound == 0.0
        assert got[exact].tobytes() == want[exact].tobytes()
        assert (np.abs(got - want) <= bound).all()
    assert not rest.any() and not H[nc:, n_k:nc].any() and not H[n_k:nc, nc:].any()
    ec = system.gec[:, 1:]
    assert np.max(np.abs(H[:n_k, nc:] - ec.T), initial=0.0) <= \
        1e-15 * np.max(np.abs(ec), initial=0.0)


def system_bytes(system) -> list:
    return [np.ascontiguousarray(a).tobytes()
            for a in (system.cc, system.gec, system.ee, system.gc)]


def build_shared_pair_graph(n_points=4):
    """Three poses and two GPs: 120 vd_align factors on the 6 (pose, GP)
    pairs, interleaved, plus `n_points` points with one point factor each."""
    rng = np.random.default_rng(31)
    g = FactorGraph(K)
    add_pose(g, 0, IDENTITY)
    add_pose(g, 1, se3_exp([0.3, 0.05, -0.1, 0.02, -0.04, 0.03]))
    add_pose(g, 2, se3_exp([0.6, -0.05, 0.1, -0.03, 0.05, -0.02]))
    gps = [np.array([1.0, 0.1, 0.05]), np.array([0.05, -0.2, 1.0])]
    for j, gp in enumerate(gps):
        add_gp(g, j, gp / np.linalg.norm(gp))
    for i in range(120):
        a = rng.uniform([50.0, 50.0], [590.0, 430.0])
        seg = np.concatenate([a, a + rng.normal(0.0, 40.0, 2)])
        add_factor(g, VdAlignFactor, i % 3, (i // 3) % 2, seg)
    for i in range(n_points):
        p = rng.uniform([-1.0, -1.0, 3.0], [1.0, 1.0, 6.0])
        add_point(g, i, p)
        add_factor(g, PointFactor, i % 3, i, project_point(p, g.poses[i % 3], K) + 1.0)
    return g


def gathered(k, n: int) -> np.ndarray:
    """`n` copies of the (3, 3) camera matrix `k` stacked, as the per-factor
    packing gathered them."""
    return np.array([k] * n)


def gp_graph(cfg):
    """The gp graph `run_pipeline(cfg, "gp")` optimizes."""
    frames, _, poses, lm = _map_scene(cfg)
    return build_graph(poses, map_primitives(frames, poses, cfg, lm), cfg.intrinsics)


def structured_gp_graph(seed=1):
    return gp_graph(structured(seed))


def corridor_gp_graph():
    return gp_graph(default_corridor())


def test_vd_align_pairs_equal_per_factor_oracle():
    g = build_shared_pair_graph()
    packed = pack(g)
    b = next(b for b in packed.batches if b.cls is VdAlignFactor)
    e = next(e for e in packed.evaluate(g) if e.batch is b)
    assert len(b.rows_a) == 120 and len(b.consts["pose"]) == 6  # 20 factors per pair
    # the one (3, 3) camera matrix gives the bits of per-factor copies of it
    r, active, J = oracle_vd_align_kernel(g.R[b.rows_a], g.G[b.rows_b], g.B[b.rows_b],
                                          b.consts["lhat"], gathered(K.matrix(), 120), True)
    assert e.r.tobytes() == r.tobytes()
    assert e.active.tobytes() == active.tobytes()
    assert not J[:, :, :3].any()  # the pose translation columns
    # one Jacobian block per pair; lhat_f^T A_p is factor f's row, up to the
    # order its products associate in
    assert e.jac().shape == (6, 3, 5)
    rows = factor_jacobians(e)
    assert rows.shape == (120, 1, 5)
    assert np.max(np.abs(rows - J[:, :, 3:])) <= 1e-15 * np.max(np.abs(J))


def test_one_camera_equals_gathered_camera_rows_bitwise():
    # the point and line kernels on the graph's one camera (scalars, one KL)
    # give the bits of the per-factor camera rows they were once fed
    g = corridor_gp_graph()
    kinds = set()
    for e in pack(g).evaluate(g):
        b, c = e.batch, e.batch.consts
        a, n = b.rows_a, len(b.rows_a)
        if b.cls is PointFactor:
            ref = graph_module._point_kernel(g.R[a], g.t[a], g.X[b.rows_b], c["obs"],
                                             np.tile(c["intr"], (n, 1)).T)
        elif b.cls is LineFactor:
            ref = graph_module._line_kernel(g.R[a], g.t[a], g.U[b.rows_b], g.W[b.rows_b],
                                            c["ends"], gathered(c["KL"], n))
        else:
            continue
        kinds.add(b.cls)
        assert e.r.tobytes() == ref[0].tobytes() and e.active.tobytes() == ref[1].tobytes()
        assert e.jac().tobytes() == ref[2]().tobytes()
    assert kinds == {PointFactor, LineFactor}


@pytest.mark.parametrize("build", [build_shared_pair_graph, build_assembly_graph])
def test_linearize_equals_all_column_scatter_bitwise(build):
    g = build()
    index = ParameterIndex(g, [("pose", 0)])
    n = index.n_params
    m = n + 1
    H_ref, g_ref = np.zeros((m, m)), np.zeros(m)
    packed = PackedFactors(g, index)
    for e in packed.evaluate(g):
        b = e.batch
        ka, kb = b.cls.variables
        cols = np.concatenate([index.table[ka][b.rows_a], index.table[kb][b.rows_b]], axis=1)
        J = np.zeros((len(cols), b.cls.dim, cols.shape[1]))
        J[:, :, b.cls.live] = oracle_factor_jacobians(g, e)
        w = np.where(e.active, e.weight * b.info, 0.0)
        oracle_scatter(H_ref, g_ref, m, cols, w, J, e.r)
    cost, system = _linearize(g, index, PackedFactors(g, index))
    assert_holds_dense_entries(system, H_ref[:n, :n], g_ref[:n], index, pair_tolerance(g, index))
    assert cost == total_cost(g, pack(g))


@pytest.mark.parametrize("build", [build_assembly_graph, structured_gp_graph])
def test_linearize_after_total_cost_equals_fresh_packing_bitwise(monkeypatch, build):
    g = build()
    index = ParameterIndex(g, [("pose", 0)])
    packed = PackedFactors(g, index)
    runs = counted_kernels(monkeypatch)
    cost = total_cost(g, packed)
    assert packed.held is not None and len(runs) == len(packed.batches)
    reused = _linearize(g, index, packed)
    assert packed.held is None and len(runs) == len(packed.batches)
    fresh = _linearize(g, index, PackedFactors(g, index))
    assert reused[0].hex() == fresh[0].hex() == cost.hex()
    assert system_bytes(reused[1]) == system_bytes(fresh[1])


def test_held_evaluation_is_only_used_at_its_own_state():
    g = build_assembly_graph()
    packed = pack(g)
    total_cost(g, packed)
    g.put_rows("point", [0], [g.X[0] + 0.1])  # new arrays: another state
    assert total_cost(g, packed) == total_cost(g, pack(g))
    assert cost_breakdown(g, packed) == cost_breakdown(g, pack(g))


# -- factor tables against the per-factor packing --------------------------------

def oracle_consts(cls, consts, rows_a, rows_b, k) -> dict:
    """Each kind's `_pack` as it was on a list of factor values (here their
    constant rows `consts`), with the graph's one camera `k` in place of
    each factor's."""
    if cls is PointFactor:
        return {"obs": np.array(consts, dtype=float),
                "intr": (k.fx, k.fy, k.cx, k.cy)}
    if cls is LineFactor:
        ends = np.array(consts, dtype=float).reshape(-1, 2, 2)
        return {"ends": np.concatenate([ends, np.ones((len(ends), 2, 1))], axis=2),
                "KL": k.line_projection_matrix()}
    # vd_align
    ends = np.array(consts, dtype=float)
    key = rows_a * (rows_b.max() + 1) + rows_b
    _, first, pair = np.unique(key, return_index=True, return_inverse=True)
    lhat = np.ascontiguousarray(lines_through(ends[:, :2], ends[:, 2:]))
    # each pair's factors in insertion order, pair by pair
    order = np.array(sorted(range(len(pair)), key=lambda i: (pair[i], i)), dtype=np.intp)
    starts = np.array([list(pair[order]).index(p) for p in range(len(first))], dtype=np.intp)
    return {"lhat": lhat, "pose": rows_a[first], "gp": rows_b[first], "K": k.matrix(),
            "pair": pair, "order": order, "starts": starts,
            "ll": np.array([np.concatenate([np.outer(lhat[i], lhat[i]).ravel(), lhat[i]])
                            for i in order])}


def oracle_packing(g, index) -> list:
    """The batches `PackedFactors` built from the factor list before the
    factor tables: grouped by kind, in `KINDS` order, with per-factor
    keys, row lookups and constants, from the records `factor_records` reads."""
    factors = factor_records(g)
    batches = []
    for cls in KINDS:
        members = [f for f in factors if f[0] is cls]
        if not members:
            continue
        ka, kb = cls.variables
        rows_a = np.array([g.rows[ka][a] for _, a, _, _ in members], dtype=np.intp)
        rows_b = np.array([g.rows[kb][b] for _, _, b, _ in members], dtype=np.intp)
        consts = oracle_consts(cls, [c for *_, c in members], rows_a, rows_b, g.intr)
        # vd_align's terms are per (pose, GP) pair
        a, b = (consts["pose"], consts["gp"]) if cls is VdAlignFactor else (rows_a, rows_b)
        cols = np.concatenate([index.table[ka][a], index.table[kb][b]], axis=1)[:, cls.live]
        batches.append(SimpleNamespace(
            cls=cls, rows_a=rows_a, rows_b=rows_b,
            at=graph_module._positions(cols, cls, index), consts=consts,
            info=1.0 / cls.SIGMA**2, delta=cls.HUBER_DELTA))
    return batches


def assert_batches_equal(batches, expected):
    """Packed batches equal, kind by kind, byte for byte: the variable rows,
    the scatter positions (whose gradient positions, the row bases, tell
    the parameter columns apart) and the constants."""
    assert [b.cls for b in batches] == [b.cls for b in expected]
    for b, ref in zip(batches, expected):
        arrays = [("rows_a", b.rows_a, ref.rows_a), ("rows_b", b.rows_b, ref.rows_b)]
        arrays += [("at", got, want) for got, want in zip(b.at, ref.at)]
        for name, got, want in arrays:
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert list(b.consts) == list(ref.consts)
        for name, want in ref.consts.items():
            got, want = np.asarray(b.consts[name]), np.asarray(want)
            assert got.shape == want.shape and got.dtype == want.dtype, name
            assert np.ascontiguousarray(got).tobytes() == want.tobytes(), name


@pytest.mark.parametrize("build", [build_assembly_graph, build_shared_pair_graph,
                                   corridor_gp_graph])
def test_packed_tables_equal_per_factor_packing_bitwise(build):
    g = build()
    index = ParameterIndex(g, [("pose", 0)])
    assert_batches_equal(PackedFactors(g, index).batches, oracle_packing(g, index))


@pytest.mark.parametrize("build", [build_assembly_graph, corridor_gp_graph])
def test_linearize_on_tables_equals_per_factor_packing_bitwise(build):
    # build_assembly_graph inserts the kinds interleaved (line, vd_align,
    # line, ...); the corridor gp graph has all three kinds
    g = build()
    index = ParameterIndex(g, [("pose", 0)])
    oracle = PackedFactors(g, index)
    oracle.batches = oracle_packing(g, index)
    ref = _linearize(g, index, oracle)
    out = _linearize(g, index, PackedFactors(g, index))
    assert out[0].hex() == ref[0].hex()
    assert system_bytes(out[1]) == system_bytes(ref[1])


@pytest.mark.parametrize("build", [build_assembly_graph, corridor_gp_graph])
def test_line_sign_does_not_change_its_factors(build):
    # the orthonormal form of (-n, -d), U with u1 and u2 negated, negates a
    # line factor's residual and its Jacobian together: the cost, the
    # normal equations and the LM run are those of the line as given
    g, neg = build(), build()
    assert len(g.tables[LineFactor])
    U = g.U.copy()
    U[:, :, :2] *= -1.0
    neg.add_variables("line", list(g.lines), U, g.W)
    assert total_cost(neg, pack(neg)).hex() == total_cost(g, pack(g)).hex()
    index = ParameterIndex(g, [("pose", 0)])
    (cost, system), (cost_neg, system_neg) = (_linearize(h, index, PackedFactors(h, index)) for h in (g, neg))
    assert cost_neg.hex() == cost.hex()
    assert system_neg.buffer.tobytes() == system.buffer.tobytes()
    report, report_neg = (optimize(h, [("pose", 0)]) for h in (g, neg))
    assert report_neg == report
    for name in ("R", "t", "X", "W", "G"):
        assert getattr(neg, name).tobytes() == getattr(g, name).tobytes(), name
    U = g.U.copy()
    U[:, :, :2] *= -1.0
    assert neg.U.tobytes() == U.tobytes()


# -- the Schur complement step against the dense solve ---------------------------

@functools.cache
def pipeline_graph(scene, seed: int, mode: str):
    """The graph `run_pipeline(scene(seed), mode)` optimizes, at its initial
    state. Shared: linearize it, never optimize it."""
    cfg = scene(seed)
    frames, _, poses, lm = _map_scene(cfg)
    if mode == "gp":
        lm = map_primitives(frames, poses, cfg, lm)
    return build_graph(poses, lm, cfg.intrinsics)


PIPELINE_SCENES = [(structured, s, mode) for s in range(3) for mode in ("lp", "gp")] + [
    (default_corridor, 0, "lp"), (default_corridor, 0, "gp")]
PIPELINE_IDS = [f"{scene.__name__}{seed}-{mode}" for scene, seed, mode in PIPELINE_SCENES]
LAMBDAS = (1e-12, LAMBDA_INIT, 1e6)
# fixed sets for the assembly graph: a later pose, a point and a line; a GP
# and every point (the poses eliminated, no point block at all); every pose
# (the points eliminated, coupled to no column)
FIXED = [[("pose", 0)], [("pose", 1), ("point", 2), ("line", 0)],
         [("pose", 0), ("gp", 0)] + [("point", i) for i in range(7)],
         [("pose", t) for t in range(3)]]


def dense_step(system, lam):
    """The LM step as `optimize` took it before the Schur complement: the
    dense H with its undamped diagonal damped to `undamped + lam *
    max(undamped, 1e-12)`, and one `np.linalg.solve` of it against -g."""
    H = dense_H(system)
    undamped = np.concatenate([system.undamped[0], system.undamped[1].ravel()])
    H[np.diag_indices(len(H))] = undamped + lam * np.clip(undamped, 1e-12, None)
    return np.linalg.solve(H, -gradient(system))


def assert_step_matches_dense_solve(system, lam, forward=True):
    """`system.step(lam)` leaves as small a residual in the damped dense
    system as its `np.linalg.solve` (normwise backward error below 1e-14)
    and, with `forward`, is within 1e-9 of that solve's step. Leave out
    `forward` only for a system that damping alone keeps from singular
    (the free scale gauge at lam = 1e-12: condition numbers near 1e30)."""
    ref = dense_step(system, lam)
    delta = system.step(lam)
    H, g = dense_H(system), gradient(system)  # damped as `step` left it
    assert delta.shape == ref.shape
    for d in (ref, delta):
        residual = np.max(np.abs(H @ d + g), initial=0.0)
        scale = np.max(np.abs(H).sum(axis=1), initial=0.0) * np.max(np.abs(d), initial=0.0)
        assert residual <= 1e-14 * (scale + np.max(np.abs(g), initial=0.0))
    if forward:
        assert np.max(np.abs(delta - ref), initial=0.0) <= \
            1e-9 * np.max(np.abs(ref), initial=0.0)


def system_of(H, g, nc: int, n_k: int) -> _NormalEquations:
    """A `_NormalEquations` holding the pieces of the dense (H, g), written
    into its `_layout` buffer as `_linearize` fills it: the first `nc`
    columns kept and the rest eliminated as points, coupled to the first
    `n_k`. The entries the system leaves out are not read; the collecting
    rows and columns are zero."""
    n = len(g)
    index = SimpleNamespace(n_reduced=nc, n_coupled=n_k, n_params=n, eliminated="point")
    system = _NormalEquations(index)
    system.buffer.fill(0.0)
    system.cc[...], system.gc[...] = H[:nc, :nc], g[:nc]
    system.gec[:, 0], system.gec[:, 1:] = g[nc:], H[nc:, :n_k]
    for r, block in zip(range(nc, n, 3), system.ee):
        block[...] = H[r:r + 3, r:r + 3]
    return system


def random_system(rng, n_poses: int, n_other: int, n_points: int, dead=()):
    """A `_NormalEquations` J^T J and a random g of random rows: three on each
    live point's coordinates, two for each of two or three poses that see
    it (its coordinates and the pose's six columns), and rows on five random
    reduced columns (n_other of them stand for lines and GPs). A `dead`
    point has no rows: a zero block, and zero gradient."""
    nc = 6 * n_poses + n_other
    n = nc + 3 * n_points
    blocks = []
    for r in set(range(n_points)) - set(dead):
        J = np.zeros((3, n))
        J[:, nc + 3 * r:nc + 3 * r + 3] = rng.normal(size=(3, 3))
        blocks.append(J)
        for t in rng.choice(n_poses, min(n_poses, int(rng.integers(2, 4))), replace=False):
            J = np.zeros((2, n))
            J[:, 6 * t:6 * t + 6] = rng.normal(size=(2, 6))
            J[:, nc + 3 * r:nc + 3 * r + 3] = rng.normal(size=(2, 3))
            blocks.append(J)
    for _ in range(nc + 5 if nc else 0):
        J = np.zeros((1, n))
        J[0, rng.choice(nc, min(nc, 5), replace=False)] = rng.normal(size=min(nc, 5))
        blocks.append(J)
    J = np.vstack(blocks)
    H = J.T @ J
    g = rng.normal(size=n)
    for r in dead:
        g[nc + 3 * r:nc + 3 * r + 3] = 0.0
    system = system_of(H, g, nc, 6 * n_poses)
    system.update()
    return system


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("shape", [(4, 7, 6, (1, 4)), (3, 5, 0, ()), (0, 0, 4, (2,)),
                                   (5, 0, 9, (0, 8))],
                         ids=["dead-points", "no-points", "points-only", "poses-and-points"])
def test_schur_step_matches_dense_solve_on_random_systems(shape, lam):
    rng = np.random.default_rng(41)
    for _ in range(5):
        system = random_system(rng, *shape)
        if shape[3]:
            assert not system.ee[list(shape[3])].any()
        assert_step_matches_dense_solve(system, lam)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("fixed", FIXED, ids=["pose0", "pose-point-line", "no-free-point",
                                          "no-free-pose"])
def test_schur_step_with_fixed_variables_matches_dense_solve(fixed, lam):
    g = build_assembly_graph()
    index = ParameterIndex(g, fixed)
    cost_ref, H, g_ref = oracle_dense_linearize(g, index, index.n_params)
    cost, system = _linearize(g, index, PackedFactors(g, index))
    assert cost.hex() == cost_ref.hex()
    assert_holds_dense_entries(system, H, g_ref, index, pair_tolerance(g, index))
    assert len(system.ee) == len(index.rows[index.eliminated])
    # the scale gauge is free, and a point is dead (block lam * 1e-12 * I)
    assert_step_matches_dense_solve(system, lam, forward=lam >= LAMBDA_INIT)


@pytest.mark.parametrize("scene, seed, mode", PIPELINE_SCENES, ids=PIPELINE_IDS)
def test_linearize_holds_dense_scatter_entries_bitwise(scene, seed, mode):
    g = pipeline_graph(scene, seed, mode)
    index = ParameterIndex(g, [("pose", 0)])
    cost_ref, H, g_ref = oracle_dense_linearize(g, index, index.n_params)
    cost, system = _linearize(g, index, PackedFactors(g, index))
    assert cost.hex() == cost_ref.hex()
    assert_holds_dense_entries(system, H, g_ref, index, pair_tolerance(g, index))


def with_inactive_point_factor(g):
    """`g` plus a point 1 m behind camera 0 and one point factor of it in
    camera 0: that factor is inactive, and its point has no other."""
    R, t = g.take_rows("pose", g.rows["pose"][0])
    vid = max(g.rows["point"]) + 1
    g.add_variables("point", [vid], [R.T @ (np.array([0.1, -0.2, -1.0]) - t)])
    g.add_factors(PointFactor, [0], [vid], [[320.0, 240.0]])
    return g


# the corridor graph eliminates its points, the structured one its poses;
# a fixed point is eliminated in the first and kept in the second
CHUNKED_SCENES = [(default_corridor, 0, "point"), (structured, 0, "pose")]


@pytest.mark.parametrize("scene, seed, eliminated", CHUNKED_SCENES,
                         ids=[f"{scene.__name__}{seed}-gp" for scene, seed, _ in CHUNKED_SCENES])
def test_chunked_scatter_holds_dense_entries_bitwise(scene, seed, eliminated):
    # the point kind spans several chunks of `_NormalEquations.add`, with a
    # fixed variable besides the anchor and an inactive factor added (the
    # structured graph starts with inactive ones of its own): every entry
    # is the oracle's sum, bit for bit where no vd_align term reaches it
    g = with_inactive_point_factor(gp_graph(scene(seed)))
    index = ParameterIndex(g, [("pose", 0), ("point", 1)])
    assert index.eliminated == eliminated
    packed = PackedFactors(g, index)
    (point,) = [e for e in packed.evaluate(g) if e.batch.cls is PointFactor]
    assert len(point.r) > 2 * (BLOCK_ELEMS // 9**2)
    assert not point.active[-1]
    cost_ref, H, g_ref = oracle_dense_linearize(g, index, index.n_params, packed)
    cost, system = _linearize(g, index, packed)
    assert cost.hex() == cost_ref.hex()
    assert_holds_dense_entries(system, H, g_ref, index, pair_tolerance(g, index, packed))


def test_optimize_scatters_through_bounded_memory():
    # no packed batch holds its terms' J^T J, int64 positions (N k^2
    # entries) or int64 parameter columns (N k); the step reads its pieces
    # in place from the scatter buffer; and one optimize call on the
    # corridor gp graph, the largest tier-1 graph, stays below 4 MiB of
    # traced allocations at its peak
    g = corridor_gp_graph()
    index = ParameterIndex(g, [("pose", 0)])
    for b in PackedFactors(g, index).batches:
        n, k = b.at[1].shape
        arrays = [*vars(b).values(), *b.at, *b.consts.values()]
        held = [a for a in arrays if isinstance(a, np.ndarray) and a.size == n * k * k]
        assert len(held) == 1 and held[0] is b.at[0]
        assert b.at[0].dtype == b.at[1].dtype == np.int32
        assert not [a for a in arrays if isinstance(a, np.ndarray) and a.shape == (n, k)
                    and a.dtype == np.int64]
    _, system = _linearize(g, index, PackedFactors(g, index))
    for view in (system.gec, system.cc, system.ee, system.gc, system.gec[:, 0]):
        assert np.shares_memory(view, system.buffer)
    tracemalloc.start()
    try:
        optimize(g, [("pose", 0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.0 * 2**20


GP_SCENES = [(scene, seed) for scene, seed, mode in PIPELINE_SCENES if mode == "gp"]


@pytest.mark.parametrize("scene, seed", GP_SCENES,
                         ids=[f"{scene.__name__}{seed}" for scene, seed in GP_SCENES])
def test_vd_align_pair_terms_equal_per_factor_sums(scene, seed):
    # the vd_align kind alone, its terms summed per (pose, GP) pair, against
    # its per-factor terms summed factor by factor: H_cc, H_ec and g (it
    # reaches no point), each entry within PAIR_RTOL of its terms' magnitudes
    g = pipeline_graph(scene, seed, "gp")
    index = ParameterIndex(g, [("pose", 0)])
    packed = PackedFactors(g, index)
    packed.batches = [b for b in packed.batches if b.cls is VdAlignFactor]
    (b,) = packed.batches
    assert 10 * len(b.consts["pose"]) < len(b.rows_a)  # ~12 factors per pair
    cost_ref, H, g_ref = oracle_dense_linearize(g, index, index.n_params, packed)
    cost, system = _linearize(g, index, packed)
    assert cost.hex() == cost_ref.hex()
    H_tol, g_tol = pair_tolerance(g, index, packed)
    assert_holds_dense_entries(system, H, g_ref, index, (H_tol, g_tol))
    assert not dense_H(system)[index.slices["point"]].any()
    # the pair sums round differently: the bound is what holds them
    nc = index.n_reduced
    assert system.cc.tobytes() != np.ascontiguousarray(H[:nc, :nc]).tobytes()


# the structured and nonoverlap graphs have more pose than point unknowns
# (114 against 57-69, 294 against 117-138), the corridor's fewer (114
# against 456-507)
STEP_DENSE_SCENES = PIPELINE_SCENES + [(nonoverlap, 0, "lp"), (nonoverlap, 0, "gp")]


@pytest.mark.parametrize("scene, seed, mode", STEP_DENSE_SCENES,
                         ids=PIPELINE_IDS + ["nonoverlap0-lp", "nonoverlap0-gp"])
def test_schur_step_matches_dense_solve_on_pipeline_systems(scene, seed, mode):
    g = pipeline_graph(scene, seed, mode)
    index = ParameterIndex(g, [("pose", 0)])
    assert index.eliminated == ("point" if scene is default_corridor else "pose")
    for lam in LAMBDAS:  # the scale gauge is free: see `assert_step_matches_dense_solve`
        _, system = _linearize(g, index, PackedFactors(g, index))
        assert_step_matches_dense_solve(system, lam, forward=lam >= LAMBDA_INIT)


def test_schur_step_raises_on_a_singular_point_block():
    # a rank-2 point block, damped too little to change its diagonal
    H = np.eye(9)
    H[6:, 6:] = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    system = system_of(H, np.ones(9), 6, 6)
    system.update()
    with pytest.raises(np.linalg.LinAlgError):
        system.step(1e-20)
    # damped enough, it inverts
    ref = dense_step(system, LAMBDA_INIT)
    assert np.max(np.abs(system.step(LAMBDA_INIT) - ref)) <= 1e-9 * np.max(np.abs(ref))


def oracle_step(system, lam):
    """`_NormalEquations.step` as it was before it reused its buffers: new
    arrays for [g_e, H_ec], M^-1 times it, the reduced system and its
    H_ce M^-1 [g_e, H_ec] on every trial. Kept verbatim but for the block
    size b, 3 when it eliminated only points, and the views it reads H_ec
    and g through."""
    for d, u in zip(system.diagonals, system.undamped):
        d[...] = u + lam * np.clip(u, 1e-12, None)
    cc, pc, g = system.cc, system.gec[:, 1:], gradient(system)
    nc, (n_pt, n6), b = len(cc), pc.shape, system.ee.shape[1]
    M_inv = np.linalg.inv(system.ee)
    # M^-1 [g_p, H_pc], and [g_c, H_cc] less H_cp times it on the pose rows
    W = M_inv @ np.column_stack([g[nc:], pc]).reshape(-1, b, n6 + 1)
    W = W.reshape(n_pt, n6 + 1)
    S = np.column_stack([g[:nc], cc])
    S[:n6, :n6 + 1] -= pc.T @ W
    delta = np.linalg.solve(S[:, 1:], -S[:, 0])
    return np.concatenate([delta, -(W[:, 0] + W[:, 1:] @ delta[:n6])])


# poses eliminated on the structured graphs; points on the corridor's, which
# step as before the elimination was chosen
STEP_SCENES = [(structured, 0, "gp"), (structured, 1, "lp"), (default_corridor, 0, "gp"),
               (default_corridor, 0, "lp")]


@pytest.mark.parametrize("scene, seed, mode", STEP_SCENES,
                         ids=[f"{scene.__name__}{seed}-{mode}" for scene, seed, mode in STEP_SCENES])
def test_step_in_reused_buffers_equals_per_trial_formula_bitwise(monkeypatch, scene, seed, mode):
    g = pipeline_graph(scene, seed, mode)
    index = ParameterIndex(g, [("pose", 0)])
    assert index.eliminated == ("point" if scene is default_corridor else "pose")
    _, system = _linearize(g, index, PackedFactors(g, index))
    _, ref = _linearize(g, index, PackedFactors(g, index))
    assert system_bytes(system) == system_bytes(ref)
    # the first trial fails in the reduced solve, after every buffer is
    # written; LM retries at LAMBDA_SCALE times the damping
    solve = np.linalg.solve

    def failing_once(*args):
        monkeypatch.setattr(np.linalg, "solve", solve)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", failing_once)
    with pytest.raises(np.linalg.LinAlgError):
        system.step(LAMBDA_INIT)
    lams = [LAMBDA_INIT * LAMBDA_SCALE, 1e-12, LAMBDA_INIT * LAMBDA_SCALE, 1e6]
    steps = [system.step(lam) for lam in lams]
    for lam, delta in zip(lams, steps):
        assert delta.tobytes() == oracle_step(ref, lam).tobytes()
    assert steps[0].tobytes() == steps[2].tobytes()
    # refilled at another state, the same system steps as a new one does
    snap = g.snapshot()
    try:
        for kind, cols in index.slices.items():
            rows = index.rows[kind]
            d = steps[0][cols].reshape(len(rows), DOF[kind])
            g.put_rows(kind, rows, retract(kind, g.take_rows(kind, rows), d))
        _, refilled = _linearize(g, index, PackedFactors(g, index), system)
        _, fresh = _linearize(g, index, PackedFactors(g, index))
    finally:
        g.restore(snap)
    assert refilled is system and system_bytes(refilled) == system_bytes(fresh)
    for lam in (LAMBDA_INIT, 1e6, LAMBDA_INIT):
        assert refilled.step(lam).tobytes() == oracle_step(fresh, lam).tobytes()


def test_optimize_with_reused_buffers_equals_per_trial_formula_bitwise(monkeypatch):
    # every trial of a real descent, rejected ones among them: the same
    # steps, so the same report and end state
    g, ref = structured_gp_graph(), structured_gp_graph()
    report = optimize(g, [("pose", 0)])
    monkeypatch.setattr(_NormalEquations, "step", oracle_step)
    report_ref = optimize(ref, [("pose", 0)])
    assert report.to_json() == report_ref.to_json() and report.iterations > 5
    for name, a in g.snapshot().items():
        assert a.tobytes() == getattr(ref, name).tobytes(), name


def test_optimize_raises_lambda_when_a_point_block_is_singular(monkeypatch):
    # the first trial's point blocks do not invert: LM retries at LAMBDA_SCALE
    # times the damping without a solve, as it did when the dense H was singular
    lams, solved_at = [], []
    step, inv, solve = _NormalEquations.step, np.linalg.inv, np.linalg.solve

    def logged_step(self, lam):
        lams.append(lam)
        return step(self, lam)

    def failing_once(a):
        if len(lams) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    def logged_solve(*args):
        solved_at.append(lams[-1])
        return solve(*args)

    monkeypatch.setattr(_NormalEquations, "step", logged_step)
    monkeypatch.setattr(np.linalg, "inv", failing_once)
    monkeypatch.setattr(np.linalg, "solve", logged_solve)
    report = optimize(build_assembly_graph(), [("pose", 0)])
    assert lams[:2] == [LAMBDA_INIT, LAMBDA_INIT * LAMBDA_SCALE]
    assert solved_at[0] == lams[1] and len(solved_at) == len(lams) - 1
    assert report.converged and report.final_cost < report.initial_cost


# -- which kind the Schur step eliminates -----------------------------------------

def test_poses_are_eliminated_only_when_they_have_more_unknowns():
    # two free poses (12 unknowns) against four free points (12): a tie keeps
    # the points; one point fewer, or no point, and the poses go
    g = build_shared_pair_graph()
    for fixed, kind in [([], "point"), ([("point", 0)], "pose"),
                        ([("point", i) for i in range(4)], "pose"),
                        ([("pose", 1), ("pose", 2)], "point")]:
        index = ParameterIndex(g, [("pose", 0)] + fixed)
        assert index.eliminated == kind
        kept = [k for k in DOF if k != kind]
        assert [index.slices[k].start for k in kept + [kind]] == sorted(
            index.slices[k].start for k in DOF)
        assert index.n_reduced == index.slices[kind].start
        assert index.n_coupled == (index.n_reduced if kind == "pose"
                                   else index.slices["pose"].stop)


def test_schur_step_eliminates_the_poses_of_a_graph_without_points():
    g = build_shared_pair_graph(n_points=0)
    index = ParameterIndex(g, [("pose", 0)])
    assert index.eliminated == "pose" and index.n_coupled == index.n_reduced
    cost, system = _linearize(g, index, PackedFactors(g, index))
    assert system.ee.shape == (2, 6, 6) and system.gec.shape == (12, index.n_reduced + 1)
    cost_ref, H, g_ref = oracle_dense_linearize(g, index, index.n_params)
    assert cost.hex() == cost_ref.hex()
    assert_holds_dense_entries(system, H, g_ref, index, pair_tolerance(g, index))
    # vd_align does not see the pose translations, so with no point only the
    # damping holds them: the backward error is checked, not the forward one
    for lam in LAMBDAS:
        assert_step_matches_dense_solve(system, lam, forward=False)
    report = optimize(g, [("pose", 0)])
    assert report.iterations > 1 and report.final_cost < report.initial_cost


@pytest.mark.parametrize("scene, seed, kind", [(structured, 1, "pose"),
                                               (default_corridor, 1, "point")],
                         ids=["pose", "point"])
def test_optimize_solves_one_reduced_system_per_trial(monkeypatch, scene, seed, kind):
    # one solve per trial, of the reduced system: no dense solve of the full one
    g = gp_graph(scene(seed))
    index = ParameterIndex(g, [("pose", 0)])
    assert index.eliminated == kind
    shapes, trials = [], []
    solve, step = np.linalg.solve, _NormalEquations.step

    def logged_solve(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    def logged_step(self, lam):
        trials.append(lam)
        return step(self, lam)

    monkeypatch.setattr(np.linalg, "solve", logged_solve)
    monkeypatch.setattr(_NormalEquations, "step", logged_step)
    report = optimize(g, [("pose", 0)])
    nc = index.n_reduced
    assert 0 < nc < index.n_params and report.iterations > 1
    assert shapes == [(nc, nc)] * len(trials)


def test_factors_read_as_a_sequence_of_row_views():
    # build_assembly_graph adds each line's line and vd_align factors
    # interleaved; they read back table by table in `KINDS` order, each as
    # (table, row) of its kind's table
    g = build_assembly_graph()
    factors = g.factors
    assert len(factors) == 6 * 3 + 1 + 2 * 6
    assert [f.kind for f in factors] == ["point"] * 19 + ["line"] * 6 + ["vd_align"] * 6
    assert [(f.table, f.row) for f in factors] == \
        [(g.tables[cls], i) for cls in KINDS for i in range(len(g.tables[cls]))]
    records = factor_records(g)
    assert [a for cls, a, _, _ in records if cls is LineFactor] == [0, 1, 2] * 2
    assert records[-1][:3] == (VdAlignFactor, 2, 0)
    assert (factors[-1].table, factors[-1].row) == (g.tables[VdAlignFactor], 5)
    assert (factors[-31].table, factors[-31].row) == (g.tables[PointFactor], 0)
    for i in (len(factors), -len(factors) - 1):
        with pytest.raises(IndexError):
            factors[i]


def test_factor_rows_read_back_as_added():
    # each row holds the ids and the constant row it was added with, and no
    # camera: the graph holds the one camera
    g = build_shared_pair_graph()
    assert g.intr is K
    records = factor_records(g)
    aligns = [r for r in records if r[0] is VdAlignFactor]
    assert [(a, b) for _, a, b, _ in aligns] == [(i % 3, (i // 3) % 2) for i in range(120)]
    points = [r for r in records if r[0] is PointFactor]
    assert [(a, b) for _, a, b, _ in points] == [(i % 3, i) for i in range(4)]


def graph_with_inactive_factors():
    """Two poses and all three factor kinds, with a point behind both
    cameras and a line whose image line is degenerate in camera 0."""
    g = FactorGraph(K)
    add_pose(g, 0, IDENTITY)
    add_pose(g, 1, se3_exp([0.2, 0.0, 0.0, 0.0, 0.05, 0.0]))
    for i, p in enumerate(([0.0, 0.0, 2.0], [0.3, -0.2, -1.5], [0.1, 0.2, 4.0])):
        add_point(g, i, np.array(p))
        for t in (0, 1):
            add_factor(g, PointFactor, t, i, np.array([320.0 + 7.0 * i, 240.0 - 3.0 * t]))
    # a line through the camera 0 centre projects to a point there
    add_line(g, 0, oracle_plucker_to_orthonormal(line_through([0.0, 0.0, 0.0], [0.2, 0.1, 3.0])))
    add_line(g, 1, oracle_plucker_to_orthonormal(line_through([-1.0, 0.5, 4.0], [1.0, 0.5, 4.0])))
    add_gp(g, 0, np.array([1.0, 0.0, 0.0]))
    for t in (0, 1):
        for lid in (0, 1):
            add_factor(g, LineFactor, t, lid, np.array([100.0, 300.0, 500.0, 310.0]))
        add_factor(g, VdAlignFactor, t, 0, np.array([100.0, 300.0, 500.0, 310.0]))
    return g


@pytest.mark.parametrize("build", [corridor_gp_graph, graph_with_inactive_factors])
def test_factor_rows_read_counts_and_residuals_of_the_packed_evaluation(build):
    # what `perfbench/workloads.py:graph_sizes` reads off `g.factors`: each
    # factor's kind, their count and each one's `residual`, which raises the
    # kind's error exactly where the packed evaluation marks it inactive
    g = build()
    counts = {cls.kind: 0 for cls in KINDS}
    for f in g.factors:
        counts[f.kind] += 1
    assert list(counts.items()) == [(cls.kind, len(g.tables[cls])) for cls in KINDS]
    assert len(g.factors) == sum(counts.values())
    factors = iter(g.factors)
    inactive = 0
    for e in pack(g).evaluate(g):
        for r, active in zip(e.r, e.active.tolist()):
            f = next(factors)
            assert f.kind == e.batch.cls.kind
            if active:
                assert f.residual(g).tobytes() == r.tobytes()
            else:
                inactive += 1
                with pytest.raises(e.batch.cls.inactive_error):
                    f.residual(g)
    assert next(factors, None) is None
    if build is graph_with_inactive_factors:
        assert inactive == 3  # one point seen from both cameras, one line from camera 0


def with_variables_of(g):
    """A graph of `g`'s camera holding its variables and no factor."""
    out = FactorGraph(g.intr)
    out.add_variables("pose", list(g.poses), g.R, g.t)
    out.add_variables("point", list(g.points), g.X)
    out.add_variables("line", list(g.lines), g.U, g.W)
    out.add_variables("gp", list(g.gps), g.G)
    return out


def test_block_add_equals_one_factor_at_a_time():
    g = build_assembly_graph()
    block = with_variables_of(g)
    # one block per kind, added in the reverse of `KINDS` order
    for cls in reversed(KINDS):
        fs = [f for f in factor_records(g) if f[0] is cls]
        block.add_factors(cls, [a for _, a, _, _ in fs], [b for _, _, b, _ in fs],
                          [c for *_, c in fs])
    # the kinds in `KINDS` order, each kind's factors in order
    index = ParameterIndex(block, [("pose", 0)])
    assert_batches_equal(pack(block).batches, pack(g).batches)
    assert_batches_equal(pack(block).batches, oracle_packing(block, index))
    assert total_cost(block, pack(block)) == total_cost(g, pack(g))


def test_kinds_are_read_packed_and_summed_in_kinds_order():
    # the assembly graph's factors added one at a time, vd_align first and
    # then the other kinds round-robin: they read, pack, break down and linearize
    # in `KINDS` order, each kind's factors in insertion order
    g = build_assembly_graph()
    mixed = with_variables_of(g)
    by_kind = [[f for f in factor_records(g) if f[0] is cls] for cls in reversed(KINDS)]
    order = by_kind[0] + [f for group in itertools.zip_longest(*by_kind[1:])
                          for f in group if f is not None]
    assert [f[0].kind for f in order[:8]] == ["vd_align"] * 6 + ["line", "point"]
    for f in order:
        add_factor(mixed, *f)
    assert [f.kind for f in mixed.factors] == [f.kind for f in g.factors]
    assert [f[:3] for f in factor_records(mixed)] == [f[:3] for f in factor_records(g)]
    assert [b.cls for b in pack(mixed).batches] == list(KINDS)
    assert list(cost_breakdown(mixed, pack(mixed))) == [cls.kind for cls in KINDS]
    assert cost_breakdown(mixed, pack(mixed)) == cost_breakdown(g, pack(g))
    # the dense scatter sums in the packing's order, `KINDS` order
    index = ParameterIndex(mixed, [("pose", 0)])
    cost_ref, H, g_ref = oracle_dense_linearize(mixed, index, index.n_params)
    cost, system = _linearize(mixed, index, PackedFactors(mixed, index))
    assert cost.hex() == cost_ref.hex()
    assert_holds_dense_entries(system, H, g_ref, index, pair_tolerance(mixed, index))
    assert system_bytes(system) == system_bytes(_linearize(g, index, PackedFactors(g, index))[1])


# -- optimizer -----------------------------------------------------------------

def test_optimize_requires_gauge():
    g = FactorGraph(K)
    add_pose(g, 0, IDENTITY)
    add_point(g, 0, np.array([0.0, 0.0, 2.0]))
    add_factor(g, PointFactor, 0, 0, np.array([320.0, 240.0]))
    with pytest.raises(ValueError, match="gauge unfixed"):
        optimize(g, [])
    # a key that names no variable of the graph, before anything is packed
    for fixed, first in (([("pose", 99)], "('pose', 99)"),
                         ([("camera", 0)], "('camera', 0)"),
                         ([("pose", 0), ("point", 1), ("pose", 2)], "('point', 1)")):
        with pytest.raises(ValueError, match=re.escape(f"fixed key {first} is not a variable")):
            optimize(g, fixed=fixed)
    assert g.X.tolist() == [[0.0, 0.0, 2.0]] and g.t.tolist() == [[0.0, 0.0, 0.0]]


def test_optimize_stationary_at_ground_truth():
    rng = np.random.default_rng(6)
    g = FactorGraph(K)
    add_pose(g, 0, IDENTITY)
    add_pose(g, 1, Pose.from_world_camera(np.eye(3), [0.5, 0.0, 0.0]))
    for i in range(15):
        p = rng.uniform([-1, -1, 2], [1, 1, 5])
        add_point(g, i, p)
        for t in (0, 1):
            add_factor(g, PointFactor, t, i, project_point(p, g.poses[t], K))
    report = optimize(g, fixed=[("pose", 0), ("pose", 1)])
    assert report.converged
    assert report.iterations <= 2
    assert report.final_cost < 1e-18


def perturbed_pose_graph():
    """One pose, 1 degree and 5 cm off the identity, seeing 50 exact points;
    returns the graph and the keys of the points, to be fixed."""
    rng = np.random.default_rng(7)
    g = FactorGraph(K)
    points = {}
    for i in range(50):
        points[i] = rng.uniform([-1.5, -1.5, 2.0], [1.5, 1.5, 6.0])
    perturbed = se3_exp(np.concatenate([
        rng.normal(0.0, 0.05, 3), rng.normal(0.0, np.radians(1.0), 3)
    ])).compose(IDENTITY)
    add_pose(g, 0, perturbed)
    for i, p in points.items():
        add_point(g, i, p)
        add_factor(g, PointFactor, 0, i, project_point(p, IDENTITY, K))
    return g, [("point", i) for i in points]


def test_optimize_recovers_perturbed_pose():
    g, fixed = perturbed_pose_graph()
    report = optimize(g, fixed)
    assert report.converged
    assert report.final_cost == total_cost(g, pack(g))
    pose = g.poses[0]
    assert np.linalg.norm(pose.translation - IDENTITY.translation) < 1e-6
    rot_err = np.arccos(np.clip((np.trace(pose.rotation) - 1.0) / 2.0, -1, 1))
    assert rot_err < 1e-6


def traced_optimize(monkeypatch, g, fixed):
    """Run `optimize` counting solves, `retract` calls per kind and restores,
    checking that each restore gives back the snapshot's arrays bit for bit;
    also returns the number of rejected trial steps, read off the costs."""
    counts = {"solve": 0, "restore": 0, "retract": []}
    events = []  # ("lin" | "trial", cost) in call order
    saved = []
    solve, retract, snapshot, restore = (np.linalg.solve, graph_module.retract,
                                         FactorGraph.snapshot, FactorGraph.restore)
    linearize, cost_of = graph_module._linearize, graph_module.total_cost

    def counting_solve(*args):
        counts["solve"] += 1
        return solve(*args)

    def counting_retract(kind, values, deltas):
        counts["retract"].append(kind)
        return retract(kind, values, deltas)

    def copying_snapshot(self):
        snap = snapshot(self)
        saved.append({name: a.copy() for name, a in snap.items()})
        return snap

    def checking_restore(self, snap):
        restore(self, snap)
        counts["restore"] += 1
        for name, a in saved[-1].items():
            assert getattr(self, name).tobytes() == a.tobytes(), name

    def logged_linearize(*args):
        out = linearize(*args)
        events.append(("lin", out[0]))
        return out

    def logged_cost(*args):
        out = cost_of(*args)
        events.append(("trial", out))
        return out

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(graph_module, "retract", counting_retract)
    monkeypatch.setattr(FactorGraph, "snapshot", copying_snapshot)
    monkeypatch.setattr(FactorGraph, "restore", checking_restore)
    monkeypatch.setattr(graph_module, "_linearize", logged_linearize)
    monkeypatch.setattr(graph_module, "total_cost", logged_cost)
    report = optimize(g, fixed)
    monkeypatch.undo()
    rejected, current = 0, None
    for what, cost in events:
        if what == "lin":
            current = cost
        elif cost >= current:
            rejected += 1
    return report, counts, rejected


def test_optimize_retracts_each_kind_once_per_trial(monkeypatch):
    g = build_assembly_graph()
    report, counts, _ = traced_optimize(monkeypatch, g, [("pose", 0)])
    assert report.iterations >= 2 and counts["solve"] >= 2
    assert counts["retract"] == ["pose", "point", "line", "gp"] * counts["solve"]


def test_optimize_restores_each_rejected_trial_exactly(monkeypatch):
    # with every tolerance zero, LM runs on past the optimum and stops only
    # when lambda overflows after rejected trials (or at MAX_ITERS)
    monkeypatch.setattr(graph_module, "REL_TOL", 0.0)
    monkeypatch.setattr(graph_module, "ABS_TOL", 0.0)
    g, fixed = perturbed_pose_graph()
    report, counts, rejected = traced_optimize(monkeypatch, g, fixed)
    assert report.final_cost < 1e-18
    assert report.final_cost == total_cost(g, pack(g))
    assert len(counts["retract"]) <= 4 * counts["solve"]
    assert rejected >= 1
    assert counts["restore"] == rejected


def counted_kernels(monkeypatch) -> list:
    """Wrap the three factor kernels; the returned list gets each run's name."""
    runs = []
    for name in ("_point_kernel", "_line_kernel", "_vd_align_kernel"):
        def counted(*args, _kernel=getattr(graph_module, name), _name=name):
            runs.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(graph_module, name, counted)
    return runs


def test_optimize_evaluates_each_state_once(monkeypatch):
    # converges on an accepted step, with rejected trials on the way: the
    # first linearization and each trial run the kernels; the linearization
    # after an accepted trial and the final breakdown reuse the trial's
    runs = counted_kernels(monkeypatch)
    report, counts, rejected = traced_optimize(monkeypatch, build_assembly_graph(),
                                               [("pose", 0)])
    assert report.converged and rejected >= 1
    for kernel in ("_point_kernel", "_line_kernel", "_vd_align_kernel"):
        assert runs.count(kernel) == 1 + counts["solve"], kernel


def test_optimize_evaluates_end_state_again_after_rejected_trials(monkeypatch):
    # with every tolerance zero the run ends on lambda overflow, back at the
    # last linearized state, whose evaluation is not kept through the solves:
    # the final breakdown runs the kernels once more
    monkeypatch.setattr(graph_module, "REL_TOL", 0.0)
    monkeypatch.setattr(graph_module, "ABS_TOL", 0.0)
    g, fixed = perturbed_pose_graph()
    runs = counted_kernels(monkeypatch)
    report, counts, rejected = traced_optimize(monkeypatch, g, fixed)
    assert not report.converged and report.iterations < MAX_ITERS and rejected >= 1
    assert runs == ["_point_kernel"] * (2 + counts["solve"])


def test_optimize_never_increases_cost_and_keeps_gps_unit():
    rng = np.random.default_rng(8)
    g = FactorGraph(K)
    add_pose(g, 0, IDENTITY)
    gp_truth = np.array([1.0, 0.0, 0.0])
    add_gp(g, 0, gp_step(gp_truth, 0.05, -0.03))
    for i in range(10):
        a = rng.uniform([50.0, 50.0], [500.0, 400.0])
        seg = Segment2D(a, a + [rng.uniform(40, 90), 0.0], id=i)
        add_factor(g, VdAlignFactor, 0, 0, seg_row(seg))
    c0 = total_cost(g, pack(g))
    report = optimize(g, fixed=[("pose", 0)])
    assert report.final_cost <= c0 + 1e-15
    assert abs(np.linalg.norm(g.gps[0]) - 1.0) < 1e-12
    ang = np.degrees(np.arccos(np.clip(abs(g.gps[0] @ gp_truth), -1, 1)))
    assert ang < 1e-4


def test_report_json_fields():
    g = FactorGraph(K)
    add_pose(g, 0, IDENTITY)
    add_point(g, 0, np.array([0.0, 0.0, 2.0]))
    add_factor(g, PointFactor, 0, 0, np.array([322.0, 240.0]))
    report = optimize(g, fixed=[("pose", 0)])
    import json
    d = json.loads(report.to_json())
    assert set(d) == {"initial_cost", "final_cost", "iters", "converged",
                      "per_factor_type_cost_breakdown"}
    assert d["final_cost"] <= d["initial_cost"]
