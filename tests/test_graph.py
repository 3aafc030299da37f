"""Factor residuals, analytic-vs-numeric Jacobians, batched retraction,
robust LM optimizer.

The batched `retract` is checked against per-variable formulas kept below as
oracles (`oracle_*`).
"""
import math

import numpy as np
import pytest

from monogp import graph as graph_module
from monogp.geometry import (
    EPS_Z,
    BehindCameraError,
    CameraIntrinsics,
    PluckerLine,
    Pose,
    PoseStack,
    OrthonormalLine,
    cross3,
    plucker_to_orthonormal,
    project_points,
    se3_exp,
    so3_exp,
)
from monogp.graph import (
    DOF,
    HUBER_2DOF,
    FactorGraph,
    LineFactor,
    ParameterIndex,
    PointFactor,
    StructFactor,
    VdAlignFactor,
    _huber,
    _linearize,
    _tangent_bases,
    cost_breakdown,
    numeric_jacobian,
    optimize,
    retract,
    total_cost,
)
from monogp.segments import Segment2D

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
IDENTITY = Pose(np.eye(3), np.zeros(3))


def project_point(p_w, pose, intr):
    """One world point's pixel in one camera, through `project_points`."""
    in_front, px = project_points([p_w], PoseStack.of([pose]), intr)
    assert in_front[0], "point behind the camera"
    return px[0, 0]


def closest_point_to_origin(line):
    """The point of a Plücker line nearest the world origin."""
    d = line.direction
    return cross3(d, line.normal) / float(d @ d)


def residual_at(factor, **values):
    """`factor.residual` on a graph holding variable 0 of each given kind,
    e.g. `residual_at(f, pose=pose, point=p)`."""
    g = FactorGraph()
    add = {"pose": g.add_pose, "point": g.add_point, "line": g.add_line, "gp": g.add_gp}
    for kind, value in values.items():
        add[kind](0, value)
    g.add_factor(factor)
    return factor.residual(g)


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


def test_retract_points_add():
    rng = np.random.default_rng(22)
    X, deltas = rng.normal(0.0, 3.0, (2, 8, 3))
    (X_new,) = retract("point", (X,), deltas)
    assert_rows_close(X_new, [x + d for x, d in zip(X, deltas)])


def test_retract_lines_match_orthonormal_update():
    rng = np.random.default_rng(23)
    n = len(STEP_ANGLES)
    lines = [plucker_to_orthonormal(PluckerLine.from_two_points(p, p + d))
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
    assert np.allclose(residual_at(PointFactor(0, 0, obs, K), pose=IDENTITY, point=p), 0.0)


def test_point_residual_hand_value():
    f = PointFactor(0, 0, np.array([560.0, 240.0]), K)
    r = residual_at(f, pose=IDENTITY, point=[1.0, 0.0, 2.0])
    assert np.allclose(r, [10.0, 0.0])


def line_residual(line, pose, seg, intr=K):
    """LineFactor residual of a world PluckerLine observed as `seg`."""
    return residual_at(LineFactor(0, 0, seg, intr), pose=pose,
                       line=plucker_to_orthonormal(line))


def test_line_residual_perpendicular_distances():
    line = PluckerLine.from_two_points([0.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    r = line_residual(line, IDENTITY, Segment2D([100.0, 243.0], [300.0, 237.0], id=0))
    assert np.allclose(np.abs(r), [3.0, 3.0], atol=1e-9)
    assert abs(r[0] + r[1]) < 1e-9  # opposite signs


def test_line_residual_scale_invariant():
    line = PluckerLine.from_two_points([0.2, 0.1, 2.0], [1.2, 2.1, 2.0])
    double = PluckerLine(2.0 * line.normal, 2.0 * line.direction)
    obs = Segment2D([100.0, 200.0], [400.0, 250.0], id=0)
    assert np.allclose(np.abs(line_residual(line, IDENTITY, obs)),
                       np.abs(line_residual(double, IDENTITY, obs)), atol=1e-12)


def vd_align_residual(gp, pose, seg):
    return residual_at(VdAlignFactor(0, 0, seg, K), pose=pose, gp=gp)[0]


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


def struct_residual(line_dir, gp):
    p = np.array([0.0, 0.0, 2.0])
    line = plucker_to_orthonormal(PluckerLine.from_two_points(p, p + line_dir))
    return residual_at(StructFactor(0, 0), line=line, gp=gp)[0]


def test_struct_residual_values():
    d = np.array([0.0, 1.0, 0.0])
    assert struct_residual(d, d) == 0.0
    assert struct_residual(d, [1.0, 0.0, 0.0]) == 1.0
    sixty = np.array([np.sqrt(3.0) / 2.0, 0.5, 0.0])
    assert abs(struct_residual(d, sixty) - 0.5) < 1e-12
    assert struct_residual(d, sixty) == struct_residual(sixty, d)


# -- Jacobian oracle ------------------------------------------------------------

def build_random_factor_graph(seed):
    """One of each factor type on a random, feasible configuration."""
    rng = np.random.default_rng(seed)
    g = FactorGraph()
    pose = se3_exp(rng.normal(0.0, 0.3, 6))
    g.add_pose(0, pose)

    p_c = np.array([rng.normal(0.0, 0.5), rng.normal(0.0, 0.5),
                    rng.uniform(2.0, 5.0)])
    g.add_point(0, pose.inverse().transform(p_c))
    point_f = PointFactor(0, 0, rng.normal([320.0, 240.0], 50.0), K)
    g.add_factor(point_f)

    anchor_c = np.array([rng.normal(0.0, 1.0), rng.normal(0.0, 1.0),
                         rng.uniform(2.0, 6.0)])
    d = rng.normal(0.0, 1.0, 3)
    d_c = d / np.linalg.norm(d)
    line_w = PluckerLine.from_two_points(pose.inverse().transform(anchor_c),
                                         pose.inverse().transform(anchor_c + d_c))
    g.add_line(0, plucker_to_orthonormal(line_w))
    seg = Segment2D(rng.uniform(0.0, 640.0, 2), rng.uniform(0.0, 640.0, 2), id=0)
    line_f = LineFactor(0, 0, seg, K)
    g.add_factor(line_f)

    gp = rng.normal(0.0, 1.0, 3)
    g.add_gp(0, gp / np.linalg.norm(gp))
    vd_f = VdAlignFactor(0, 0, seg, K)
    g.add_factor(vd_f)
    struct_f = StructFactor(0, 0)
    g.add_factor(struct_f)
    return g, [point_f, line_f, vd_f, struct_f]


def max_relative_error(analytic, numeric):
    scale = max(1.0, float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale


def test_jacobians_match_finite_differences():
    for seed in range(100):
        g, factors = build_random_factor_graph(seed)
        for f in factors:
            analytic = f.jacobians(g)
            numeric = numeric_jacobian(f, g)
            for key in analytic:
                assert max_relative_error(analytic[key], numeric[key]) < 1e-5, \
                    (f.kind, key, seed)


# -- graph bookkeeping -----------------------------------------------------------

def test_add_factor_missing_variable_rejected():
    g = FactorGraph()
    g.add_pose(0, IDENTITY)
    with pytest.raises(KeyError):
        g.add_factor(PointFactor(0, 99, np.array([0.0, 0.0]), K))


def test_graph_built_one_row_at_a_time_equals_stacked_rows():
    rng = np.random.default_rng(21)
    poses = [se3_exp(rng.normal(0.0, 0.3, 6)) for _ in range(200)]
    points = rng.normal(0.0, 2.0, (2000, 3))
    g = FactorGraph()
    for i, pose in enumerate(poses):
        g.add_pose(i, pose)
    for i, p in enumerate(points):
        g.add_point(i, p)
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
    g = FactorGraph()
    for i in range(5):
        g.add_point(i, rng.normal(size=3))
    first = g.snapshot()
    first_values = {k: v.copy() for k, v in first.items()}
    for i in range(5, 40):  # appends into the growth buffer
        g.add_point(i, rng.normal(size=3))
    second = g.snapshot()
    second_values = {k: v.copy() for k, v in second.items()}
    g.put_rows("point", [1], [[5.0, 5.0, 5.0]])  # a copy, outside the buffer
    g.add_point(40, [7.0, 7.0, 7.0])  # appends to that copy
    g.add_point(0, [9.0, 9.0, 9.0])   # overwrites
    g.add_point(41, [8.0, 8.0, 8.0])
    for snap, values in ((first, first_values), (second, second_values)):
        for name, arr in snap.items():
            assert arr.tobytes() == values[name].tobytes(), name
    assert g.X[2:40].tobytes() == second_values["X"][2:].tobytes()
    assert g.X[[0, 1, 40, 41]].tolist() == [[9.0] * 3, [5.0] * 3, [7.0] * 3, [8.0] * 3]


def test_gp_must_be_unit():
    g = FactorGraph()
    with pytest.raises(ValueError):
        g.add_gp(0, [1.0, 1.0, 0.0])


def test_total_cost_zero_at_ground_truth():
    rng = np.random.default_rng(5)
    g = FactorGraph()
    pose = se3_exp(rng.normal(0.0, 0.2, 6))
    g.add_pose(0, pose)
    for i in range(20):
        p_c = np.array([rng.normal(0, 0.5), rng.normal(0, 0.5),
                        rng.uniform(2, 5)])
        p_w = pose.inverse().transform(p_c)
        g.add_point(i, p_w)
        g.add_factor(PointFactor(0, i, project_point(p_w, pose, K), K))
    assert total_cost(g) < 1e-12


def test_total_cost_huber_elbow_value():
    g = FactorGraph()
    g.add_pose(0, IDENTITY)
    p = np.array([0.0, 0.0, 2.0])
    g.add_point(0, p)
    obs = project_point(p, IDENTITY, K) + [10.0, 0.0]
    g.add_factor(PointFactor(0, 0, obs, K))
    assert PointFactor.SIGMA == 1.0 and PointFactor.HUBER_DELTA == HUBER_2DOF
    # past the elbow: 2 delta |r| - delta^2 at |r| = 10
    expected = 2.0 * HUBER_2DOF * 10.0 - HUBER_2DOF**2
    assert abs(total_cost(g) - expected) < 1e-9


def test_behind_camera_factor_deactivated():
    # behind the camera, and in front of it but not beyond EPS_Z
    for depth in (-2.0, EPS_Z / 2.0):
        g = FactorGraph()
        g.add_pose(0, IDENTITY)
        g.add_point(0, np.array([0.0, 0.0, depth]))
        f = PointFactor(0, 0, np.array([320.0, 240.0]), K)
        g.add_factor(f)
        assert total_cost(g) == 0.0  # only factor is deactivated
        assert cost_breakdown(g) == {}
        with pytest.raises(BehindCameraError):
            f.residual(g)
        with pytest.raises(BehindCameraError):
            f.jacobians(g)
        index = ParameterIndex(g, [("pose", 0)])
        assert index.n_params == 3
        cost, H, grad = _linearize(g, index, index.n_params)
        assert cost == 0.0
        assert not H.any() and not grad.any()


def build_assembly_graph():
    """Three poses and all four factor kinds; one point factor behind its
    camera and one past the Huber elbow."""
    rng = np.random.default_rng(11)
    g = FactorGraph()
    g.add_pose(0, IDENTITY)
    g.add_pose(1, se3_exp([0.3, 0.05, -0.1, 0.02, -0.04, 0.03]))
    g.add_pose(2, se3_exp([0.6, -0.05, 0.1, -0.03, 0.05, -0.02]))
    for i in range(6):
        p = rng.uniform([-1.0, -1.0, 3.0], [1.0, 1.0, 6.0])
        g.add_point(i, p)
        for t in range(3):
            obs = project_point(p, g.poses[t], K) + rng.normal(0.0, 2.0, 2)
            g.add_factor(PointFactor(t, i, obs, K))
    g.factors[-1].obs = g.factors[-1].obs + [20.0, 0.0]  # past the elbow
    g.add_point(6, np.array([0.2, 0.1, -2.0]))
    g.add_factor(PointFactor(1, 6, np.array([300.0, 250.0]), K))  # behind
    gp = np.array([1.0, 0.1, 0.05])
    g.add_gp(0, gp / np.linalg.norm(gp))
    for lid, anchor in enumerate(([0.0, -0.5, 4.0], [0.3, 0.6, 5.0])):
        line = PluckerLine.from_two_points(anchor, anchor + gp + rng.normal(0.0, 0.02, 3))
        g.add_line(lid, plucker_to_orthonormal(line))
        for t in range(3):
            a, b = (project_point(closest_point_to_origin(line) + s * gp, g.poses[t], K)
                    for s in (-0.5, 0.5))
            seg = Segment2D(a + rng.normal(0.0, 1.0, 2), b + rng.normal(0.0, 1.0, 2), id=t)
            g.add_factor(LineFactor(t, lid, seg, K))
            g.add_factor(VdAlignFactor(t, 0, seg, K))
        g.add_factor(StructFactor(lid, 0))
    return g


def test_linearize_assembles_weighted_normal_equations(monkeypatch):
    # a line noise other than 1 px, so every kind's weight differs from 1
    monkeypatch.setattr(LineFactor, "SIGMA", 1.5)
    g = build_assembly_graph()
    keys = ([("pose", 1), ("pose", 2)] + [("point", i) for i in sorted(g.points)]
            + [("line", 0), ("line", 1), ("gp", 0)])
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
        info = 1.0 / f.SIGMA**2
        s = np.sqrt(info * float(r @ r))
        w = 1.0 if s <= f.HUBER_DELTA else f.HUBER_DELTA / s
        elbow += s > f.HUBER_DELTA
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
    cost, H, grad = _linearize(g, layout, n)
    assert np.max(np.abs(H - H_ref)) < 1e-5 * np.max(np.abs(H_ref))
    assert np.max(np.abs(grad - g_ref)) < 1e-5 * np.max(np.abs(g_ref))
    total = total_cost(g)
    assert abs(cost - total) <= 1e-12 * total
    breakdown = cost_breakdown(g)
    assert set(breakdown) == {"point", "line", "vd_align", "struct"}
    assert abs(sum(breakdown.values()) - total) <= 1e-12 * total


# -- optimizer -----------------------------------------------------------------

def test_optimize_requires_gauge():
    g = FactorGraph()
    g.add_pose(0, IDENTITY)
    g.add_point(0, np.array([0.0, 0.0, 2.0]))
    g.add_factor(PointFactor(0, 0, np.array([320.0, 240.0]), K))
    with pytest.raises(ValueError, match="gauge unfixed"):
        optimize(g)


def test_optimize_stationary_at_ground_truth():
    rng = np.random.default_rng(6)
    g = FactorGraph()
    g.add_pose(0, IDENTITY)
    g.add_pose(1, Pose.from_world_camera(np.eye(3), [0.5, 0.0, 0.0]))
    for i in range(15):
        p = rng.uniform([-1, -1, 2], [1, 1, 5])
        g.add_point(i, p)
        for t in (0, 1):
            g.add_factor(PointFactor(t, i, project_point(p, g.poses[t], K), K))
    report = optimize(g, fixed=[("pose", 0), ("pose", 1)])
    assert report.converged
    assert report.iterations <= 2
    assert report.final_cost < 1e-18


def perturbed_pose_graph():
    """One pose, 1 degree and 5 cm off the identity, seeing 50 exact points;
    returns the graph and the keys of the points, to be fixed."""
    rng = np.random.default_rng(7)
    g = FactorGraph()
    points = {}
    for i in range(50):
        points[i] = rng.uniform([-1.5, -1.5, 2.0], [1.5, 1.5, 6.0])
    perturbed = se3_exp(np.concatenate([
        rng.normal(0.0, 0.05, 3), rng.normal(0.0, np.radians(1.0), 3)
    ])).compose(IDENTITY)
    g.add_pose(0, perturbed)
    for i, p in points.items():
        g.add_point(i, p)
        g.add_factor(PointFactor(0, i, project_point(p, IDENTITY, K), K))
    return g, [("point", i) for i in points]


def test_optimize_recovers_perturbed_pose():
    g, fixed = perturbed_pose_graph()
    report = optimize(g, fixed)
    assert report.converged
    assert report.final_cost == total_cost(g)
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
    assert report.final_cost == total_cost(g)
    assert len(counts["retract"]) <= 4 * counts["solve"]
    assert rejected >= 1
    assert counts["restore"] == rejected


def test_optimize_never_increases_cost_and_keeps_gps_unit():
    rng = np.random.default_rng(8)
    g = FactorGraph()
    g.add_pose(0, IDENTITY)
    gp_truth = np.array([1.0, 0.0, 0.0])
    g.add_gp(0, gp_step(gp_truth, 0.05, -0.03))
    for i in range(10):
        a = rng.uniform([50.0, 50.0], [500.0, 400.0])
        seg = Segment2D(a, a + [rng.uniform(40, 90), 0.0], id=i)
        g.add_factor(VdAlignFactor(0, 0, seg, K))
    c0 = total_cost(g)
    report = optimize(g, fixed=[("pose", 0)])
    assert report.final_cost <= c0 + 1e-15
    assert abs(np.linalg.norm(g.gps[0]) - 1.0) < 1e-12
    ang = np.degrees(np.arccos(np.clip(abs(g.gps[0] @ gp_truth), -1, 1)))
    assert ang < 1e-4


def test_report_json_fields():
    g = FactorGraph()
    g.add_pose(0, IDENTITY)
    g.add_point(0, np.array([0.0, 0.0, 2.0]))
    g.add_factor(PointFactor(0, 0, np.array([322.0, 240.0]), K))
    report = optimize(g, fixed=[("pose", 0)])
    import json
    d = json.loads(report.to_json())
    assert set(d) == {"initial_cost", "final_cost", "iters", "converged",
                      "per_factor_type_cost_breakdown"}
    assert d["final_cost"] <= d["initial_cost"]
