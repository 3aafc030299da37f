"""Lie-group, projection, Plücker, and triangulation tests.

The Plücker transform and projection (Bartoli & Sturm 2005) are computed by
the line factor's kernel, so their tests evaluate a line factor's `residual`.
The stacked triangulation is checked against the scalar two-view functions it
replaced, kept below verbatim as oracles (renamed `oracle_*`).
"""
import math

import numpy as np
import pytest

from monogp import geometry as geometry_module
from monogp.geometry import (
    EPS_Z,
    CameraIntrinsics,
    DegenerateLineError,
    Pose,
    PoseStack,
    acos_deg,
    backproject,
    closest_points_on_lines,
    mv,
    plucker_to_orthonormal,
    project_points,
    row_norms,
    se3_exp,
    skew,
    so3_exp,
    triangulate_lines,
    triangulate_points,
)
from monogp.graph import retract
from monogp.segments import Segment2D, endpoints
from monogp.vanishing import canonical_direction
from test_graph import (
    OrthonormalLine,
    closest_point_to_origin,
    line_residual,
    line_through,
    oracle_plucker_to_orthonormal,
    project_point,
    to_camera,
)

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
IDENTITY = Pose(np.eye(3), np.zeros(3))


def random_pose(rng, scale=0.5):
    return se3_exp(rng.normal(0.0, scale, size=6))


# -- SE(3) -------------------------------------------------------------------

def test_se3_exp_zero_twist_is_identity():
    pose = se3_exp(np.zeros(6))
    assert np.allclose(pose.rotation, np.eye(3), atol=1e-15)
    assert np.allclose(pose.translation, 0.0, atol=1e-15)


def test_se3_exp_quarter_turn_about_z():
    pose = se3_exp([0.0, 0.0, 0.0, 0.0, 0.0, np.pi / 2])
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(pose.rotation, expected, atol=1e-12)
    assert np.allclose(pose.translation, 0.0)


def test_se3_exp_matches_matrix_exponential():
    # imported here, so that importing this module (test_tracking's oracles
    # do) needs no scipy; skipped without it
    expm = pytest.importorskip("scipy.linalg").expm
    rng = np.random.default_rng(3)
    for _ in range(1000):
        xi = rng.normal(0.0, 0.3, size=6)
        twist = np.zeros((4, 4))
        twist[:3, :3] = skew(xi[3:])
        twist[:3, 3] = xi[:3]
        pose = se3_exp(xi)
        T = np.eye(4)
        T[:3, :3], T[:3, 3] = pose.rotation, pose.translation
        assert np.allclose(T, expm(twist), atol=1e-9)


def test_pose_compose_inverse_is_identity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        pose = random_pose(rng)
        ident = pose.compose(pose.inverse())
        assert np.allclose(ident.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(ident.translation, 0.0, atol=1e-9)


def test_pose_composition_associative():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b, c = (random_pose(rng) for _ in range(3))
        p1 = a.compose(b).compose(c)
        p2 = a.compose(b.compose(c))
        assert np.allclose(p1.rotation, p2.rotation, atol=1e-12)
        assert np.allclose(p1.translation, p2.translation, atol=1e-12)


def test_pose_rejects_non_orthonormal_rotation():
    with pytest.raises(ValueError):
        Pose(np.eye(3) * 1.01, np.zeros(3))


def test_pose_rejects_non_finite_rotation():
    with pytest.raises(ValueError, match="rotation"):
        Pose(np.full((3, 3), np.nan), np.zeros(3))


def test_pose_rejects_non_finite_translation():
    with pytest.raises(ValueError, match="translation"):
        Pose(np.eye(3), [np.nan, np.inf, 0.0])


# -- point projection --------------------------------------------------------

def test_project_point_on_optical_axis_hits_principal_point():
    px = project_point([0.0, 0.0, 2.0], IDENTITY, K)
    assert np.allclose(px, [320.0, 240.0])


def test_project_point_hand_value():
    px = project_point([1.0, 0.0, 2.0], IDENTITY, K)
    assert np.allclose(px, [570.0, 240.0])


def test_project_points_masks_cameras_without_depth():
    # a camera drops out when it sees any of the points at z <= EPS_Z
    shifted = Pose(np.eye(3), [0.0, 0.0, 3.0])
    in_front, px = project_points([[1.0, 0.0, 2.0], [0.0, 0.0, -1.0]],
                                  PoseStack.of([IDENTITY, shifted]), K)
    assert in_front.tolist() == [False, True]
    assert px.shape == (1, 2, 2)
    assert np.allclose(px[0], [[420.0, 240.0], [320.0, 240.0]])
    in_front, px = project_points([[0.0, 0.0, EPS_Z]], PoseStack.of([IDENTITY]), K)
    assert not in_front[0] and px.shape == (0, 1, 2)
    in_front, _ = project_points([[0.0, 0.0, np.nextafter(EPS_Z, 1.0)]],
                                 PoseStack.of([IDENTITY]), K)
    assert in_front[0]


def camera_poses(rng, n):
    """n random poses built as the program builds them, by
    `Pose.from_world_camera` (F-ordered rotations)."""
    poses = [random_pose(rng, 0.2) for _ in range(n)]
    return [Pose.from_world_camera(p.r_wc.copy(), p.camera_center()) for p in poses]


def test_project_points_bitwise_per_pose():
    # each pose of the stack equal to its own per-point transform
    rng = np.random.default_rng(12)
    poses = camera_poses(rng, 40)
    for _ in range(20):
        points = rng.uniform([-1.0, -1.0, 4.0], [1.0, 1.0, 8.0], (2, 3))
        in_front, px = project_points(points, PoseStack.of(poses), K)
        assert in_front.all()
        for pose, row in zip(poses, px):
            for p, q in zip(points, row):
                p_c = to_camera(pose, p)
                assert q.tolist() == [K.fx * p_c[0] / p_c[2] + K.cx,
                                      K.fy * p_c[1] / p_c[2] + K.cy]


# -- Plücker lines -----------------------------------------------------------

def segment_through(points, pose):
    """Image segment between the projections of two world points."""
    return Segment2D(*(project_point(p, pose, K) for p in points), id=0)


def test_transform_plucker_point_membership():
    # points of a world line stay on the camera-frame line: their images lie
    # on its projection, under translations and rotations
    line = line_through([1.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    rng = np.random.default_rng(6)
    poses = [Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))]
    poses += [se3_exp(np.concatenate([rng.normal(0.0, 0.3, 3) + [0.0, 0.0, 4.0],
                                      rng.normal(0.0, 0.2, 3)])) for _ in range(50)]
    for pose in poses:
        for lams in ((-2.0, 0.0), (0.7, 3.0)):
            seg = segment_through([np.array([1.0, lam, 0.0]) for lam in lams], pose)
            assert np.max(np.abs(line_residual(line, pose, seg))) < 1e-9


def test_project_plucker_horizontal_line():
    # a horizontal line at depth 1 projects onto the image row y = cy + fy * ty
    line = line_through([0.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    for ty, row in ((0.0, 240.0), (0.1, 290.0)):
        seg = Segment2D([100.0, row], [500.0, row], id=0)
        r = line_residual(line, Pose(np.eye(3), np.array([0.0, ty, 0.0])), seg)
        assert np.allclose(r, 0.0, atol=1e-9)


def test_project_plucker_scale_invariant_up_to_normalization():
    line = line_through([0.5, -0.2, 2.0], [1.5, 0.8, 2.0])
    double = (2.0 * line[0], 2.0 * line[1])
    seg = Segment2D([100.0, 200.0], [400.0, 250.0], id=0)
    rng = np.random.default_rng(12)
    for _ in range(20):
        pose = se3_exp(rng.normal(0.0, 0.1, 6))
        assert np.allclose(line_residual(line, pose, seg),
                           line_residual(double, pose, seg), atol=1e-9)


def test_project_plucker_optical_axis_degenerate():
    line = line_through([0.0, 0.0, 1.0], [0.0, 0.0, 2.0])
    seg = Segment2D([300.0, 240.0], [340.0, 240.0], id=0)
    with pytest.raises(DegenerateLineError):
        line_residual(line, IDENTITY, seg)


def test_point_on_line_projects_onto_image_line():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p0 = rng.normal(0.0, 1.0, 3) + [0.0, 0.0, 4.0]
        d = rng.normal(0.0, 1.0, 3)
        line = line_through(p0, p0 + d)
        lam = rng.uniform(-0.5, 0.5)
        p = p0 + lam * d / np.linalg.norm(d)
        if p[2] < 0.5:
            continue
        r = line_residual(line, IDENTITY, segment_through([p0, p], IDENTITY))
        assert np.max(np.abs(r)) < 1e-6


# -- orthonormal parameterization --------------------------------------------

def plucker_coords(o):
    """(w1 u1, w2 u2) of an orthonormal line, unit-normalized: its (n, d) up
    to scale."""
    v = np.concatenate([o.W[0, 0] * o.U[:, 0], o.W[1, 0] * o.U[:, 1]])
    return v / np.linalg.norm(v)


def test_orthonormal_roundtrip_random():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        line = line_through(rng.normal(0, 3, 3), rng.normal(0, 3, 3))
        ca = canonical_direction(np.concatenate(line))
        cb = plucker_coords(oracle_plucker_to_orthonormal(line))
        assert np.allclose(ca, cb, atol=1e-9) or np.allclose(ca, -cb, atol=1e-9)


def test_plucker_to_orthonormal_equals_one_line_form_bitwise():
    rng = np.random.default_rng(12)
    lines = [line_through(p, q) for p, q in rng.normal(0.0, 3.0, (2000, 2, 3))]
    # through the origin: exactly, and within the 1e-12 relative threshold
    lines += [(np.zeros(3), d) for d in rng.normal(0.0, 1.0, (10, 3))]
    lines += [line_through(s * d, (s + 1.0) * d)
              for s, d in zip(rng.normal(0.0, 2.0, 10), rng.normal(0.0, 1.0, (10, 3)))]
    n, d = (np.array(rows) for rows in zip(*lines))
    U, W = plucker_to_orthonormal(n, d)
    ref = [oracle_plucker_to_orthonormal(line) for line in lines]
    assert U.tobytes() == np.array([o.U for o in ref]).tobytes()
    assert W.tobytes() == np.array([o.W for o in ref]).tobytes()
    assert sum(o.W[0, 0] == 0.0 for o in ref) >= 10
    # some rows' hypotenuses differ between np.hypot and the one-line form's
    # math.hypot, so the comparison above checks which one is used
    assert any(np.hypot(a, b) != math.hypot(a, b) for a, b in
               ((np.linalg.norm(n), np.linalg.norm(d)) for n, d in lines))
    U, W = plucker_to_orthonormal([], [])
    assert U.shape == (0, 3, 3) and W.shape == (0, 2, 2)


def test_negated_line_negates_u1_and_u2():
    # the orthonormal form of (-n, -d), the same line with the opposite
    # sign, is U with its first two columns negated and the same W
    rng = np.random.default_rng(13)
    n, d = (np.array(rows) for rows in
            zip(*[line_through(p, q) for p, q in rng.normal(0.0, 3.0, (2000, 2, 3))]))
    U, W = plucker_to_orthonormal(n, d)
    U_neg, W_neg = plucker_to_orthonormal(-n, -d)
    U[:, :, :2] *= -1.0
    assert U.tobytes() == U_neg.tobytes() and W.tobytes() == W_neg.tobytes()
    # through the origin u1 is a cross product with an axis: equal values,
    # though an exact zero may change its sign
    d = rng.normal(0.0, 1.0, (10, 3))
    U, W = plucker_to_orthonormal(np.zeros((10, 3)), d)
    U_neg, W_neg = plucker_to_orthonormal(np.zeros((10, 3)), -d)
    U[:, :, :2] *= -1.0
    assert np.array_equal(U, U_neg) and W.tobytes() == W_neg.tobytes()


def update_line(o, delta) -> OrthonormalLine:
    """`retract` on one line: U <- exp([delta_u]x) U, W <- R(delta_phi) W."""
    U, W = retract("line", (o.U[None], o.W[None]), np.asarray(delta, dtype=float)[None])
    return OrthonormalLine(U[0], W[0])


def test_orthonormal_zero_update_is_identity():
    line = line_through([1.0, 2.0, 3.0], [0.0, 1.0, 5.0])
    o = oracle_plucker_to_orthonormal(line)
    o2 = update_line(o, np.zeros(4))
    assert np.allclose(o.U, o2.U) and np.allclose(o.W, o2.W)


def test_orthonormal_small_update_small_change():
    line = line_through([1.0, 2.0, 3.0], [0.0, 1.0, 5.0])
    o = oracle_plucker_to_orthonormal(line)
    o2 = update_line(o, 1e-8 * np.ones(4))
    assert np.linalg.norm(plucker_coords(o) - plucker_coords(o2)) < 1e-6


def test_orthonormal_update_preserves_constraint():
    rng = np.random.default_rng(9)
    line = line_through([2.0, 0.0, 1.0], [0.0, 1.0, 4.0])
    o = oracle_plucker_to_orthonormal(line)
    for _ in range(100):
        o = update_line(o, rng.normal(0.0, 0.1, 4))
        v = plucker_coords(o)
        assert abs(float(v[:3] @ v[3:])) < 1e-9
        assert np.allclose(o.U @ o.U.T, np.eye(3), atol=1e-9)


def mixed_layout_poses(rng, n):
    """n random poses, F-ordered rotations (`from_world_camera`) mixed with
    C-ordered ones (`se3_exp`)."""
    poses = []
    for k in range(n):
        pose = random_pose(rng, 0.2)
        if k % 3:
            pose = Pose.from_world_camera(pose.r_wc.copy(), pose.camera_center())
        poses.append(pose)
    assert {p.rotation.flags.f_contiguous for p in poses} == {True, False}
    return poses


def test_pose_stack_bitwise_per_pose():
    rng = np.random.default_rng(13)
    poses = camera_poses(rng, 30)
    rows = rng.integers(0, 30, 50)
    cams = PoseStack.of(poses)[rows]
    v = rng.normal(0.0, 1.0, (50, 3))
    rotated, in_world = cams.rotate(v), cams.to_world(v)
    for i, k in enumerate(rows.tolist()):
        pose = poses[k]
        assert rotated[i].tobytes() == (pose.rotation @ v[i]).tobytes()
        assert in_world[i].tobytes() == (pose.r_wc @ v[i]).tobytes()
        assert cams.center[i].tobytes() == pose.camera_center().tobytes()
    # k points per camera
    p = rng.uniform([-1.0, -1.0, 4.0], [1.0, 1.0, 8.0], (50, 2, 3))
    in_front, px = project_points(p, cams, K)
    assert in_front.all()
    for i, k in enumerate(rows.tolist()):
        for j in range(2):
            p_c = to_camera(poses[k], p[i, j])
            assert px[i, j].tolist() == [K.fx * p_c[0] / p_c[2] + K.cx,
                                         K.fy * p_c[1] / p_c[2] + K.cy]


# -- row numerics: the stacked spellings equal the per-row formulas ---------

def row_layouts(rng, n, k):
    """The same random rows (n, k), entries at lognormal scales, C-ordered,
    F-ordered and as a column slice of a wider array."""
    a = rng.normal(0.0, 1.0, (n, k)) * rng.lognormal(0.0, 2.0, (n, k))
    wide = np.zeros((n, k + 3))
    wide[:, 1:k + 1] = a
    return {"C": a, "F": np.asfortranarray(a), "slice": wide[:, 1:k + 1]}


def test_vecdot_equals_row_dot_bitwise():
    rng = np.random.default_rng(41)
    for k in range(2, 10):
        xs, ys = row_layouts(rng, 200, k), row_layouts(rng, 200, k)
        for a in xs.values():
            for b in ys.values():
                for u, v in ((a, b), (b, a)):
                    assert np.vecdot(u, v).tolist() == [float(p @ q) for p, q in zip(u, v)]


def test_row_norms_equal_scalar_norm_bitwise():
    rng = np.random.default_rng(42)
    for k in range(2, 10):
        for layout, a in row_layouts(rng, 200, k).items():
            norms = row_norms(a).tolist()
            assert norms == [math.sqrt(r @ r) for r in a]
            if layout == "C" or (layout == "F" and k == 3):
                assert norms == [float(np.linalg.norm(r)) for r in a]


def test_mv_equals_matrix_vector_product_bitwise():
    rng = np.random.default_rng(43)
    M = rng.normal(0.0, 1.0, (300, 3, 3)) * rng.lognormal(0.0, 2.0, (300, 3, 3))
    v = row_layouts(rng, 300, 3)["C"]
    for stack in (M, M.transpose(0, 2, 1)):
        assert mv(stack, v).tolist() == [(m @ x).tolist() for m, x in zip(stack, v)]
    for one in (M[0], M[0].T):
        assert mv(one, v).tolist() == [(one @ x).tolist() for x in v]


def test_acos_deg_clips_then_takes_math_acos():
    rng = np.random.default_rng(44)
    c = np.concatenate([rng.uniform(0.0, 1.0, 500), rng.uniform(-0.5, 1.5, 100),
                        [0.0, -0.0, 1.0, np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0),
                         -1e-16, 1.0 + 1e-15, np.nan]])
    want = [math.degrees(math.acos(min(max(x, 0.0), 1.0))) for x in c.tolist()]
    assert acos_deg(c).tobytes() == np.array(want).tobytes()


# -- triangulation: the scalar two-view functions, verbatim ------------------

class OracleTriangulationError(ValueError):
    """Insufficient parallax or degenerate two-view configuration."""


def oracle_unit(v):
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize zero vector")
    return v / n


def oracle_backproject_ray(obs, pose, intr):
    """World-frame (origin, unit direction) of the viewing ray through a pixel."""
    v_c = intr.inverse_matrix() @ np.array([obs[0], obs[1], 1.0])
    return pose.camera_center(), oracle_unit(pose.r_wc @ v_c)


def oracle_ray_angle_deg(obs_a, obs_b, pose_a, pose_b, intr):
    _, ra = oracle_backproject_ray(obs_a, pose_a, intr)
    _, rb = oracle_backproject_ray(obs_b, pose_b, intr)
    return math.degrees(math.acos(np.clip(abs(float(ra @ rb)), 0.0, 1.0)))


def oracle_triangulate_point(obs_a, obs_b, pose_a, pose_b, intr, min_ray_angle_deg=0.05):
    ca, ra = oracle_backproject_ray(obs_a, pose_a, intr)
    cb, rb = oracle_backproject_ray(obs_b, pose_b, intr)
    if np.linalg.norm(cb - ca) < 1e-9:
        raise OracleTriangulationError("insufficient parallax: identical camera centers")
    cos_ang = np.clip(abs(float(ra @ rb)), 0.0, 1.0)
    if math.degrees(math.acos(cos_ang)) < min_ray_angle_deg:
        raise OracleTriangulationError("insufficient parallax: rays nearly parallel")
    A = np.array([[ra @ ra, -(ra @ rb)], [ra @ rb, -(rb @ rb)]])
    b = np.array([(cb - ca) @ ra, (cb - ca) @ rb])
    s, t = np.linalg.solve(A, b)
    return 0.5 * ((ca + s * ra) + (cb + t * rb))


def oracle_backprojected_plane(seg, pose, intr):
    ps = np.array([seg.p_start[0], seg.p_start[1], 1.0])
    pe = np.array([seg.p_end[0], seg.p_end[1], 1.0])
    l_img = np.cross(ps, pe)
    K_ = intr.matrix()
    a = pose.rotation.T @ (K_.T @ l_img)
    b = float(pose.translation @ (K_.T @ l_img))
    return np.concatenate([a, [b]])


def oracle_plane_angle_deg(seg_a, seg_b, pose_a, pose_b, intr):
    na = oracle_unit(oracle_backprojected_plane(seg_a, pose_a, intr)[:3])
    nb = oracle_unit(oracle_backprojected_plane(seg_b, pose_b, intr)[:3])
    return math.degrees(math.acos(np.clip(abs(float(na @ nb)), 0.0, 1.0)))


def oracle_triangulate_line(seg_a, seg_b, pose_a, pose_b, intr, min_plane_angle_deg=1.0):
    pa = oracle_backprojected_plane(seg_a, pose_a, intr)
    pb = oracle_backprojected_plane(seg_b, pose_b, intr)
    na, nb = oracle_unit(pa[:3]), oracle_unit(pb[:3])
    cos_ang = np.clip(abs(float(na @ nb)), 0.0, 1.0)
    if math.degrees(math.acos(cos_ang)) < min_plane_angle_deg:
        raise OracleTriangulationError("insufficient parallax: planes nearly parallel")
    d = np.cross(pa[:3], pb[:3])
    A = np.vstack([pa[:3], pb[:3]])
    rhs = -np.array([pa[3], pb[3]])
    x, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return np.cross(x, d), d


def oracle_closest_point_on_line_to_ray(line, origin, direction):
    p0 = closest_point_to_origin(line)
    d = line[1] / np.linalg.norm(line[1])
    o = np.asarray(origin, dtype=float)
    r = oracle_unit(np.asarray(direction, dtype=float))
    A = np.array([[1.0, -(d @ r)], [d @ r, -1.0]])
    b = np.array([(o - p0) @ d, (o - p0) @ r])
    det = np.linalg.det(A)
    if abs(det) < 1e-12:
        return p0
    s, _ = np.linalg.solve(A, b)
    return p0 + s * d


# -- triangulation -----------------------------------------------------------

def two_views(pose_a, pose_b, n):
    """The cameras of n rows: pose_a, then pose_b, for each row."""
    cams = PoseStack.of([pose_a, pose_b])
    return cams[[0] * n], cams[[1] * n]


def stacked_point_rows(pairs, intr):
    """`triangulate_points` on (px_a, px_b, pose_a, pose_b) rows."""
    poses = [p for _, _, pa, pb in pairs for p in (pa, pb)]
    cams = PoseStack.of(poses)
    rows = np.arange(len(poses)).reshape(-1, 2)
    return triangulate_points(np.array([a for a, _, _, _ in pairs], dtype=float),
                              np.array([b for _, b, _, _ in pairs], dtype=float),
                              cams[rows[:, 0]], cams[rows[:, 1]], intr)


def stacked_line_rows(pairs, intr):
    """`triangulate_lines` on (seg_a, seg_b, pose_a, pose_b) rows."""
    poses = [p for _, _, pa, pb in pairs for p in (pa, pb)]
    cams = PoseStack.of(poses)
    rows = np.arange(len(poses)).reshape(-1, 2)
    return triangulate_lines(endpoints([a for a, _, _, _ in pairs]),
                             endpoints([b for _, b, _, _ in pairs]),
                             cams[rows[:, 0]], cams[rows[:, 1]], intr)


def oracle_rows(oracle, pairs, intr, **kwargs):
    """The oracle on each row: its result, or None where it raises."""
    out = []
    for row in pairs:
        try:
            out.append(oracle(*row, intr, **kwargs))
        except OracleTriangulationError:
            out.append(None)
    return out


def assert_points_equal_oracle(pairs, intr):
    """The stacked rows against the oracle at the module's MIN_RAY_ANGLE_DEG."""
    ok, xyz = stacked_point_rows(pairs, intr)
    expected = oracle_rows(oracle_triangulate_point, pairs, intr,
                           min_ray_angle_deg=geometry_module.MIN_RAY_ANGLE_DEG)
    assert ok.tolist() == [e is not None for e in expected]
    assert [p.tobytes() for p in xyz] == [e.tobytes() for e in expected if e is not None]
    return ok


def assert_lines_equal_oracle(pairs, intr):
    """The stacked rows against the oracle at the module's MIN_PLANE_ANGLE_DEG."""
    ok, normal, direction = stacked_line_rows(pairs, intr)
    expected = oracle_rows(oracle_triangulate_line, pairs, intr,
                           min_plane_angle_deg=geometry_module.MIN_PLANE_ANGLE_DEG)
    assert ok.tolist() == [e is not None for e in expected]
    kept = [e for e in expected if e is not None]
    assert [(n.tobytes(), d.tobytes()) for n, d in zip(normal, direction)] == \
        [(n.tobytes(), d.tobytes()) for n, d in kept]
    return ok


def straddle(accepts, lo, hi, steps=80):
    """Two adjacent parameters (a, b), a rejected and b accepted, by
    bisecting [lo, hi] where accepts(lo) is False and accepts(hi) True."""
    assert not accepts(lo) and accepts(hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if not accepts(mid) else (lo, mid)
    return lo, hi


def test_triangulate_point_noiseless_roundtrip():
    rng = np.random.default_rng(10)
    pose_a = IDENTITY
    pose_b = Pose.from_world_camera(np.eye(3), [0.5, 0.0, 0.0])
    p = rng.uniform([-1, -1, 2], [1, 1, 6], (100, 3))
    obs_a = np.array([project_point(q, pose_a, K) for q in p])
    obs_b = np.array([project_point(q, pose_b, K) for q in p])
    ok, rec = triangulate_points(obs_a, obs_b, *two_views(pose_a, pose_b, 100), K)
    assert ok.all()
    assert np.linalg.norm(rec - p, axis=1).max() < 1e-9


def test_triangulate_point_identical_poses_masked():
    with pytest.raises(OracleTriangulationError, match="identical camera centers"):
        oracle_triangulate_point([320, 240], [330, 240], IDENTITY, IDENTITY, K)
    ok, xyz = triangulate_points(np.array([[320.0, 240.0]]), np.array([[330.0, 240.0]]),
                                 *two_views(IDENTITY, IDENTITY, 1), K)
    assert ok.tolist() == [False] and xyz.shape == (0, 3)


def test_triangulate_points_equal_scalar_oracle():
    rng = np.random.default_rng(14)
    poses = camera_poses(rng, 12)
    pairs = []
    for _ in range(300):
        i, j = rng.choice(12, 2, replace=False)
        pairs.append((rng.uniform([0, 0], [640, 480]), rng.uniform([0, 0], [640, 480]),
                      poses[i], poses[j]))
    pairs.append((np.array([320.0, 240.0]), np.array([330.0, 240.0]), poses[0], poses[0]))
    ok = assert_points_equal_oracle(pairs, K)
    assert 0 < ok.sum() < len(ok)


def test_triangulate_points_identical_centres_rotated():
    # distinct rotations about one centre: no parallax whatever the rays
    turned = Pose.from_world_camera(so3_exp([0.0, 0.3, 0.0]), [0.0, 0.0, 0.0])
    shifted = Pose.from_world_camera(np.eye(3), [0.5, 0.0, 0.0])
    pairs = [([300.0, 200.0], [420.0, 260.0], IDENTITY, turned),
             ([300.0, 200.0], [420.0, 260.0], IDENTITY, shifted)]
    assert assert_points_equal_oracle(pairs, K).tolist() == [False, True]


def test_triangulate_points_ray_angle_boundary(monkeypatch):
    shifted = Pose.from_world_camera(np.eye(3), [0.5, 0.0, 0.0])

    def pair(dx):
        return ([320.0, 240.0], [320.0 + dx, 240.0], IDENTITY, shifted)

    def accepts(dx):
        angle = oracle_ray_angle_deg(*pair(dx), K)
        return angle >= geometry_module.MIN_RAY_ANGLE_DEG
    below, above = straddle(accepts, 0.0, 1.0)  # 0.05° is ~0.436 px here
    assert assert_points_equal_oracle([pair(below), pair(above)], K).tolist() == \
        [False, True]
    # the threshold at the computed angle itself, and one float above it
    angle = oracle_ray_angle_deg(*pair(above), K)
    for limit, accepted in ((angle, True), (np.nextafter(angle, np.inf), False)):
        monkeypatch.setattr(geometry_module, "MIN_RAY_ANGLE_DEG", limit)
        assert assert_points_equal_oracle([pair(above)], K).tolist() == [accepted]


def test_triangulate_line_noiseless_roundtrip():
    rng = np.random.default_rng(11)
    pose_a = IDENTITY
    pose_b = Pose.from_world_camera(np.eye(3), [0.8, 0.2, 0.0])
    truths, pairs = [], []
    for _ in range(50):
        p0 = rng.uniform([-1, -1, 3], [1, 1, 6])
        d = rng.normal(0.0, 1.0, 3)
        d /= np.linalg.norm(d)
        p1 = p0 + 1.5 * d
        truths.append(line_through(p0, p1))
        pairs.append((Segment2D(project_point(p0, pose_a, K),
                                project_point(p1, pose_a, K), id=0),
                      Segment2D(project_point(p0, pose_b, K),
                                project_point(p1, pose_b, K), id=0), pose_a, pose_b))
    ok, normal, direction = stacked_line_rows(pairs, K)
    assert ok.sum() > 40  # the rest have a plane angle below the threshold
    for truth, n, d in zip([t for t, k in zip(truths, ok) if k], normal, direction):
        ca = canonical_direction(np.concatenate(truth))
        cb = canonical_direction(np.concatenate([n, d]))
        assert np.allclose(ca, cb, atol=1e-9) or np.allclose(ca, -cb, atol=1e-9)


def random_segment(rng):
    a = rng.uniform([0, 0], [640, 480])
    return Segment2D(a, a + rng.normal(0.0, 80.0, 2), id=0)


def test_triangulate_lines_equal_scalar_oracle():
    rng = np.random.default_rng(15)
    poses = camera_poses(rng, 12)
    pairs = []
    for _ in range(300):
        i, j = rng.choice(12, 2, replace=False)
        pairs.append((random_segment(rng), random_segment(rng), poses[i], poses[j]))
    s = random_segment(rng)
    pairs.append((s, s, poses[0], poses[0]))  # one plane twice
    ok = assert_lines_equal_oracle(pairs, K)
    assert 0 < ok.sum() < len(ok)


def test_triangulate_lines_plane_angle_boundary(monkeypatch):
    # the world line y = 0.2, z = 5 turned by phi about z, seen from two
    # centres on the x axis: at phi = 0 it is parallel to the baseline
    shifted = Pose.from_world_camera(np.eye(3), [0.5, 0.0, 0.0])

    def pair(phi):
        d = np.array([math.cos(phi), math.sin(phi), 0.0])
        ends = [np.array([-0.3, 0.2, 5.0]), np.array([-0.3, 0.2, 5.0]) + d]
        return tuple(Segment2D(*(project_point(p, pose, K) for p in ends), id=0)
                     for pose in (IDENTITY, shifted)) + (IDENTITY, shifted)

    def accepts(phi):
        angle = oracle_plane_angle_deg(*pair(phi), K)
        return angle >= geometry_module.MIN_PLANE_ANGLE_DEG
    below, above = straddle(accepts, 0.0, 0.5)
    assert assert_lines_equal_oracle([pair(below), pair(above)], K).tolist() == \
        [False, True]
    angle = oracle_plane_angle_deg(*pair(above), K)
    for limit, accepted in ((angle, True), (np.nextafter(angle, np.inf), False)):
        monkeypatch.setattr(geometry_module, "MIN_PLANE_ANGLE_DEG", limit)
        assert assert_lines_equal_oracle([pair(above)], K).tolist() == [accepted]


def assert_closest_points_equal_oracle(lines, origins, rays):
    out = closest_points_on_lines(np.array([n for n, _ in lines]),
                                  np.array([d for _, d in lines]),
                                  np.array(origins, dtype=float), np.array(rays, dtype=float))
    assert [p.tobytes() for p in out] == \
        [oracle_closest_point_on_line_to_ray(l, o, r).tobytes()
         for l, o, r in zip(lines, origins, rays)]
    return out


def test_closest_points_equal_scalar_oracle():
    rng = np.random.default_rng(16)
    lines = [line_through(rng.normal(0, 3, 3), rng.normal(0, 3, 3))
             for _ in range(200)]
    origins = rng.normal(0.0, 2.0, (200, 3))
    rays = [backproject(rng.uniform([0, 0], [640, 480], (1, 2)), PoseStack.of([pose]), K)[0]
            for pose in mixed_layout_poses(rng, 200)]
    assert_closest_points_equal_oracle(lines, origins, rays)


def test_closest_points_parallel_ray_falls_back_to_line_origin_point():
    line = line_through([1.0, 2.0, 3.0], [1.0, 2.0, 5.0])
    p0 = closest_point_to_origin(line)
    tilted = [0.0, 1e-3, 1.0]  # |det| ~ 1e-6, solved
    for ray in ([0.0, 0.0, 1.0], [0.0, 0.0, -2.0], [0.0, 1e-7, 1.0], tilted):
        d, r = oracle_unit(line[1]), oracle_unit(np.array(ray))
        small = abs(np.linalg.det(np.array([[1.0, -(d @ r)], [d @ r, -1.0]]))) < 1e-12
        assert small == (ray is not tilted)
        out = assert_closest_points_equal_oracle([line], [[0.0, 0.0, 0.0]], [ray])
        assert (out[0].tobytes() == p0.tobytes()) == small
