"""Lie-group, projection, Plücker, and triangulation tests.

The Plücker transform and projection (Bartoli & Sturm 2005) are computed by
the line factor's kernel, so their tests evaluate `LineFactor.residual`.
"""
import numpy as np
import pytest
from scipy.linalg import expm

from monogp.geometry import (
    EPS_Z,
    CameraIntrinsics,
    DegenerateLineError,
    PluckerLine,
    Pose,
    TriangulationError,
    orthonormal_update,
    plucker_to_orthonormal,
    project_points,
    se3_exp,
    skew,
    triangulate_line,
    triangulate_point,
)
from monogp.segments import Segment2D
from test_graph import line_residual, project_point

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
IDENTITY = Pose(np.eye(3), np.zeros(3))


def random_pose(rng, scale=0.5):
    return se3_exp(rng.normal(0.0, scale, size=6))


# -- SE(3) -------------------------------------------------------------------

def test_se3_exp_zero_twist_is_identity():
    pose = se3_exp(np.zeros(6))
    assert np.allclose(pose.matrix(), np.eye(4), atol=1e-15)


def test_se3_exp_quarter_turn_about_z():
    pose = se3_exp([0.0, 0.0, 0.0, 0.0, 0.0, np.pi / 2])
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(pose.rotation, expected, atol=1e-12)
    assert np.allclose(pose.translation, 0.0)


def test_se3_exp_matches_matrix_exponential():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        xi = rng.normal(0.0, 0.3, size=6)
        twist = np.zeros((4, 4))
        twist[:3, :3] = skew(xi[3:])
        twist[:3, 3] = xi[:3]
        assert np.allclose(se3_exp(xi).matrix(), expm(twist), atol=1e-9)


def test_pose_compose_inverse_is_identity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        pose = random_pose(rng)
        ident = pose.compose(pose.inverse())
        assert np.allclose(ident.matrix(), np.eye(4), atol=1e-9)


def test_pose_composition_associative():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b, c = (random_pose(rng) for _ in range(3))
        m1 = a.compose(b).compose(c).matrix()
        m2 = a.compose(b.compose(c)).matrix()
        assert np.allclose(m1, m2, atol=1e-12)


def test_pose_rejects_non_orthonormal_rotation():
    with pytest.raises(ValueError):
        Pose(np.eye(3) * 1.01, np.zeros(3))


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
                                  [IDENTITY, shifted], K)
    assert in_front.tolist() == [False, True]
    assert px.shape == (1, 2, 2)
    assert np.allclose(px[0], [[420.0, 240.0], [320.0, 240.0]])
    in_front, px = project_points([[0.0, 0.0, EPS_Z]], [IDENTITY], K)
    assert not in_front[0] and px.shape == (0, 1, 2)
    in_front, _ = project_points([[0.0, 0.0, np.nextafter(EPS_Z, 1.0)]], [IDENTITY], K)
    assert in_front[0]


def test_project_points_bitwise_per_pose():
    # F-ordered rotations (`from_world_camera`) and C-ordered ones (`se3_exp`)
    # in one stack, each equal to its own `Pose.transform`
    rng = np.random.default_rng(12)
    poses = []
    for k in range(40):
        pose = random_pose(rng, 0.2)
        if k % 3:
            pose = Pose.from_world_camera(pose.r_wc.copy(), pose.camera_center())
        poses.append(pose)
    assert {p.rotation.flags.f_contiguous for p in poses} == {True, False}
    for _ in range(20):
        points = rng.uniform([-1.0, -1.0, 4.0], [1.0, 1.0, 8.0], (2, 3))
        in_front, px = project_points(points, poses, K)
        assert in_front.all()
        for pose, row in zip(poses, px):
            for p, q in zip(points, row):
                p_c = pose.transform(p)
                assert q.tolist() == [K.fx * p_c[0] / p_c[2] + K.cx,
                                      K.fy * p_c[1] / p_c[2] + K.cy]


# -- Plücker lines -----------------------------------------------------------

def test_plucker_constraint_enforced():
    with pytest.raises(ValueError):
        PluckerLine(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def segment_through(points, pose):
    """Image segment between the projections of two world points."""
    return Segment2D(*(project_point(p, pose, K) for p in points), id=0)


def test_transform_plucker_point_membership():
    # points of a world line stay on the camera-frame line: their images lie
    # on its projection, under translations and rotations
    line = PluckerLine.from_two_points([1.0, 0.0, 0.0], [1.0, 1.0, 0.0])
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
    line = PluckerLine.from_two_points([0.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    for ty, row in ((0.0, 240.0), (0.1, 290.0)):
        seg = Segment2D([100.0, row], [500.0, row], id=0)
        r = line_residual(line, Pose(np.eye(3), np.array([0.0, ty, 0.0])), seg)
        assert np.allclose(r, 0.0, atol=1e-9)


def test_project_plucker_scale_invariant_up_to_normalization():
    line = PluckerLine.from_two_points([0.5, -0.2, 2.0], [1.5, 0.8, 2.0])
    double = PluckerLine(2.0 * line.normal, 2.0 * line.direction)
    seg = Segment2D([100.0, 200.0], [400.0, 250.0], id=0)
    rng = np.random.default_rng(12)
    for _ in range(20):
        pose = se3_exp(rng.normal(0.0, 0.1, 6))
        assert np.allclose(line_residual(line, pose, seg),
                           line_residual(double, pose, seg), atol=1e-9)


def test_project_plucker_optical_axis_degenerate():
    line = PluckerLine.from_two_points([0.0, 0.0, 1.0], [0.0, 0.0, 2.0])
    seg = Segment2D([300.0, 240.0], [340.0, 240.0], id=0)
    with pytest.raises(DegenerateLineError):
        line_residual(line, IDENTITY, seg)


def test_point_on_line_projects_onto_image_line():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p0 = rng.normal(0.0, 1.0, 3) + [0.0, 0.0, 4.0]
        d = rng.normal(0.0, 1.0, 3)
        line = PluckerLine.from_two_points(p0, p0 + d)
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
        line = PluckerLine.from_two_points(rng.normal(0, 3, 3), rng.normal(0, 3, 3))
        ca, cb = line.canonical_coords(), plucker_coords(plucker_to_orthonormal(line))
        assert np.allclose(ca, cb, atol=1e-9) or np.allclose(ca, -cb, atol=1e-9)


def test_orthonormal_zero_update_is_identity():
    line = PluckerLine.from_two_points([1.0, 2.0, 3.0], [0.0, 1.0, 5.0])
    o = plucker_to_orthonormal(line)
    o2 = orthonormal_update(o, np.zeros(4))
    assert np.allclose(o.U, o2.U) and np.allclose(o.W, o2.W)


def test_orthonormal_small_update_small_change():
    line = PluckerLine.from_two_points([1.0, 2.0, 3.0], [0.0, 1.0, 5.0])
    o = plucker_to_orthonormal(line)
    o2 = orthonormal_update(o, 1e-8 * np.ones(4))
    assert np.linalg.norm(plucker_coords(o) - plucker_coords(o2)) < 1e-6


def test_orthonormal_update_preserves_constraint():
    rng = np.random.default_rng(9)
    line = PluckerLine.from_two_points([2.0, 0.0, 1.0], [0.0, 1.0, 4.0])
    o = plucker_to_orthonormal(line)
    for _ in range(100):
        o = orthonormal_update(o, rng.normal(0.0, 0.1, 4))
        v = plucker_coords(o)
        assert abs(float(v[:3] @ v[3:])) < 1e-9
        assert np.allclose(o.U @ o.U.T, np.eye(3), atol=1e-9)


# -- triangulation -----------------------------------------------------------

def test_triangulate_point_noiseless_roundtrip():
    rng = np.random.default_rng(10)
    pose_a = IDENTITY
    pose_b = Pose.from_world_camera(np.eye(3), [0.5, 0.0, 0.0])
    for _ in range(100):
        p = rng.uniform([-1, -1, 2], [1, 1, 6])
        obs_a = project_point(p, pose_a, K)
        obs_b = project_point(p, pose_b, K)
        rec = triangulate_point(obs_a, obs_b, pose_a, pose_b, K)
        assert np.linalg.norm(rec - p) < 1e-9


def test_triangulate_point_identical_poses_raises():
    with pytest.raises(TriangulationError, match="insufficient parallax"):
        triangulate_point([320, 240], [330, 240], IDENTITY, IDENTITY, K)


def test_triangulate_line_noiseless_roundtrip():
    rng = np.random.default_rng(11)
    pose_a = IDENTITY
    pose_b = Pose.from_world_camera(np.eye(3), [0.8, 0.2, 0.0])
    for _ in range(50):
        p0 = rng.uniform([-1, -1, 3], [1, 1, 6])
        d = rng.normal(0.0, 1.0, 3)
        d /= np.linalg.norm(d)
        p1 = p0 + 1.5 * d
        truth = PluckerLine.from_two_points(p0, p1)
        seg_a = Segment2D(project_point(p0, pose_a, K),
                          project_point(p1, pose_a, K), id=0)
        seg_b = Segment2D(project_point(p0, pose_b, K),
                          project_point(p1, pose_b, K), id=0)
        try:
            rec = triangulate_line(seg_a, seg_b, pose_a, pose_b, K)
        except TriangulationError:
            continue  # plane angle below threshold for this draw
        ca, cb = truth.canonical_coords(), rec.canonical_coords()
        assert np.allclose(ca, cb, atol=1e-9) or np.allclose(ca, -cb, atol=1e-9)
