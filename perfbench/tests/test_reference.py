"""The reference alignment and ATE, checked on planted transforms."""
import math

import numpy as np
import pytest

import reference as ref
from monogp.geometry import Pose, so3_exp


def _planted(seed):
    rng = np.random.default_rng(seed)
    src = rng.normal(0.0, 2.0, size=(20, 3))
    r = so3_exp(rng.normal(0.0, 1.0, size=3))
    s = float(rng.uniform(0.2, 5.0))
    t = rng.normal(0.0, 3.0, size=3)
    return src, s, r, t


@pytest.mark.parametrize("seed", range(5))
def test_similarity_recovers_planted_transform(seed):
    src, s, r, t = _planted(seed)
    dst = s * src @ r.T + t
    s_hat, r_hat, t_hat = ref.similarity_align(src, dst)
    assert s_hat == pytest.approx(s, rel=1e-12)
    assert np.abs(r_hat - r).max() < 1e-12
    assert np.abs(t_hat - t).max() < 1e-11
    assert ref.ate_rmse(src, dst) < 1e-12


def test_ate_of_known_offsets():
    src, s, r, t = _planted(7)
    offsets = np.zeros_like(src)
    offsets[::2, 2] = 0.01   # alternating, so no similarity absorbs them
    offsets[1::2, 2] = -0.01
    offsets -= offsets.mean(axis=0)
    dst = s * src @ r.T + t + offsets
    # the optimal alignment can only lower the error of the planted transform
    planted_rmse = math.sqrt(np.mean(np.sum(offsets ** 2, axis=1)))
    assert 0.9 * planted_rmse < ref.ate_rmse(src, dst) <= planted_rmse + 1e-15


def test_camera_centers():
    r_wc = so3_exp([0.1, -0.2, 0.3])
    c = np.array([1.0, 2.0, 3.0])
    assert np.allclose(ref.camera_centers([Pose.from_world_camera(r_wc, c)])[0], c)


def test_axis_angles_are_sign_free():
    assert ref.axis_angle_deg([1, 0, 0], [-1, 0, 0]) == 0.0
    assert ref.axis_angle_deg([1, 0, 0], [0, 1, 0]) == pytest.approx(90.0)
    assert ref.nearest_angles_deg([[1, 0, 0]], []) == [180.0]


def test_planted_vanishing_point_round_trip():
    r_cw = so3_exp([0.2, 0.1, -0.3])
    fx, fy, cx, cy = 500.0, 450.0, 320.0, 240.0
    k = np.array([[fx, 0, cx], [0, fy, cy], [0, 0, 1.0]])
    families = [[1, 0, 0], [0, 1, 1]]
    truth = ref.planted_camera_directions(families, r_cw)
    vps = [k @ d for d in truth]
    for d, back in zip(truth, ref.camera_directions(vps, fx, fy, cx, cy)):
        assert ref.axis_angle_deg(d, back) < 1e-9
