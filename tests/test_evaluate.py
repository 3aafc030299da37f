"""TUM trajectory I/O, Umeyama alignment, ATE RMSE."""
import numpy as np
import pytest

from monogp.cli import main
from monogp.evaluate import Trajectory, ate_rmse, load_tum, save_tum, umeyama_align
from monogp.geometry import Pose, se3_exp


def position_traj(points):
    points = np.asarray(points, dtype=float)
    return Trajectory(np.arange(len(points), dtype=float),
                      [Pose.from_world_camera(np.eye(3), p) for p in points])


def rot_z(deg):
    th = np.radians(deg)
    return np.array([[np.cos(th), -np.sin(th), 0.0],
                     [np.sin(th), np.cos(th), 0.0],
                     [0.0, 0.0, 1.0]])


# -- TUM I/O ------------------------------------------------------------------

def test_identity_line_parses():
    import io, tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".tum", delete=False) as f:
        f.write("# comment\n0.0 0 0 0 0 0 0 1\n1.0 1 2 3 0 0 0 1\n")
        path = f.name
    traj = load_tum(path)
    os.unlink(path)
    assert len(traj.poses) == 2
    assert np.allclose(traj.poses[0].matrix(), np.eye(4))
    assert np.allclose(traj.poses[1].camera_center(), [1.0, 2.0, 3.0])


def test_tum_roundtrip_random(tmp_path):
    rng = np.random.default_rng(0)
    poses = [se3_exp(rng.normal(0.0, 0.5, 6)) for _ in range(100)]
    traj = Trajectory(np.arange(100, dtype=float), poses)
    path = tmp_path / "traj.tum"
    save_tum(traj, path)
    loaded = load_tum(path)
    for a, b in zip(traj.poses, loaded.poses):
        assert np.allclose(a.matrix(), b.matrix(), atol=1e-9)


def test_tum_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.tum"
    path.write_text("0.0 0 0 0 0 0 0 1\n1.0 0 0 0 0 0 0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_tum(path)


def test_tum_non_finite_value_names_line(tmp_path, capsys):
    good = tmp_path / "good.tum"
    good.write_text("".join(f"{t}.0 {t} {t % 2} {t % 3} 0 0 0 1\n" for t in range(4)))
    path = tmp_path / "nan.tum"
    for bad in ("nan", "inf"):
        path.write_text(f"0.0 0 0 0 0 0 0 1\n1.0 {bad} 0 0 0 0 0 1\n2.0 0 1 0 0 0 0 1\n")
        with pytest.raises(ValueError, match="line 2: non-finite value"):
            load_tum(path)
    assert main(["eval", str(path), str(good)]) == 1
    assert "line 2: non-finite value" in capsys.readouterr().err


def test_tum_bad_float_names_line(tmp_path, capsys):
    good = tmp_path / "good.tum"
    good.write_text("".join(f"{t}.0 {t} {t % 2} {t % 3} 0 0 0 1\n" for t in range(4)))
    path = tmp_path / "bad.tum"
    path.write_text("0.0 0 0 0 0 0 0 1\n1.0 x 0 0 0 0 0 1\n2.0 0 1 0 0 0 0 1\n")
    reason = "parse error at line 2: could not convert string to float: 'x'"
    with pytest.raises(ValueError, match=reason):
        load_tum(path)
    assert main(["eval", str(path), str(good)]) == 1
    assert reason in capsys.readouterr().err


def test_non_monotonic_timestamps_rejected():
    with pytest.raises(ValueError, match="non-monotonic"):
        Trajectory(np.array([0.0, 2.0, 1.0]),
                   [Pose(np.eye(3), np.zeros(3))] * 3)


# -- alignment ----------------------------------------------------------------

def test_align_identical_is_identity():
    traj = position_traj(np.random.default_rng(1).normal(0.0, 1.0, (10, 3)))
    a = umeyama_align(traj, traj)
    assert abs(a["s"] - 1.0) < 1e-12
    assert np.allclose(a["R"], np.eye(3), atol=1e-9)
    assert np.allclose(a["t"], 0.0, atol=1e-9)


def test_align_recovers_planted_similarity():
    rng = np.random.default_rng(2)
    P = rng.normal(0.0, 1.0, (20, 3))
    R = rot_z(30.0)
    Q = 2.0 * (R @ P.T).T + np.array([1.0, 2.0, 3.0])
    a = umeyama_align(position_traj(P), position_traj(Q))
    assert abs(a["s"] - 2.0) < 1e-9
    assert np.allclose(a["R"], R, atol=1e-9)
    assert np.allclose(a["t"], [1.0, 2.0, 3.0], atol=1e-9)


def test_align_without_scale_fixes_s():
    rng = np.random.default_rng(3)
    P = rng.normal(0.0, 1.0, (15, 3))
    Q = 2.0 * P
    a = umeyama_align(position_traj(P), position_traj(Q), with_scale=False)
    assert a["s"] == 1.0


def test_align_collinear_degenerate():
    P = np.outer(np.arange(5, dtype=float), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="degenerate geometry"):
        umeyama_align(position_traj(P), position_traj(P + 0.0))


def test_align_insufficient_pairs():
    P = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="insufficient pairs"):
        umeyama_align(position_traj(P), position_traj(P))


# -- ATE ----------------------------------------------------------------------

def test_ate_identical_is_zero():
    traj = position_traj(np.random.default_rng(4).normal(0.0, 1.0, (12, 3)))
    assert ate_rmse(traj, traj) < 1e-12
    assert ate_rmse(traj, traj, align=False) == 0.0


def test_ate_four_corner_example_exact():
    ref = position_traj([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    est = position_traj([[0, 0, 0.2], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    assert ate_rmse(est, ref, align=False) == 0.1


def test_ate_invariant_to_common_similarity():
    rng = np.random.default_rng(5)
    P = rng.normal(0.0, 1.0, (20, 3))
    Q = P + rng.normal(0.0, 0.01, (20, 3))
    base = ate_rmse(position_traj(P), position_traj(Q))
    R = rot_z(45.0)
    P2 = 3.0 * (R @ P.T).T + [5.0, -1.0, 2.0]
    Q2 = 3.0 * (R @ Q.T).T + [5.0, -1.0, 2.0]
    moved = ate_rmse(position_traj(P2), position_traj(Q2))
    assert abs(base * 3.0 - moved) < 1e-9


def test_ate_zero_for_similarity_transformed_copy():
    rng = np.random.default_rng(6)
    P = rng.normal(0.0, 1.0, (20, 3))
    Q = 1.7 * (rot_z(20.0) @ P.T).T + [0.3, 0.4, 0.5]
    assert ate_rmse(position_traj(P), position_traj(Q)) < 1e-12
