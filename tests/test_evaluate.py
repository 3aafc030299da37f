"""TUM trajectory I/O, rotation conversions, Umeyama alignment, ATE RMSE."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import monogp
from monogp.cli import main
from monogp.evaluate import (
    Trajectory,
    _matrix_from_quat,
    _quat_from_matrix,
    ate_rmse,
    load_tum,
    save_tum,
    umeyama_align,
)
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
    assert np.allclose(traj.poses[0].rotation, np.eye(3))
    assert np.allclose(traj.poses[0].translation, 0.0)
    assert np.allclose(traj.poses[1].camera_center(), [1.0, 2.0, 3.0])


def test_tum_roundtrip_random(tmp_path):
    rng = np.random.default_rng(0)
    poses = [se3_exp(rng.normal(0.0, 0.5, 6)) for _ in range(100)]
    # Every Shepperd branch, the three half-turns and I (see SCIPY_CONVERSIONS).
    poses += [Pose.from_world_camera(unhex(m).reshape(3, 3), rng.normal(0.0, 2.0, 3))
              for m, _, _ in SCIPY_CONVERSIONS.values()]
    traj = Trajectory(np.arange(len(poses), dtype=float), poses)
    path = tmp_path / "traj.tum"
    save_tum(traj, path)
    loaded = load_tum(path)
    assert np.array_equal(loaded.timestamps, traj.timestamps)
    for a, b in zip(traj.poses, loaded.poses):
        assert np.allclose(a.rotation, b.rotation, rtol=0.0, atol=1e-14)
        assert np.allclose(a.translation, b.translation, rtol=0.0, atol=1e-14)


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


# -- rotation conversions -----------------------------------------------------

# Captured from scipy 1.17.1, so the pins hold whatever scipy is installed:
# a rotation matrix M (row-major), q = `Rotation.from_matrix(M).as_quat()`
# ([x, y, z, w]) and `Rotation.from_quat(q).as_matrix()`. The comment names
# the Shepperd branch, the first largest of [m00, m11, m22, trace].
SCIPY_CONVERSIONS = {
    "x": (  # branch 0
        "0x1.929fd39bacaf5p-1 0x1.2e10459ab7c1fp-1 -0x1.7721d63633c1ap-3 "
        "0x1.957e9868a53d4p-2 -0x1.6b0163229a853p-1 -0x1.2ac597ae4aaebp-1 "
        "-0x1.e583d74e494abp-2 0x1.8b9e8ea35e038p-2 -0x1.9512af4930b7fp-1",
        "0x1.d018cf9dd583bp-1 0x1.1675495eb34f0p-2 -0x1.73470c7e44696p-3 "
        "0x1.11eb3682a4c63p-2",
        "0x1.929fd39bacaf6p-1 0x1.2e10459ab7c1fp-1 -0x1.7721d63633c19p-3 "
        "0x1.957e9868a53d4p-2 -0x1.6b0163229a852p-1 -0x1.2ac597ae4aaebp-1 "
        "-0x1.e583d74e494acp-2 0x1.8b9e8ea35e039p-2 -0x1.9512af4930b7ep-1"),
    "y": (  # branch 1
        "-0x1.9512af4930b7fp-1 0x1.7721d63633c1ap-3 0x1.2ac597ae4aaebp-1 "
        "0x1.e583d74e494abp-2 0x1.929fd39bacaf5p-1 0x1.957e9868a53d4p-2 "
        "-0x1.8b9e8ea35e038p-2 0x1.2e10459ab7c1fp-1 -0x1.6b0163229a853p-1",
        "0x1.73470c7e44696p-3 0x1.d018cf9dd583bp-1 0x1.1675495eb34f0p-2 "
        "0x1.11eb3682a4c63p-2",
        "-0x1.9512af4930b7ep-1 0x1.7721d63633c19p-3 0x1.2ac597ae4aaebp-1 "
        "0x1.e583d74e494acp-2 0x1.929fd39bacaf6p-1 0x1.957e9868a53d4p-2 "
        "-0x1.8b9e8ea35e039p-2 0x1.2e10459ab7c1fp-1 -0x1.6b0163229a852p-1"),
    "z": (  # branch 2
        "-0x1.6b0163229a856p-1 -0x1.2ac597ae4aae7p-1 -0x1.957e9868a53d7p-2 "
        "0x1.8b9e8ea35e031p-2 -0x1.9512af4930b82p-1 0x1.e583d74e494aap-2 "
        "-0x1.2e10459ab7c1fp-1 0x1.7721d63633c21p-3 0x1.929fd39bacaf7p-1",
        "-0x1.1675495eb34f0p-2 0x1.73470c7e44697p-3 0x1.d018cf9dd583cp-1 "
        "0x1.11eb3682a4c5ep-2",
        "-0x1.6b0163229a856p-1 -0x1.2ac597ae4aae8p-1 -0x1.957e9868a53d6p-2 "
        "0x1.8b9e8ea35e031p-2 -0x1.9512af4930b82p-1 0x1.e583d74e494aap-2 "
        "-0x1.2e10459ab7c1fp-1 0x1.7721d63633c21p-3 0x1.929fd39bacaf6p-1"),
    "w": (  # branch 3
        "0x1.c3ccb294fcecbp-1 -0x1.7832ddf3c8107p-2 -0x1.2cee25e055d54p-2 "
        "0x1.6f1d66077c716p-3 0x1.ae20a0f3956adp-1 -0x1.0620be93aca10p-1 "
        "0x1.bd6946145d370p-2 0x1.98abc9ca868d5p-2 0x1.9d4576cb615b2p-1",
        "0x1.f091ae657692ap-3 -0x1.8d4158512ba88p-3 0x1.29f1023ce0be6p-3 "
        "0x1.e0f575d0de5b7p-1",
        "0x1.c3ccb294fcec9p-1 -0x1.7832ddf3c8107p-2 -0x1.2cee25e055d53p-2 "
        "0x1.6f1d66077c716p-3 0x1.ae20a0f3956abp-1 -0x1.0620be93aca0fp-1 "
        "0x1.bd6946145d36fp-2 0x1.98abc9ca868d4p-2 0x1.9d4576cb615b0p-1"),
    "half-turn x": (  # branch 0
        "0x1p+0 0x0p+0 0x0p+0 0x0p+0 -0x1p+0 0x0p+0 0x0p+0 0x0p+0 -0x1p+0",
        "0x1p+0 0x0p+0 0x0p+0 0x0p+0",
        "0x1p+0 0x0p+0 0x0p+0 0x0p+0 -0x1p+0 0x0p+0 0x0p+0 0x0p+0 -0x1p+0"),
    "half-turn y": (  # branch 1
        "-0x1p+0 0x0p+0 0x0p+0 0x0p+0 0x1p+0 0x0p+0 0x0p+0 0x0p+0 -0x1p+0",
        "0x0p+0 0x1p+0 0x0p+0 0x0p+0",
        "-0x1p+0 0x0p+0 0x0p+0 0x0p+0 0x1p+0 0x0p+0 0x0p+0 0x0p+0 -0x1p+0"),
    "half-turn z": (  # branch 2
        "-0x1p+0 0x0p+0 0x0p+0 0x0p+0 -0x1p+0 0x0p+0 0x0p+0 0x0p+0 0x1p+0",
        "0x0p+0 0x0p+0 0x1p+0 0x0p+0",
        "-0x1p+0 0x0p+0 0x0p+0 0x0p+0 -0x1p+0 0x0p+0 0x0p+0 0x0p+0 0x1p+0"),
    "identity": (  # branch 3
        "0x1p+0 0x0p+0 0x0p+0 0x0p+0 0x1p+0 0x0p+0 0x0p+0 0x0p+0 0x1p+0",
        "0x0p+0 0x0p+0 0x0p+0 0x1p+0",
        "0x1p+0 0x0p+0 0x0p+0 0x0p+0 0x1p+0 0x0p+0 0x0p+0 0x0p+0 0x1p+0"),
}

# Quaternions of norm 1.0005 and 0.9995 (q of "w" scaled) and their scipy
# 1.17.1 `Rotation.from_quat(q).as_matrix()`, which normalizes first.
SCIPY_NON_UNIT = [
    ("0x1.f0d13df8b6c29p-3 -0x1.8d743193c5687p-3 0x1.2a17252ed40e5p-3 "
     "0x1.e13305dff2f2cp-1",
     "0x1.c3ccb294fcec9p-1 -0x1.7832ddf3c8107p-2 -0x1.2cee25e055d53p-2 "
     "0x1.6f1d66077c716p-3 0x1.ae20a0f3956abp-1 -0x1.0620be93aca0fp-1 "
     "0x1.bd6946145d36fp-2 0x1.98abc9ca868d4p-2 0x1.9d4576cb615b0p-1"),
    ("0x1.f0521ed23662bp-3 -0x1.8d0e7f0e91e89p-3 0x1.29cadf4aed6e7p-3 "
     "0x1.e0b7e5c1c9c42p-1",
     "0x1.c3ccb294fcec9p-1 -0x1.7832ddf3c8107p-2 -0x1.2cee25e055d53p-2 "
     "0x1.6f1d66077c716p-3 0x1.ae20a0f3956abp-1 -0x1.0620be93aca0fp-1 "
     "0x1.bd6946145d36fp-2 0x1.98abc9ca868d4p-2 0x1.9d4576cb615b0p-1"),
]


def unhex(text):
    return np.array([float.fromhex(t) for t in text.split()])


def hexes(values):
    """`float.hex` of each value: equal lists are equal bytes, -0.0 included."""
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("name", list(SCIPY_CONVERSIONS))
def test_conversions_match_pinned_scipy_bytes(name):
    m, q, m_of_q = (unhex(t) for t in SCIPY_CONVERSIONS[name])
    m = m.reshape(3, 3)
    assert hexes(_quat_from_matrix(m)) == hexes(q)
    # `Pose.r_wc` is a transposed view: the memory layout changes nothing.
    assert hexes(_quat_from_matrix(np.asfortranarray(m))) == hexes(q)
    assert hexes(_matrix_from_quat(q)) == hexes(m_of_q)


@pytest.mark.parametrize("q, m", SCIPY_NON_UNIT)
def test_matrix_from_non_unit_quat_matches_pinned_scipy_bytes(q, m):
    assert hexes(_matrix_from_quat(unhex(q))) == hexes(unhex(m))


def test_conversions_match_live_scipy_on_random_rotations():
    transform = pytest.importorskip("scipy.spatial.transform")
    rng = np.random.default_rng(14)
    quats = rng.normal(0.0, 1.0, (2000, 4))
    for raw in quats:
        q = raw / np.linalg.norm(raw)
        m = transform.Rotation.from_quat(q).as_matrix()
        assert hexes(_matrix_from_quat(q)) == hexes(m)
        assert hexes(_matrix_from_quat(raw)) == hexes(
            transform.Rotation.from_quat(raw).as_matrix())
        for layout in (m, np.asfortranarray(m)):
            assert hexes(_quat_from_matrix(layout)) == hexes(
                transform.Rotation.from_matrix(layout).as_quat())
    # Just inside scipy's orthogonality test (off-diagonal of m mᵀ within
    # 1e-12, diagonal within 1e-5): no re-orthogonalization, same bytes.
    r = quats[0] / np.linalg.norm(quats[0])
    r = transform.Rotation.from_quat(r).as_matrix()
    shear = np.eye(3)
    shear[0, 1] = 8e-13
    for m in (shear @ r, (1.0 + 4.9e-6) * r):
        assert hexes(_quat_from_matrix(m)) == hexes(
            transform.Rotation.from_matrix(m).as_quat())


def test_quat_from_matrix_rejects_what_scipy_would_change():
    with pytest.raises(ValueError, match="non-positive determinant"):
        _quat_from_matrix(np.diag([1.0, 1.0, -1.0]))
    r = rot_z(30.0)
    shear = np.eye(3)
    shear[0, 1] = 1.2e-12
    for m in (r + 1e-9, shear @ r, (1.0 + 5.1e-6) * r):
        with pytest.raises(ValueError, match="not orthonormal"):
            _quat_from_matrix(m)


def test_save_tum_rejects_a_perturbed_rotation(tmp_path):
    # Within Pose's own 1e-6 tolerance, outside scipy's 1e-12: scipy would
    # write the quaternion of the nearest rotation instead.
    r = rot_z(30.0)
    r[0, 1] += 1e-9
    traj = Trajectory([0.0, 1.0], [Pose(np.eye(3), np.zeros(3)),
                                   Pose.from_world_camera(r, np.zeros(3))])
    path = tmp_path / "perturbed.tum"
    with pytest.raises(ValueError, match="not orthonormal"):
        save_tum(traj, path)
    assert not path.exists()


def test_import_cli_loads_no_scipy():
    paths = [str(Path(monogp.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    code = ("import sys, monogp.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


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


def test_ate_without_shared_timestamps_raises():
    points = np.random.default_rng(8).normal(0.0, 1.0, (4, 3))
    est = position_traj(points)
    ref = Trajectory(est.timestamps + 10.0, est.poses)
    for align in (False, True):
        with pytest.raises(ValueError, match="insufficient pairs"):
            ate_rmse(est, ref, align=align)


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
