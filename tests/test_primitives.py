"""Global-primitive fusion, registry bookkeeping, association graph."""
import json
import math

import numpy as np
import pytest

from monogp import primitives as primitives_module
from monogp.primitives import (
    FUSE_TOL_DEG,
    GlobalPrimitiveRegistry,
    fuse_directions,
    is_parallel,
)
from monogp.vanishing import canonical_direction


def random_unit(rng):
    d = rng.normal(0.0, 1.0, 3)
    return d / np.linalg.norm(d)


def test_is_parallel_basic():
    d = np.array([0.0, 1.0, 0.0])
    assert is_parallel(d, d, 1.0)
    assert is_parallel(d, -d, 1.0)
    four = np.array([np.cos(np.radians(4.0)), np.sin(np.radians(4.0)), 0.0])
    assert is_parallel([1.0, 0.0, 0.0], four, 5.0)
    assert not is_parallel([1.0, 0.0, 0.0], four, 3.0)


def test_fuse_fixed_point():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = canonical_direction(random_unit(rng))
        assert np.allclose(fuse_directions(d, 7, d, 3, 50), d, atol=1e-12)


def test_fuse_hand_value():
    d_i = np.array([1.0, 0.0, 0.0])
    ang = np.radians(2.0)
    d_j = np.array([np.cos(ang), np.sin(ang), 0.0])
    fused = fuse_directions(d_i, 30, d_j, 10, 40)
    expected = 0.75 * d_i + 0.25 * d_j
    expected /= np.linalg.norm(expected)
    assert np.allclose(fused, expected, atol=1e-12)
    # roughly a quarter of the way toward d_j
    assert abs(np.degrees(np.arccos(np.clip(fused @ d_i, -1, 1))) - 0.5) < 0.01


def test_fuse_antiparallel_canonicalization():
    d = np.array([0.0, 0.0, 1.0])
    assert np.allclose(fuse_directions(d, 5, -d, 5, 20), d, atol=1e-12)


def test_fuse_not_parallel_raises():
    with pytest.raises(ValueError, match="not parallel"):
        fuse_directions([1.0, 0.0, 0.0], 5, [0.0, 1.0, 0.0], 5, 20)


def test_fuse_symmetry_and_weight_homogeneity():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 1000:
        d_i = random_unit(rng)
        tilt = rng.normal(0.0, 0.02, 3)
        d_j = d_i + tilt
        d_j /= np.linalg.norm(d_j)
        if not is_parallel(d_i, d_j, 5.0):
            continue
        n_i, n_j = rng.integers(1, 30), rng.integers(1, 30)
        n_l = int(max(n_i, n_j) + rng.integers(0, 20))
        a = fuse_directions(d_i, n_i, d_j, n_j, n_l)
        b = fuse_directions(d_j, n_j, d_i, n_i, n_l)
        c = fuse_directions(d_i, 3 * n_i, d_j, 3 * n_j, 3 * n_l)
        assert np.allclose(a, b, atol=1e-12)
        assert np.allclose(a, c, atol=1e-12)
        # fused direction stays within the angular span of the inputs
        dj_aligned = d_j if d_i @ d_j >= 0 else -d_j
        span = np.arccos(np.clip(d_i @ dj_aligned, -1, 1))
        signed = a if a @ d_i >= 0 else -a
        assert np.arccos(np.clip(signed @ d_i, -1, 1)) <= span + 1e-9
        assert np.arccos(np.clip(signed @ dj_aligned, -1, 1)) <= span + 1e-9
        checked += 1


def test_registry_bootstrap():
    reg = GlobalPrimitiveRegistry()
    out = reg.associate_frame(0, [(np.array([1.0, 0.0, 0.0]),
                                   frozenset(range(12)))], n_l=100)
    assert out == [(0, frozenset(range(12)))]
    assert len(reg.primitives) == 1
    assert abs(reg.primitives[0].support_weight - 0.12) < 1e-12


def test_registry_running_fusion():
    reg = GlobalPrimitiveRegistry()
    reg.associate_frame(0, [(np.array([1.0, 0.0, 0.0]), frozenset(range(50)))],
                        n_l=100)
    ang = np.radians(1.0)
    d_new = np.array([np.cos(ang), np.sin(ang), 0.0])
    reg.associate_frame(1, [(d_new, frozenset(range(25)))], n_l=100)
    gp = reg.primitives[0]
    assert len(reg.primitives) == 1
    assert abs(gp.support_weight - 0.75) < 1e-12
    expected = 0.5 * np.array([1.0, 0.0, 0.0]) + 0.25 * d_new
    expected /= np.linalg.norm(expected)
    assert np.allclose(gp.direction, expected, atol=1e-12)


def test_registry_distant_direction_appends():
    reg = GlobalPrimitiveRegistry()
    reg.associate_frame(0, [(np.array([1.0, 0.0, 0.0]), frozenset([1]))], n_l=10)
    out = reg.associate_frame(1, [(canonical_direction([1.0, 1.0, 0.0]),
                                   frozenset([2, 3]))], n_l=10)
    assert out == [(1, frozenset([2, 3]))]
    assert len(reg.primitives) == 2


def test_match_nearest_within_tolerance():
    assert FUSE_TOL_DEG == 5.0
    reg = GlobalPrimitiveRegistry()
    reg.associate_frame(0, [(np.array([1.0, 0.0, 0.0]), frozenset([0])),
                            (canonical_direction([1.0, np.tan(np.radians(6.0)), 0.0]),
                             frozenset([1]))], n_l=10)
    assert len(reg.primitives) == 2
    ang = np.radians(4.0)
    assert reg.match(np.array([np.cos(ang), np.sin(ang), 0.0])) == 1
    ang = np.radians(2.0)
    assert reg.match(np.array([np.cos(ang), np.sin(ang), 0.0])) == 0


def test_match_antiparallel():
    reg = GlobalPrimitiveRegistry()
    reg.associate_frame(0, [(np.array([0.0, 0.0, 1.0]), frozenset([0]))], n_l=10)
    ang = np.radians(1.0)
    assert reg.match(np.array([0.0, -np.sin(ang), -np.cos(ang)])) == 0


def test_match_at_or_above_tolerance_is_none(monkeypatch):
    x = np.array([1.0, 0.0, 0.0])
    ang = np.radians(3.0)
    d = np.array([np.cos(ang), np.sin(ang), 0.0])
    exact = math.degrees(math.acos(float(x @ d)))
    monkeypatch.setattr(primitives_module, "FUSE_TOL_DEG", exact)
    reg = GlobalPrimitiveRegistry()
    reg.associate_frame(0, [(x, frozenset([0]))], n_l=10)
    assert reg.match(d) is None  # the bound is strict
    with pytest.raises(ValueError, match="not parallel"):
        fuse_directions(x, 1, d, 1, 2)
    monkeypatch.setattr(primitives_module, "FUSE_TOL_DEG", np.nextafter(exact, np.inf))
    assert reg.match(d) == 0
    fuse_directions(x, 1, d, 1, 2)
    monkeypatch.setattr(primitives_module, "FUSE_TOL_DEG", 2.0)
    assert reg.match(d) is None
    assert reg.match(np.array([0.0, 1.0, 0.0])) is None


def test_match_empty_registry():
    assert GlobalPrimitiveRegistry().match(np.array([1.0, 0.0, 0.0])) is None


def test_registry_bookkeeping_consistency():
    rng = np.random.default_rng(2)
    reg = GlobalPrimitiveRegistry()
    n_l = 50
    base = [np.eye(3)[k] for k in range(3)]
    for frame in range(30):
        lifted = []
        for k in range(3):
            d = base[k] + rng.normal(0.0, 0.01, 3)
            lifted.append((canonical_direction(d),
                           frozenset(rng.choice(100, size=rng.integers(3, 12),
                                                replace=False).tolist())))
        reg.associate_frame(frame, lifted, n_l)
    for gp_id, gp in enumerate(reg.primitives):
        assert abs(np.linalg.norm(gp.direction) - 1.0) < 1e-12
        k = int(np.argmax(np.abs(gp.direction)))
        assert gp.direction[k] > 0  # sign canonical
        assert abs(gp.support_weight - reg.recompute_support(n_l, gp_id)) < 1e-12


def test_association_graph_complete_per_gp():
    reg = GlobalPrimitiveRegistry()
    d = np.array([0.0, 0.0, 1.0])
    for frame in (1, 2, 3):
        reg.associate_frame(frame, [(d, frozenset([frame]))], n_l=10)
    nodes, edges = reg.association_graph()
    assert nodes == frozenset({1, 2, 3})
    assert {(a, b) for a, b, _ in edges} == {(1, 2), (1, 3), (2, 3)}


def test_association_graph_disjoint_gps():
    reg = GlobalPrimitiveRegistry()
    reg.associate_frame(0, [(np.array([1.0, 0.0, 0.0]), frozenset([0]))], n_l=10)
    reg.associate_frame(1, [(np.array([1.0, 0.0, 0.0]), frozenset([1]))], n_l=10)
    reg.associate_frame(5, [(np.array([0.0, 0.0, 1.0]), frozenset([2]))], n_l=10)
    reg.associate_frame(6, [(np.array([0.0, 0.0, 1.0]), frozenset([3]))], n_l=10)
    _, edges = reg.association_graph()
    by_gp = {}
    for a, b, gp_id in edges:
        by_gp.setdefault(gp_id, set()).add((a, b))
    assert by_gp == {0: {(0, 1)}, 1: {(5, 6)}}


def test_registry_json_dump():
    reg = GlobalPrimitiveRegistry()
    reg.associate_frame(4, [(np.array([0.0, 1.0, 0.0]), frozenset([7, 8]))], n_l=20)
    entries = json.loads(reg.to_json())
    assert entries == [{"gp_id": 0, "direction": [0.0, 1.0, 0.0],
                        "support": 0.1, "frames": [4]}]


def test_axis_angle_clamps_above_one_and_keeps_nan():
    axis_angle = primitives_module._axis_angle_deg

    def clipped(d, g):  # the form it replaced: np.clip on the float
        return math.degrees(math.acos(np.clip(abs(float(d @ g)), 0.0, 1.0)))

    rng = np.random.default_rng(4)
    units = rng.normal(size=(2000, 3))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    for d, g in zip(units[::2], units[1::2]):
        assert axis_angle(d, g) == clipped(d, g)
    # a unit vector whose |d·d| rounds above 1, both signs: the angle is 0
    above = [d for d in units if abs(float(d @ d)) > 1.0]
    assert above
    for d in above[:5]:
        assert axis_angle(d, d) == axis_angle(d, -d) == clipped(d, d) == 0.0
    assert math.isnan(axis_angle(np.array([math.nan, 0.0, 0.0]), units[0]))
