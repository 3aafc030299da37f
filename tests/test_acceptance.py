"""Acceptance gate: one pass/fail line per criterion.

Each test exercises one acceptance criterion end to end and prints a single
summary line of the form ``[criterion N] PASS|FAIL — detail`` before asserting.
"""
import filecmp
import json
import statistics
import time

import numpy as np

from monogp.cli import main
from monogp.evaluate import Trajectory, ate_rmse, umeyama_align
from monogp.geometry import CameraIntrinsics, Pose, se3_exp
from monogp.pipeline import run_ablation, run_pipeline
from monogp.primitives import GlobalPrimitiveRegistry, fuse_directions, is_parallel
from monogp.scenarios import default_corridor, nonoverlap, perturbed_corridor, structured
from monogp.segments import endpoints
from monogp.simulate import generate_trajectory, generate_world, render_measurements
from monogp.tracking import (
    overlap_gate,
    reprojection_gate,
    run_gates,
    sensitivity_gate,
    write_gate_audit,
)
from monogp.vanishing import canonical_direction, detect_vanishing_points, lift_vanishing_point

from test_graph import batch_jacobian_errors, build_random_factor_graph
from test_segments import segment
from test_tracking import first, one_pair

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)


def report(n, ok, detail):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_jacobians_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        graph, _ = build_random_factor_graph(seed)
        worst = max(worst, *batch_jacobian_errors(graph).values())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    report(1, ok, f"max relative Jacobian error {worst:.2e} over 100 seeds "
                  f"(limit 1e-5), {elapsed:.1f}s (limit 10s)")


def test_criterion_2_noiseless_fixed_point():
    t0 = time.perf_counter()
    costs, ates = {}, {}
    for mode in ("lp", "gp"):
        result = run_pipeline(default_corridor(), mode)
        costs[mode] = result.report.final_cost
        ates[mode] = result.metrics["ate_rmse_m"]
    elapsed = time.perf_counter() - t0
    ok = all(c < 1e-12 for c in costs.values()) and \
        all(a < 1e-9 for a in ates.values()) and elapsed < 10.0
    report(2, ok, f"noiseless corridor: cost lp={costs['lp']:.1e} "
                  f"gp={costs['gp']:.1e} (limit 1e-12), ATE lp={ates['lp']:.1e} "
                  f"gp={ates['gp']:.1e} m (limit 1e-9), {elapsed:.1f}s (limit 10s)")


def test_criterion_3_convergence_under_perturbation():
    wins, ratios = 0, []
    for seed in range(10):
        result = run_pipeline(perturbed_corridor(seed), "lp")
        ratio = result.metrics["ate_rmse_m"] / result.metrics["initial_ate_m"]
        ratios.append(ratio)
        if result.metrics["converged"] and ratio < 0.3:
            wins += 1
    ok = wins >= 9
    report(3, ok, f"perturbed corridor: {wins}/10 seeds converged with "
                  f"ATE < 0.3×initial (worst ratio {max(ratios):.3f})")


def test_criterion_4_gp_ablation_reduces_ate():
    t0 = time.perf_counter()
    ablation = run_ablation(structured(), 10)
    elapsed = time.perf_counter() - t0
    ratio = ablation.mean_ate_gp / ablation.mean_ate_lp
    ok = ratio <= 0.9 and elapsed < 900.0
    report(4, ok, f"structured scenario, 10 seeds: mean ATE gp/lp = {ratio:.3f} "
                  f"(limit 0.9), reduction {ablation.reduction_pct:.1f}%, "
                  f"{elapsed:.0f}s (limit 900s)")


def _planted_vp_scene(seed):
    """3 orthogonal direction families, 20 segments each, 20% outliers."""
    rng = np.random.default_rng([seed, 5])
    pose = se3_exp(rng.normal(0.0, 0.2, 6))
    segments, families = [], []
    sid = 0
    for fam in range(3):
        g = np.eye(3)[fam]
        vp = K.matrix() @ (pose.rotation @ g)
        for _ in range(20):
            a = rng.uniform([50.0, 50.0], [590.0, 430.0])
            if abs(vp[2]) > 1e-12 * np.linalg.norm(vp[:2]):
                u = vp[:2] / vp[2] - a
            else:
                u = vp[:2].copy()
            norm = np.linalg.norm(u)
            if norm < 1.0:  # midpoint on top of the VP: resample direction
                u = np.array([1.0, 0.0])
                norm = 1.0
            u = u / norm * rng.uniform(30.0, 80.0)
            segments.append(segment(a, a + u, id=sid))
            families.append(fam)
            sid += 1
    n_out = int(round(0.2 * 60 / 0.8))
    for _ in range(n_out):
        a = rng.uniform([0.0, 0.0], [640.0, 480.0])
        b = rng.uniform([0.0, 0.0], [640.0, 480.0])
        if np.allclose(a, b):
            b = a + [10.0, 10.0]
        segments.append(segment(a, b, id=sid))
        families.append(-1)
        sid += 1
    return segments, families, pose


def test_criterion_5_jlinkage_recovers_planted_families():
    t0 = time.perf_counter()
    successes, worst_angle, worst_acc = 0, 0.0, 1.0
    for seed in range(20):
        segments, families, pose = _planted_vp_scene(seed)
        estimates = detect_vanishing_points(segments, rng_seed=seed)
        lifted = [lift_vanishing_point(e.vp_homogeneous, K, pose.r_wc)
                  for e in estimates]
        # map each estimate to its nearest planted axis
        est_to_fam, fam_err = {}, {0: 180.0, 1: 180.0, 2: 180.0}
        for i, d in enumerate(lifted):
            errs = [np.degrees(np.arccos(np.clip(abs(d @ np.eye(3)[f]), -1, 1)))
                    for f in range(3)]
            fam = int(np.argmin(errs))
            est_to_fam[i] = fam
            fam_err[fam] = min(fam_err[fam], errs[fam])
        directions_ok = all(fam_err[f] < 1.0 for f in range(3))
        inliers = [(s, f) for s, f in zip(segments, families) if f >= 0]
        correct = sum(1 for s, f in inliers
                      if s.cluster_label is not None
                      and est_to_fam.get(s.cluster_label) == f)
        acc = correct / len(inliers)
        if directions_ok and acc >= 0.9:
            successes += 1
            worst_angle = max(worst_angle, max(fam_err.values()))
            worst_acc = min(worst_acc, acc)
    elapsed = time.perf_counter() - t0
    ok = successes >= 19 and elapsed < 30.0
    report(5, ok, f"J-Linkage: {successes}/20 seeds recovered all 3 families "
                  f"(worst angle {worst_angle:.3f}°, worst inlier assignment "
                  f"{100 * worst_acc:.0f}%), {elapsed:.1f}s (limit 30s)")


def test_criterion_6_gate_golden_values(tmp_path):
    checks = []
    res = first(overlap_gate(*one_pair([0, 0], [10, 0], [5, 0], [15, 0]), 0.3))
    checks.append(res.passed and abs(res.value - 0.5) < 1e-12)
    res = first(overlap_gate(*one_pair([0, 0], [10, 0], [12, 0], [20, 0]), 0.3))
    checks.append(not res.passed and abs(res.value + 0.2) < 1e-12)
    res = first(reprojection_gate(*one_pair([0, 0], [3, 0], 0.0, 0.0), 2.0, 3.0))
    checks.append(not res.passed and res.reason == "midpoint")
    res = first(reprojection_gate(*one_pair([0, 0], [0, 0], 1.0, 4.0), 10.0, 3.0))
    checks.append(not res.passed and res.reason == "perpendicular")
    checks.append(first(sensitivity_gate(*one_pair([1.0, 0.0], [0, 0], [0, 5]), 30.0)).passed)
    res = first(sensitivity_gate(*one_pair([1.0, 0.0], [0, 0], [5, 0]), 10.0))
    checks.append(not res.passed and abs(res.value - 90.0) < 1e-9)

    paths = []
    for run in range(2):
        audit = []
        rng = np.random.default_rng(1)
        for i in range(20):
            a = rng.uniform([50, 50], [500, 400])
            u = rng.normal(0.0, 1.0, 2)
            u /= np.linalg.norm(u)
            shift = rng.normal(0.0, 2.0, 2)
            run_gates([0], [i], endpoints([segment(a, a + 60 * u, id=i)]),
                      endpoints([segment(a + shift, a + 60 * u + shift, id=i)]), audit)
        path = tmp_path / f"audit{run}.csv"
        write_gate_audit(audit, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    ok = all(checks) and identical
    report(6, ok, f"gate golden values {sum(checks)}/{len(checks)} exact, "
                  f"audit CSV byte-identical across runs: {identical}")


def test_criterion_7_fusion_properties():
    rng = np.random.default_rng(7)
    checked, ok = 0, True
    while checked < 1000:
        d_i = rng.normal(0.0, 1.0, 3)
        d_i /= np.linalg.norm(d_i)
        d_j = d_i + rng.normal(0.0, 0.02, 3)
        d_j /= np.linalg.norm(d_j)
        if not is_parallel(d_i, d_j, 5.0):
            continue
        n_i, n_j = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        n_l = int(max(n_i, n_j) + rng.integers(0, 20))
        a = fuse_directions(d_i, n_i, d_j, n_j, n_l)
        b = fuse_directions(d_j, n_j, d_i, n_i, n_l)
        c = fuse_directions(d_i, 3 * n_i, d_j, 3 * n_j, 3 * n_l)
        d_c = canonical_direction(d_i)
        ok &= bool(np.allclose(a, b, atol=1e-12))        # symmetry
        ok &= bool(np.allclose(a, c, atol=1e-12))        # weight homogeneity
        ok &= bool(np.allclose(fuse_directions(d_c, n_i, d_c, n_j, n_l),
                               d_c, atol=1e-12))         # fixed point
        ok &= bool(np.allclose(fuse_directions(d_c, n_i, -d_c, n_j, n_l),
                               d_c, atol=1e-12))         # antiparallel canonical
        checked += 1

    reg = GlobalPrimitiveRegistry()
    for frame in range(30):
        lifted = [(canonical_direction(np.eye(3)[k] + rng.normal(0, 0.01, 3)),
                   frozenset(rng.choice(100, size=int(rng.integers(3, 12)),
                                        replace=False).tolist()))
                  for k in range(3)]
        reg.associate_frame(frame, lifted, n_l=50)
    support_err = max(abs(gp.support_weight - reg.recompute_support(50, i))
                      for i, gp in enumerate(reg.primitives))
    ok = ok and support_err < 1e-12
    report(7, ok, f"fusion invariants held on 1000 draws, support-weight "
                  f"bookkeeping error {support_err:.1e} (limit 1e-12)")


def test_criterion_8_nonoverlap_association():
    cfg = nonoverlap()
    result = run_pipeline(cfg, "gp")
    world = generate_world(cfg)
    poses = generate_trajectory(cfg)
    frames = render_measurements(world, poses, cfg)
    seen = {fr.frame_id: {("p", pid) for pid in fr.point_ids.tolist()} |
            {("l", fr.truth[s.id].line_id) for s in fr.segments}
            for fr in frames}
    _, edges = result.registry.association_graph()
    bridge = next(((a, b) for a, b, _ in edges
                   if not seen.get(a, set()) & seen.get(b, set())), None)

    lp_ates, gp_ates = [], []
    for seed in range(10):
        cfg_s = nonoverlap(seed)
        lp_ates.append(run_pipeline(cfg_s, "lp").metrics["ate_rmse_m"])
        gp_ates.append(run_pipeline(cfg_s, "gp").metrics["ate_rmse_m"])
    med_lp = statistics.median(lp_ates)
    med_gp = statistics.median(gp_ates)
    ok = bridge is not None and med_gp <= med_lp
    report(8, ok, f"association edge between landmark-disjoint frames {bridge}, "
                  f"median ATE over 10 seeds: gp {med_gp:.4f} ≤ lp {med_lp:.4f} m")


def test_criterion_9_evaluation_correctness():
    rng = np.random.default_rng(9)
    P = rng.normal(0.0, 1.0, (20, 3))
    th = np.radians(30.0)
    R = np.array([[np.cos(th), -np.sin(th), 0.0],
                  [np.sin(th), np.cos(th), 0.0],
                  [0.0, 0.0, 1.0]])
    Q = 2.0 * (R @ P.T).T + np.array([1.0, 2.0, 3.0])

    def traj(points):
        return Trajectory(np.arange(len(points), dtype=float),
                          [Pose.from_world_camera(np.eye(3), p) for p in points])

    a = umeyama_align(traj(P), traj(Q))
    align_err = max(abs(a["s"] - 2.0), float(np.max(np.abs(a["R"] - R))),
                    float(np.max(np.abs(a["t"] - [1.0, 2.0, 3.0]))))
    self_ate = ate_rmse(traj(P), traj(P), align=False)
    ref = traj([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    est = traj([[0, 0, 0.2], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    corner = ate_rmse(est, ref, align=False)
    ok = align_err < 1e-9 and self_ate == 0.0 and corner == 0.1
    report(9, ok, f"planted similarity recovered to {align_err:.1e} "
                  f"(limit 1e-9), self-ATE {self_ate}, 4-corner example "
                  f"{corner} m (expected exactly 0.1)")


def test_criterion_10_cli_determinism(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    structured().save(cfg_path)
    outs = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        code = main(["run", "--config", str(cfg_path), "--mode", "gp",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        outs.append(out)
    same_metrics = filecmp.cmp(outs[0] / "metrics.json",
                               outs[1] / "metrics.json", shallow=False)
    same_traj = filecmp.cmp(outs[0] / "estimated.tum",
                            outs[1] / "estimated.tum", shallow=False)
    metrics = json.loads((outs[0] / "metrics.json").read_text())
    ok = same_metrics and same_traj and metrics["seed"] == 7
    report(10, ok, f"two identical CLI runs: metrics byte-identical "
                   f"{same_metrics}, trajectory byte-identical {same_traj}")
