"""Detect vanishing points in a synthetic frame of line segments.

Plants three orthogonal direction families in front of a camera, renders
their image segments plus some clutter, runs hypothesis sampling +
preference-set clustering + least-squares refinement, and compares the
lifted world directions against the planted axes.
"""
import numpy as np

from monogp.geometry import CameraIntrinsics, se3_exp
from monogp.segments import Segment2D
from monogp.vanishing import detect_vanishing_points, lift_vanishing_point

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
rng = np.random.default_rng(42)
pose = se3_exp(rng.normal(0.0, 0.2, 6))

segments, families = [], []
for fam in range(3):
    direction = np.eye(3)[fam]
    vp = K.matrix() @ (pose.rotation @ direction)
    for _ in range(20):
        a = rng.uniform([50.0, 50.0], [590.0, 430.0])
        u = vp[:2] / vp[2] - a
        u = u / np.linalg.norm(u) * rng.uniform(30.0, 80.0)
        segments.append(Segment2D(a, a + u, id=len(segments)))
        families.append(fam)
for _ in range(15):  # clutter that belongs to no family
    a = rng.uniform([0.0, 0.0], [640.0, 480.0])
    segments.append(Segment2D(a, a + rng.uniform(-80.0, 80.0, 2),
                              id=len(segments)))
    families.append(-1)

estimates = detect_vanishing_points(segments, n_hypotheses=500, rng_seed=0)
print(f"{len(segments)} segments -> {len(estimates)} vanishing points\n")
for i, est in enumerate(estimates):
    lifted = lift_vanishing_point(est.vp_homogeneous, K, pose.r_wc)
    errors = [np.degrees(np.arccos(min(abs(lifted @ np.eye(3)[f]), 1.0)))
              for f in range(3)]
    fam = int(np.argmin(errors))
    members = [families[s.id] for s in segments
               if s.cluster_label == i and families[s.id] >= 0]
    purity = members.count(fam) / max(len(members), 1)
    print(f"VP {i}: {len(est.member_segment_ids)} segments, "
          f"lifted direction {np.round(lifted, 4)}")
    print(f"      nearest planted axis {fam}, angular error "
          f"{errors[fam]:.4f} deg, cluster purity {purity:.0%}")
