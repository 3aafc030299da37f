"""Registry of world-frame Global Primitives (fused vanishing directions).

A Global Primitive is a unit world direction shared by every frame whose
segments vanish along it. New per-frame directions either fuse into the
best-matching parallel primitive by support-weighted averaging or start a
new one. The association graph links frames through shared primitives,
including frames with no common landmarks.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import acos_deg
from .vanishing import canonical_direction

# Sign-free angle, strict bound, under which a direction fuses into a GP.
FUSE_TOL_DEG = 5.0


def is_parallel(d1, d2, tol_deg: float) -> bool:
    """Sign-free parallelism test: arccos(|d1·d2|) < tol_deg. Inputs unit."""
    return bool(acos_deg([abs(np.asarray(d1) @ np.asarray(d2))])[0] < tol_deg)


def fuse_directions(d_i, n_i: float, d_j, n_j: float, n_l: float) -> np.ndarray:
    """Support-weighted fusion of two unit directions parallel within
    FUSE_TOL_DEG.

    Computes (n_i/n_l) d_i + (n_j/n_l) d_j after sign-aligning d_j to d_i,
    then renormalizes onto the unit sphere and canonicalizes the sign.
    n_i and n_j are segment supports; supports already divided by the
    per-frame segment budget fuse with n_l = 1.
    """
    d_i = np.asarray(d_i, dtype=float)
    d_j = np.asarray(d_j, dtype=float)
    if not is_parallel(d_i, d_j, FUSE_TOL_DEG):
        raise ValueError("not parallel: directions exceed fusion tolerance")
    if float(d_i @ d_j) < 0:
        d_j = -d_j
    fused = (n_i / n_l) * d_i + (n_j / n_l) * d_j
    return canonical_direction(fused)


@dataclass
class GlobalPrimitive:
    """Unit world vanishing direction with accumulated segment support."""
    direction: np.ndarray
    support_weight: float
    associations: list  # (frame_id, frozenset of segment ids)


class GlobalPrimitiveRegistry:
    """Single-writer registry of Global Primitives.

    Mutated only through associate_frame. It has no lock and no snapshot: a
    reader running alongside associate_frame can see a half-fused primitive.
    """

    def __init__(self):
        self.primitives: list[GlobalPrimitive] = []

    def match(self, direction) -> int | None:
        """Id of the primitive nearest to `direction` within FUSE_TOL_DEG.

        The angle is sign-free and the bound strict; ties go to the lowest
        id, and a NaN angle matches nothing. Returns None when no primitive
        is that close.
        """
        if not self.primitives:
            return None
        G = np.array([gp.direction for gp in self.primitives])
        ang = acos_deg(np.abs(np.vecdot(G, direction)))
        best = int(np.argmin(np.where(ang < FUSE_TOL_DEG, ang, np.inf)))
        return best if ang[best] < FUSE_TOL_DEG else None

    def associate_frame(self, frame_id, lifted, n_l: int) -> list[tuple[int, frozenset]]:
        """Fuse a frame's lifted directions into the registry.

        lifted: list of (unit sign-canonical direction, set of segment ids).
        Each direction with N_new segments fuses into its `match` with weight
        N_new / n_l, or creates a new primitive with that weight. Returns
        (gp_id, segment ids) per lifted direction.
        """
        out = []
        for direction, seg_ids in lifted:
            direction = np.asarray(direction, dtype=float)
            seg_ids = frozenset(seg_ids)
            w_new = len(seg_ids) / n_l
            gp_id = self.match(direction)
            if gp_id is None:
                self.primitives.append(GlobalPrimitive(
                    canonical_direction(direction), w_new, [(frame_id, seg_ids)]))
                gp_id = len(self.primitives) - 1
            else:
                gp = self.primitives[gp_id]
                gp.direction = fuse_directions(gp.direction, gp.support_weight,
                                               direction, w_new, 1)
                gp.support_weight += w_new
                gp.associations.append((frame_id, seg_ids))
            out.append((gp_id, seg_ids))
        return out

    def recompute_support(self, n_l: int, gp_id: int) -> float:
        """Brute-force support recomputation (bookkeeping audit)."""
        gp = self.primitives[gp_id]
        return sum(len(ids) / n_l for _, ids in gp.associations)

    def association_graph(self) -> tuple[frozenset, frozenset]:
        """The frames with a segment on some primitive (nodes) and the edges
        (frame_a, frame_b, gp_id), frame_a < frame_b, between two such frames
        of one primitive."""
        nodes, edges = set(), set()
        for gp_id, gp in enumerate(self.primitives):
            frames = [f for f, ids in gp.associations if ids]
            nodes.update(frames)
            for i in range(len(frames)):
                for j in range(i + 1, len(frames)):
                    a, b = sorted((frames[i], frames[j]))
                    if a != b:
                        edges.add((a, b, gp_id))
        return frozenset(nodes), frozenset(edges)

    def to_json(self) -> str:
        entries = [
            {
                "gp_id": gp_id,
                "direction": [float(x) for x in gp.direction],
                "support": gp.support_weight,
                "frames": sorted(f for f, _ in gp.associations),
            }
            for gp_id, gp in enumerate(self.primitives)
        ]
        return json.dumps(entries, indent=2, sort_keys=True)
