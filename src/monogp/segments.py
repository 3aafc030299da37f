"""2D line segments and the plain-text segment list format.

File format: one segment per line, `id x1 y1 x2 y2 [track_id]`,
whitespace-separated decimal, each id on one line only. The optional track
id must be an integer; it is checked and not kept.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Segment2D:
    """Detected 2D line segment (pixel endpoints)."""
    p_start: np.ndarray
    p_end: np.ndarray
    id: int
    cluster_label: int | None = None

    def __post_init__(self):
        self.p_start = np.asarray(self.p_start, dtype=float).reshape(2)
        self.p_end = np.asarray(self.p_end, dtype=float).reshape(2)
        # List equality: the elementwise `==` of the arrays (-0.0 equals 0.0,
        # NaN equals nothing) several times faster than `(a == b).all()`.
        if self.p_start.tolist() == self.p_end.tolist():
            raise ValueError("zero-length segment")


def rowdot(a, b) -> np.ndarray:
    """Row-wise dot products (n,) of (n, k) rows, each through the BLAS dot
    of `a[i] @ b[i]`: a stacked `matmul` with one-row, one-column operands
    calls that dot per row (`einsum` and `np.sum` round differently)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def row_norms(a) -> np.ndarray:
    """Row norms (n,), bit for bit `np.linalg.norm(a[i])`, which is
    `sqrt(a[i] @ a[i])` (`np.linalg.norm(axis=1)` rounds differently)."""
    return np.sqrt(rowdot(a, a))


def acos_deg(c) -> np.ndarray:
    """Degrees of `math.acos` of each entry (`np.arccos` rounds differently)."""
    return np.array([math.degrees(math.acos(x)) for x in c.tolist()])


def lines_through(p, q) -> np.ndarray:
    """Homogeneous image lines through the points p and q, normalized so
    ||(a, b)|| = 1: (3,) for points of shape (2,), (n, 3) for (n, 2) rows."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    px, py, qx, qy = p[..., 0], p[..., 1], q[..., 0], q[..., 1]
    l = np.array([py - qy, qx - px, px * qy - py * qx])  # (p, 1) x (q, 1)
    n = np.hypot(l[0], l[1])
    if not np.all(n):
        raise ValueError("zero-length segment has no line")
    return (l / n).T


def endpoints(segments) -> np.ndarray:
    """Stacked pixel endpoints (n, 4): x1 y1 x2 y2 per segment."""
    return np.hstack([np.array([s.p_start for s in segments]).reshape(-1, 2),
                      np.array([s.p_end for s in segments]).reshape(-1, 2)])


def segment_frames(ends) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and unit directions (n, 2) of stacked endpoints (n, 4),
    bit for bit `0.5 * (p_start + p_end)` and `d / np.linalg.norm(d)` of each
    `d = p_end - p_start`."""
    d = ends[:, 2:] - ends[:, :2]
    return 0.5 * (ends[:, :2] + ends[:, 2:]), d / row_norms(d)[:, None]


def load_segments(path) -> list[Segment2D]:
    segments = []
    seen = set()
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            parts = raw.split()
            if len(parts) not in (5, 6):
                raise ValueError(f"parse error at line {lineno}: "
                                 f"expected 5 or 6 fields, got {len(parts)}")
            try:
                sid = int(parts[0])
                coords = np.array([float(p) for p in parts[1:5]])
                if not np.isfinite(coords).all():
                    raise ValueError("non-finite value")
                if len(parts) == 6:
                    int(parts[5])  # the track id: an integer, not kept
                if sid in seen:
                    raise ValueError(f"duplicate segment id {sid}")
                seen.add(sid)
                segments.append(Segment2D(coords[:2], coords[2:], id=sid))
            except ValueError as e:
                raise ValueError(f"parse error at line {lineno}: {e}") from None
    return segments

