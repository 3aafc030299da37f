"""2D line segments and the plain-text segment list format.

File format: one segment per line, `id x1 y1 x2 y2 [track_id]`,
whitespace-separated decimal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import cross3


@dataclass
class Segment2D:
    """Detected 2D line segment (pixel endpoints)."""
    p_start: np.ndarray
    p_end: np.ndarray
    id: int
    track_id: int | None = None
    cluster_label: int | None = None

    def __post_init__(self):
        self.p_start = np.asarray(self.p_start, dtype=float).reshape(2)
        self.p_end = np.asarray(self.p_end, dtype=float).reshape(2)
        if (self.p_start == self.p_end).all():
            raise ValueError("zero-length segment")

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.p_end - self.p_start))

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.p_start + self.p_end)

    @property
    def direction(self) -> np.ndarray:
        """Unit direction from start to end."""
        d = self.p_end - self.p_start
        n = np.linalg.norm(d)
        if n == 0.0:
            raise ValueError("zero-length segment has no direction")
        return d / n


def segment_line(seg: Segment2D) -> np.ndarray:
    """Homogeneous image line through the segment, normalized so ||(a,b)|| = 1."""
    ps = np.array([seg.p_start[0], seg.p_start[1], 1.0])
    pe = np.array([seg.p_end[0], seg.p_end[1], 1.0])
    l = cross3(ps, pe)
    n = np.hypot(l[0], l[1])
    if n == 0.0:
        raise ValueError("zero-length segment has no line")
    return l / n


def load_segments(path) -> list[Segment2D]:
    segments = []
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
                track = int(parts[5]) if len(parts) == 6 else None
                segments.append(Segment2D(coords[:2], coords[2:], id=sid, track_id=track))
            except ValueError as e:
                raise ValueError(f"parse error at line {lineno}: {e}") from None
    return segments

