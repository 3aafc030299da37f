"""2D line segments and the plain-text segment list format.

File format: one segment per line, `id x1 y1 x2 y2 [track_id]`,
whitespace-separated decimal, each id on one line only. The optional track
id must be an integer; it is checked and not kept.
"""
from __future__ import annotations

import numpy as np

from .geometry import row_norms


class Segment2D:
    """Detected 2D line segment (pixel endpoints): a handle on row `row`,
    x1 y1 x2 y2, of the endpoint block `ends` (n, 4), whose `p_start` and
    `p_end` are views of that row. `detect_vanishing_points` sets
    `cluster_label`.

    `Segment2D(p_start, p_end, id)` copies its endpoints into a one-row block
    of its own; `of_rows` hands out handles on the rows of a whole block.
    Segments compare and hash by identity."""
    __slots__ = ("ends", "row", "id", "cluster_label")

    def __init__(self, p_start, p_end, id: int):
        self.ends = np.concatenate([np.asarray(p_start, dtype=float).reshape(2),
                                    np.asarray(p_end, dtype=float).reshape(2)])[None]
        self.row, self.id, self.cluster_label = 0, id, None
        # List equality: the elementwise `==` of the arrays (-0.0 equals 0.0,
        # NaN equals nothing) several times faster than `(a == b).all()`.
        if self.p_start.tolist() == self.p_end.tolist():
            raise ValueError("zero-length segment")

    @classmethod
    def of_rows(cls, ends, ids) -> list[Segment2D]:
        """Handles on the rows of the float endpoint block `ends` (n, 4), one
        per id of `ids` (n,); ValueError, as `Segment2D(...)` raises it, if a
        row's two endpoints are equal."""
        if (ends[:, :2] == ends[:, 2:]).all(axis=1).any():
            raise ValueError("zero-length segment")
        out = []
        for row, sid in enumerate(ids):
            seg = cls.__new__(cls)
            seg.ends, seg.row, seg.id, seg.cluster_label = ends, row, sid, None
            out.append(seg)
        return out

    @property
    def p_start(self) -> np.ndarray:
        return self.ends[self.row, :2]

    @property
    def p_end(self) -> np.ndarray:
        return self.ends[self.row, 2:]


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
    return np.array([s.ends[s.row] for s in segments], dtype=float).reshape(-1, 4)


def segment_frames(ends) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and unit directions (n, 2) of stacked endpoints (n, 4),
    bit for bit `0.5 * (p_start + p_end)` and `d / np.linalg.norm(d)` of each
    `d = p_end - p_start` (see `geometry`'s row numerics)."""
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

