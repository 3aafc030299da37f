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
    x1 y1 x2 y2, of the endpoint block `ends` (n, 4), made by `of_rows`.
    `detect_vanishing_points` sets `cluster_label`. Segments compare and
    hash by identity."""
    __slots__ = ("ends", "row", "id", "cluster_label")

    @classmethod
    def of_rows(cls, ends, ids) -> list[Segment2D]:
        """Handles on the rows of the float endpoint block `ends` (n, 4), one
        per id of `ids` (n,); ValueError if `ids` is not as long as `ends`
        or a row's two endpoints are equal."""
        if len(ids) != len(ends):
            raise ValueError(f"{len(ids)} ids for {len(ends)} endpoint rows")
        if (ends[:, :2] == ends[:, 2:]).all(axis=1).any():
            raise ValueError("zero-length segment")
        out = []
        for row, sid in enumerate(ids):
            seg = cls.__new__(cls)
            seg.ends, seg.row, seg.id, seg.cluster_label = ends, row, sid, None
            out.append(seg)
        return out


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


def load_segments(path) -> tuple[np.ndarray, list[int]]:
    """A segment file's endpoint rows (n, 4) and their ids (n,), in file
    order; ValueError naming the line of the first bad one."""
    rows = {}  # id -> x1 y1 x2 y2
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
                row = [float(p) for p in parts[1:5]]
                if not np.isfinite(row).all():
                    raise ValueError("non-finite value")
                if len(parts) == 6:
                    int(parts[5])  # the track id: an integer, not kept
                if sid in rows:
                    raise ValueError(f"duplicate segment id {sid}")
                # -0.0 equals 0.0; NaN is rejected above
                if row[:2] == row[2:]:
                    raise ValueError("zero-length segment")
                rows[sid] = row
            except ValueError as e:
                raise ValueError(f"parse error at line {lineno}: {e}") from None
    return np.array(list(rows.values()), dtype=float).reshape(-1, 4), list(rows)
