"""Segment primitives and the segment list file format."""
import numpy as np
import pytest

from monogp.cli import main
from monogp.segments import Segment2D, endpoints, lines_through, load_segments


def segment(start, end, id, cls=Segment2D):
    """One `cls` segment from point `start` to `end`, on a (1, 4) endpoint
    block of its own (`of_rows`, so with its zero-length check)."""
    seg, = cls.of_rows(np.array([[*start, *end]], dtype=float), [id])
    return seg


def p_start(seg):
    """The start point (2,) of one `Segment2D`: a view of its row."""
    return seg.ends[seg.row, :2]


def p_end(seg):
    """The end point (2,) of one `Segment2D`: a view of its row."""
    return seg.ends[seg.row, 2:]


def segment_line(seg):
    """The homogeneous line through one segment, ||(a, b)|| = 1."""
    return lines_through(p_start(seg), p_end(seg))


def midpoint(seg):
    return 0.5 * (p_start(seg) + p_end(seg))


def seg_row(seg):
    """The endpoint row (4,), x1 y1 x2 y2, of one `Segment2D`: the segment
    form of the graph factors and the gates."""
    return seg.ends[seg.row].copy()


class Tracked(Segment2D):
    """A `Segment2D` with the id of the line track it belongs to, `None` for
    a detection: the segment form of the tracking and simulation oracles."""
    __slots__ = ("track_id",)


def tracked(start, end, id, track_id=None):
    """One `Tracked` segment (see `segment`) with its track id."""
    seg = segment(start, end, id, Tracked)
    seg.track_id = track_id
    return seg


def predicted_segments(frame):
    """A frame's flow predictions (its `pred_*` columns) as `Tracked`
    segments, each with its track id."""
    segs = Tracked.of_rows(frame.pred_ends, frame.pred_ids.tolist())
    for seg, k in zip(segs, frame.pred_tracks.tolist()):
        seg.track_id = k
    return segs


def test_segment_line_x_axis():
    l = segment_line(segment([0.0, 0.0], [10.0, 0.0], id=0))
    if l[1] < 0:
        l = -l
    assert np.allclose(l, [0.0, 1.0, 0.0], atol=1e-12)


def test_segment_line_vertical_hand_value():
    l = segment_line(segment([5.0, 0.0], [5.0, 10.0], id=0))
    if l[0] < 0:
        l = -l
    assert np.allclose(l, [1.0, 0.0, -5.0], atol=1e-12)


def test_segment_line_endpoint_incidence():
    rng = np.random.default_rng(0)
    for _ in range(200):
        seg = segment(rng.uniform(0, 640, 2), rng.uniform(0, 640, 2), id=0)
        l = segment_line(seg)
        assert abs(float(l @ [*p_start(seg), 1.0])) < 1e-9
        assert abs(float(l @ [*p_end(seg), 1.0])) < 1e-9
        assert abs(np.hypot(l[0], l[1]) - 1.0) < 1e-12


def test_stacked_lines_equal_segment_line_per_row():
    rng = np.random.default_rng(1)
    segs = [segment(rng.uniform(0, 640, 2), rng.uniform(0, 640, 2), id=i)
            for i in range(200)]
    e = endpoints(segs)
    assert e.shape == (200, 4)
    assert np.array_equal(lines_through(e[:, :2], e[:, 2:]),
                          [segment_line(s) for s in segs])


def test_zero_length_segment_rejected():
    with pytest.raises(ValueError, match="zero-length segment"):
        segment([3.0, 4.0], [3.0, 4.0], id=0)
    with pytest.raises(ValueError, match="zero-length segment"):
        segment([-0.0, 4.0], [0.0, 4.0], id=0)   # -0.0 == 0.0
    # NaN equals nothing, so a NaN endpoint never makes a segment zero-length.
    segment([np.nan, 4.0], [np.nan, 4.0], id=0)
    segment([3.0, 4.0], [3.0, 4.5], id=0)


def test_segment_file_roundtrip(tmp_path):
    path = tmp_path / "segs.txt"
    path.write_text("# id x1 y1 x2 y2 [track]\n0 0.0 1.0 10.0 2.0 7\n\n3 5.5 5.5 9.25 0.125\n")
    ends, ids = load_segments(path)
    assert ids == [0, 3] and ends.dtype == float
    assert ends.tolist() == [[0.0, 1.0, 10.0, 2.0], [5.5, 5.5, 9.25, 0.125]]
    path.write_text("# no segments\n\n")
    ends, ids = load_segments(path)
    assert ends.shape == (0, 4) and ends.dtype == float and ids == []


def test_segments_compare_by_identity():
    # list membership, index and remove on equal-valued segments: by identity
    ends = np.array([[0.0, 1.0, 10.0, 2.0], [0.0, 1.0, 10.0, 2.0], [3.0, 4.0, 5.0, 6.0]])
    a, b, c = segs = Segment2D.of_rows(ends, [0, 1, 2])
    assert b in segs and segs.index(b) == 1 and segs.index(c) == 2
    assert a != b and a == a and Segment2D.of_rows(ends, [0, 1, 2])[0] not in segs
    segs.remove(b)
    assert segs == [a, c] and len({a, b, c}) == 3


def test_segment_endpoints_are_views_of_one_row():
    ends = np.array([[0.0, 1.0, 10.0, 2.0], [3.0, 4.0, 5.0, 6.0]])
    segs = Segment2D.of_rows(ends, [7, 9])
    assert [(s.id, s.row, s.cluster_label) for s in segs] == [(7, 0, None), (9, 1, None)]
    assert all(s.ends is ends for s in segs) and not hasattr(segs[0], "__dict__")
    assert np.array_equal(endpoints(segs), ends) and endpoints([]).shape == (0, 4)
    with pytest.raises(ValueError, match="zero-length segment"):
        Segment2D.of_rows(np.array([[0.0, 1.0, 2.0, 3.0], [-0.0, 1.0, 0.0, 1.0]]), [0, 1])
    Segment2D.of_rows(np.array([[np.nan, 1.0, np.nan, 1.0]]), [0])


@pytest.mark.parametrize("ids", [[7], [7, 9, 11], []])
def test_of_rows_rejects_ids_of_another_length(ids):
    # one id per row: fewer would drop rows, more would hand out rows that
    # do not exist
    ends = np.array([[0.0, 1.0, 10.0, 2.0], [3.0, 4.0, 5.0, 6.0]])
    with pytest.raises(ValueError, match=f"{len(ids)} ids for 2 endpoint rows"):
        Segment2D.of_rows(ends, ids)
    assert Segment2D.of_rows(ends[:0], []) == []


def test_segment_file_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 0 10 0\n1 0 0 10\n")
    with pytest.raises(ValueError, match="line 2"):
        load_segments(path)


def test_segment_file_non_finite_value_names_line(tmp_path, capsys):
    path = tmp_path / "nan.txt"
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"0 0 0 10 0\n1 {bad} 5 10 5\n")
        with pytest.raises(ValueError, match="line 2: non-finite value"):
            load_segments(path)
    assert main(["detect-vp", "--segments", str(path)]) == 1
    assert "line 2: non-finite value" in capsys.readouterr().err


@pytest.mark.parametrize("row, reason", [
    ("1 abc 5 10 5", "could not convert string to float: 'abc'"),
    ("x 0 5 10 5", "invalid literal for int"),
    ("1 0 5 10 5 t3", "invalid literal for int"),
    ("1 5 5 5 5", "zero-length segment"),
])
def test_segment_file_bad_field_names_line(tmp_path, capsys, row, reason):
    path = tmp_path / "bad.txt"
    path.write_text(f"0 0 0 10 0\n{row}\n")
    with pytest.raises(ValueError, match=f"parse error at line 2: {reason}"):
        load_segments(path)
    assert main(["detect-vp", "--segments", str(path)]) == 1
    assert f"parse error at line 2: {reason}" in capsys.readouterr().err


def test_segment_file_duplicate_id_names_line(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    path.write_text("0 0 0 10 0\n1 0 5 10 5\n\n0 0 9 10 9\n")
    with pytest.raises(ValueError, match="parse error at line 4: duplicate segment id 0"):
        load_segments(path)
    assert main(["detect-vp", "--segments", str(path)]) == 1
    assert "parse error at line 4: duplicate segment id 0" in capsys.readouterr().err
