"""Segment primitives and the segment list file format."""
from dataclasses import dataclass

import numpy as np
import pytest

from monogp.cli import main
from monogp.segments import Segment2D, endpoints, lines_through, load_segments


def segment_line(seg):
    """The homogeneous line through one segment, ||(a, b)|| = 1."""
    return lines_through(seg.p_start, seg.p_end)


def midpoint(seg):
    return 0.5 * (seg.p_start + seg.p_end)


def seg_row(seg):
    """The endpoint row (4,), x1 y1 x2 y2, of one `Segment2D`: the segment
    form of the graph factors and the gates."""
    return np.concatenate([seg.p_start, seg.p_end])


@dataclass
class Tracked(Segment2D):
    """A `Segment2D` with the id of the line track it belongs to, `None` for
    a detection: the segment form of the tracking and simulation oracles."""
    track_id: int | None = None


def predicted_segments(frame):
    """A frame's flow predictions (its `pred_*` columns) as `Tracked`
    segments, each with its track id."""
    return [Tracked(e[:2], e[2:], id=sid, track_id=k) for e, sid, k in
            zip(frame.pred_ends, frame.pred_ids.tolist(), frame.pred_tracks.tolist())]


def test_segment_line_x_axis():
    l = segment_line(Segment2D([0.0, 0.0], [10.0, 0.0], id=0))
    if l[1] < 0:
        l = -l
    assert np.allclose(l, [0.0, 1.0, 0.0], atol=1e-12)


def test_segment_line_vertical_hand_value():
    l = segment_line(Segment2D([5.0, 0.0], [5.0, 10.0], id=0))
    if l[0] < 0:
        l = -l
    assert np.allclose(l, [1.0, 0.0, -5.0], atol=1e-12)


def test_segment_line_endpoint_incidence():
    rng = np.random.default_rng(0)
    for _ in range(200):
        seg = Segment2D(rng.uniform(0, 640, 2), rng.uniform(0, 640, 2), id=0)
        l = segment_line(seg)
        assert abs(float(l @ [*seg.p_start, 1.0])) < 1e-9
        assert abs(float(l @ [*seg.p_end, 1.0])) < 1e-9
        assert abs(np.hypot(l[0], l[1]) - 1.0) < 1e-12


def test_stacked_lines_equal_segment_line_per_row():
    rng = np.random.default_rng(1)
    segs = [Segment2D(rng.uniform(0, 640, 2), rng.uniform(0, 640, 2), id=i)
            for i in range(200)]
    e = endpoints(segs)
    assert e.shape == (200, 4)
    assert np.array_equal(lines_through(e[:, :2], e[:, 2:]),
                          [segment_line(s) for s in segs])


def test_zero_length_segment_rejected():
    with pytest.raises(ValueError, match="zero-length segment"):
        Segment2D([3.0, 4.0], [3.0, 4.0], id=0)
    with pytest.raises(ValueError, match="zero-length segment"):
        Segment2D([-0.0, 4.0], [0.0, 4.0], id=0)   # -0.0 == 0.0
    # NaN equals nothing, so a NaN endpoint never makes a segment zero-length.
    Segment2D([np.nan, 4.0], [np.nan, 4.0], id=0)
    Segment2D([3.0, 4.0], [3.0, 4.5], id=0)


def test_segment_file_roundtrip(tmp_path):
    path = tmp_path / "segs.txt"
    path.write_text("# id x1 y1 x2 y2 [track]\n0 0.0 1.0 10.0 2.0 7\n\n3 5.5 5.5 9.25 0.125\n")
    loaded = load_segments(path)
    assert len(loaded) == 2
    assert loaded[0].id == 0 and loaded[1].id == 3
    assert loaded[0].p_start.tolist() == [0.0, 1.0] and loaded[0].p_end.tolist() == [10.0, 2.0]
    assert loaded[1].p_start.tolist() == [5.5, 5.5] and loaded[1].p_end.tolist() == [9.25, 0.125]


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
