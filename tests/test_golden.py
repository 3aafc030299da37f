"""Outputs equal the golden file, entry by entry (see `golden.py`).

The `monogp run` and `monogp simulate` files are checked by
`test_pipeline.py::test_cli_writes_every_config_trajectory`, which runs them.
"""
import pytest

from golden import (
    SWEEP,
    TRACKS,
    ablate_entries,
    assert_golden,
    sweep_entries,
    track_entries,
    vp_entries,
)


def test_ablate_outputs_equal_golden(tmp_path, capsys):
    assert_golden(ablate_entries(tmp_path), "ablate/")
    capsys.readouterr()


@pytest.mark.parametrize("scenario, seed", SWEEP,
                         ids=[f"{s.__name__}{seed}" for s, seed in SWEEP])
def test_sweep_runs_equal_golden(scenario, seed):
    assert_golden(sweep_entries(scenario, seed), f"sweep/{scenario.__name__}({seed})/")


@pytest.mark.parametrize("scenario, seed", TRACKS,
                         ids=[f"{s.__name__}{seed}" for s, seed in TRACKS])
def test_line_tracks_equal_golden(scenario, seed):
    assert_golden(track_entries(scenario, seed), f"tracks/{scenario.__name__}({seed})/")


def test_vp_detection_equals_golden():
    assert_golden(vp_entries(), "vp/")
