"""Outputs equal the golden file, entry by entry (see `golden.py`).

The `monogp run` and `monogp simulate` files are checked by
`test_pipeline.py::test_cli_writes_every_config_trajectory`, which runs them.
"""
import pytest

import ab
import monogp
from golden import (
    SWEEP,
    TRACKS,
    ablate_entries,
    assert_golden,
    detect_vp_entries,
    sweep_entries,
    track_entries,
    vp_clutter_config,
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


def test_detect_vp_outputs_equal_golden(tmp_path):
    assert_golden(detect_vp_entries(tmp_path), "detect-vp/")


def test_benchmark_clutter_scene_is_the_golden_one():
    # the vp-clutter workload's scene is written out in perfbench/workloads.py
    # and in golden.py; the two must stay one scene
    workloads = ab.load_workloads(monogp, "perfbench_workloads")
    for seed in (0, 1, 5, 11):
        assert workloads.vp_clutter_scene(seed).to_json() == vp_clutter_config(seed).to_json()
