"""End-to-end pipeline runs and CLI surface."""
import json

import numpy as np
import pytest

from monogp.cli import main
from monogp.pipeline import (
    PipelineError,
    build_line_tracks,
    run_ablation,
    run_pipeline,
)
from monogp.scenarios import default_corridor, nonoverlap, structured
from monogp.simulate import (
    ScenarioConfig,
    TrajectorySpec,
    generate_trajectory,
    generate_world,
    render_measurements,
)


def test_corridor_lp_converges_with_finite_ate():
    result = run_pipeline(default_corridor(), "lp")
    assert result.metrics["converged"]
    assert np.isfinite(result.metrics["ate_rmse_m"])
    assert result.metrics["mode"] == "lp"
    assert set(result.metrics) == {"scenario", "mode", "seed", "ate_rmse_m",
                                   "initial_ate_m", "iters", "converged",
                                   "n_gps", "cost_breakdown"}


@pytest.mark.parametrize("mode", ["lp", "gp"])
def test_noiseless_corridor_stops_at_fixed_point(mode):
    # the noiseless world starts at its optimum: LM must stop there at once
    # instead of chasing round-off until lambda overflows
    result = run_pipeline(default_corridor(), mode)
    assert result.metrics["converged"]
    assert result.metrics["iters"] <= 2


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run_pipeline(default_corridor(), "both")


def test_gp_without_line_families_degenerates_to_lp():
    cfg = ScenarioConfig(name="pointsonly", rng_seed=0, n_points=80,
                         direction_families=[],
                         trajectory=TrajectorySpec("corridor", 8, 0.25))
    lp = run_pipeline(cfg, "lp")
    gp = run_pipeline(cfg, "gp")
    assert gp.metrics["n_gps"] == 0
    assert abs(lp.metrics["ate_rmse_m"] - gp.metrics["ate_rmse_m"]) < 1e-9


def test_nonoverlap_association_edge_between_disjoint_frames():
    result = run_pipeline(nonoverlap(), "gp")
    graph = result.registry.association_graph()
    frames = result.config.trajectory.n_keyframes
    windows = result.config.visibility.partition_windows
    # frames before the second window opens vs after the first closes
    early = range(0, windows[1][0])
    late = range(windows[0][1], frames)
    linked = {(a, b) for a, b, _ in graph.edges}
    assert any((a, b) in linked for a in early for b in late)


def test_ablation_report_arithmetic():
    report = run_ablation(default_corridor(), 2)
    assert not report.failures
    recomputed = (1.0 - report.mean_ate_gp / report.mean_ate_lp) * 100.0
    assert abs(report.reduction_pct - recomputed) < 1e-12
    parsed = json.loads(report.to_json())
    assert len(parsed["per_seed"]) == 2
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "seed,ate_lp,ate_gp"


# Recorded from the per-pair matcher: track id -> (first frame, one entry per
# consecutive frame). An entry k >= 0 is detection k of frame t (segment id
# 100000 * t + k); a negative entry is the id of a predicted-only segment.
PINNED_TRACKS = {
    0: (0, [0, 0, 0, 0]),
    1: (0, [1, 1, 1, 1, 0, 0, 0, 0, 0]),
    3: (0, [2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]),
    4: (0, [3, -4]),
    6: (0, [4, 4, 4, 4, 3, 4, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3]),
    7: (0, [5, 5, 5, 5, 4, 5, 5, 5, 5, 5, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    9: (0, [6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 6, 6, 6, 6]),
    12: (0, [7, 8, 8, 8]),
    13: (0, [8, 9, 9, 9, 8, 9, 9, 9, 9, 9, 8, 8, 8, 8, 7, 7, 7, 7, 7, 7]),
    14: (0, [9, 10, 10, 10, 9, 10, 10, 10, 10, 10, 9, 9, 9, 9, 8, 8, 8, 8, 8, 8]),
    15: (0, [10, 11, 11, 11, 10, 11, 11, 11, 11, 11, 10, 10, 10, 10, 9, 9]),
    17: (0, [11, 13, 13, 13, 12, 13, 13]),
    19: (0, [13, 14, 14, 14, 13, 14, 14, 13, 13, 13, 12, 12, 12, 12, 11, 11, 10, 10, 10, 10]),
    20: (0, [14, 15, 15, 15, 14, 15, 15, 14, 14, 14, 13, 13, 13, 13, 12, 12, 11, 11, 11, 11]),
    23: (0, [15, 16, 16, 16, 15, 16, 16, 15, 15, 15, 14, 14, 14, 14, 13, 13, 12, 12, 12, 12]),
    24: (0, [16, 17]),
    25: (0, [17, 18, 17, 17, 16, 17, 17, 16, 16, 16, 15, 15, 15, 15, 14, 14, 13, 13, 13, 13]),
    26: (0, [18, 19, 18, 18, 17, 18, 18, 17, 17, 17, 16, 16, 16, 16, 15, 15, 14, 14, 14, 14]),
    27: (0, [19, 20, 19, 19, 18, 19, 19, 18, 18, 18, 17, 17, 17, 17, 16, 16]),
    28: (0, [20, 21, 20, 20, 19, 20, 20, 19, 19, 19, 18, 18, 18, 18, 17, 17, 15, 15, 15, 15]),
    30: (0, [21, 22, 21, 21, 20, 21, 21, 21, 21, 21, 20, 20]),
    31: (0, [22, 23, 22, 22, 21, 22]),
    32: (0, [23, 24, 23, 23, 22, 23, 22, 22, 22, 22, 21, 21, 20, 20, 19, 19, 17, 17, 17, 17]),
    33: (0, [24, 25, 24, 24, 23, 24, 23, 23, 23, 23, 22, 22, 21, 21, 20, 20, 18, 18, 18, 18]),
    35: (0, [25, 27]),
    36: (0, [26, 28, 26]),
    37: (0, [27, 29, 27, 26, 25, 26, 25, 25, 25, 25, 24, 24, 23, 23, 22, 22, 20, 20]),
    38: (0, [28, 30, 28, 27, 26, 27, 26, 26, 26, 26, 25, 25, 24, 24, 23, 23, 21, 21, 20, 20]),
    39: (0, [29, 31, 29, 28, 27, 28, 27, 27]),
    40: (0, [30, 32, 30, 29, 28, 29, 28, 28, 27, 27, 26, 26, 25, 25, 24, 24, 22, -1600023]),
    41: (0, [31, 33, 31, 30, 29, 30, 29, 29, 28, 28, 27, 27, 26, 26, 25, 25, 23, 23, 22, 21]),
    42: (0, [32, 34, 32, 31, 30, 31, 30, 30, 29, 29, 28, 28, 27, 27, 26, 26, 24, 24, 23]),
    43: (0, [33, 35, 33, 32, -300033, 32, 31, -600032, 30, 30, 29, 29, 28, 28, 27, 27, 25, 25, 24, 23]),
    45: (0, [34, 36, 34, 33, 32, 33, 32, 32, 31, 31, 30, 30, -1100031]),
    46: (0, [35, 37, 35]),
    47: (0, [36, 38, 36, 34, 33, 34, 33, 33, 32, 32, 31, 31, 30, 30, 29, 29, 26, 26, 25, 24]),
    48: (0, [37, 39, 37, 35, 34, 35, 34, 34, 33, 33, 32, 32, 31, 31, 30, 30, 27, 27, 26, 25]),
    49: (0, [38, 40, 38, 36, 35, 36, 35, 35, 34, 34, 33, 33, 32, 32, 31, 31, 28, 28, 27, 26]),
    50: (0, [39, 41, 39, -200040, 36, 37, 36, 36, 35, 35, 34, 34, 33, 33, 32, 32, 29, 29, 28, 27]),
    51: (0, [40, 42, 40]),
    52: (0, [41, 43, 41, 39, 37, 38, 37, 37, 36, 36, 35, 35]),
    54: (0, [43, 44, 42, 40, 38, 39, 38, 38, 37, 37, 36]),
    55: (0, [44, 45, 43, 41, 39, 40, 39, 39, 38, 38, 37, 37, 34, 34, 33, 33, 30, 30, 29, 28]),
    56: (0, [45, 46, 44, 42, 40, 41, 40, 40, 39, 39, 38, 38, 35, 35, 34, 34, 31, 31, 30, 29]),
    57: (0, [46, 47, 45]),
    59: (0, [47, 48, 46, 44, 41, 42, 41, 41, 40, 40, 39, 39, 36, 36, 35, 35, 32, 32, 31, 30]),
    10: (2, [7, 7, 7, 8, 8, 8, 8, 8, 7, 7, 7, 7, 6, 6, 6, 6, 6, 6]),
    16: (2, [12, 12, 11, 12, 12, 12, 12, 12, 11, 11, 11, 11, 10, 10, 9, 9, 9, 9]),
    34: (2, [25, 25, 24, 25, 24, 24, 24, 24, 23, 23, 22, 22, 21, 21, 19, 19, 19, 19]),
    5: (3, [3, 2, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]),
    8: (5, [6, 6, 6, 6, 6, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5]),
    2: (6, [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    29: (8, [20, 20, 19, 19, 19, 19, 18, 18, 16, 16, 16, 16]),
}


def test_build_line_tracks_pinned_on_structured():
    cfg = structured(0)
    frames = render_measurements(generate_world(cfg), generate_trajectory(cfg), cfg)
    tracks = build_line_tracks(frames)
    expected = {tid: [(t0 + i, 100000 * (t0 + i) + k if k >= 0 else k)
                      for i, k in enumerate(ks)]
                for tid, (t0, ks) in PINNED_TRACKS.items()}
    got = {tid: [(t, seg.id) for t, seg in track.observations]
           for tid, track in tracks.items()}
    assert list(got) == list(expected)
    assert got == expected


# -- CLI ------------------------------------------------------------------------

@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    default_corridor().save(path)
    return path


def test_cli_simulate(tmp_path, config_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(out)]) == 0
    assert (out / "observations.jsonl").exists()
    assert (out / "groundtruth.tum").exists()


def test_cli_run_and_eval(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--mode", "lp",
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["mode"] == "lp"
    assert (out / "report.json").exists()
    assert (out / "gate_audit.csv").exists()
    capsys.readouterr()
    assert main(["eval", str(out / "estimated.tum"),
                 str(out / "groundtruth.tum")]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["ate_rmse_m"] < 1e-9


def test_cli_run_gp_writes_registry(tmp_path, config_path):
    out = tmp_path / "rungp"
    assert main(["run", "--config", str(config_path), "--mode", "gp",
                 "--out", str(out)]) == 0
    registry = json.loads((out / "registry.json").read_text())
    assert len(registry) == 3  # clean scene: one GP per planted family


def test_cli_detect_vp(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(15):
        a = rng.uniform([50.0, 50.0], [400.0, 400.0])
        u = np.array([900.0, 300.0]) - a
        u /= np.linalg.norm(u)
        b = a + 60.0 * u
        rows.append(" ".join([str(i)] + [repr(float(v)) for v in (*a, *b)]) + "\n")
    path = tmp_path / "segs.txt"
    path.write_text("".join(rows))
    assert main(["detect-vp", "--segments", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 1
    vp = np.array(out[0]["vp"])
    px = vp[:2] / vp[2]
    assert np.allclose(px, [900.0, 300.0], atol=1e-6)


def test_cli_missing_file_is_stage_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--mode", "lp"]) == 1


def test_cli_bad_arguments_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--mode", "sideways"])
    assert exc.value.code == 2
