"""Golden outputs: what the CLI writes and a few pipeline numbers, recorded in
`tests/golden.json` and compared by `test_golden.py` and
`test_pipeline.py::test_cli_writes_every_config_trajectory`.

Entries, one flat key each:
- `simulate/<config>/<file>` and `run/<config>/<mode>/<file>`: SHA-256 of
  every file `monogp simulate` and `monogp run --seed 7` write, per committed
  config in `configs/` and mode;
- `ablate/structured/<file>`: SHA-256 of `monogp ablate --config
  configs/structured.json --seeds 10` JSON and CSV;
- `sweep/<scenario>(<seed>)/<mode>/<name>`: iterations, `converged`, and the
  `float.hex` of the ATE and the final cost of `run_pipeline`;
- `tracks/<scenario>(<seed>)/order` and `tracks/<scenario>(<seed>)/<track id>`:
  `build_line_tracks` on the scenario's rendered frames: the track ids in
  dict order and, per track, each entry's frame, segment id and endpoints
  (`float.hex`, x1 y1 x2 y2);
- `vp/clutter(<seed>)/<frame>/<name>`: `detect_vanishing_points` with its
  defaults on every frame of a five-family orbit scene with 20% outlier
  segments and 100 segments per frame: the VPs (`float.hex` per
  coordinate), the sorted member ids and the RMS (`float.hex`) of each
  estimate, and every segment's label.

The bits depend on the numpy and BLAS build and on the BLAS thread count.
Regenerate only for a change that is meant to alter outputs, and list every
changed entry (printed by the script) with its old and new value:

    PYTHONPATH=src python tests/golden.py
"""
import hashlib
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

# One BLAS thread, as CI and the README's timing runs use, set before numpy
# loads: with two, OpenBLAS splits its work otherwise and the optimized values
# move in their last bits. `conftest.py` imports this module first.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from monogp.cli import main
from monogp.pipeline import MODES, build_line_tracks, run_pipeline
from monogp.scenarios import default_corridor, nonoverlap, perturbed_corridor, structured
from monogp.simulate import (
    NoiseSpec,
    ScenarioConfig,
    TrajectorySpec,
    generate_trajectory,
    generate_world,
    render_measurements,
)
from monogp.tracking import SceneSegments
from monogp.vanishing import detect_vanishing_points

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
CONFIGS = ("corridor", "corridor-perturbed", "nonoverlap", "structured")
RUN_SEED = "7"
ABLATE_SEEDS = "10"
SWEEP = [(structured, s) for s in range(3)] + [(nonoverlap, s) for s in range(2)]
TRACKS = [(structured, s) for s in range(3)] + [
    (default_corridor, 0), (perturbed_corridor, 0), (nonoverlap, 0)]
VP_SCENE_SEED = 1


def config_path(name: str) -> str:
    return str(ROOT / "configs" / f"{name}.json")


def digests(out_dir: Path, prefix: str) -> dict:
    """`prefix/<file name>` -> SHA-256 of every file in `out_dir`."""
    return {f"{prefix}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def run_entries(config: str, tmp: Path) -> dict:
    """`monogp simulate` into `tmp/sim` and `monogp run --seed 7` per mode into
    `tmp/<mode>`, and the digests of what they wrote."""
    path = config_path(config)
    assert main(["simulate", "--config", path, "--out", str(tmp / "sim")]) == 0
    entries = digests(tmp / "sim", f"simulate/{config}")
    for mode in MODES:
        assert main(["run", "--config", path, "--mode", mode, "--seed", RUN_SEED,
                     "--out", str(tmp / mode)]) == 0
        entries.update(digests(tmp / mode, f"run/{config}/{mode}"))
    return entries


def ablate_entries(tmp: Path) -> dict:
    entries = {}
    for fmt in ("json", "csv"):
        out = tmp / fmt
        assert main(["ablate", "--config", config_path("structured"), "--seeds",
                     ABLATE_SEEDS, "--format", fmt, "--out", str(out)]) == 0
        entries.update(digests(out, "ablate/structured"))
    return entries


def sweep_entries(scenario, seed: int) -> dict:
    entries = {}
    for mode in MODES:
        res = run_pipeline(scenario(seed), mode)
        key = f"sweep/{scenario.__name__}({seed})/{mode}"
        entries.update({f"{key}/iters": res.report.iterations,
                        f"{key}/converged": res.report.converged,
                        f"{key}/ate_rmse_m": res.metrics["ate_rmse_m"].hex(),
                        f"{key}/final_cost": res.report.final_cost.hex()})
    return entries


def track_entries(scenario, seed: int) -> dict:
    cfg = scenario(seed)
    scene = SceneSegments.of(
        render_measurements(generate_world(cfg), generate_trajectory(cfg), cfg))
    tracks = build_line_tracks(scene)
    key = f"tracks/{scenario.__name__}({seed})"
    entries = {f"{key}/order": list(tracks)}
    for track_id, obs in tracks.items():
        entries[f"{key}/{track_id}"] = [
            [t, int(scene.ids[r]), [x.hex() for x in scene.ends[r].tolist()]] for t, r in obs]
    return entries


def vp_clutter_frames(seed: int) -> list:
    """Segments of each frame of a 40-keyframe orbit over five direction
    families (x, y, z, (1, 0, 1), (1, 1, -1); 30 lines each), 1 px endpoint
    noise, 20% outlier segments and a 100-segment budget."""
    cfg = ScenarioConfig(
        name="vp-clutter", rng_seed=seed, n_points=20,
        direction_families=[([1.0, 0.0, 0.0], 30), ([0.0, 1.0, 0.0], 30),
                            ([0.0, 0.0, 1.0], 30), ([1.0, 0.0, 1.0], 30),
                            ([1.0, 1.0, -1.0], 30)],
        trajectory=TrajectorySpec("orbit", 40, 0.25),
        noise=NoiseSpec(0.0, 1.0, 0.0), outlier_fraction=0.2, n_l=100)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sparse-frame warnings: few points
        frames = render_measurements(generate_world(cfg), generate_trajectory(cfg), cfg)
    return [f.segments for f in frames]


def vp_entries() -> dict:
    """Per frame t: the estimates and labels of `detect_vanishing_points` with
    its defaults and `rng_seed = 1009 * seed + t`."""
    seed = VP_SCENE_SEED
    entries = {}
    for t, segs in enumerate(vp_clutter_frames(seed)):
        ests = detect_vanishing_points(segs, rng_seed=1009 * seed + t)
        key = f"vp/clutter({seed})/{t:02d}"
        entries.update({
            f"{key}/vps": [[x.hex() for x in e.vp_homogeneous.tolist()] for e in ests],
            f"{key}/members": [sorted(e.member_segment_ids) for e in ests],
            f"{key}/rms": [e.residual_rms.hex() for e in ests],
            f"{key}/labels": [s.cluster_label for s in segs]})
    return entries


def dump(entries: dict) -> str:
    """The golden file's text: one line per entry, sorted by key."""
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def changes(expected: dict, actual: dict) -> list[str]:
    """One line per key whose value differs; a missing value reads None."""
    return [f"{k}: expected {expected.get(k)!r}, actual {actual.get(k)!r}"
            for k in sorted(expected.keys() | actual.keys())
            if expected.get(k) != actual.get(k)]


def assert_golden(actual: dict, *prefixes: str) -> None:
    """`actual` equals the golden entries under `prefixes`, each key."""
    expected = {k: v for k, v in load().items() if k.startswith(prefixes)}
    diff = changes(expected, actual)
    assert not diff, "golden outputs differ:\n" + "\n".join(diff)


def regenerate() -> dict:
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            entries.update(run_entries(config, Path(tmp) / config))
        entries.update(ablate_entries(Path(tmp) / "ablate"))
    for scenario, seed in SWEEP:
        entries.update(sweep_entries(scenario, seed))
    for scenario, seed in TRACKS:
        entries.update(track_entries(scenario, seed))
    entries.update(vp_entries())
    return entries


if __name__ == "__main__":
    entries = regenerate()
    old = load() if GOLDEN.exists() else {}
    GOLDEN.write_text(dump(entries))
    print("\n".join(changes(old, entries)) or "no entry changed", file=sys.stderr)
