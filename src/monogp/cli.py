"""Command-line interface.

Subcommands: simulate, run, eval, ablate, detect-vp.
Exit codes: 0 success, 1 stage error, 2 bad arguments.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .evaluate import Trajectory, ate_rmse, load_tum, save_tum
from .pipeline import PipelineError, run_ablation, run_pipeline
from .segments import load_segments
from .simulate import (
    ScenarioConfig,
    generate_trajectory,
    generate_world,
    render_measurements,
    save_observations,
)
from .tracking import write_gate_audit
from .vanishing import detect_vanishing_points


def _load_config(args) -> ScenarioConfig:
    cfg = ScenarioConfig.load(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, rng_seed=args.seed)
    return cfg


def _outdir(args) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    world = generate_world(cfg)
    poses = generate_trajectory(cfg)
    frames = render_measurements(world, poses, cfg)
    save_observations(frames, out / "observations.jsonl")
    save_tum(Trajectory(np.arange(len(poses), dtype=float), poses),
             out / "groundtruth.tum")
    print(f"wrote {len(frames)} frames to {out}")
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    result = run_pipeline(cfg, args.mode)
    save_tum(result.estimated, out / "estimated.tum")
    save_tum(result.ground_truth, out / "groundtruth.tum")
    metrics_path = out / "metrics.json"
    metrics_path.write_text(json.dumps(result.metrics, sort_keys=True) + "\n")
    (out / "report.json").write_text(result.report.to_json() + "\n")
    write_gate_audit(result.gate_audit, out / "gate_audit.csv")
    if result.registry is not None:
        (out / "registry.json").write_text(result.registry.to_json() + "\n")
    print(json.dumps(result.metrics, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    est = load_tum(args.est)
    ref = load_tum(args.ref)
    ate = ate_rmse(est, ref, with_scale=not args.no_scale)
    print(json.dumps({"ate_rmse_m": ate}))
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    report = run_ablation(cfg, args.seeds)
    if args.format == "csv":
        (out / "ablation.csv").write_text(report.to_csv())
    else:
        (out / "ablation.json").write_text(report.to_json() + "\n")
    print(report.to_json())
    return 0


def cmd_detect_vp(args) -> int:
    segments = load_segments(args.segments)
    estimates = detect_vanishing_points(segments, rng_seed=args.seed)
    out = [{"vp": [float(x) for x in e.vp_homogeneous],
            "members": sorted(e.member_segment_ids),
            "residual_rms_deg": e.residual_rms} for e in estimates]
    print(json.dumps(out, sort_keys=True))
    return 0


def _seed_count(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError("need at least 2 seeds")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="monogp",
                                description="Structure-aware monocular SLAM "
                                            "back-end benchmark harness")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="scenario JSON")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help="output directory")

    sp = sub.add_parser("simulate", help="render a synthetic scenario")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("run", help="run the full back-end pipeline")
    common(sp)
    sp.add_argument("--mode", choices=["lp", "gp"], required=True)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("eval", help="ATE between two TUM trajectories")
    sp.add_argument("est")
    sp.add_argument("ref")
    sp.add_argument("--no-scale", action="store_true")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("ablate", help="paired lp/gp ablation over seeds")
    common(sp)
    sp.add_argument("--seeds", type=_seed_count, default=10)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=cmd_ablate)

    sp = sub.add_parser("detect-vp", help="vanishing points from a segment file")
    sp.add_argument("--segments", required=True,
                    help="file: id x1 y1 x2 y2 [track_id]")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_detect_vp)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
