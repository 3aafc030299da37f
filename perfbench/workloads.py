"""The benchmark's workloads: their inputs, operations and output checks.

Every workload is a fixed list of operations (a round). `run` is the timed call
into monogp's public API; `check` compares its output with properties or with
`reference` and returns the operation's deterministic outputs; `figures`
summarises a run's records. Calls go through module attributes (`pipeline.
run_pipeline`, `vanishing.detect_vanishing_points`, ...) so that a traced run
sees them.
"""
from __future__ import annotations

import statistics

import numpy as np

from monogp import pipeline, simulate, vanishing
from monogp.geometry import BehindCameraError, DegenerateLineError
from monogp.graph import DOF
from monogp.scenarios import default_corridor, structured
from monogp.simulate import NoiseSpec, ScenarioConfig, TrajectorySpec

import reference as ref

MODES = ("lp", "gp")


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def graph_sizes(result, count_inactive: bool) -> dict:
    """Sizes of the optimized factor graph of one `run_pipeline` result.

    `inactive_factors` counts the factors whose residual raises at the final
    state, so that the cost leaves them out; it takes one residual pass and is
    computed only when asked.
    """
    g = result.graph
    kinds = {k: 0 for k in ("point", "line", "vd_align", "struct")}
    for f in g.factors:
        kinds[f.kind] += 1
    n_vars = {"pose": len(g.poses) - 1, "point": len(g.points),
              "line": len(g.lines), "gp": len(g.gps)}  # pose 0 is fixed
    out = {"params": sum(DOF[k] * n for k, n in n_vars.items()),
           "factors": kinds,
           "iterations": result.report.iterations}
    if count_inactive:
        inactive = 0
        for f in g.factors:
            try:
                f.residual(g)
            except (BehindCameraError, DegenerateLineError):
                inactive += 1
        out["inactive_factors"] = inactive
    return out


class PipelineWorkload:
    """Paired lp/gp `run_pipeline` calls over a fixed list of scenes."""

    name = ""
    count_inactive = False

    def __init__(self, configs, seed: int):
        # the seed rotates the call order; the scenes themselves are fixed
        start = seed % len(configs)
        self.configs = configs[start:] + configs[:start]
        self.modes = MODES if seed % 2 == 0 else MODES[::-1]

    def ops(self) -> list:
        return [(mode, cfg) for cfg in self.configs for mode in self.modes]

    def kind(self, op) -> str:
        return op[0]

    def round_errors(self, outputs) -> list[str]:
        return []

    def run(self, op):
        mode, cfg = op
        return pipeline.run_pipeline(cfg, mode)

    def _trajectory_errors(self, result) -> tuple[float, float]:
        gt = ref.camera_centers(result.ground_truth.poses)
        return (ref.ate_rmse(ref.camera_centers(result.estimated.poses), gt),
                ref.ate_rmse(ref.camera_centers(result.initial.poses), gt))

    def _planted(self, cfg) -> list:
        return [d for d, _ in cfg.direction_families]

    def _base_output(self, op, result) -> dict:
        mode, cfg = op
        return {"mode": mode, "scene": f"{cfg.name}/{cfg.rng_seed}",
                "initial_cost": result.report.initial_cost,
                "final_cost": result.report.final_cost,
                "n_gps": result.metrics["n_gps"],
                **graph_sizes(result, self.count_inactive)}


class FixedPoint(PipelineWorkload):
    """The noiseless 20-keyframe corridor, which starts at the optimum."""

    name = "fixed-point"
    NOMINAL_ROUND_S = 11.0  # fixes the round count: max(2, seconds // this)
    MAX_COST = 1e-12
    MAX_ATE_M = 1e-9
    AXIS_DEG = 0.01   # fused GP to planted axis

    def __init__(self, seed: int):
        super().__init__([default_corridor()], seed)

    def check(self, op, result) -> dict:
        mode, cfg = op
        out = self._base_output(op, result)
        ate, _ = self._trajectory_errors(result)
        _require(out["final_cost"] < self.MAX_COST,
                 f"{mode}: final cost {out['final_cost']:.3g} >= {self.MAX_COST}")
        _require(ate < self.MAX_ATE_M, f"{mode}: ATE {ate:.3g} m >= {self.MAX_ATE_M}")
        if mode == "gp":
            angles = ref.nearest_angles_deg(
                self._planted(cfg), [gp.direction for gp in result.registry.primitives])
            _require(max(angles) < self.AXIS_DEG,
                     f"gp: planted axis {max(angles):.3g} deg from its nearest GP")
        out["ate_m"] = ate
        return out

    def figures(self, records) -> dict:
        first = [r.out for r in records if r.round == 0 and r.ok]
        fig = _mode_timings(records)
        fig.update({f"{k}_{o['mode']}": o[k] for o in first
                    for k in ("initial_cost", "final_cost")})
        return fig


class Ablation(PipelineWorkload):
    """Paired lp/gp runs over a fixed set of seeds of the `structured` scene."""

    name = "ablation"
    NOMINAL_ROUND_S = 11.0
    SCENE_SEEDS = (0, 1, 2)
    ATE_REL_TOL = 1e-9
    FAMILY_DEG = 1.0  # optimized GP to planted family

    def __init__(self, seed: int):
        super().__init__([structured(s) for s in self.SCENE_SEEDS], seed)

    def check(self, op, result) -> dict:
        mode, cfg = op
        out = self._base_output(op, result)
        ate, initial = self._trajectory_errors(result)
        reported = result.metrics["ate_rmse_m"]
        _require(abs(ate - reported) <= self.ATE_REL_TOL * ate,
                 f"{mode}: reference ATE {ate!r} vs reported {reported!r}")
        _require(ate < initial, f"{mode}: ATE {ate:.4g} m not below initial {initial:.4g} m")
        if mode == "gp":
            angles = ref.nearest_angles_deg(self._planted(cfg), result.graph.gps.values())
            _require(max(angles) < self.FAMILY_DEG,
                     f"gp: planted family {max(angles):.3g} deg from its nearest GP")
        out.update(ate_m=ate, initial_ate_m=initial)
        return out

    def figures(self, records) -> dict:
        first = [r.out for r in records if r.round == 0 and r.ok]
        ate = {m: [o["ate_m"] for o in first if o["mode"] == m] for m in MODES}
        fig = _mode_timings(records)
        fig.update({f"ate_{m}_mm": 1e3 * _mean(ate[m]) for m in MODES})
        if fig["ate_lp_mm"] > 0:
            fig["ate_gp_over_lp"] = fig["ate_gp_mm"] / fig["ate_lp_mm"]
        return fig


def _mode_timings(records) -> dict:
    return {f"run_{m}_s": _median([r.seconds for r in records if r.kind == m])
            for m in MODES}


# ---------------------------------------------------------------------------
# Vanishing points in clutter
# ---------------------------------------------------------------------------

VP_FAMILIES = [
    ([1.0, 0.0, 0.0], 30),
    ([0.0, 1.0, 0.0], 30),
    ([0.0, 0.0, 1.0], 30),
    ([1.0, 0.0, 1.0], 30),   # oblique, 45 deg from x and z
    ([1.0, 1.0, -1.0], 30),  # oblique, orthogonal to the one above
]


def vp_clutter_scene(seed: int) -> ScenarioConfig:
    """Five direction families, 20% outlier segments, 100-segment budget, orbit."""
    return ScenarioConfig(
        name="vp-clutter", rng_seed=seed, n_points=20,
        direction_families=VP_FAMILIES,
        trajectory=TrajectorySpec("orbit", 40, 0.25),
        noise=NoiseSpec(sigma_point_px=0.0, sigma_endpoint_px=1.0, sigma_flow_px=0.0),
        outlier_fraction=0.2, n_l=100)


class VpClutter:
    """Per-frame vanishing-point detection, as `monogp detect-vp` runs it."""

    name = "vp-clutter"
    NOMINAL_ROUND_S = 3.0
    VISIBLE_MIN = 6          # inlier segments for a family to count as visible
    RECOVER_DEG = 2.0        # nearest VP to a visible family
    MIN_RECOVERED = 0.9      # share of visible (frame, family) pairs recovered
    MIN_ASSIGNED = 0.85      # share of their inlier segments in the right cluster
    LIFT_TOL_DEG = 1e-6      # monogp's lift against the reference lift

    def __init__(self, seed: int):
        self.seed = seed
        self.config = vp_clutter_scene(seed)
        world = simulate.generate_world(self.config)
        self.poses = simulate.generate_trajectory(self.config)
        self.frames = simulate.render_measurements(world, self.poses, self.config)
        self.planted = [d for d, _ in self.config.direction_families]

    def ops(self) -> list:
        return list(enumerate(self.frames))

    def kind(self, op) -> str:
        return "frame"

    def run(self, op):
        t, frame = op
        estimates = vanishing.detect_vanishing_points(
            frame.segments, rng_seed=self.seed * 1009 + t)
        lifted = [vanishing.lift_vanishing_point(e.vp_homogeneous, self.config.intrinsics,
                                                 self.poses[t].r_wc)
                  for e in estimates]
        return estimates, lifted

    def check(self, op, out) -> dict:
        t, frame = op
        estimates, lifted = out
        c = self.config
        pose = self.poses[t]
        cam = ref.camera_directions([e.vp_homogeneous for e in estimates],
                                    c.fx, c.fy, c.cx, c.cy)
        for d_prog, d_cam in zip(lifted, cam):
            err = ref.axis_angle_deg(d_prog, pose.r_wc @ d_cam)
            _require(err < self.LIFT_TOL_DEG,
                     f"frame {t}: lifted direction {err:.3g} deg from the reference lift")
        truth = ref.planted_camera_directions(self.planted, pose.rotation)
        inliers = {fam: [] for fam in range(len(self.planted))}
        for seg in frame.segments:
            st = frame.truth[seg.id]
            if not st.outlier:
                inliers[st.family_id].append(seg)
        visible = [f for f, segs in inliers.items() if len(segs) >= self.VISIBLE_MIN]
        errors = ref.nearest_angles_deg([truth[f] for f in visible], cam)
        # each estimate stands for its nearest planted family (criterion 5 style)
        est_family = {i: int(np.argmin(ref.nearest_angles_deg(truth, [d])))
                      for i, d in enumerate(cam)}
        assigned = sum(1 for f in visible for seg in inliers[f]
                       if seg.cluster_label is not None
                       and est_family.get(seg.cluster_label) == f)
        return {"segments": len(frame.segments), "vps": len(estimates),
                "vp_errors_deg": errors,
                "recovered": sum(1 for e in errors if e < self.RECOVER_DEG),
                "visible": len(visible),
                "assigned": assigned,
                "visible_inliers": sum(len(inliers[f]) for f in visible),
                "vps_image": [[float(x) for x in e.vp_homogeneous] for e in estimates]}

    def round_errors(self, outputs) -> list[str]:
        """Checks on one whole round's outputs."""
        visible = sum(o["visible"] for o in outputs)
        inliers = sum(o["visible_inliers"] for o in outputs)
        errors = []
        if visible == 0 or sum(o["recovered"] for o in outputs) < self.MIN_RECOVERED * visible:
            errors.append(f"fewer than {self.MIN_RECOVERED:.0%} of visible families "
                          f"have a VP within {self.RECOVER_DEG} deg")
        if inliers == 0 or sum(o["assigned"] for o in outputs) < self.MIN_ASSIGNED * inliers:
            errors.append(f"fewer than {self.MIN_ASSIGNED:.0%} of inlier segments "
                          "are clustered with their family")
        return errors

    def figures(self, records) -> dict:
        first = [r.out for r in records if r.round == 0 and r.ok]
        visible = sum(o["visible"] for o in first)
        inliers = sum(o["visible_inliers"] for o in first)
        return {
            "vp_frame_ms": 1e3 * _median([r.seconds for r in records]),
            "vp_err_deg": _median([e for o in first for e in o["vp_errors_deg"]]),
            "recovered_share": sum(o["recovered"] for o in first) / max(visible, 1),
            "assigned_share": sum(o["assigned"] for o in first) / max(inliers, 1),
            "segments_per_frame": _mean([o["segments"] for o in first]),
            "vps_per_frame": _mean([o["vps"] for o in first]),
        }


WORKLOADS = {w.name: w for w in (FixedPoint, Ablation, VpClutter)}
