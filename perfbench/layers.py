"""Which monogp functions a traced run wraps, and the per-layer metrics.

A layer is a module of `src/monogp`. Each wrapped function gets a span named
`<layer>.<what>`; `graph.build` is the interval from `FactorGraph()` to the
`optimize` call, where `run_pipeline` adds the variables and factors. Layer
times are self times per round; calls are per round; graph and landmark sizes
are means per `run_pipeline` call (`primitives.n_gps` per gp call).
"""
from __future__ import annotations

import numpy as np

from monogp import graph, pipeline, primitives, simulate, vanishing

from spans import SETUP_RUN, Tracer, self_times

# per-layer metric -> (unit, better); the order is the output order
PER_LAYER = {
    "simulate.self_s": ("s", "lower"),
    "simulate.setup_s": ("s", "lower"),
    "tracking.self_s": ("s", "lower"),
    "tracking.tracks": ("count", "higher"),
    "tracking.gate_checks": ("count", "lower"),
    "tracking.lines_admitted": ("count", "higher"),
    "geometry.triangulate_s": ("s", "lower"),
    "vanishing.self_s": ("s", "lower"),
    "vanishing.calls": ("count", "lower"),
    "vanishing.segments_per_call": ("count", "lower"),
    "vanishing.vps_per_call": ("count", "lower"),
    "primitives.self_s": ("s", "lower"),
    "primitives.n_gps": ("count", "lower"),
    "graph.build_s": ("s", "lower"),
    "graph.params": ("count", "lower"),
    "graph.factors.point": ("count", "higher"),
    "graph.factors.line": ("count", "higher"),
    "graph.factors.vd_align": ("count", "higher"),
    "graph.factors.struct": ("count", "higher"),
    "graph.optimize_self_s": ("s", "lower"),
    "graph.linearize_s": ("s", "lower"),
    "graph.linearize_calls": ("count", "lower"),
    "graph.linearize_us_per_factor": ("us", "lower"),
    "graph.cost_eval_s": ("s", "lower"),
    "graph.cost_eval_calls": ("count", "lower"),
    "graph.solve_s": ("s", "lower"),
    "graph.solve_calls": ("count", "lower"),
    "graph.retract_s": ("s", "lower"),
    "graph.snapshot_restore_s": ("s", "lower"),
    "graph.iterations": ("count", "lower"),
    "graph.accept_ratio": ("ratio", "higher"),
    "graph.inactive_factors": ("count", "lower"),
    "evaluate.self_s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
}

# span name -> the per-layer time metric its self time adds to
SPAN_METRIC = {
    "pipeline.run_pipeline": "pipeline.self_s",
    "simulate.generate_world": "simulate.self_s",
    "simulate.generate_trajectory": "simulate.self_s",
    "simulate.render_measurements": "simulate.self_s",
    "tracking.build_line_tracks": "tracking.self_s",
    "tracking.run_gates": "tracking.self_s",
    "geometry.triangulate_points": "geometry.triangulate_s",
    "geometry.triangulate_lines": "geometry.triangulate_s",
    "vanishing.detect_vanishing_points": "vanishing.self_s",
    "vanishing.lift_vanishing_point": "vanishing.self_s",
    "primitives.associate_frame": "primitives.self_s",
    "graph.build": "graph.build_s",
    "graph.optimize": "graph.optimize_self_s",
    "graph.linearize": "graph.linearize_s",
    "graph.cost_eval": "graph.cost_eval_s",
    "graph.solve": "graph.solve_s",
    "graph.retract": "graph.retract_s",
    "graph.snapshot": "graph.snapshot_restore_s",
    "graph.restore": "graph.snapshot_restore_s",
    "evaluate.ate_rmse": "evaluate.self_s",
}


def _add(key, amount):
    def count(counters, args, result):
        counters[key] += amount(args, result)
    return count


def instrument(tracer: Tracer) -> None:
    """Wrap the layer functions a workload reaches; `tracer` undoes every patch on exit."""
    p = tracer.patch
    p(pipeline, "run_pipeline", "pipeline.run_pipeline")
    for fn in ("generate_world", "generate_trajectory", "render_measurements"):
        p(pipeline, fn, f"simulate.{fn}")
        p(simulate, fn, f"simulate.{fn}")
    p(pipeline, "build_line_tracks", "tracking.build_line_tracks",
      count=_add("tracking.tracks", lambda a, r: len(r)))
    p(pipeline, "run_gates", "tracking.run_gates",
      count=_add("tracking.gate_checks", lambda a, r: 1))
    # the stage helpers: triangulation plus the projections the gates compare
    p(pipeline, "_triangulate_points", "geometry.triangulate_points")
    p(pipeline, "_triangulate_lines", "geometry.triangulate_lines",
      count=_add("tracking.lines_admitted", lambda a, r: len(r[0])))

    def detect_counts(counters, args, result):
        counters["vanishing.segments"] += len(args[0])
        counters["vanishing.vps"] += len(result)
    for owner in (pipeline, vanishing):
        p(owner, "detect_vanishing_points", "vanishing.detect_vanishing_points",
          count=detect_counts)
        p(owner, "lift_vanishing_point", "vanishing.lift_vanishing_point")
    p(primitives.GlobalPrimitiveRegistry, "associate_frame", "primitives.associate_frame")
    init = graph.FactorGraph.__init__

    def marked_init(self_, *args, **kwargs):
        tracer.mark("graph.build")
        init(self_, *args, **kwargs)
    tracer.replace(graph.FactorGraph, "__init__", marked_init)
    p(graph, "optimize", "graph.optimize", before=lambda t: t.emit("graph.build"))
    p(graph, "_linearize", "graph.linearize",
      count=_add("graph.linearized_factors", lambda a, r: len(a[0].factors)))
    p(graph, "total_cost", "graph.cost_eval")
    p(graph, "cost_breakdown", "graph.cost_eval")
    # optimize calls numpy.linalg.solve; geometry's own solves are not spans
    p(np.linalg, "solve", "graph.solve", only_under="graph.optimize",
      count=_add("graph.solves_ok", lambda a, r: 1))
    p(graph, "retract", "graph.retract")
    p(graph.FactorGraph, "snapshot", "graph.snapshot")
    p(graph.FactorGraph, "restore", "graph.restore")
    p(pipeline, "ate_rmse", "evaluate.ate_rmse")


def layer_metrics(tracer: Tracer, outputs: list[dict], rounds: int) -> dict:
    """Per-layer metrics of a traced run from its spans, counters and outputs."""
    times = dict.fromkeys(set(SPAN_METRIC.values()), 0.0)
    calls: dict[str, int] = {}
    setup_simulate = 0.0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, run = span[0], span[4]
        metric = SPAN_METRIC[name]
        if run == SETUP_RUN:
            if metric == "simulate.self_s":
                setup_simulate += own
            continue
        times[metric] += own
        calls[name] = calls.get(name, 0) + 1

    def per_round(x):
        return x / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counters
    runs = [o for o in outputs if "params" in o]
    gp_runs = [o for o in runs if o["mode"] == "gp"]
    n_runs = len(runs)
    n_detect = calls.get("vanishing.detect_vanishing_points", 0)
    solves = c["graph.solves_ok"]
    out = {m: per_round(t) for m, t in times.items()}
    out.update({
        "simulate.setup_s": setup_simulate,
        "tracking.tracks": ratio(c["tracking.tracks"], n_runs),
        "tracking.gate_checks": ratio(c["tracking.gate_checks"], n_runs),
        "tracking.lines_admitted": ratio(c["tracking.lines_admitted"], n_runs),
        "vanishing.calls": per_round(n_detect),
        "vanishing.segments_per_call": ratio(c["vanishing.segments"], n_detect),
        "vanishing.vps_per_call": ratio(c["vanishing.vps"], n_detect),
        "primitives.n_gps": ratio(sum(o["n_gps"] for o in gp_runs), len(gp_runs)),
        "graph.params": ratio(sum(o["params"] for o in runs), n_runs),
        "graph.linearize_calls": per_round(calls.get("graph.linearize", 0)),
        "graph.linearize_us_per_factor": 1e6 * ratio(
            times["graph.linearize_s"], c["graph.linearized_factors"]),
        "graph.cost_eval_calls": per_round(calls.get("graph.cost_eval", 0)),
        "graph.solve_calls": per_round(calls.get("graph.solve", 0)),
        "graph.iterations": per_round(sum(o["iterations"] for o in runs)),
        "graph.accept_ratio": ratio(solves - calls.get("graph.restore", 0), solves),
        "graph.inactive_factors": ratio(
            sum(o.get("inactive_factors", 0) for o in runs), n_runs),
    })
    for kind in ("point", "line", "vd_align", "struct"):
        out[f"graph.factors.{kind}"] = ratio(sum(o["factors"][kind] for o in runs), n_runs)
    return {m: out[m] for m in PER_LAYER}
