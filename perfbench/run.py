"""Benchmark command for monogp.

    python3 perfbench/run.py --workload ablation --seed 3 --seconds 20 --trace 0

Runs whole rounds of the workload's operations through monogp's public API,
as many as fit in `--seconds` at the workload's nominal round time (at least
two), checks every output, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`. Details,
with nproc and library versions, go to perfbench/out/. The exit code is 1 if an
operation failed or a check on the run did not hold. Run it from the repository
root; `src/` is put on the path, nothing is installed.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 7
MIN_ROUNDS = 2
BLAS_THREADS = 1
REF_INTERVAL_S = 0.025  # reference kernel every 25 ms during a round
REF_ITERATIONS = 10     # ~0.5 ms a sample
REF_PAD_S = 0.1         # an operation's speed also counts samples this close to it

# Before numpy loads: one BLAS/OpenMP thread. monogp is single-threaded Python,
# its dense solves are small, and more threads only compete with it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

warnings.filterwarnings("ignore", category=UserWarning, module="monogp.simulate")

import layers  # noqa: E402
from spans import Tracer, tree_errors  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "round_ref": "ref", "peak_rss_mb": "MB"}


@dataclass
class OpRecord:
    round: int
    index: int
    kind: str
    seconds: float
    ok: bool
    error: str | None = None
    out: dict | None = None
    start: float = 0.0
    ref: float = 0.0  # mean reference kernel time while the operation ran


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


class SpeedSampler:
    """Times a fixed reference kernel every REF_INTERVAL_S, from a timer signal.

    The kernel is the kind of small numpy calls monogp's factor code makes and
    does not touch monogp. Dividing an operation's time by the kernel's mean
    time while it ran takes out the machine's speed at that moment and leaves
    the program's. The handler runs between the program's bytecodes; its own
    time is taken out of the operation's time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, kernel seconds)
        self._a = np.arange(36.0).reshape(6, 6) / 36.0 + np.eye(6)

    def _sample(self, signum, frame) -> None:
        a = self._a
        t0 = time.perf_counter()
        for _ in range(REF_ITERATIONS):
            b = a @ a.T
            np.linalg.norm(b, axis=0)
            np.cross(b[:3, 0], b[3:, 1])
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def busy(self, start: float, end: float) -> float:
        """The sampler's own time within [start, end]."""
        return sum(d for t, d in self.samples if start <= t < end)

    def speed(self, start: float, end: float) -> float:
        """Mean kernel time from REF_PAD_S before `start` to REF_PAD_S after `end`."""
        near = [d for t, d in self.samples if start - REF_PAD_S <= t < end + REF_PAD_S]
        return statistics.fmean(near)


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports everything and builds the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def round_count(workload, seconds: float) -> int:
    """Rounds that fit in `seconds` at the workload's nominal round time.

    The count does not depend on how fast the program runs, so a faster
    program does the same rounds in less time.
    """
    return max(MIN_ROUNDS, int(seconds / workload.NOMINAL_ROUND_S))


def measure(workload, rounds: int, tracer: Tracer, probe=None):
    """`rounds` whole rounds, each under a SpeedSampler.

    `probe` (a set-up timing) runs SETUP_PROBES times, spread over the run
    between rounds.
    """
    records, setups = [], []
    for rnd in range(rounds):
        while probe is not None and len(setups) < SETUP_PROBES * (rnd + 1) // rounds:
            setups.append(probe())
        gc.collect()  # every round starts from the same heap
        this_round = []
        with SpeedSampler() as sampler:
            for i, op in enumerate(workload.ops()):
                tracer.run_id = f"{rnd}:{i}"
                rec = OpRecord(rnd, i, workload.kind(op), 0.0, False)
                try:
                    rec.start = time.perf_counter()
                    try:
                        out = workload.run(op)
                    finally:
                        rec.seconds = time.perf_counter() - rec.start
                    rec.out = workload.check(op, out)
                    rec.ok = True
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    rec.error = "".join(traceback.format_exception_only(exc)).strip()
                out = None  # the next operation runs without this one's result alive
                this_round.append(rec)
            time.sleep(REF_PAD_S)  # samples after the last operation
        for rec in this_round:
            end = rec.start + rec.seconds
            rec.seconds -= sampler.busy(rec.start, end)
            rec.ref = sampler.speed(rec.start, end)
        records += this_round
    return records, setups


def round_ref(records) -> float:
    """A round's time in reference-kernel units.

    Each operation's time over the kernel's mean time while it ran, the median
    of that over the rounds, summed over the round's operations.
    """
    per_op: dict[int, list] = {}
    for r in records:
        per_op.setdefault(r.index, []).append(r.seconds / r.ref)
    return sum(statistics.median(v) for v in per_op.values())


def run_errors(workload, records, rounds: int) -> list[str]:
    """Checks on the run as a whole: every round's outputs repeat the first's."""
    errors = []
    by_round = [[r.out for r in records if r.round == k] for k in range(rounds)]
    for k in range(1, rounds):
        if by_round[k] != by_round[0]:
            errors.append(f"round {k} outputs differ from round 0")
    for k in range(rounds):
        if all(o is not None for o in by_round[k]):
            errors += [f"round {k}: {e}" for e in workload.round_errors(by_round[k])]
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit (times set-up)")
    args = ap.parse_args(argv)
    cls = WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed)
        return 0

    with Tracer() as tracer:
        if args.trace:
            layers.instrument(tracer)
        workload = cls(args.seed)
        workload.count_inactive = bool(args.trace)
        rounds = round_count(workload, args.seconds)
        probe = None if args.trace else lambda: setup_seconds(args.workload, args.seed)
        records, setups = measure(workload, rounds, tracer, probe)
    errors = run_errors(workload, records, rounds)
    round_sums = [sum(r.seconds for r in records if r.round == k) for k in range(rounds)]
    if args.trace:
        errors += tree_errors(tracer.spans)
        metrics = layers.layer_metrics(tracer, [r.out for r in records if r.ok], rounds)
        units = {m: u for m, (u, _) in layers.PER_LAYER.items()}
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "round_ref": round_ref(records),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    failed = [r for r in records if not r.ok]
    figures = workload.figures(records)
    env = environment()

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "environment": env, "rounds": rounds, "round_sums_s": round_sums,
              "round_ref": round_ref(records), "setup_probes_s": setups, "metrics": metrics, "figures": figures,
              "errors": errors,
              "operations": [{"round": r.round, "index": r.index, "kind": r.kind,
                              "seconds": r.seconds, "ref_s": r.ref, "ok": r.ok,
                              "error": r.error}
                             for r in records]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} rounds={rounds} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for k, v in figures.items():
        print(f"# figure {k} = {v:.6g}")
    for r in failed:
        print(f"# FAILED round {r.round} op {r.index} ({r.kind}): {r.error}")
    for e in errors:
        print(f"# CHECK {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if not errors and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
