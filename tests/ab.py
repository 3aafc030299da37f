"""Paired in-process A/B timing of one benchmark workload: a base revision of
the repository against its working tree, in one process.

    python tests/ab.py --base HEAD --workload ablation
    python tests/ab.py --base <rev> --workload fixed-point --rounds 30

`--base` is exported with `git archive` into a temporary directory. Both
`src/monogp` trees, the base's and the working tree's, load under two
package names (`monogp_base`, `monogp_change`); the package imports itself only relatively, so a copy
loads unchanged under another name. A third copy of the base
(`monogp_control`) gives an A/A control in the same process. The workload
is `perfbench/workloads.py`'s on seed `SEED`, read without writing anything
under `perfbench/`, and its inputs are built once per copy. After one untimed
warm-up round per copy, every round times the workload's operations
(`run`; `check` runs untimed after each) on base and change and on base and
control, each pair in alternating order (ABBA). It prints, for change/base
and for the control/base, the median of the paired round-time ratios, the
rounds in which the second copy was faster, and a 95% bootstrap interval of
the median (10,000 resamples of the rounds, generator seed `BOOTSTRAP_SEED`).

When this answers the question: a difference in the time of code that both
copies run, down to a few percent, which separate benchmark processes do not
resolve because one process runs the same code at a different speed from the
next. The copies share one process, allocator and cache, so this cannot
measure page faults, `peak_rss_mb` or `setup_s`: those need separate
processes (`perfbench/run.py`). The copies' code also lies at different
addresses, which the A/A control samples but does not cover.

Run from the repository root, with nothing else busy on the machine.
"""
import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
import warnings
from pathlib import Path

# One BLAS thread, as the tests and the benchmark run, set before numpy loads.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
PACKAGE = "monogp"
SEED = 1  # the workload's seed, as the benchmark runs it
BOOTSTRAP_SEED = 20_240
BOOTSTRAP_RESAMPLES = 10_000


def export(rev: str, dest: Path) -> Path:
    """The tree of revision `rev` of this repository, written into `dest` by
    `git archive`; returns `dest`."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def load_package(path: Path, name: str):
    """The package in directory `path` imported as `name`, with every module
    of it imported as `name.<module>`."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in sorted(path.glob("*.py")):
        if module.stem != "__init__":
            importlib.import_module(f"{name}.{module.stem}")
    return package


@contextlib.contextmanager
def bound_as(package, name: str):
    """`package` and its modules importable as `name` and `name.<module>`
    inside the block; `sys.modules` is restored afterwards."""
    prefix = package.__name__ + "."
    aliases = {name: package}
    aliases.update({name + "." + key[len(prefix):]: module
                    for key, module in sys.modules.items() if key.startswith(prefix)})
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        yield
    finally:
        for key, module in saved.items():
            if module is None:
                del sys.modules[key]
            else:
                sys.modules[key] = module


def load_workloads(package, name: str):
    """This repository's `perfbench/workloads.py` executed as module `name`
    against `package` (bound as `monogp`), writing no bytecode under
    `perfbench/`."""
    path, bytecode = sys.path[:], sys.dont_write_bytecode
    sys.path[:0], sys.dont_write_bytecode = [str(REPO / "perfbench")], True
    try:
        with bound_as(package, PACKAGE):
            spec = importlib.util.spec_from_file_location(name, REPO / "perfbench" / "workloads.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = path, bytecode
    return module


def run_round(workload) -> tuple[float, list]:
    """One round of `workload`: the summed time of its operations' `run`
    calls and their checked outputs."""
    gc.collect()  # every round starts from the same heap, as in perfbench/run.py
    seconds, outputs = 0.0, []
    for op in workload.ops():
        start = time.perf_counter()
        result = workload.run(op)
        seconds += time.perf_counter() - start
        outputs.append(workload.check(op, result))
        result = None  # the next operation runs without this one's result alive
    return seconds, outputs


def paired(base, other) -> dict:
    """Summary of the per-round ratios other/base of two equal-length lists
    of round times: their median, the rounds `other` was faster, and a 95%
    bootstrap interval of the median."""
    ratios = np.asarray(other) / np.asarray(base)
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    picks = rng.integers(0, len(ratios), (BOOTSTRAP_RESAMPLES, len(ratios)))
    low, high = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    return {"median": float(np.median(ratios)), "wins": int(np.sum(ratios < 1.0)),
            "rounds": len(ratios), "low": float(low), "high": float(high)}


def measure(arms: dict, rounds: int) -> dict:
    """For "change" and for "control", the round times of the base and of
    that arm: `rounds` rounds, each timing base and change, then base and
    control, each pair in the order of the round's parity."""
    times = {other: ([], []) for other in ("change", "control")}
    for k in range(rounds):
        for other, (base, mine) in times.items():
            for arm in (("base", other) if k % 2 == 0 else (other, "base")):
                (base if arm == "base" else mine).append(run_round(arms[arm])[0])
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision timed as A")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args(argv)
    # as perfbench/run.py: sparse-frame warnings from the simulator
    warnings.filterwarnings("ignore", category=UserWarning, module=r"monogp_\w+\.simulate")
    with tempfile.TemporaryDirectory() as tmp:
        base = export(args.base, Path(tmp))
        packages = {"base": load_package(base / "src" / PACKAGE, "monogp_base"),
                    "change": load_package(REPO / "src" / PACKAGE, "monogp_change"),
                    "control": load_package(base / "src" / PACKAGE, "monogp_control")}
        arms = {arm: load_workloads(package, f"workloads_{arm}").WORKLOADS[
            args.workload](SEED) for arm, package in packages.items()}
        warm = {arm: run_round(workload)[1] for arm, workload in arms.items()}
        times = measure(arms, args.rounds)
    print(f"# ab {args.workload} seed={SEED} rounds={args.rounds} base={args.base} "
          f"numpy={np.__version__}")
    print(f"# outputs equal to the base's: change {warm['change'] == warm['base']}, "
          f"control {warm['control'] == warm['base']}")
    for other, label in (("change", "change/base"), ("control", "A/A control")):
        base_s, other_s = times[other]
        s = paired(base_s, other_s)
        print(f"{label:12s} median {s['median']:.3f}  faster {s['wins']}/{s['rounds']}  "
              f"95% bootstrap {s['low']:.3f}-{s['high']:.3f}  "
              f"round median {np.median(base_s):.4f} s -> {np.median(other_s):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
