"""Traffic audit: which functions and statements of `monogp` no program path
executes.

The traffic is every entry point of the program, run under `sys.settrace`
tracing only frames of the imported `monogp` package's own files:
- `monogp.cli.main`: `simulate`, and `run --seed 7` in both modes, on each
  config in `configs/`; `eval` of one gp run against its ground truth, with
  and without `--no-scale`; `ablate`
  (two seeds) with `--format json` and `--format csv`; `detect-vp` on a
  segment file written from a rendered frame; and `run` on a 2-keyframe copy
  of `configs/structured.json`, which fails in `evaluate` and exits 1;
- the demos in `demos/`, through `runpy`;
- one round of each benchmark workload in `perfbench/workloads.py` (each
  operation's `run` and `check`, then `round_errors`), with
  `count_inactive` set as a traced `perfbench/run.py` run sets it; the
  module is imported as it is and nothing under `perfbench/` is written.
Each entry point has the exit status it is expected to return.

`program_trace` runs the traffic once and `never_called` names the functions
it never entered; tier-1's `tests/test_no_test_only_code.py` asserts that
these are only the ones it allows. Run as a script, this prints per function
the statements that nothing executed: their line numbers (a range runs from
the first line of one statement to the last line of a later one), a raise
statement marked `r`, and `never called` for a function none of these paths
entered. Run from the repository root:

    PYTHONPATH=src python tests/traffic.py
"""
import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

# One BLAS thread, as the tests and the benchmark run, set before numpy loads.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import monogp  # noqa: E402
from monogp import cli, simulate  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path(monogp.__file__).resolve().parent


def _entry_points(tmp: Path):
    """Every traced call, in order: (label, expected status, zero-argument
    callable)."""
    main = cli.main
    configs = sorted((REPO / "configs").glob("*.json"))
    for cfg in configs:
        out = tmp / cfg.stem
        yield f"simulate {cfg.name}", 0, lambda c=cfg, o=out: main(
            ["simulate", "--config", str(c), "--out", str(o / "sim")])
        for mode in ("lp", "gp"):
            yield f"run {cfg.name} {mode}", 0, lambda c=cfg, o=out, m=mode: main(
                ["run", "--config", str(c), "--seed", "7", "--mode", m, "--out", str(o / m)])
    est = tmp / configs[0].stem / "gp" / "estimated.tum"
    ref = tmp / configs[0].stem / "gp" / "groundtruth.tum"
    yield "eval", 0, lambda: main(["eval", str(est), str(ref)])
    yield "eval --no-scale", 0, lambda: main(["eval", str(est), str(ref), "--no-scale"])
    structured = REPO / "configs" / "structured.json"
    for fmt in ("json", "csv"):
        yield f"ablate {fmt}", 0, lambda f=fmt: main(
            ["ablate", "--config", str(structured), "--seeds", "2", "--format", f,
             "--out", str(tmp / f"ablate-{f}")])
    yield "detect-vp", 0, lambda: main(["detect-vp", "--segments", str(_segment_file(tmp))])
    # too few keyframes to align: "[evaluate] insufficient pairs"
    short = json.loads(structured.read_text())
    short["trajectory"]["n_keyframes"] = 2
    (tmp / "short.json").write_text(json.dumps(short))
    yield "run short.json gp", 1, lambda: main(
        ["run", "--config", str(tmp / "short.json"), "--mode", "gp", "--out", str(tmp / "short")])
    for demo in sorted((REPO / "demos").glob("*.py")):
        yield f"demo {demo.name}", None, lambda d=demo: _run_demo(d)
    path, bytecode = sys.path[:], sys.dont_write_bytecode
    sys.path[:0], sys.dont_write_bytecode = [str(REPO / "perfbench")], True
    try:
        from workloads import WORKLOADS
    finally:
        sys.path[:], sys.dont_write_bytecode = path, bytecode
    for name, cls in sorted(WORKLOADS.items()):
        yield f"workload {name}", None, lambda c=cls: _one_round(c(1))


def _run_demo(path: Path):
    runpy.run_path(str(path), run_name="__main__")


def _segment_file(tmp: Path) -> Path:
    """Frame 0 of the structured config, one `id x1 y1 x2 y2 track_id` line
    per segment (the track id is the segment id)."""
    cfg = simulate.ScenarioConfig.load(REPO / "configs" / "structured.json")
    frame = simulate.render_measurements(simulate.generate_world(cfg),
                                         simulate.generate_trajectory(cfg), cfg)[0]
    path = tmp / "segments.txt"
    path.write_text("".join(f"{sid} {' '.join(map(repr, e))} {sid}\n"
                            for sid, e in zip(frame.ids.tolist(), frame.ends.tolist())))
    return path


def _one_round(workload):
    workload.count_inactive = True
    outputs = [workload.check(op, workload.run(op)) for op in workload.ops()]
    errors = workload.round_errors(outputs)
    if errors:
        raise RuntimeError(f"{workload.name}: {errors}")


def trace(calls, package: Path = PACKAGE) -> tuple[set, set]:
    """(file, line) of every line event in the frames of `package`'s files,
    and (file, first line, name) of every code object they entered."""
    lines, entered = set(), set()
    prefix = str(package) + os.sep

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))
            return local
        return None

    for label, expected, call in calls:
        sys.settrace(tracer)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                status = call()
        finally:
            sys.settrace(None)
        if status != expected:
            raise RuntimeError(f"{label} exited with {status}, expected {expected}")
    return lines, entered


def program_trace() -> tuple[set, set]:
    """`trace` of the whole traffic."""
    with tempfile.TemporaryDirectory() as tmp:
        return trace(_entry_points(Path(tmp)))


class _Functions(ast.NodeVisitor):
    """Each function's qualified name, the first line and name of its code
    object (a decorated one starts at its first decorator), and its own
    statements (not those of nested functions or classes, which are listed
    under their own names)."""

    def __init__(self):
        self.prefix, self.found = [], []

    def visit_ClassDef(self, node):
        self.prefix.append(node.name)
        self.generic_visit(node)
        self.prefix.pop()

    def visit_FunctionDef(self, node):
        self.prefix.append(node.name)
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            body = body[1:]  # the docstring runs no code
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.found.append((".".join(self.prefix), (first, node.name), list(_statements(body))))
        self.generic_visit(node)
        self.prefix.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def _statements(body):
    """(statement, its own lines, its child statements) in source order."""
    for stmt in body:
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([stmt.lineno] + [d.lineno for d in stmt.decorator_list])
            yield stmt, range(first, stmt.lineno + 1), []
            continue
        blocks = [getattr(stmt, name, []) for name in ("body", "orelse", "finalbody")]
        blocks += [h.body for h in getattr(stmt, "handlers", [])]
        blocks += [c.body for c in getattr(stmt, "cases", [])]
        children = sorted((s for b in blocks for s in b), key=lambda s: s.lineno)
        if not children:
            yield stmt, range(stmt.lineno, stmt.end_lineno + 1), []
            continue
        nested = list(_statements(children))
        yield stmt, range(stmt.lineno, max(stmt.lineno + 1, children[0].lineno)), nested
        yield from nested


def _functions(package: Path):
    """(file, qualified name, its code object's key, its statements) of
    every function in `package`'s modules, in source order."""
    for path in sorted(package.glob("*.py")):
        visitor = _Functions()
        visitor.visit(ast.parse(path.read_text()))
        for qualname, key, stmts in visitor.found:
            yield path, qualname, (str(path), *key), stmts


def never_called(entered, package: Path = PACKAGE) -> set[str]:
    """`module.qualified.name` of every function in `package` whose code
    object is not in `entered` (from `trace`)."""
    return {f"{path.stem}.{qualname}"
            for path, qualname, key, _ in _functions(package) if key not in entered}


def _report(lines, entered) -> list[str]:
    report = []
    for path, qualname, key, stmts in _functions(PACKAGE):
        if key not in entered:
            report.append(f"{path.name} {qualname}: never called")
            continue

        def ran(own, nested):
            return any((key[0], l) in lines for l in own) or any(ran(o, n) for _, o, n in nested)
        missed = [(s, not ran(own, nested)) for s, own, nested in stmts]
        if not any(m for _, m in missed):
            continue
        groups = []  # [first, last, is_raise] of runs of missed statements
        for s, m in missed:
            if not m:
                groups.append(None)
                continue
            is_raise = isinstance(s, ast.Raise)
            last = groups[-1] if groups else None
            if last is not None and last[2] == is_raise:
                last[1] = max(last[1], s.end_lineno)
            else:
                groups.append([s.lineno, s.end_lineno, is_raise])
        spans = [f"{a}{'' if a == b else f'-{b}'}{'r' if r else ''}"
                 for a, b, r in filter(None, groups)]
        report.append(f"{path.name} {qualname}: {' '.join(spans)}")
    return report


def main():
    for line in _report(*program_trace()):
        print(line)


if __name__ == "__main__":
    main()
