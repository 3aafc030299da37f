"""Traffic audit: which statements of `monogp` no program path executes.

Runs every entry point of the program under `sys.settrace`, tracing only
frames of the imported `monogp` package's own files:
- `monogp.cli.main`: `simulate`, and `run --seed 7` in both modes, on each
  config in `configs/`; `eval` of one gp run against its ground truth, with
  and without `--no-scale`; `ablate`
  (two seeds) with `--format json` and `--format csv`; `detect-vp` on a
  segment file written from a rendered frame;
- the demos in `demos/`, through `runpy`;
- one round of each benchmark workload in `perfbench/workloads.py` (each
  operation's `run` and `check`, then `round_errors`); the module is imported
  as it is and nothing under `perfbench/` is written.

It prints, per function, the statements that nothing executed: their line
numbers (a range runs from the first line of one statement to the last line
of a later one), a raise statement marked `r`, and `never called` for a
function none of these paths entered. Not collected by pytest. Run from the
repository root:

    PYTHONPATH=src python tests/traffic.py
"""
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

# One BLAS thread, as the tests and the benchmark run, set before numpy loads.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.dont_write_bytecode = True

import monogp  # noqa: E402
from monogp import cli, simulate  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
PACKAGE = str(Path(monogp.__file__).resolve().parent) + os.sep


def _entry_points(tmp: Path):
    """Every traced call, in order: (label, zero-argument callable)."""
    main = cli.main
    configs = sorted((REPO / "configs").glob("*.json"))
    for cfg in configs:
        out = tmp / cfg.stem
        yield f"simulate {cfg.name}", lambda c=cfg, o=out: main(
            ["simulate", "--config", str(c), "--out", str(o / "sim")])
        for mode in ("lp", "gp"):
            yield f"run {cfg.name} {mode}", lambda c=cfg, o=out, m=mode: main(
                ["run", "--config", str(c), "--seed", "7", "--mode", m, "--out", str(o / m)])
    est = tmp / configs[0].stem / "gp" / "estimated.tum"
    ref = tmp / configs[0].stem / "gp" / "groundtruth.tum"
    yield "eval", lambda: main(["eval", str(est), str(ref)])
    yield "eval --no-scale", lambda: main(["eval", str(est), str(ref), "--no-scale"])
    structured = REPO / "configs" / "structured.json"
    for fmt in ("json", "csv"):
        yield f"ablate {fmt}", lambda f=fmt: main(
            ["ablate", "--config", str(structured), "--seeds", "2", "--format", f,
             "--out", str(tmp / f"ablate-{f}")])
    yield "detect-vp", lambda: main(["detect-vp", "--segments", str(_segment_file(tmp))])
    for demo in sorted((REPO / "demos").glob("*.py")):
        yield f"demo {demo.name}", lambda d=demo: runpy.run_path(str(d), run_name="__main__")
    sys.path[:0] = [str(REPO / "perfbench")]
    from workloads import WORKLOADS
    for name, cls in sorted(WORKLOADS.items()):
        yield f"workload {name}", lambda c=cls: _one_round(c(1))


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
    outputs = [workload.check(op, workload.run(op)) for op in workload.ops()]
    errors = workload.round_errors(outputs)
    if errors:
        raise RuntimeError(f"{workload.name}: {errors}")


def _trace(calls) -> set:
    """(file, line) of every line event in the package's frames."""
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            hits.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    for label, call in calls:
        sys.settrace(tracer)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                status = call()
        finally:
            sys.settrace(None)
        if status not in (None, 0) and not isinstance(status, dict):
            raise RuntimeError(f"{label} exited with {status}")
    return hits


class _Functions(ast.NodeVisitor):
    """Each function's qualified name and its own statements (not those of
    nested functions or classes, which are listed under their own names)."""

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
        self.found.append((".".join(self.prefix), list(_statements(body))))
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


def _report(hits) -> list[str]:
    lines = []
    for path in sorted(Path(PACKAGE).glob("*.py")):
        name, tree = str(path), ast.parse(path.read_text())
        visitor = _Functions()
        visitor.visit(tree)
        hit = {line for f, line in hits if f == name}
        for qualname, stmts in visitor.found:
            def ran(own, nested):
                return any(l in hit for l in own) or any(ran(o, n) for _, o, n in nested)
            missed = [(s, not ran(own, nested)) for s, own, nested in stmts]
            if not any(m for _, m in missed):
                continue
            if all(m for _, m in missed):
                lines.append(f"{path.name} {qualname}: never called")
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
            lines.append(f"{path.name} {qualname}: {' '.join(spans)}")
    return lines


def main():
    with tempfile.TemporaryDirectory() as tmp:
        hits = _trace(_entry_points(Path(tmp)))
    for line in _report(hits):
        print(line)


if __name__ == "__main__":
    main()
