"""Traffic audit: which functions and statements of `monogp` no program path
executes.

The traffic is every entry point of the program, run under `sys.settrace`
tracing only frames of the imported `monogp` package's own files:
- `monogp.cli.main`: `simulate`, and `run --seed 7` in both modes, on each
  config in `configs/`; `eval` of one gp run against its ground truth, with
  and without `--no-scale`; `ablate`
  (two seeds) with `--format json` and `--format csv`; `detect-vp` on
  frame 0 of `configs/structured.json` as a segment file
  (`golden.write_segment_file`); and `run` on a 2-keyframe copy
  of `configs/structured.json`, which fails in `evaluate` and exits 1;
- the demos in `demos/`, through `runpy`;
- one round of each benchmark workload in `perfbench/workloads.py` (each
  operation's `run` and `check`, then `round_errors`), with
  `count_inactive` set as a traced `perfbench/run.py` run sets it; the
  module is imported as it is and nothing under `perfbench/` is written.
Each entry point has the exit status it is expected to return.

`program_trace` runs the traffic once. From it `never_called` names the
functions it never entered, and `one_sided` the parameter defaults that it
only took or only overrode; tier-1's `tests/test_no_test_only_code.py`
asserts that these are only the ones `ALLOWED` and `ALLOWED_DEFAULTS` below
name. Run as a script, this prints per function the statements that nothing
executed: their line numbers (a range runs from the first line of one
statement to the last line of a later one), a raise statement marked `r`,
and `never called` for a function none of these paths entered; then one
line per default of an entered function: `taken, overridden`, `taken only`
or `overridden only`, and `allowed` when the guard allows it. Run from the repository root:

    PYTHONPATH=src python tests/traffic.py
"""
import ast
import contextlib
import importlib
import io
import json
import os
import runpy
import sys
import tempfile
import types
from pathlib import Path

# One BLAS thread, as the tests and the benchmark run, set before numpy loads.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import monogp  # noqa: E402
from golden import write_segment_file  # noqa: E402
from monogp import cli, scenarios, simulate  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path(monogp.__file__).resolve().parent


# Reached only from tests, on purpose: qualified name -> reason.
ALLOWED = {
    "primitives.GlobalPrimitiveRegistry.recompute_support":
        "acceptance criterion 7 audits the fused GP support with it",
    "primitives.GlobalPrimitiveRegistry.association_graph":
        "acceptance criterion 8 finds the frame links through GPs with it",
    "scenarios.nonoverlap":
        "acceptance criterion 8 and the golden outputs run this landmark-disjoint scene",
    "simulate.ScenarioConfig.save":
        "acceptance criterion 10 writes the scenario config file with it",
    "simulate.ScenarioConfig.to_json":
        "`save` writes it (criterion 10)",
    "geometry.Pose.inverse":
        "value-type helper: criterion 1 maps camera points to the world with it",
    "geometry.Pose.compose":
        "value-type helper: the oracle that `retract` on poses is checked against",
}


# Parameter defaults the traffic only takes or only overrides, on purpose:
# "module.qualified.name(parameter)" -> reason.
ALLOWED_DEFAULTS = {
    "cli.main(argv)":
        "the `monogp` console script and `python -m monogp.cli` call `main()`",
    "evaluate.ate_rmse(align)":
        "acceptance criterion 9 passes `align=False`",
    "scenarios.default_corridor(seed)":
        "the fixed-point workload calls `default_corridor()`; tests also render seeds 1 and 2",
}


def _entry_points(tmp: Path):
    """Every traced call, in order: (label, expected status, zero-argument
    callable)."""
    main = cli.main
    configs = sorted(scenarios.CONFIGS.glob("*.json"))
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
    structured = scenarios.CONFIGS / "structured.json"
    for fmt in ("json", "csv"):
        yield f"ablate {fmt}", 0, lambda f=fmt: main(
            ["ablate", "--config", str(structured), "--seeds", "2", "--format", f,
             "--out", str(tmp / f"ablate-{f}")])
    yield "detect-vp", 0, lambda: main(
        ["detect-vp", "--segments", str(write_segment_file("structured", tmp / "segments.txt"))])
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


def _one_round(workload):
    workload.count_inactive = True
    outputs = [workload.check(op, workload.run(op)) for op in workload.ops()]
    errors = workload.round_errors(outputs)
    if errors:
        raise RuntimeError(f"{workload.name}: {errors}")


def defaulted(modules: dict, schema) -> dict:
    """Code object -> (qualified name, ((parameter, default), ...)) of every
    function with defaulted parameters in `modules` ({module name:
    namespace}): module-level functions and the methods of module-level
    classes and of classes nested in them, the `__init__` that `@dataclass`
    generates among them (a `default_factory` field's default is the
    `dataclasses` sentinel). The classes in `schema` are left out."""
    found = {}

    def visit(namespace, module, owner):
        """The functions of a module's `namespace` (`owner` None), or of a
        class's, `owner` then its qualified name and a dot."""
        for obj in namespace.values():
            obj = getattr(obj, "__func__", obj)  # staticmethod, classmethod
            if owner is None:
                mine = getattr(obj, "__module__", None) == namespace["__name__"]
            else:  # defined in the class body or generated for it
                mine = getattr(obj, "__qualname__", "").startswith(owner)
            if not mine:
                continue
            if isinstance(obj, type):
                if obj not in schema:
                    visit(vars(obj), module, obj.__qualname__ + ".")
            elif isinstance(obj, types.FunctionType):
                code, defaults = obj.__code__, obj.__defaults__ or ()
                names = code.co_varnames[code.co_argcount - len(defaults):code.co_argcount]
                params = tuple(zip(names, defaults)) + tuple((obj.__kwdefaults__ or {}).items())
                if params:
                    found[code] = (f"{module}.{obj.__qualname__}", params)

    for module, namespace in modules.items():
        visit(namespace, module, None)
    return found


def _takes_default(value, default) -> bool:
    """A call takes a default when it passes the default object itself, or an
    int, float, str or bool equal to it."""
    scalar = (int, float, str)
    return value is default or \
        isinstance(value, scalar) and isinstance(default, scalar) and value == default


def trace(calls, package: Path = PACKAGE, defaults=None) -> tuple[set, set, dict]:
    """(file, line) of every line event in the frames of `package`'s files,
    (file, first line, name) of every code object they entered, and
    "qualified.name(parameter)" -> the subset of {"taken", "overridden"} its
    calls showed, for each parameter of `defaults` (from `defaulted`) of a
    function that was entered."""
    lines, entered, uses = set(), set(), {}
    defaults = defaults or {}
    prefix = str(package) + os.sep

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code in defaults:
            name, params = defaults[code]
            args = frame.f_locals
            for param, default in params:
                uses.setdefault(f"{name}({param})", set()).add(
                    "taken" if _takes_default(args[param], default) else "overridden")
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
    return lines, entered, uses


def program_trace() -> tuple[set, set, dict]:
    """`trace` of the whole traffic, over the defaults of every `monogp`
    module except the config schema's: `ScenarioConfig` and its sections,
    each field a JSON key that a config file may leave out."""
    modules = {p.stem: vars(importlib.import_module(
        "monogp" if p.stem == "__init__" else f"monogp.{p.stem}")) for p in PACKAGE.glob("*.py")}
    schema = (simulate.ScenarioConfig, *simulate._SPECS.values())
    with tempfile.TemporaryDirectory() as tmp:
        return trace(_entry_points(Path(tmp)), defaults=defaulted(modules, schema))


def one_sided(uses: dict) -> dict[str, str]:
    """Each default of `trace`'s uses that the calls only took ("taken") or
    only overrode ("overridden")."""
    return {name: next(iter(states)) for name, states in uses.items() if len(states) == 1}


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
    lines, entered, uses = program_trace()
    for line in _report(lines, entered):
        print(line)
    for name, states in sorted(uses.items()):
        state = "taken, overridden" if len(states) == 2 else f"{next(iter(states))} only"
        print(f"{name}: {state}{', allowed' if name in ALLOWED_DEFAULTS else ''}")


if __name__ == "__main__":
    main()
