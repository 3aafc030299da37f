"""Every function, class, method and module-level name in `src/monogp` is
reached by the program.

One implementation per formula: library code that only tests call is a second
copy of something the pipeline runs, or dead.
- Every `def` (method, nested function and dunder among them) is entered by
  the program's traffic: `tests/traffic.py` runs every CLI command, the
  demos and one round of each benchmark workload under a call trace. A def
  the traffic never enters fails unless `ALLOWED` gives the reason tests
  alone call it; an `ALLOWED` entry that is gone or entered fails too.
- A call trace does not see module-level classes and assigned names
  (constants, tables, dataclasses and NamedTuples with no hand-written
  method), so these are checked by a scan of the program's sources (`src/`,
  `perfbench/` and `demos/`): such a name is reached when it is read as a
  `Name` or `Attribute`, or imported, outside a definition of the same name;
  assigning it does not count.
"""
import ast
from pathlib import Path

import pytest

import traffic

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "monogp"
PROGRAM = [ROOT / "src", ROOT / "perfbench", ROOT / "demos"]

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


@pytest.fixture(scope="module")
def never_called():
    return traffic.never_called(traffic.program_trace()[1])


def test_every_library_function_is_entered_by_the_traffic(never_called):
    unexpected = sorted(never_called - set(ALLOWED))
    assert not unexpected, f"entered only by tests: {unexpected}"


def test_allowlist_entries_are_still_defined_and_unreached(never_called):
    defined = traffic.never_called(set())
    stale = sorted(q for q in ALLOWED if q not in defined or q not in never_called)
    assert not stale, f"allowlist entries no longer needed: {stale}"


TOY = '''\
class Box:
    def side(self):
        return 2

    @staticmethod
    def make():
        def grow(k):
            return k + 1
        return grow

    def __repr__(self):
        return "Box"


def documented():
    """Only a docstring."""
'''


@pytest.mark.parametrize("call, entered", [
    ("Box().side()", {"Box.side"}),
    ("Box.make()", {"Box.make"}),
    ("Box.make()(1)", {"Box.make", "Box.make.grow"}),
    ("repr(Box())", {"Box.__repr__"}),
    ("documented()", {"documented"}),
], ids=["method", "staticmethod", "closure", "dunder", "docstring-only"])
def test_each_def_is_named_by_its_qualified_name(tmp_path, call, entered):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    namespace = {}
    exec(compile(TOY, str(path), "exec"), namespace)
    _, hits = traffic.trace([(call, None, lambda: exec(call, namespace))], tmp_path)
    defined = {"Box.side", "Box.make", "Box.make.grow", "Box.__repr__", "documented"}
    assert traffic.never_called(set(), tmp_path) == {f"toy.{q}" for q in defined}
    assert traffic.never_called(hits, tmp_path) == {f"toy.{q}" for q in defined - entered}


def module_level_names(package):
    """Qualified name -> name of every top-level class and assigned name in
    `package` ({module: source})."""
    names = {}
    for module, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                names[f"{module}.{node.name}"] = node.name
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name):
                    names[f"{module}.{target.id}"] = target.id
    # dunders such as `__all__` are read by the interpreter
    return {q: n for q, n in names.items() if not (n.startswith("__") and n.endswith("__"))}


class _Uses(ast.NodeVisitor):
    """Names read as `Name` or `Attribute` or imported, except inside a
    definition of the same name."""

    def __init__(self):
        self.names = set()
        self.enclosing = []

    def _definition(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self.enclosing:
            self.names.add(node.id)

    def visit_ImportFrom(self, node):
        self.names.update(alias.name for alias in node.names)

    def visit_Attribute(self, node):
        if node.attr not in self.enclosing:
            self.names.add(node.attr)
        self.generic_visit(node)


def scan(package, program):
    """Module-level classes and assigned names in `package` ({module:
    source}) that the `program` sources never reach, sorted."""
    uses = _Uses()
    for source in program:
        uses.visit(ast.parse(source))
    return sorted(q for q, name in module_level_names(package).items()
                  if name not in uses.names)


def test_every_library_name_is_reached_by_the_program():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    program = [p.read_text() for root in PROGRAM for p in sorted(root.rglob("*.py"))]
    unreached = scan(package, program)
    assert not unreached, f"reached only from tests: {unreached}"


def test_module_level_names_are_reached_when_read_or_imported():
    package = {"m": (
        "LIMIT = 3\n"
        "TABLE: dict = {}\n"
        "USED = 1\n"
        "IMPORTED = 2\n"
        "class Spec:\n"
        "    x: int = Spec\n"     # read inside its own definition
        "class Row:\n"
        "    pass\n"
        "A, B = 1, 2\n")}  # tuple targets are not scanned
    program = ["from m import IMPORTED\n"
               "def f(x):\n"
               "    TABLE = {}\n"   # assignments, not reads
               "    LIMIT: int = x\n"
               "    return x.USED, Row\n"]
    assert scan(package, program) == ["m.LIMIT", "m.Spec", "m.TABLE"]
