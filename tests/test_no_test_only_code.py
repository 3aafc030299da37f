"""Every function, class, method and module-level name in `src/monogp` is
reached by the program.

One implementation per formula: library code that only tests call is a second
copy of something the pipeline runs, or dead.
- Every `def` (method, nested function and dunder among them) is entered by
  the program's traffic: `tests/traffic.py` runs every CLI command, the
  demos and one round of each benchmark workload under a call trace. A def
  the traffic never enters fails unless `traffic.ALLOWED` gives the reason
  tests alone call it; an `ALLOWED` entry that is gone or entered fails too.
- Every parameter default of a function the traffic enters is taken by one
  call and overridden by another: a default no program call takes is a
  branch only tests reach, and a default no call overrides is a setting no
  program turns. Either fails unless `traffic.ALLOWED_DEFAULTS` gives the
  reason; a stale entry fails too. The config schema (`ScenarioConfig` and
  its sections) is exempt: each field is a JSON key a config file may omit.
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

@pytest.fixture(scope="module")
def program():
    return traffic.program_trace()


@pytest.fixture(scope="module")
def never_called(program):
    return traffic.never_called(program[1])


@pytest.fixture(scope="module")
def one_sided(program):
    return traffic.one_sided(program[2])


def test_every_library_function_is_entered_by_the_traffic(never_called):
    unexpected = sorted(never_called - set(traffic.ALLOWED))
    assert not unexpected, f"entered only by tests: {unexpected}"


def test_allowlist_entries_are_still_defined_and_unreached(never_called):
    defined = traffic.never_called(set())
    stale = sorted(q for q in traffic.ALLOWED if q not in defined or q not in never_called)
    assert not stale, f"allowlist entries no longer needed: {stale}"


def one_sided_defaults(one_sided, allowed) -> list[str]:
    """The defaults in `one_sided` (from `traffic.one_sided`) that `allowed`
    does not name, with what the calls did."""
    return sorted(f"{q}: {s} only" for q, s in one_sided.items() if q not in allowed)


def stale_defaults(one_sided, allowed) -> list[str]:
    """The `allowed` entries whose default is no longer one-sided, or gone."""
    return sorted(q for q in allowed if q not in one_sided)


def test_every_default_is_taken_and_overridden_by_the_traffic(one_sided):
    unexpected = one_sided_defaults(one_sided, traffic.ALLOWED_DEFAULTS)
    assert not unexpected, f"defaults the program takes or overrides on every call: {unexpected}"


def test_allowed_defaults_are_still_one_sided(one_sided):
    stale = stale_defaults(one_sided, traffic.ALLOWED_DEFAULTS)
    assert not stale, f"allowed defaults no longer needed: {stale}"


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
    _, hits, _ = traffic.trace([(call, None, lambda: exec(call, namespace))], tmp_path)
    defined = {"Box.side", "Box.make", "Box.make.grow", "Box.__repr__", "documented"}
    assert traffic.never_called(set(), tmp_path) == {f"toy.{q}" for q in defined}
    assert traffic.never_called(hits, tmp_path) == {f"toy.{q}" for q in defined - entered}


TOY_DEFAULTS = '''\
from dataclasses import dataclass, field


def scale(x, factor=2.0, label="x"):
    return x * factor


def emit(x, audit=None):
    if audit is not None:
        audit.append(x)


@dataclass
class Report:
    cost: float
    parts: dict = field(default_factory=dict)


@dataclass
class Schema:
    size: int = 3
'''

# the toy's program: `factor` taken (an int equal to the default counts) and
# overridden, `label` only taken, `audit` and `parts` only overridden (a
# test may call `emit(1)`: it is not traced), and the schema built bare
TOY_PROGRAM = "scale(1.0, 3.0); scale(1.0, factor=2); emit(1, []); Report(1.0, {}); Schema()"


@pytest.fixture
def toy_uses(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY_DEFAULTS)
    namespace = {"__name__": "toy"}
    exec(compile(TOY_DEFAULTS, str(path), "exec"), namespace)
    defaults = traffic.defaulted({"toy": namespace}, schema=(namespace["Schema"],))
    calls = [("program", None, lambda: exec(TOY_PROGRAM, namespace))]
    return traffic.trace(calls, tmp_path, defaults)[2]


def test_a_default_that_only_tests_take_fails(toy_uses):
    assert toy_uses["toy.emit(audit)"] == {"overridden"}
    assert "toy.emit(audit): overridden only" in one_sided_defaults(traffic.one_sided(toy_uses), {})


def test_a_default_no_call_overrides_fails(toy_uses):
    assert toy_uses["toy.scale(label)"] == {"taken"}
    assert toy_uses["toy.scale(factor)"] == {"taken", "overridden"}
    assert one_sided_defaults(traffic.one_sided(toy_uses), {}) == [
        "toy.Report.__init__(parts): overridden only", "toy.emit(audit): overridden only",
        "toy.scale(label): taken only"]


def test_a_default_factory_field_is_seen(toy_uses):
    assert toy_uses["toy.Report.__init__(parts)"] == {"overridden"}


def test_the_config_schema_is_exempt(toy_uses):
    assert not [q for q in toy_uses if q.startswith("toy.Schema")]


def test_a_stale_allowed_default_fails(toy_uses):
    one_sided = traffic.one_sided(toy_uses)
    allowed = {"toy.scale(label)": "still one-sided", "toy.scale(factor)": "overridden too",
               "toy.gone(x)": "no such default"}
    assert stale_defaults(one_sided, allowed) == ["toy.gone(x)", "toy.scale(factor)"]
    assert "toy.scale(label): taken only" not in one_sided_defaults(one_sided, allowed)


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
