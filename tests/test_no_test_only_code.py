"""Every function, class and method in `src/monogp` is reached by the program.

One implementation per formula: library code that only tests call is a second
copy of something the pipeline runs, or dead. A name counts as reached when it
occurs as a `Name` or `Attribute` in `src/`, `perfbench/` or `demos/`, outside
its own definition. The scan is by name, so a method that shares its name with
a used attribute elsewhere passes; it never flags live code.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "monogp"
PROGRAM = [ROOT / "src", ROOT / "perfbench", ROOT / "demos"]

# Reached only from tests, on purpose: name -> reason.
ALLOWED = {
    "jacobians": "acceptance criterion 1 checks these analytic Jacobians",
    "numeric_jacobian": "acceptance criterion 1 checks the analytic Jacobians against it",
    "from_two_points": "acceptance criterion 1 builds its random world line with it",
    "recompute_support": "acceptance criterion 7 audits the fused GP support with it",
    "association_graph": "acceptance criterion 8 finds the frame links through GPs with it",
    "save": "acceptance criterion 10 writes the scenario config file with it",
    "inverse": "value-type helper: criterion 1 maps camera points to the world with it",
    "canonical_coords": "value-type helper: the line tests compare Plücker lines with it",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_names():
    """(module, name) of every top-level function and class and every method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                out += [(path.stem, item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef)]
    return [(m, n) for m, n in out if not _is_dunder(n)]


class _Uses(ast.NodeVisitor):
    """Names used as `Name` or `Attribute`, except inside a definition of
    the same name."""

    def __init__(self):
        self.names = set()
        self.enclosing = []

    def _definition(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name):
        if name not in self.enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def used_names():
    uses = _Uses()
    for root in PROGRAM:
        for path in sorted(root.rglob("*.py")):
            uses.visit(ast.parse(path.read_text()))
    return uses.names


def test_every_library_name_is_reached_by_the_program():
    used = used_names()
    unreached = sorted(f"{m}.{n}" for m, n in defined_names()
                       if n not in used and n not in ALLOWED)
    assert not unreached, f"reached only from tests: {unreached}"


def test_allowlist_entries_are_still_defined_and_unreached():
    names = {n for _, n in defined_names()}
    used = used_names()
    stale = sorted(n for n in ALLOWED if n not in names or n in used)
    assert not stale, f"allowlist entries no longer needed: {stale}"
