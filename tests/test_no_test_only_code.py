"""Every function, class and method in `src/monogp` is reached by the program.

One implementation per formula: library code that only tests call is a second
copy of something the pipeline runs, or dead. The program is `src/`,
`perfbench/` and `demos/`; a use inside a definition of the same name does
not count.
- A top-level function or class is reached when its name occurs as a `Name`
  or `Attribute`.
- A method `C.m` is reached only by an attribute `x.m`, never by a bare name
  `m` (a local variable), and only where the receiver `x` may be a `C`. The
  receiver's class is known for the first parameter of a method (`self`,
  `cls`), for a package class name (`C.m`) and for a call of one
  (`C(...).m`); it then has to be `C`, a base of `C` or a subclass. Any other
  receiver may be any class.
The scan never flags live code, but a method that shares its name with an
attribute read on an unknown receiver passes.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "monogp"
PROGRAM = [ROOT / "src", ROOT / "perfbench", ROOT / "demos"]

# Reached only from tests, on purpose: qualified name -> reason.
ALLOWED = {
    "graph._Factor.jacobians": "acceptance criterion 1 checks these analytic Jacobians",
    "graph.numeric_jacobian":
        "acceptance criterion 1 checks the analytic Jacobians against it",
    "geometry.PluckerLine.from_two_points":
        "acceptance criterion 1 builds its random world line with it",
    "primitives.GlobalPrimitiveRegistry.recompute_support":
        "acceptance criterion 7 audits the fused GP support with it",
    "primitives.GlobalPrimitiveRegistry.association_graph":
        "acceptance criterion 8 finds the frame links through GPs with it",
    "simulate.ScenarioConfig.save":
        "acceptance criterion 10 writes the scenario config file with it",
    "geometry.Pose.inverse":
        "value-type helper: criterion 1 maps camera points to the world with it",
    "geometry.Pose.compose":
        "value-type helper: the oracle that `retract` on poses is checked against",
    "geometry.PluckerLine.canonical_coords":
        "value-type helper: the line tests compare Plücker lines with it",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(package):
    """Qualified name -> (class or None, name) of every top-level function and
    class and every method in `package` ({module: source}), and the base
    names of each class."""
    defs, bases = {}, {}
    for module, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = (None, node.name)
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{module}.{node.name}.{item.name}"] = (node.name, item.name)
    return {q: d for q, d in defs.items() if not _is_dunder(d[1])}, bases


class _Uses(ast.NodeVisitor):
    """Names used as `Name` or `Attribute`, and for each attribute the classes
    its receivers are known to have (None: unknown), except inside a
    definition of the same name."""

    def __init__(self, classes):
        self.classes = classes
        self.names = set()
        self.receivers = {}
        self.enclosing = []
        self.bound = {}  # name of a method's first parameter -> its class
        self.in_class = None

    def _definition(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_FunctionDef(self, node):
        bound, in_class, self.in_class = self.bound, self.in_class, None
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        if in_class and node.args.args and not static:
            self.bound = {**bound, node.args.args[0].arg: in_class}
        self._definition(node)
        self.bound, self.in_class = bound, in_class

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        in_class, self.in_class = self.in_class, node.name
        self._definition(node)
        self.in_class = in_class

    def _receiver_class(self, node):
        if isinstance(node, ast.Call):
            node = node.func
        if not isinstance(node, ast.Name):
            return None
        if node.id in self.bound:
            return self.bound[node.id]
        return node.id if node.id in self.classes else None

    def visit_Name(self, node):
        if node.id not in self.enclosing:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self.enclosing:
            self.names.add(node.attr)
            self.receivers.setdefault(node.attr, set()).add(
                self._receiver_class(node.value))
        self.generic_visit(node)


def _relatives(cls, bases):
    """`cls` with its bases and subclasses among the package classes."""
    def closure(start, step):
        seen, todo = set(), [start]
        while todo:
            c = todo.pop()
            if c not in seen:
                seen.add(c)
                todo += step(c)
        return seen
    up = closure(cls, lambda c: bases.get(c, ()))
    down = closure(cls, lambda c: [k for k, b in bases.items() if c in b])
    return up | down


def unreached(package, program):
    """Qualified names defined in `package` ({module: source}) that the
    `program` sources never reach."""
    defs, bases = definitions(package)
    uses = _Uses(set(bases))
    for source in program:
        uses.visit(ast.parse(source))
    out = []
    for qualified, (cls, name) in defs.items():
        if cls is None:
            reached = name in uses.names
        else:
            receivers = uses.receivers.get(name, set())
            reached = None in receivers or bool(receivers & _relatives(cls, bases))
        if not reached:
            out.append(qualified)
    return sorted(out)


def repository_unreached():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    program = [p.read_text() for root in PROGRAM for p in sorted(root.rglob("*.py"))]
    return unreached(package, program), definitions(package)[0]


def test_every_library_name_is_reached_by_the_program():
    names, _ = repository_unreached()
    unexpected = [q for q in names if q not in ALLOWED]
    assert not unexpected, f"reached only from tests: {unexpected}"


def test_allowlist_entries_are_still_defined_and_unreached():
    names, defs = repository_unreached()
    stale = sorted(q for q in ALLOWED if q not in defs or q not in names)
    assert not stale, f"allowlist entries no longer needed: {stale}"


def test_methods_resolve_by_receiver_class():
    package = {"m": (
        "class Segment2D:\n"
        "    def length(self): pass\n"
        "    def midpoint(self): pass\n"
        "    def norm(self): return self.midpoint\n"
        "    def size(self): pass\n"
        "class Base:\n"
        "    def area(self): return self.scale()\n"
        "class Square(Base):\n"
        "    def scale(self): pass\n"
        "    def side(self): pass\n"
        "    @staticmethod\n"
        "    def pack(cls): return cls.size\n"  # cls is no Square here
        "def helper(): pass\n")}
    program = [package["m"],
               "def f(s):\n"
               "    length = 2\n"           # a local variable, not the method
               "    helper()\n"
               "    Segment2D(0, 1).side\n"  # a known receiver of another class
               "    return s.norm, Square.area, Square.pack\n"]
    assert unreached(package, program) == ["m.Segment2D.length", "m.Square.side"]
