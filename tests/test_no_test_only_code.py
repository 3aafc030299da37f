"""Every function, class, method and module-level name in `src/monogp` is
reached by the program.

One implementation per formula: library code that only tests call is a second
copy of something the pipeline runs, or dead. The program is `src/`,
`perfbench/` and `demos/`; a use inside a definition of the same name does
not count.
- A top-level function, class or assigned name (a constant or a table) is
  reached when it is read as a `Name` or `Attribute`, or imported; assigning
  a name does not count.
- A method `C.m` is reached only by an attribute `x.m`, never by a bare name
  `m` (a local variable), and only where the receiver `x` may be a `C`. The
  receiver's class is known for the first parameter of a method (`self`,
  `cls`), for a parameter annotated with package classes and None (`p: C`,
  `p: C | None`, `p: C | D`), for a package class name (`C.m`) and for a
  call of one (`C(...).m`); it then has to be `C` (or `D`), a base or a
  subclass (a parameter is taken not to be rebound). Any other receiver, a
  parameter with any other annotation among them, may be any class.
The scan never flags live code, but a method that shares its name with an
attribute read on an unknown receiver passes. Those methods are pinned in
`UNKNOWN_RECEIVER`: a new one fails the guard until someone checks that the
program really calls it and adds it there.
"""
import ast
from pathlib import Path

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
    "geometry.Pose.inverse":
        "value-type helper: criterion 1 maps camera points to the world with it",
    "geometry.Pose.compose":
        "value-type helper: the oracle that `retract` on poses is checked against",
}

# Methods reached only through an attribute on a receiver of unknown class,
# each checked by hand to be called by the program (for example
# `frame.segments` in `perfbench/`, `p.camera_center()` in `PoseStack.of`).
UNKNOWN_RECEIVER = frozenset({
    "geometry.CameraIntrinsics.line_projection_matrix",
    "geometry.Pose.camera_center",
    "geometry.Pose.r_wc",
    "graph.FactorGraph.add_factors",
    "graph.FactorGraph.add_variables",
    "graph.LineFactor._kernel",
    "graph.LineFactor._pack",
    "graph.OptimizationReport.to_json",
    "graph.PointFactor._kernel",
    "graph.PointFactor._pack",
    "graph.StructFactor._kernel",
    "graph.StructFactor._pack",
    "graph.VdAlignFactor._kernel",
    "graph.VdAlignFactor._pack",
    "graph._FactorTable.append",
    # read off `g.factors` only by `perfbench/workloads.py:graph_sizes`,
    # which counts the inactive factors with it
    "graph._FactorRow.residual",
    "graph._NormalEquations.step",
    "pipeline.AblationReport.to_csv",
    "pipeline.AblationReport.to_json",
    "primitives.GlobalPrimitiveRegistry.associate_frame",
    "primitives.GlobalPrimitiveRegistry.to_json",
    "simulate.FrameObservations.segments",
})


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(package):
    """Qualified name -> (class or None, name) of every top-level function,
    class and assigned name and every method in `package` ({module:
    source}), and the base names of each class."""
    defs, bases = {}, {}
    for module, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = (None, node.name)
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name):
                    defs[f"{module}.{target.id}"] = (None, target.id)
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{module}.{node.name}.{item.name}"] = (node.name, item.name)
    return {q: d for q, d in defs.items() if not _is_dunder(d[1])}, bases


class _Uses(ast.NodeVisitor):
    """Names read as `Name` or `Attribute` or imported, and for each attribute
    the classes its receivers are known to have (None: unknown), except
    inside a definition of the same name."""

    def __init__(self, classes):
        self.classes = classes
        self.names = set()
        self.receivers = {}
        self.enclosing = []
        self.bound = {}  # parameter name -> the classes it may have
        self.in_class = None

    def _definition(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    def _annotated(self, node):
        """The package classes an annotation allows besides None (`C`,
        `C | None`, `C | D`, quoted or not), or None for any other."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            left, right = self._annotated(node.left), self._annotated(node.right)
            return None if left is None or right is None else left | right
        if isinstance(node, ast.Constant) and node.value is None:
            return frozenset()
        if isinstance(node, ast.Name) and node.id in self.classes:
            return frozenset([node.id])
        return None

    def visit_FunctionDef(self, node):
        bound, in_class, self.in_class = self.bound, self.in_class, None
        self.bound = dict(bound)
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            classes = self._annotated(arg.annotation)
            if classes:
                self.bound[arg.arg] = classes
            else:  # the parameter shadows any outer binding of its name
                self.bound.pop(arg.arg, None)
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        if in_class and args.args and not static:
            self.bound[args.args[0].arg] = frozenset([in_class])
        self._definition(node)
        self.bound, self.in_class = bound, in_class

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        in_class, self.in_class = self.in_class, node.name
        self._definition(node)
        self.in_class = in_class

    def _receiver_classes(self, node):
        if isinstance(node, ast.Call):
            node = node.func
        if not isinstance(node, ast.Name):
            return {None}
        if node.id in self.bound:
            return self.bound[node.id]
        return {node.id if node.id in self.classes else None}

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self.enclosing:
            self.names.add(node.id)

    def visit_ImportFrom(self, node):
        self.names.update(alias.name for alias in node.names)

    def visit_Attribute(self, node):
        if node.attr not in self.enclosing:
            self.names.add(node.attr)
            self.receivers.setdefault(node.attr, set()).update(
                self._receiver_classes(node.value))
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


def scan(package, program):
    """Qualified names defined in `package` ({module: source}) that the
    `program` sources never reach, and the methods they reach only through
    an attribute on a receiver of unknown class; both sorted."""
    defs, bases = definitions(package)
    uses = _Uses(set(bases))
    for source in program:
        uses.visit(ast.parse(source))
    unreached, unknown = [], []
    for qualified, (cls, name) in defs.items():
        if cls is None:
            if name not in uses.names:
                unreached.append(qualified)
            continue
        receivers = uses.receivers.get(name, set())
        if not receivers & _relatives(cls, bases):
            (unknown if None in receivers else unreached).append(qualified)
    return sorted(unreached), sorted(unknown)


def repository_scan():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    program = [p.read_text() for root in PROGRAM for p in sorted(root.rglob("*.py"))]
    return scan(package, program), definitions(package)[0]


def test_every_library_name_is_reached_by_the_program():
    (names, _), _ = repository_scan()
    unexpected = [q for q in names if q not in ALLOWED]
    assert not unexpected, f"reached only from tests: {unexpected}"


def test_allowlist_entries_are_still_defined_and_unreached():
    (names, _), defs = repository_scan()
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
    assert scan(package, program) == (["m.Segment2D.length", "m.Square.side"],
                                      ["m.Segment2D.norm", "m.Segment2D.size"])


def test_methods_resolve_by_parameter_annotation():
    package = {"m": (
        "class Table:\n"
        "    def rows(self): pass\n"
        "    def cols(self): pass\n"
        "    def cells(self): pass\n"
        "class Packed:\n"
        "    def evaluate(self): pass\n"
        "    def flat(self): pass\n")}
    program = ["def f(t: Table, p: 'Packed | None', q: Table | Packed, n: int):\n"
               "    t.rows, p.evaluate, q.cols\n"
               "    def g(t):\n"            # unannotated: shadows the outer t
               "        return t.flat\n"
               "    return n.cells\n"]      # not a package class: any receiver
    assert scan(package, program) == ([], ["m.Packed.flat", "m.Table.cells"])


def test_module_level_names_are_reached_when_read_or_imported():
    package = {"m": (
        "LIMIT = 3\n"
        "TABLE: dict = {}\n"
        "USED = 1\n"
        "IMPORTED = 2\n"
        "A, B = 1, 2\n")}  # tuple targets are not scanned
    program = ["from m import IMPORTED\n"
               "def f(x):\n"
               "    TABLE = {}\n"   # assignments, not reads
               "    LIMIT: int = x\n"
               "    return x.USED\n"]
    assert scan(package, program) == (["m.LIMIT", "m.TABLE"], [])


def test_methods_on_unknown_receivers_are_pinned():
    (_, unknown), _ = repository_scan()
    new = sorted(set(unknown) - UNKNOWN_RECEIVER)
    stale = sorted(UNKNOWN_RECEIVER - set(unknown))
    assert not new, f"reached only through an unknown receiver; check and pin: {new}"
    assert not stale, f"pinned but now resolved or gone: {stale}"
