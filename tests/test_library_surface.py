"""The package holds no test-only code.

Every public module-level function or class of ``src/turanstab``, and
every public method of its classes, must be referenced by the package
itself, the demos or the benchmark.  Re-exports in ``__init__.py`` and a
function's references to itself do not count.  Reference implementations
that only tests call belong in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "turanstab"
CALLERS = (
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "demos").glob("*.py"))
    + list((ROOT / "perfbench").glob("*.py"))
)


def _public(node, kinds=(ast.FunctionDef, ast.ClassDef)):
    return isinstance(node, kinds) and not node.name.startswith("_")


def _definitions():
    """'module.name' and 'module.Class.method' of every public definition,
    mapped to the name a caller would use."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not _public(node):
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if _public(item, ast.FunctionDef):
                        found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


class _References(ast.NodeVisitor):
    """Names and attribute names used outside the function they name."""

    def __init__(self):
        self.found = set()
        self.enclosing = []

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    def _use(self, name):
        if name not in self.enclosing:
            self.found.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def test_every_public_name_has_a_caller_outside_tests():
    refs = _References()
    for path in CALLERS:
        refs.visit(ast.parse(path.read_text()))
    definitions = _definitions()
    assert "polycore.Poly.compose_linear" in definitions  # the scan sees methods
    unused = [full for full, name in definitions.items() if name not in refs.found]
    assert unused == [], f"public names only tests call: {unused}"
