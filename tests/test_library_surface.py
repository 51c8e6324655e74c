"""The package holds no test-only code.

Every public module-level function or class of ``src/turanstab``, and
every public method of its classes, must be referenced by the package
itself, the demos or the benchmark.  Re-exports in ``__init__.py`` and a
function's references to itself do not count.  Reference implementations
that only tests call belong in ``tests/oracles.py``.  Likewise every
defaulted parameter of a public function or method must be set by some
call there; one that only tests set is a constant.  And no module but
``__init__.py`` imports a name it never reads, so a dead import can
neither keep a name referenced nor outlive the code that used it.
Only ``expressions.reflect_shift`` calls ``compose_linear``, so there is
one reflect/shift path.
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


def _defaulted(qualname, fn, skip):
    """(qualname.parameter, function name, position) of each defaulted
    parameter of fn; position is None for a keyword-only parameter, and
    ``skip`` drops self or cls from the positions (the package has no
    static methods)."""
    args = fn.args.posonlyargs + fn.args.args
    first = len(args) - len(fn.args.defaults)
    for i in range(first, len(args)):
        yield f"{qualname}.{args[i].arg}", fn.name, i - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield f"{qualname}.{arg.arg}", fn.name, None


def _defaulted_parameters():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if _public(node, ast.FunctionDef):
                yield from _defaulted(f"{path.stem}.{node.name}", node, 0)
            elif _public(node, ast.ClassDef):
                for item in node.body:
                    if _public(item, ast.FunctionDef):
                        qualname = f"{path.stem}.{node.name}.{item.name}"
                        yield from _defaulted(qualname, item, 1)


def _arguments_set():
    """For each called name, the most positional arguments any call passes
    and the keywords any call passes; a starred argument sets them all."""
    positional, keywords = {}, {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in node.args):
                count = float("inf")
            else:
                count = len(node.args)
            positional[name] = max(positional.get(name, 0), count)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    return positional, keywords


def test_every_defaulted_parameter_is_set_outside_tests():
    """A default that no caller overrides is a constant in disguise."""
    positional, keywords = _arguments_set()
    params = list(_defaulted_parameters())
    assert "harness.emit_reports.with_timing" in [q for q, _, _ in params]
    unset = []
    for qualname, name, position in params:
        parameter = qualname.rsplit(".", 1)[1]
        passed = keywords.get(name, set())
        by_position = position is not None and positional.get(name, 0) > position
        if parameter not in passed and None not in passed and not by_position:
            unset.append(qualname)
    assert unset == [], f"defaulted parameters only tests set: {unset}"


def _imports_never_read(source: str) -> set:
    """Names the module source binds by an import and never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    return bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_no_module_imports_a_name_it_never_reads():
    assert _imports_never_read(
        "from __future__ import annotations\nimport os.path\nimport json\n"
        "from .x import y as z, w\n\ndef f():\n    import math\n"
        "    return json.dumps(z(), math.pi)\n"
    ) == {"os", "w"}
    unused = {
        path.name: sorted(names)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _imports_never_read(path.read_text()))
    }
    assert unused == {}, f"imported and never read: {unused}"


def _callers_of(method: str) -> set:
    """'module.function' of each top-level function (or 'module' at
    module level) in the package whose body calls ``.method(...)``."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            where = path.stem
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                where = f"{path.stem}.{top.name}"
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "attr", None) == method):
                    found.add(where)
    return found


def test_one_reflect_shift_path():
    """Every x -> +-x + c substitution goes through reflect_shift, so the
    campaigns and the half-plane checks cannot drift apart."""
    assert _callers_of("compose_linear") == {"expressions.reflect_shift"}
