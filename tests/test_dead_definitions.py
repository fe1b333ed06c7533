"""Every package function, class and method is read outside its own body by the package
or the benchmark, not only by tests (no linter is installed)."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "kernelnn").glob("*.py"))
# the benchmark reads the package's names as attributes, imports and target strings
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
IDENTIFIER = re.compile(r"[A-Za-z_][\w.]*")
# definitions only tests read, each with its reason; the scan must find exactly these
TEST_ONLY = {
    # the per-pair prefix table: tests referee the stacked DP against it, and ROADMAP
    # item 19's referee suite is to read it
    "seq_dp.prefix_kernel_table",
}


def reads(tree: ast.AST) -> Counter:
    """How often ``tree`` reads each name: as a variable, an attribute, or in a string that is
    a dotted identifier (a getattr target such as ``"Tape.backward"``)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and IDENTIFIER.fullmatch(node.value)):
            out.update(node.value.split("."))
    return out


def definitions(tree: ast.Module):
    """Each top-level function and class, and each non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def unread(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` of each definition in ``modules`` that no source in ``modules`` or
    ``readers`` reads outside the definition itself."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    total = sum((reads(tree) for tree in trees.values()), Counter())
    total = sum((reads(ast.parse(source)) for source in readers), total)
    return [f"{module}.{name}" for module, tree in trees.items()
            for name, node in definitions(tree)
            if total[name.split(".")[-1]] <= reads(node)[name.split(".")[-1]]]


def test_the_scan_sees_a_definition_only_its_own_body_reads():
    source = ("def f(n):\n    return f(n - 1)\n\n"
              "class C:\n    def used(self):\n        return 1\n\n"
              "    def unused(self):\n        return self.unused()\n\n"
              "    def __repr__(self):\n        return ''\n\n"
              "def g():\n    return C().used()\n")
    assert unread({"m": source}, []) == ["m.f", "m.C.unused", "m.g"]
    assert unread({"m": source}, ["f", "import m\nm.g()\n", "x = 'C.unused'"]) == []


def test_every_definition_is_read_outside_tests():
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert set(unread(package, [p.read_text() for p in BENCHMARK])) == TEST_ONLY
