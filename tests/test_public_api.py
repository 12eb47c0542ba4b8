"""No public API that only tests call: every public top-level function or class
in the package is referenced by the program (``src/``) or the benchmark
(``perfbench/``), outside its own definition."""

import ast
import glob
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), path)


def _names(tree: ast.AST) -> Counter:
    """Every name, attribute, imported name and string constant under tree,
    counted; strings count because the benchmark's tracer wraps functions by
    attribute name."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def test_every_public_name_has_a_caller_outside_tests():
    src = [_parse(p) for p in sorted(glob.glob(os.path.join(ROOT, "src", "latentsketch", "*.py")))]
    program = sum((_names(t) for t in src), Counter())
    program += sum((_names(_parse(p)) for p in glob.glob(os.path.join(ROOT, "perfbench", "*.py"))), Counter())
    tests = sum((_names(_parse(p)) for p in glob.glob(os.path.join(ROOT, "tests", "*.py"))), Counter())
    defs = [node for tree in src for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    assert len(defs) > 50  # the scan found the package
    # a name used only inside its own definition (a recursive call) has no caller
    test_only = [node.name for node in defs
                 if program[node.name] == _names(node)[node.name] and tests[node.name]]
    assert not test_only, f"public names that only tests call: {test_only}"
