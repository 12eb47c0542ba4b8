"""No public API that only tests call: every public top-level function or class
in the package is referenced by the program (``src/``) or the benchmark
(``perfbench/``), outside its own definition.  No config key that the
program never reads.  And no import that its own module never uses."""

import ast
import glob
import os
from collections import Counter
from dataclasses import fields

from latentsketch.cli import DEFAULT_CONFIG, SECTIONS, _key

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


def _src() -> list[ast.Module]:
    return [_parse(p) for p in sorted(glob.glob(os.path.join(ROOT, "src", "latentsketch", "*.py")))]


def _walk_outside(node: ast.AST, class_name: str):
    """ast.walk that does not enter a class definition of the given name."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not (isinstance(child, ast.ClassDef) and child.name == class_name):
            yield from _walk_outside(child, class_name)


def test_every_public_name_has_a_caller_outside_tests():
    src = _src()
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


def test_every_config_key_is_read_by_the_program():
    """A key of a plain section is read as a constant subscript (d["file"]); a
    key of a dataclass section is its field, read as an attribute outside the
    dataclass itself (cfg.lam for sft.lambda)."""
    assert set(DEFAULT_CONFIG) == {"seed", "data", "eval", "paths"} | set(SECTIONS)
    src = _src()
    subscripts = {node.slice.value for tree in src for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)}
    unread = [f"{section}.{key}" for section in ("data", "eval", "paths")
              for key in DEFAULT_CONFIG[section] if key not in subscripts]
    for section, cls in SECTIONS.items():
        reads = {node.attr for tree in src for node in _walk_outside(tree, cls.__name__)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        unread += [f"{section}.{_key(f.name)}" for f in fields(cls)
                   if _key(f.name) in DEFAULT_CONFIG[section] and f.name not in reads]
    assert not unread, f"config keys the program never reads: {unread}"


def _bound_imports(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds in the module, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update((a.asname or a.name, node.lineno) for a in node.names)
    return out


def test_every_import_is_used_by_its_module():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "latentsketch", "*.py"))
                   + glob.glob(os.path.join(ROOT, "tests", "*.py")))
    assert len(paths) > 20  # the scan found the package and its tests
    unused = []
    for path in paths:
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{os.path.relpath(path, ROOT)}:{line} {name}"
                   for name, line in sorted(_bound_imports(tree).items()) if name not in used]
    assert not unused, f"imports their module never uses: {unused}"
