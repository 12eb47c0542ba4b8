"""No public API that only tests read: every public top-level function, class
or module constant in the package is referenced by the program (``src/``) or
the benchmark (``perfbench/``), outside its own definition, and so is every
public method and dataclass field.  No config key that the program never
reads.  No import that its own module never uses, nor one inside a
function.  No learning rate of zero: a group a step does not train is left
out of its map.  No except handler that swallows its error.  One call that
starts a process.  And files opened for writing only where a run streams its
rows."""

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


def _walk_outside(node: ast.AST, skip):
    """ast.walk that does not enter skip: a definition node, or the class
    definitions of that name."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not (child is skip or (isinstance(child, ast.ClassDef) and child.name == skip)):
            yield from _walk_outside(child, skip)


def _public_top_level(tree: ast.Module):
    """(name, defining node) of each public function, class and module
    constant (a top-level assignment's target) of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def test_every_public_name_has_a_caller_outside_tests():
    """Every public function, class and module constant is read by the
    program or the benchmark outside its own definition."""
    src = _src()
    program = sum((_names(t) for t in src), Counter())
    program += sum((_names(_parse(p)) for p in glob.glob(os.path.join(ROOT, "perfbench", "*.py"))), Counter())
    defs = [pair for tree in src for pair in _public_top_level(tree)]
    assert sum(isinstance(node, (ast.FunctionDef, ast.ClassDef)) for _, node in defs) > 50  # the scan found the package
    assert sum(isinstance(node, (ast.Assign, ast.AnnAssign)) for _, node in defs) > 20
    # a name used only inside its own definition (a recursive call) has no caller
    unread = [name for name, node in defs if program[name] == _names(node)[name]]
    assert not unread, f"public names the program never reads: {unread}"


def test_every_public_member_is_read_outside_tests():
    """A public method or dataclass field of a class in the package is read as
    an attribute (obj.name) by the program outside the member's own
    definition, or by the benchmark."""
    src = _src()
    bench = {node.attr for p in glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
             for node in ast.walk(_parse(p)) if isinstance(node, ast.Attribute)}
    members = []
    for tree in src:
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            members += [(cls.name, node.name, node) for node in cls.body
                        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
            if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in cls.decorator_list):
                members += [(cls.name, node.target.id, node) for node in cls.body
                            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    assert len(members) > 50  # the scan found the classes
    unread = [f"{cls}.{name}" for cls, name, defn in members if name not in bench
              and not any(isinstance(node, ast.Attribute) and node.attr == name
                          for tree in src for node in _walk_outside(tree, defn))]
    assert not unread, f"public members that only tests read: {unread}"


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


def test_no_import_inside_a_function():
    """The package's modules import each other at the top: none of them needs
    a deferred import to break a cycle."""
    nested = [f"src/latentsketch/{os.path.basename(path)}:{node.lineno}"
              for path in sorted(glob.glob(os.path.join(ROOT, "src", "latentsketch", "*.py")))
              for fn in ast.walk(_parse(path)) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, f"imports inside functions: {nested}"


# defaulted parameters that no program call sets, kept as seams for callers
# outside the program: the command line's argv and the epsilon net's width (the
# diffusion oracle's small net)
SEAMS = {("cli", "main", "argv"), ("diffusion", "init_epsilon_net", "width")}


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """Each defaulted parameter of fn with its position in a call (None for a
    keyword-only one); a method's self or cls takes no position."""
    positional = fn.args.posonlyargs + fn.args.args
    skip = 1 if method else 0
    out = [(a.arg, i - skip) for i, a in enumerate(positional)
           if i >= len(positional) - len(fn.args.defaults)]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def test_every_seam_is_a_defaulted_parameter():
    """Each SEAMS entry names a defaulted parameter of a public top-level
    function that exists, so a seam outlives neither its code nor its default."""
    missing = []
    for module, fn, name in sorted(SEAMS):
        node = next((n for n in _parse(os.path.join(ROOT, "src", "latentsketch", f"{module}.py")).body
                     if isinstance(n, ast.FunctionDef) and n.name == fn), None)
        if node is None or name not in {arg for arg, _ in _defaulted(node, False)}:
            missing.append(f"{module}.{fn}({name})")
    assert not missing, f"seams that are no defaulted parameter: {missing}"


def test_every_defaulted_parameter_is_passed_by_the_program():
    """A defaulted parameter of a public function, a public method or an
    explicit __init__ in the package is passed, by keyword or by position,
    by some call in the program or the benchmark; a call of a class counts
    for its __init__."""
    defs = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "latentsketch", "*.py"))):
        module = os.path.basename(path)[:-3]
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs.append((module, node.name, node.name, node, False))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defs += [(module, fn.name, node.name if fn.name == "__init__" else fn.name, fn,
                          not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list))
                         for fn in node.body if isinstance(fn, ast.FunctionDef)
                         and (fn.name == "__init__" or not fn.name.startswith("_"))]
    calls = [node for p in glob.glob(os.path.join(ROOT, "src", "latentsketch", "*.py"))
             + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
             for node in ast.walk(_parse(p)) if isinstance(node, ast.Call)]

    def passed(callee: str, name: str, pos: int | None) -> bool:
        for call in calls:
            called = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
            if called != callee:
                continue
            if any(k.arg in (name, None) for k in call.keywords):  # None: **kwargs
                return True
            if pos is not None and (len(call.args) > pos or any(isinstance(a, ast.Starred) for a in call.args)):
                return True
        return False

    assert len(defs) > 50  # the scan found the package
    unpassed = [f"{module}.{fn}({name})" for module, fn, callee, node, method in defs
                for name, pos in _defaulted(node, method)
                if (module, fn, name) not in SEAMS and not passed(callee, name, pos)]
    assert not unpassed, f"defaulted parameters that only tests pass: {unpassed}"


def _has_default(value: ast.expr | None) -> bool | None:
    """Whether a dataclass field's value gives it a default; None for a field
    that __init__ does not take."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        kw = {k.arg: k.value for k in value.keywords}
        if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
            return None
        return "default" in kw or "default_factory" in kw
    return value is not None


def test_every_dataclass_default_is_used_by_the_program():
    """A field default of a dataclass in the package is left out by at least
    one construction of the class in the program or the benchmark, so some
    call relies on it.  The config sections' dataclasses are exempt: their
    defaults are the config's."""
    sections = {cls.__name__ for cls in SECTIONS.values()}
    defaults = []
    for tree in _src():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            if cls.name in sections or not any(isinstance(d, ast.Name) and d.id == "dataclass"
                                               for d in cls.decorator_list):
                continue
            pos = 0
            for node in cls.body:
                if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
                    continue
                has = _has_default(node.value)
                if has is None:
                    continue
                if has:
                    defaults.append((cls.name, node.target.id, pos))
                pos += 1
    assert len(defaults) >= 2  # the scan found the defaults (GenResult has two)
    calls = [node for p in glob.glob(os.path.join(ROOT, "src", "latentsketch", "*.py"))
             + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
             for node in ast.walk(_parse(p)) if isinstance(node, ast.Call)]

    def left_out(cls: str, name: str, pos: int) -> bool:
        for call in calls:
            called = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
            if (called == cls and len(call.args) <= pos
                    and not any(isinstance(a, ast.Starred) for a in call.args)
                    and not any(k.arg in (name, None) for k in call.keywords)):
                return True
        return False

    unused = [f"{cls}.{name}" for cls, name, pos in defaults if not left_out(cls, name, pos)]
    assert not unused, f"dataclass defaults that every program construction overrides: {unused}"


def test_no_learning_rate_map_holds_a_zero():
    """Every learning-rate map that the program passes to adamw_step names
    only the groups the step trains: a group it leaves alone is left out of
    the map, never given a rate of 0.0, so "not trained" has one spelling."""
    calls, zeros = 0, []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "latentsketch", "*.py"))):
        for call in ast.walk(_parse(path)):
            if not isinstance(call, ast.Call):
                continue
            called = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
            if called != "adamw_step":
                continue
            calls += 1
            lrs = [k.value for k in call.keywords if k.arg == "lr_by_group"] + call.args[1:2]
            zeros += [f"{os.path.basename(path)}:{node.lineno}" for arg in lrs for node in ast.walk(arg)
                      if isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 0]
    assert calls >= 3  # the scan found the pre-pass's, SFT's and RL's steps
    assert not zeros, f"learning-rate maps with a rate of zero: {zeros}"


def test_every_except_handler_ends_by_raising():
    """An error is raised where it happens or turned into another error, never
    counted and dropped: the last statement of every except handler in the
    package raises.  The one boundary is cli.main, which turns an error into
    the exit code 2 or 3 and its message."""
    handlers, swallowing = 0, []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "latentsketch", "*.py"))):
        tree = _parse(path)
        main = next((node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"),
                    None) if os.path.basename(path) == "cli.py" else None
        for node in _walk_outside(tree, main):
            if isinstance(node, ast.ExceptHandler):
                handlers += 1
                if not isinstance(node.body[-1], ast.Raise):
                    swallowing.append(f"{os.path.basename(path)}:{node.lineno}")
    assert handlers >= 5  # the scan found the package's handlers
    assert not swallowing, f"except handlers that do not end by raising: {swallowing}"


def test_one_place_starts_threads():
    """Only autodiff constructs a thread or a thread pool: the helper thread of
    split_rows, which helper_thread() joins when its block ends."""
    makers = ("Thread", "Timer", "ThreadPool", "ThreadPoolExecutor", "start_new_thread")
    starts = [f"{os.path.basename(path)}:{node.lineno}"
              for path in sorted(glob.glob(os.path.join(ROOT, "src", "latentsketch", "*.py")))
              for node in ast.walk(_parse(path)) if isinstance(node, ast.Call)
              and (node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")) in makers]
    assert len(starts) == 1 and starts[0].startswith("autodiff.py:"), starts


def test_one_place_starts_processes():
    """os.fork is called in one place in the package, the chunked decode,
    whose finally reaps every child it starts."""
    forks = [f"{os.path.basename(path)}:{node.lineno}"
             for path in sorted(glob.glob(os.path.join(ROOT, "src", "latentsketch", "*.py")))
             for node in ast.walk(_parse(path)) if isinstance(node, ast.Call)
             and (node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")) == "fork"]
    assert len(forks) == 1 and forks[0].startswith("inference.py:"), forks


def _opens_for_writing(node: ast.AST) -> bool:
    """node is a call that opens a file by its path in a writing mode: open()
    with a mode other than a constant read mode, write_text or write_bytes."""
    if not isinstance(node, ast.Call):
        return False
    name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "mode"), None)
    return mode is not None and not (isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+"))


def test_files_are_written_atomically_but_for_the_streamed_rows():
    """Outside util.atomic_write, the package opens a file for writing only in
    sft.train_sft and grpo.train_rl, which stream metrics.csv, rl_metrics.csv
    and rollouts.txt one row at a time as a run goes."""
    writers = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "latentsketch", "*.py"))):
        module = os.path.basename(path)[:-3]
        tree = _parse(path)
        for top in tree.body:
            defs = top.body if isinstance(top, ast.ClassDef) else [top]
            for fn in defs:
                name = f"{module}.{getattr(fn, 'name', '<module>')}"
                if name != "util.atomic_write" and any(_opens_for_writing(n) for n in ast.walk(fn)):
                    writers.add(name)
    assert writers == {"sft.train_sft", "grpo.train_rl"}
