"""Static checks on the library source."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lubelastic"


def test_library_has_no_assert_statements():
    # `python -O` strips assert, and the library's checks must survive it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py")) and not found, f"assert statements at {found}"


def test_cli_builds_no_library_parameter_class():
    # documents decode straight into these classes (cli.INLINE); a call in
    # cli.py would mean a field-by-field copy of a document again
    mirrored = {"ThinFilmModel", "ModelParams", "NonlinearScalingPreset"}
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in mirrored:
                found.append(f"{name}:{node.lineno}")
    assert not found, f"cli.py calls {found}"


def _nan_passing_guards(tree) -> list[int]:
    """Lines of `if x <= 0: raise ...`-style guards: an if whose body raises
    and whose test, alone or as a term of an `or`, compares a name or a
    self.<attr> with a number literal by <, <=, > or >=.  NaN fails every
    such comparison, so it passes the guard; errors.check_range does not."""
    def operand(node):
        return isinstance(node, ast.Name) or (
            isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self")

    def number(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) in (int, float)

    def bare(node):
        if not (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE))):
            return False
        a, b = node.left, node.comparators[0]
        return (operand(a) and number(b)) or (number(a) and operand(b))

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body):
            test = node.test
            terms = test.values if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or) \
                else [test]
            lines += [node.lineno for t in terms if bare(t)]
    return lines


def test_guards_reject_nan():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in _nan_passing_guards(tree)]
    assert not found, f"NaN passes the guards at {found}; use errors.check_range"


def test_nan_guard_lint_sees_each_form():
    src = ("if x <= 0: raise E\n"
           "if self.n < 8 or n & (n - 1): raise E\n"
           "if a < 0 or self.b < 0.5: raise E\n"
           "if 1 > x: raise E\n"
           "if not x > 0: raise E\n"
           "if len(x) < 3: raise E\n"
           "if x.min() <= 0.0: raise E\n"
           "if x <= 0: y = 1\n")
    assert _nan_passing_guards(ast.parse(src)) == [1, 2, 3, 3, 4]


def test_library_stays_within_the_round_line_budget():
    # ROADMAP item 10: the library holds no more than the 3004 lines it had
    # once the reduced side read its load as data, counted as
    # `wc -l src/lubelastic/*.py` does
    total = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert total <= 3004, f"src/lubelastic/*.py holds {total} lines"


def _unread_private_attributes(trees) -> list[str]:
    """`Class.attr` for each self.<attr> that a method of a private class (a
    class whose name starts with an underscore) assigns but that no module
    of trees reads, as `<anything>.attr`: state that nothing uses."""
    read, assigned = set(), []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if isinstance(node, ast.ClassDef) and node.name.startswith("_"):
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        assigned.append((node.name, sub.attr))
    return sorted({f"{cls}.{attr}" for cls, attr in assigned if attr not in read})


def test_private_classes_keep_no_unread_state():
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))]
    found = _unread_private_attributes(trees)
    assert not found, f"assigned but never read in src/: {found}"


def test_unread_state_lint_sees_each_form():
    src = ("class _Held:\n"
           "    def __init__(self, a):\n"
           "        self.kept = a\n"
           "        self.unread = a\n"
           "        self.x, self.y = a, a\n"
           "        self.z = self.w = a\n"
           "        self.aug = 0\n"
           "        self.aug += 1\n"
           "class Public:\n"
           "    def __init__(self):\n"
           "        self.public_unread = 1\n"
           "def use(h):\n"
           "    return h.kept, h.x, h.w\n")
    assert _unread_private_attributes([ast.parse(src)]) == [
        "_Held.aug", "_Held.unread", "_Held.y", "_Held.z"]


def _unused_imports(tree) -> list[str]:
    """The names that a module's import statements bind (other than
    `from __future__ import ...`) and that no expression of the module
    reads: a dead import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name}:{line}" for name, line in bound.items() if name not in used)


def test_library_modules_use_every_import():
    # __init__.py imports to re-export
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found += [f"{path.name}:{name}" for name in _unused_imports(tree)]
    assert not found, f"imported but never used: {found}"


def test_dead_import_lint_sees_each_form():
    src = ("from __future__ import annotations\n"
           "import os\n"
           "import numpy as np\n"
           "import a.b\n"
           "import gone.sub\n"
           "from .x import used, unused, other as renamed\n"
           "from .y import (Annotated,\n"
           "                Unread)\n"
           "def f(p: Annotated) -> None:\n"
           "    return used(os.path, np.zeros, a.b)\n")
    assert _unused_imports(ast.parse(src)) == ["Unread:7", "gone:5", "renamed:6", "unused:6"]
