"""Every name in the package has a caller; a public one may instead be
named an oracle.

A public module-level function or class of ``src/homing``, and a public
method of one of its classes, must be referenced outside its own
definition somewhere in ``src/homing`` or ``demos/``: through a name for a
function or class, through an attribute for a method.  The package's
``__init__.py`` only re-exports, so its references do not count.  A name
that the tests alone call says "oracle" in its docstring.  A private
module-level function or class, and a private method (not a dunder) of any
class, must be referenced outside its own definition in ``src/homing``
itself, so that a helper a consolidation leaves behind is caught.

Every parameter with a default, of a public function or public method,
must be passed by some call in ``src/homing``, ``demos/`` or ``bench/``:
by keyword, by position or through ``*args``/``**kwargs``.  A knob that
only the tests set is an option with one value in use.  The sources are
parsed, not imported.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def definitions(tree):
    """(name, node, is_method, is_private) for each module-level function
    or class in ``tree``, each public method of its public classes and each
    private non-dunder method of any class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            private = node.name.startswith("_")
            yield node.name, node, False, private
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    if item.name.startswith("_") or not private:
                        yield f"{node.name}.{item.name}", item, True, item.name.startswith("_")


def uncalled(root):
    """The names of ``src/homing`` under the checkout ``root`` with no
    caller where their kind needs one, as module.name: a public name with
    none there or in its ``demos`` and no "oracle" in its docstring, a
    private name with none in the package."""
    package = sorted((root / "src" / "homing").glob("*.py"))
    inside = [p for p in package if p.name != "__init__.py"]
    callers = inside + sorted((root / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in package + callers}
    references = [
        (path, node)
        for path in callers
        for node in ast.walk(trees[path])
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    found = []
    for path in package:
        for name, node, method, private in definitions(trees[path]):
            kind, field = (ast.Attribute, "attr") if method else (ast.Name, "id")
            called = any(
                isinstance(ref, kind)
                and getattr(ref, field) == node.name
                and not (where == path and node.lineno <= ref.lineno <= node.end_lineno)
                and (where in inside or not private)
                for where, ref in references
            )
            if not called and (private or "oracle" not in (ast.get_docstring(node) or "").lower()):
                found.append(f"{path.stem}.{name}")
    return found


def _knobs(tree):
    """(name, node, method, parameter, position) for each parameter with a
    default of a public function or method in ``tree``; ``position`` counts
    the arguments of a call, so a method's ``self`` takes none, and is None
    for a keyword-only parameter."""
    for name, node, method, private in definitions(tree):
        if private or not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first - method):
            yield name, node, method, arg.arg, i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, node, method, arg.arg, None


def _passes(call, parameter, position):
    if any(k.arg in (parameter, None) for k in call.keywords):  # None: **kwargs
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return position is not None and (starred or len(call.args) > position)


def unset_knobs(root):
    """The parameters with a default of the public functions and methods of
    ``src/homing`` under the checkout ``root`` that no call in
    ``src/homing``, ``demos`` or ``bench`` passes, as module.name(parameter).
    A call names a function by name or attribute and a method by attribute;
    a function calling itself does not count."""
    package = sorted((root / "src" / "homing").glob("*.py"))
    callers = package + sorted((root / "demos").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in callers}
    calls = [(path, node) for path in callers for node in ast.walk(trees[path]) if isinstance(node, ast.Call)]
    found = []
    for path in package:
        for name, node, method, parameter, position in _knobs(trees[path]):
            if not any(
                (getattr(call.func, "attr", None) == node.name
                 or not method and getattr(call.func, "id", None) == node.name)
                and not (where == path and node.lineno <= call.lineno <= node.end_lineno)
                and _passes(call, parameter, position)
                for where, call in calls
            ):
                found.append(f"{path.stem}.{name}({parameter})")
    return found


def test_every_public_name_has_a_caller_or_is_an_oracle():
    offending = [name for name in uncalled(ROOT) if not name.rpartition(".")[2].startswith("_")]
    assert not offending, f"public names with no caller and no 'oracle' docstring: {offending}"


def test_every_private_name_has_a_caller():
    offending = [name for name in uncalled(ROOT) if name.rpartition(".")[2].startswith("_")]
    assert not offending, f"private names with no caller in the package: {offending}"


def test_the_guard_names_what_nothing_calls(tmp_path):
    package = tmp_path / "src" / "homing"
    package.mkdir(parents=True)
    (tmp_path / "demos").mkdir()
    # the package's own references re-export, and do not count
    (package / "__init__.py").write_text(
        "from .mod import _spare, unused, used\nEXPORTS = (_spare, unused, used)\n"
    )
    (package / "mod.py").write_text(
        "def used():\n    return _helper()\n\n\n"
        "def unused():\n    return unused()\n\n\n"  # calling itself does not count
        "def kept():\n    '''The oracle for used.'''\n\n\n"
        "def _helper():\n    pass\n\n\n"
        "def _spare():\n    '''The oracle for nothing.'''\n\n\n"  # a private name is no oracle
        "def _shown():\n    pass\n\n\n"
        "class Box:\n    def open(self):\n        self._lock()\n\n    def shut(self):\n        pass\n\n"
        "    def _lock(self):\n        pass\n\n    def _jam(self):\n        pass\n\n"
        "    def __len__(self):\n        return 0\n\n\n"  # a dunder needs no caller
        "class _Crate:\n    def lift(self):\n        pass\n"
    )
    # ``shut`` is read by name only, which does not reach a method, and a
    # private name needs a caller in the package itself
    (tmp_path / "demos" / "demo.py").write_text("used()\nBox().open()\nshut = 1\n_shown()\n")
    assert uncalled(tmp_path) == [
        "mod.unused", "mod._spare", "mod._shown", "mod.Box.shut", "mod.Box._jam", "mod._Crate"
    ]


def test_every_default_is_passed_by_some_caller():
    offending = unset_knobs(ROOT)
    assert not offending, f"parameters that no caller outside the tests sets: {offending}"


def test_the_guard_names_the_defaults_nothing_passes(tmp_path):
    package = tmp_path / "src" / "homing"
    package.mkdir(parents=True)
    for folder in ("demos", "bench", "tests"):
        (tmp_path / folder).mkdir()
    (package / "mod.py").write_text(
        "def by_keyword(a, x=1):\n    pass\n\n\n"
        "def by_position(a, x=1):\n    pass\n\n\n"
        "def by_star(a, x=1):\n    pass\n\n\n"
        "def by_mapping(*, x=1):\n    pass\n\n\n"
        "def unset(a, x=1):\n    return unset(a, x=2)\n\n\n"  # calling itself does not count
        "def _private(a, x=1):\n    pass\n\n\n"  # a private function's knob is its own affair
        "class Box:\n    def open(self, wide=False):\n        pass\n\n"
        "    def shut(self, hard=False):\n        pass\n"
    )
    (tmp_path / "demos" / "demo.py").write_text(
        "by_keyword(0, x=2)\nby_position(0, 2)\nunset(0)\nBox().open(True)\nBox().shut()\n"
    )
    (tmp_path / "bench" / "run.py").write_text("mod.by_star(*args)\nmod.by_mapping(**options)\n")
    # the tests set every knob, and do not count
    (tmp_path / "tests" / "test_mod.py").write_text("unset(0, x=2)\nBox().shut(hard=True)\n")
    assert unset_knobs(tmp_path) == ["mod.unset(x)", "mod.Box.shut(hard)"]
