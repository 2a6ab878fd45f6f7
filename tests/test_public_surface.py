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
itself, so that a helper a consolidation leaves behind is caught.  The
sources are parsed, not imported.
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
