"""Every public name in the package has a caller, or is named an oracle.

A public module-level function or class of ``src/homing``, and a public
method of one of its classes, must be referenced outside its own
definition somewhere in ``src/homing`` or ``demos/``: through a name for a
function or class, through an attribute for a method.  The package's
``__init__.py`` only re-exports, so its references do not count.  A name
that the tests alone call says "oracle" in its docstring.  The sources are
parsed, not imported.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def public_definitions(tree):
    """(name, node, is_method) for each public module-level function or
    class in ``tree`` and each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def uncalled(root):
    """The public names of ``src/homing`` under the checkout ``root`` with
    no caller there or in its ``demos`` and no "oracle" in their docstring,
    as module.name."""
    package = sorted((root / "src" / "homing").glob("*.py"))
    callers = [p for p in package if p.name != "__init__.py"] + sorted((root / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in package + callers}
    references = [
        (path, node)
        for path in callers
        for node in ast.walk(trees[path])
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    found = []
    for path in package:
        for name, node, method in public_definitions(trees[path]):
            kind, field = (ast.Attribute, "attr") if method else (ast.Name, "id")
            called = any(
                isinstance(ref, kind)
                and getattr(ref, field) == node.name
                and not (where == path and node.lineno <= ref.lineno <= node.end_lineno)
                for where, ref in references
            )
            if not called and "oracle" not in (ast.get_docstring(node) or "").lower():
                found.append(f"{path.stem}.{name}")
    return found


def test_every_public_name_has_a_caller_or_is_an_oracle():
    offending = uncalled(ROOT)
    assert not offending, f"public names with no caller and no 'oracle' docstring: {offending}"


def test_the_guard_names_what_nothing_calls(tmp_path):
    package = tmp_path / "src" / "homing"
    package.mkdir(parents=True)
    (tmp_path / "demos").mkdir()
    # the package's own references re-export, and do not count
    (package / "__init__.py").write_text("from .mod import unused, used\nEXPORTS = (unused, used)\n")
    (package / "mod.py").write_text(
        "def used():\n    pass\n\n\n"
        "def unused():\n    return unused()\n\n\n"  # calling itself does not count
        "def kept():\n    '''The oracle for used.'''\n\n\n"
        "class Box:\n    def open(self):\n        pass\n\n    def shut(self):\n        pass\n"
    )
    (tmp_path / "demos" / "demo.py").write_text("used()\nBox().open()\nshut = 1\n")
    # ``shut`` is read by name only, which does not reach a method
    assert uncalled(tmp_path) == ["mod.unused", "mod.Box.shut"]
