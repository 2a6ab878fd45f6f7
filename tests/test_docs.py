"""Every cross-reference in the package's source, and every dotted
``homing`` name in the README, names something that exists, and the
README's command-line table and its common flags match the parser.

A docstring or comment that names a function, class, module, method or
datum with ``:func:``, ``:class:``, ``:mod:``, ``:meth:`` or ``:data:`` must
name one that resolves, so a rename or a deletion cannot leave a stale name
behind.  A dotted name starting with ``homing`` resolves from the package; any
other name resolves in the module that holds the reference, and a ``:meth:``
name against the classes of that module.
"""
import argparse
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import homing
from homing.cli import FORMATS, build_parser

REFERENCE = re.compile(r":(func|mod|class|meth|data):`~?\.?([\w.]+)`")
README_NAME = re.compile(r"`(homing(?:\.\w+)+)`")
README = Path(__file__).resolve().parents[1] / "README.md"
MISSING = object()
# importing homing.__main__ runs the CLI, so its source is not searched
MODULES = ["homing"] + [
    f"homing.{info.name}" for info in pkgutil.iter_modules(homing.__path__) if info.name != "__main__"
]

KIND = {
    "func": callable,
    "meth": callable,
    "class": inspect.isclass,
    "mod": inspect.ismodule,
    "data": lambda obj: True,
}


def lookup(obj, attrs):
    for attr in attrs:
        obj = getattr(obj, attr, MISSING)
        if obj is MISSING:
            break
    return obj


def resolve(module, role, name):
    """The object ``name`` names from ``module``, or MISSING."""
    parts = name.split(".")
    if parts[0] == "homing":
        # the longest importable module prefix, then attributes of it
        for cut in range(len(parts), 0, -1):
            try:
                return lookup(importlib.import_module(".".join(parts[:cut])), parts[cut:])
            except ModuleNotFoundError:
                continue
    found = lookup(module, parts)
    if found is MISSING and role == "meth":
        classes = [c for _, c in inspect.getmembers(module, inspect.isclass)
                   if c.__module__ == module.__name__]
        for cls in classes:
            found = lookup(cls, parts)
            if found is not MISSING:
                break
    return found


def references(module_name):
    return REFERENCE.findall(inspect.getsource(importlib.import_module(module_name)))


def test_references_are_found():
    assert sum(len(references(m)) for m in MODULES) > 50
    assert ("meth", "Trace.text") in references("homing.strategies")
    assert ("data", "FORMATS") in references("homing.cli")


@pytest.mark.parametrize("module_name", MODULES)
def test_references_resolve(module_name):
    module = importlib.import_module(module_name)
    for role, name in references(module_name):
        found = resolve(module, role, name)
        assert found is not MISSING, f"{module_name}: :{role}:`{name}` names nothing"
        assert KIND[role](found), f"{module_name}: :{role}:`{name}` is not a {role}"


def test_a_stale_reference_fails():
    firings = importlib.import_module("homing.firings")
    assert resolve(firings, "func", "apply_letter") is firings.apply_letter
    assert resolve(firings, "func", "no_such_function") is MISSING
    assert resolve(firings, "func", "homing.firings.no_such_function") is MISSING
    assert resolve(firings, "meth", "lines") is MISSING  # no class of firings has it


def test_readme_names_resolve():
    names = README_NAME.findall(README.read_text())
    assert "homing.successors.DEFAULT_CAP" in names and "homing.perms" in names
    for name in names:
        assert resolve(homing, "data", name) is not MISSING, f"README.md: `{name}` names nothing"


def command_table(readme):
    """Subcommand -> the formats its row lists, from the README's
    command-line table."""
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = {}
    for names, formats in re.findall(r"^\|([^|]*)\|[^|]*\|([^|]*)\|$", section, re.M):
        for name in re.findall(r"`([^`]+)`", names):
            table[name] = [f.strip() for f in formats.split(",")]
    return table


def test_readme_command_table_matches_formats():
    readme = README.read_text()
    assert all(accepted[0] == default for default, accepted in FORMATS.values())
    assert command_table(readme) == {name: list(accepted) for name, (_, accepted) in FORMATS.items()}


def flag_owners(readme, flag):
    """The subcommands the README's "Common flags" sentence gives ``flag``:
    the names in backticks after "`flag` on", up to the next parenthesis."""
    sentence = readme.split("Common flags:", 1)[1]
    listed = sentence.split(f"`{flag}` on ", 1)[1].split("(", 1)[0]
    return set(re.findall(r"`([^`]+)`", listed))


def parser_owners(flag):
    """The subcommands whose subparser has the option ``flag``."""
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name
        for name, sub in subparsers.choices.items()
        if any(flag in action.option_strings for action in sub._actions)
    }


@pytest.mark.parametrize("flag", ["--cap", "--seed"])
def test_readme_common_flags_match_the_parser(flag):
    assert flag_owners(README.read_text(), flag) == parser_owners(flag)
