"""The names the benchmark reads from the package still exist.

``bench/spans.py`` wraps every function named in its ``LAYERS`` table,
``bench/run.py`` expects the checks of ``verify.SUITES`` to be exactly its
``VERIFY_CHECKS``, and the bench files read attributes off the modules they
load with ``importlib.import_module("homing.<module>")``.  A rename in the
package would otherwise surface only when the benchmark runs.  The bench
files are read, not imported.
"""
import ast
import importlib
from pathlib import Path

from homing.strategies import unique_worst_case_check
from homing.verify import SUITES

BENCH = Path(__file__).resolve().parent.parent / "bench"


def assigned(path, name):
    """The value node of the module-level assignment to ``name``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def test_every_span_layer_resolves():
    layers = [ast.literal_eval(key) for key in assigned(BENCH / "spans.py", "LAYERS").keys]
    assert layers
    for name in layers:
        module, *path = name.split(".")
        obj = importlib.import_module(f"homing.{module}")
        for attr in path:
            assert hasattr(obj, attr), f"bench/spans.py LAYERS names {name}, which is gone"
            obj = getattr(obj, attr)
        assert callable(obj), name


def test_verify_checks_match_the_suites():
    expected = ast.literal_eval(assigned(BENCH / "run.py", "VERIFY_CHECKS"))
    assert [check.__name__ for group in SUITES.values() for check in group] == list(expected)


def _homing_module(node):
    """``"homing.<module>"`` if ``node`` is ``importlib.import_module`` called
    on that constant, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "import_module"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and str(node.args[0].value).startswith("homing.")
    ):
        return node.args[0].value
    return None


def module_attributes(tree):
    """(module, attribute) for every attribute read off a module loaded by
    :func:`_homing_module`, directly or through a name bound to it in the
    same function."""
    found = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef)):
            continue
        nodes = list(ast.walk(scope))
        bound = {
            node.targets[0].id: _homing_module(node.value)
            for node in nodes
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _homing_module(node.value)
        }
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                value = node.value
                module = bound.get(value.id) if isinstance(value, ast.Name) else _homing_module(value)
                if module:
                    found.add((module, node.attr))
    return found


def test_every_module_attribute_the_bench_reads_resolves():
    read = set().union(*(module_attributes(ast.parse(p.read_text())) for p in BENCH.glob("*.py")))
    # the collector sees both forms: a bound name and a direct read
    assert {("homing.strategies", "unique_worst_case_check"), ("homing.firings", "FiringLetter")} <= read
    for module, attr in sorted(read):
        assert hasattr(importlib.import_module(module), attr), f"bench reads {module}.{attr}, which is gone"


def test_unique_worst_case_check_returns_a_plain_bool():
    # the enum-n9 job passes it to json.dumps
    assert type(unique_worst_case_check(8)) is bool
