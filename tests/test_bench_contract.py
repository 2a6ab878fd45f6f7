"""The names the benchmark reads from the package still exist.

``bench/spans.py`` wraps every function named in its ``LAYERS`` table, and
``bench/run.py`` expects the checks of ``verify.SUITES`` to be exactly its
``VERIFY_CHECKS``.  A rename in the package would otherwise surface only
when the benchmark runs traced.  The bench files are read, not imported.
"""
import ast
import importlib
from pathlib import Path

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
