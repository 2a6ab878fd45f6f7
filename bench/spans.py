"""Spans around the calls into each layer of ``homing``, recorded from outside.

The traced pass wraps each public function listed in :data:`LAYERS` at every
place it is bound: module attributes (``homing.strategies.place`` as well as
``homing.perms.place``), class attributes (``HeightTable.members_at``) and the
lists of check callables in ``verify.SUITES``.  Each call becomes one span
holding its name, start, end, parent span and an optional amount (edges,
steps, bytes, ...), kept in flat typed arrays and written out when the job
ends.  Self times and per-layer counters are derived from the spans alone.

Untraced jobs call :func:`assert_unwrapped` first, so a leftover wrapper
can never slow the end-to-end numbers.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from array import array

MODULES = ("perms", "codes", "strategies", "heights", "firings", "counting", "verify", "cli")


def _out_bytes(args, kwargs, result):
    argv = args[0]
    return os.path.getsize(argv[argv.index("--out") + 1]) if "--out" in argv else 0


# span name -> amount recorded per call (None: calls and time only)
LAYERS = {
    "perms.place": None,
    "perms.placeable_values": None,
    "perms.displace": None,
    "perms.rank": None,
    "perms.unrank": None,
    "perms.displacement_successors": lambda a, k, r: len(r),  # edges
    "codes.code_of": None,
    "codes.weight": None,
    "strategies.run_strategy": lambda a, k, r: len(r),  # placement steps
    "strategies.min_placements_table": lambda a, k, r: len(r) - 1,  # n!-1 useful
    "heights.build_height_table": lambda a, k, r: len(r.heights),  # states
    "heights.HeightTable.members_at": lambda a, k, r: len(r),  # worst cases
    "heights.height": None,
    "heights.stage1_longest": None,
    "firings.apply_word": None,
    "firings.apply_letter": None,
    "firings.firing_moves": lambda a, k, r: len(r),  # displacements
    "firings.canonicalize": None,
    "firings.word_to_partition": None,
    "firings.partition_to_word": None,
    "firings.canonical_words": None,
    "counting.worst_case_count": None,
    "counting.bell_number": None,
    "cli.main": _out_bytes,  # bytes written to --out
}


def homing_modules(imported_only: bool = False):
    """The package and its layer modules; those not yet imported are imported
    unless ``imported_only``."""
    names = ["homing"] + [f"homing.{m}" for m in MODULES]
    if imported_only:
        return [sys.modules[n] for n in names if n in sys.modules]
    return [importlib.import_module(n) for n in names]


def _targets() -> dict[int, tuple[str, object]]:
    """id(original function) -> (span name, function), checks included."""
    verify = importlib.import_module("homing.verify")
    out = {}
    for name in LAYERS:
        module, *path = name.split(".")
        obj = importlib.import_module(f"homing.{module}")
        for attr in path:
            obj = getattr(obj, attr)
        out[id(obj)] = (name, obj)
    for group in verify.SUITES.values():
        for check in group:
            out[id(check)] = (f"verify.{check.__name__}", check)
    return out


def span_name(name: str) -> str:
    """Metric prefix of a span: ``heights.HeightTable.members_at`` reads as
    ``heights.members_at``."""
    parts = name.split(".")
    return f"{parts[0]}.{parts[-1]}"


def _binding_sites(modules):
    """Yield (container, key, value) for every place a function can be bound:
    module globals, class attributes of the package's classes, and the items
    of lists and dicts held in module globals (one level of nesting)."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if key.startswith("__"):
                continue
            yield mod, key, value
            if isinstance(value, type) and value.__module__.startswith("homing"):
                for ckey, cvalue in list(vars(value).items()):
                    yield value, ckey, cvalue
            containers = [value]
            if isinstance(value, dict):
                containers += [v for v in value.values() if isinstance(v, list)]
            for c in containers:
                if isinstance(c, (list, dict)):
                    keys = range(len(c)) if isinstance(c, list) else list(c)
                    for ckey in keys:
                        yield c, ckey, c[ckey]


def _rebind(container, key, value) -> None:
    if isinstance(container, (list, dict)):
        container[key] = value
    else:
        setattr(container, key, value)


def assert_unwrapped() -> None:
    """Raise if any binding site holds a span wrapper.  Only modules already
    imported are scanned, so the check adds nothing to the job's memory."""
    for container, key, value in _binding_sites(homing_modules(imported_only=True)):
        if hasattr(value, "__span_name__"):
            raise RuntimeError(f"untraced job sees a span wrapper at {key!r}")


class Recorder:
    """In-memory span store for one job; spans are appended in call order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.amount = array("q")
        self.error = array("b")
        self._stack = [-1]

    def wrap(self, name: str, fn, amount):
        self.names.append(name)
        name_id = len(self.names) - 1
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        amounts, errors, stack = self.amount, self.error, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            amounts.append(0)
            errors.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if amount is not None:
                amounts[idx] = amount(args, kwargs, result)
            return result

        traced.__span_name__ = name
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every target at every binding site; raise if one is missed."""
        targets = _targets()
        wrappers = {
            key: self.wrap(name, fn, LAYERS.get(name)) for key, (name, fn) in targets.items()
        }
        modules = homing_modules()
        for container, key, value in list(_binding_sites(modules)):
            if id(value) in wrappers:
                _rebind(container, key, wrappers[id(value)])
        missed = [key for _, key, value in _binding_sites(modules) if id(value) in targets]
        if missed:
            raise RuntimeError(f"unwrapped binding sites remain: {missed}")

    def save(self, path: str, job_id: int) -> None:
        import numpy as np

        n = len(self.start)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            amount=np.frombuffer(self.amount, dtype=np.int64),
            error=np.frombuffer(self.error, dtype=np.int8),
            job=np.full(n, job_id, dtype=np.int32),
        )


def summarize(path: str) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, summed amount and errors.

    Self time is a span's duration minus the durations of its direct
    children, which lie inside it because calls nest.  Also returns, under
    ``"edges_in_bfs"``, the successor edges generated by
    ``displacement_successors`` calls made directly from
    ``min_placements_table``.
    """
    import numpy as np

    with np.load(path) as z:
        names = [str(s) for s in z["names"]]
        name_id, parent = z["name_id"].astype(np.int64), z["parent"]
        dur = (z["end"] - z["start"]).astype(np.float64)
        amount, error = z["amount"].astype(np.float64), z["error"].astype(np.float64)
    k = len(names)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = (dur - child) / 1e9
    calls = np.bincount(name_id, minlength=k)
    selfs = np.bincount(name_id, weights=self_s, minlength=k)
    amounts = np.bincount(name_id, weights=amount, minlength=k)
    errors = np.bincount(name_id, weights=error, minlength=k)
    out = {
        span_name(nm): {
            "calls": int(calls[i]),
            "self_s": float(selfs[i]),
            "amount": int(amounts[i]),
            "errors": int(errors[i]),
        }
        for i, nm in enumerate(names)
    }
    ds = names.index("perms.displacement_successors")
    bfs = names.index("strategies.min_placements_table")
    in_bfs = (name_id == ds) & has_parent
    in_bfs[in_bfs] = name_id[parent[in_bfs]] == bfs
    out["edges_in_bfs"] = {"amount": int(amount[in_bfs].sum())}
    return out
