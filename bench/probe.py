"""A speed probe that runs beside a job, so its times can be put on a fixed scale.

The benchmark runs on a few virtual CPUs of a shared host.  Each of them runs
at full speed or up to about half speed, in spells from a fraction of a
second to minutes, and the spells of one CPU do not follow those of the other.
Wall time over a whole run then moves by a quarter from run to run, whatever
the program does.

A :class:`Probe` runs a thread in the job's process, which is pinned to one
CPU (:func:`pin`).  Every ``INTERVAL_S`` it takes the GIL and times
:func:`probe_work`, a fixed piece of pure-Python work that calls nothing of
``homing``: tuples, a small dict, a list and a sort.  The mean of those times
over the job says how fast the CPU ran while the job did.  :meth:`Probe.at_ref`
turns a wall time into the time the same work takes at the probe's
reference speed, ``PROBE_REF_S``:

    ref_s = wall_s * PROBE_REF_S / mean probe time

A change to the program moves ``ref_s`` as it moves ``wall_s``; the host's
spells move both ``wall_s`` and the probe and cancel.  The probe takes about
2% of the job's CPU, the same for every commit.
"""
from __future__ import annotations

import os
import threading
import time
from array import array

# mean probe time inside a job when the host runs this CPU at full speed,
# on the 2-vCPU Xeon host the benchmark was defined on: it sets the scale,
# so ref_s reads as seconds on that host at full speed
PROBE_REF_S = 1.2e-4
INTERVAL_S = 0.004

_SMALL = {i: 3 * i for i in range(512)}


def probe_work() -> None:
    out = []
    for i in range(600):
        t = (i, i + 1, i & 7)
        out.append(t[2] + _SMALL[i & 511])
    out.sort()


def pin(slot: int) -> int:
    """Pin this process to one of the CPUs it may use, chosen by ``slot``, so
    that the probe thread times the CPU the job runs on."""
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[slot % len(cpus)]
    os.sched_setaffinity(0, {cpu})
    return cpu


class Probe:
    """Times :func:`probe_work` every ``INTERVAL_S`` while the ``with``
    block runs, and once at either end of it."""

    def __init__(self) -> None:
        self.samples = array("d")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="probe", daemon=True)

    def _sample(self) -> None:
        t = time.perf_counter()
        probe_work()
        self.samples.append(time.perf_counter() - t)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def __enter__(self) -> "Probe":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)

    def at_ref(self, wall_s: float) -> float:
        """``wall_s`` at the reference speed, ``PROBE_REF_S``."""
        return wall_s * PROBE_REF_S / self.mean_s()
