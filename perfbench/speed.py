"""The machine-speed probe, and times scaled to a reference speed.

The small shared VMs this benchmark runs on change speed under it: while a
neighbour loads the other hyperthread of the core, the same CPU-bound Python
runs 1.5 to 1.8 times slower, in stretches of a fraction of a second to
minutes.  Left in, that swing is most of the run-to-run spread of every
time metric.

So each timed operation is bracketed by a probe: a fixed computation that
does not touch the package (an integer loop in pure Python, then a numpy
sweep over a 2^14-row subset table, the two kinds of work the workloads
do).  An operation's time is scaled by ``REFERENCE_S / local``,
where ``local`` is the median probe time around the operation: the time the
operation takes on a machine, or at a moment, where the probe takes
REFERENCE_S.  The probe runs outside every timed interval, and being
independent of the package, a change to the package cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The probe's time on a 2-core x86-64 VM under CPython 3.11 and numpy 2.4,
# running at full speed (its tenth percentile there); scaled times are times
# at that speed.
REFERENCE_S = 0.20e-3
# Probes before and after each operation are pooled over this many
# neighbouring operations on either side.
WINDOW = 4
WARMUP_PROBES = 20

_BITS = 14
_TABLE = ((np.arange(1 << _BITS)[:, None] >> np.arange(_BITS)) & 1).astype(bool)


def _reference() -> None:
    total = 0
    for i in range(2000):
        total += i * i
    hit = np.zeros(1 << _BITS, dtype=bool)
    for u in range(0, _BITS - 2, 2):
        hit |= _TABLE[:, u] & _TABLE[:, u + 1]


def probe() -> float:
    """Seconds taken by the reference computation (about 0.2 ms at full speed).

    It runs once untimed first, so that the caches the operation before it
    evicted are refilled and only the machine's speed is measured.
    """
    _reference()
    t0 = perf_counter()
    _reference()
    return perf_counter() - t0


def probes_median(count: int = 5) -> float:
    """Median of several probes, where one probe stands for a long operation."""
    return statistics.median(probe() for _ in range(count))


def warm_up() -> None:
    for _ in range(WARMUP_PROBES):
        probe()


def local_speeds(probes: list[float], window: int = WINDOW) -> list[float]:
    """Probe time around each operation: the median of the ``window`` probes before
    and after it.  ``probes[i]`` ran just before operation i, ``probes[-1]`` after
    the last one."""
    return [
        statistics.median(probes[max(0, i - window + 1) : i + window + 1])
        for i in range(len(probes) - 1)
    ]


def scale(durations: list[float], probes: list[float], window: int = WINDOW) -> list[float]:
    """Each duration at the speed at which the probe takes REFERENCE_S."""
    return [d * REFERENCE_S / local for d, local in zip(durations, local_speeds(probes, window))]
