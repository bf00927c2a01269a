"""How fast the shared host runs right now, from fixed reference kernels.

On a shared VM, other tenants slow every instruction the VM runs, for
stretches of seconds to minutes (NOTES.md, last section).  A slowdown that
lasts a whole run moves every time the run measures, and no best-of-k inside
the run removes it.  So the benchmark times a fixed reference kernel next to
the program's work, and divides each time it measures by the kernel's
slowdown at that moment: its time then over its time on a quiet host.

The kernels use numpy only, never the program, so a change to the program
cannot move them.  Code slows by different factors: a loop of numpy calls on
tiny arrays slows about 1.8x when Philox normals on large arrays slow 1.3x.
So there are two kernels, and each workload is scaled by the one whose
slowdown follows its own (NOTES.md gives the measurements).
"""

from __future__ import annotations

import statistics
import time

import numpy as np


def _calls() -> None:
    """Per-call overhead: a Python loop of numpy operations on 8 floats."""
    x = np.zeros(8)
    for _ in range(1000):
        x = x * 0.5 + 1.0


def _arrays() -> None:
    """Array throughput: 10^5 Philox normals."""
    np.random.Generator(np.random.Philox(7)).standard_normal(100_000)


# Each kernel, and its time in seconds on a quiet host (the fastest phase
# seen while the benchmark was built), so that scaled times stay in seconds.
KERNELS = {"calls": (_calls, 1.25e-3), "arrays": (_arrays, 1.6e-3)}
REPS = 5  # passes per sample


class HostSpeed:
    """Samples of one kernel's slowdown, taken between timed operations."""

    def __init__(self, kernel: str):
        self.kernel, self.nominal = KERNELS[kernel]
        self.kernel()  # the first pass pays for allocation and lazy imports

    def sample(self) -> list:
        """``REPS`` timed passes of the kernel, each over its quiet-host time."""
        out = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            self.kernel()
            out.append((time.perf_counter() - t0) / self.nominal)
        return out


def slowdown(before, after) -> float:
    """The host's slowdown during a span, from samples taken just before and just after it."""
    return statistics.median([*before, *after])
