"""CPU time, corrected for the speed the machine has at the moment.

On a shared machine the speed of the same single-threaded work drifts by
20% and more over seconds to minutes (README, "Clock").  So before every
measured piece of work the benchmark runs ``machine_probe()``, a fixed
piece of pure-Python work that shares no code with leavitt, and reports

    time = CPU time of the work * PROBE_REFERENCE_S / median nearby probe time

that is, CPU seconds at the speed the machine had when PROBE_REFERENCE_S
was measured.  The probe does not depend on the program, so a change to
the program moves these figures in full; only the machine's drift is
divided out.
"""

from __future__ import annotations

import resource
import statistics
import time

# Median CPU time of one machine_probe() on the reference machine (README).
PROBE_REFERENCE_S = 0.0019
# A factor is the median of the probes of the WINDOW neighbours on each side.
WINDOW = 8


def cpu_clock() -> float:
    """CPU seconds (user + system) of this process and its waited-for children.

    The program is single-threaded, CPU-bound and never waits, so CPU time
    is its cost; wall time would also count the share the host lends to
    other guests.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def machine_probe() -> int:
    """Fixed interpreter work of the kinds leavitt does: big-int products,
    dict and set updates, tuples.  Integer keys only, so that the string
    hash seed cannot change it."""
    big = [3**80 + i for i in range(36)]
    acc = 0
    for x in big:
        for y in big:
            acc += x * y
    table: dict[int, tuple[int, int]] = {}
    seen: set[int] = set()
    for i in range(6000):
        table[i % 397] = (i, acc & i)
        seen.add(i * 7919 % 1021)
    return acc + len(table) + len(seen)


class Clock:
    """Probe-corrected CPU times of a sequence of measured pieces of work."""

    def __init__(self):
        self.raw: list[float] = []
        self.probes: list[float] = []

    def probe(self) -> float:
        start = cpu_clock()
        machine_probe()
        return cpu_clock() - start

    def measure(self, fn):
        """Probe, then run fn() and record its CPU time; returns fn's result,
        or the exception it raised."""
        probe = self.probe()
        start = cpu_clock()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - the caller counts it as failed
            result = exc
        self.record(probe, cpu_clock() - start)
        return result

    def record(self, probe_s: float, raw_s: float) -> None:
        self.probes.append(probe_s)
        self.raw.append(raw_s)

    def factors(self) -> list[float]:
        p = self.probes
        return [
            PROBE_REFERENCE_S / statistics.median(p[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(len(p))
        ]

    def times(self) -> list[float]:
        return [r * f for r, f in zip(self.raw, self.factors())]
