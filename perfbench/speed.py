"""Machine-speed reference: a fixed pure-Python task timed between calls.

The shared VM the benchmark was defined on changes speed in phases of
seconds to minutes (by up to about 3.7x), and every time a run measures
moves with the phase it ran in.  The run therefore times a fixed task of
its own -- building small dicts and tuples, sorting and grouping them,
which is the kind of work the program does -- between the workload's
calls, and divides every time it reports by

    speed factor = (median task time / REFERENCE_SECONDS) ** SPEED_EXPONENT

so the reported times are those of a machine on which the task takes
``REFERENCE_SECONDS``.  The task never touches the program, so a change
to the program moves the scaled times exactly as much as the raw ones.
Garbage collection is off while it runs and everything it allocates is
freed by reference counting before it returns, so the size of the
program's heap does not change how long it takes.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

#: elapsed seconds of one reference task on the scale the reported
#: times are expressed in (about its median on the reference VM)
REFERENCE_SECONDS = 0.004
#: how the program's times follow the task's on the reference VM: when
#: the machine's phase made the task 3x faster, the workloads' times
#: got about 3 ** 0.8 = 2.4x faster (the task gains more from a fast
#: phase than the program does)
SPEED_EXPONENT = 0.8

_rng = random.Random("perfbench-speed-reference")
_ITEMS = [(_rng.randrange(1000), f"s{_rng.randrange(10**6)}") for _ in range(3000)]


def _task() -> int:
    records = [{"a": a, "b": b, "c": (a, b)} for a, b in _ITEMS]
    records.sort(key=lambda record: record["c"])
    groups: dict[int, list[str]] = {}
    for record in records:
        groups.setdefault(record["a"] % 97, []).append(record["b"])
    return sum(len(members) * key for key, members in groups.items())


#: what the task computes; a run whose task computes anything else stops
_EXPECTED = _task()


class SpeedProbe:
    """Reference-task timings of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the reference task once."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            result = _task()
            self.samples.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        if result != _EXPECTED:
            raise SystemExit("perfbench: the speed reference task computed a wrong result")



def speed_factor(samples: list[float]) -> float:
    """How much slower than the scale the program ran while ``samples``
    of the reference task were taken."""
    return (statistics.median(samples) / REFERENCE_SECONDS) ** SPEED_EXPONENT
