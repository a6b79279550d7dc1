"""Host-speed calibration for the stage timings.

On a shared host the speed a process gets drifts: by up to ~1.7x for tens
of seconds as neighbours load the cores, and in bursts of about half a
second.  Raw wall times of the same work therefore differ more between runs
than the bounds allow.  Each timed stage is bracketed by a fixed reference
loop (interpreter work plus small numpy products, the program's own mix),
and the stage's wall time is reported in reference seconds: wall *
REFERENCE_S / reference time measured around it.  The reference time is the
fastest of a few rounds, so that a short burst does not skew it while a long
slow phase still shows.  On a host where the reference takes REFERENCE_S, a
reference second is a wall second.  The raw wall times are printed alongside.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.035  # nominal duration of one reference() call
_ROUNDS = 5


def _loop() -> float:
    a = np.full((32, 32), 0.5)
    d: dict[int, int] = {}
    t0 = time.perf_counter()
    for i in range(6000):
        d[i % 97] = d.get(i % 97, 0) + sum(range(i % 40))
        a = np.tanh(a @ a * 0.01)
    return time.perf_counter() - t0


def reference() -> float:
    """Fastest wall time of a few rounds of the reference loop."""
    return min(_loop() for _ in range(_ROUNDS))


def scaled(wall_s: float, before: float, after: float) -> float:
    """A stage's wall time in reference seconds, from the reference times
    measured just before and just after it."""
    return wall_s * REFERENCE_S / ((before + after) / 2.0)

