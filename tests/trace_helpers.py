"""Small columnar traces for tests.

Every trace here is recorded the way the interpreters record theirs,
through :meth:`repro.trace.columnar.TraceBuilder.record`.
"""

import random

from repro.trace.columnar import Trace, TraceBuilder


def trace_of(rows) -> Trace:
    """The trace of ``(address, opcode, receiver_class[, dispatched])``
    rows, recorded in order (``dispatched`` defaults to True)."""
    builder = TraceBuilder()
    for row in rows:
        builder.record(*row)
    return builder.snapshot()


def mixed_trace(n: int, seed: int) -> Trace:
    """Phased locality + random stragglers + a non-dispatched mix."""
    rnd = random.Random(seed)
    builder = TraceBuilder()
    for i in range(n):
        if rnd.random() < 0.3:
            address = rnd.randrange(600)
        else:
            address = (i * 7) % 97 + (i // 500) * 64
        builder.record(address, rnd.randrange(60), rnd.randrange(5),
                       rnd.random() < 0.7)
    return builder.snapshot()
