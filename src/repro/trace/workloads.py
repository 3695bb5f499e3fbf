"""Standard trace workloads used by the experiments and benchmarks.

The figure-10/11 measurement trace combines the whole Fith corpus with
a synthetic polymorphic program, interleaved at the program level, so
the key and address working sets resemble a "large Fith program" of
the paper's scale (>= 20,000 instructions at scale 1).

These are the raw *generators*.  Consumers should go through the
scenario registry and its on-disk cache instead
(:mod:`repro.workloads`): ``TraceStore(root).load("paper")`` returns
the same events as :func:`paper_trace` but only pays the Fith
execution once per machine.  The registered specs' defaults mirror
the calibrated keyword defaults below; changing either means bumping
the workload's generator version so cached traces invalidate.
"""

from __future__ import annotations

from array import array

from repro.fith.programs import (
    CORPUS,
    combined_trace,
    polymorphic_workload,
    trace_for,
)
from repro.trace.columnar import _INT, Trace, TraceBuilder


def paper_trace(scale: int = 1, *, classes: int = 20, selectors: int = 32,
                rounds: int = 450, phase_length: int = 700,
                stray_percent: int = 2,
                hot_selectors: int = 10) -> Trace:
    """The standard measurement trace: corpus + polymorphic workload.

    At scale 1 this yields well over the paper's 20,000 instructions
    (about 220k events over ~320 distinct ITLB keys and ~4.3k distinct
    instruction addresses).  The defaults are calibrated so both
    figures' operating points match the paper under the double-pass
    warm-up: a 512-entry 2-way ITLB exceeds a 99% hit ratio (figure
    10), and the instruction cache needs 4096 entries *and* 2/4-way
    associativity to reach 99% (figure 11).  The polymorphic section's
    code is laid out past the corpus's code region.
    """
    corpus = combined_trace(scale)
    top = max(corpus.addresses()) if len(corpus) else 0
    polymorphic = trace_for(
        polymorphic_workload(classes=classes, selectors=selectors,
                             rounds=rounds * scale,
                             phase_length=phase_length,
                             stray_percent=stray_percent,
                             hot_selectors=hot_selectors),
        max_steps=50_000_000, code_base=top + 64)
    builder = TraceBuilder()
    builder.extend(corpus)
    builder.extend(polymorphic)
    return builder.snapshot()


def interleaved_trace(scale: int = 1, chunk: int = 2000) -> Trace:
    """Corpus programs round-robin interleaved in ``chunk``-event slices.

    Models multiprogramming: the instruction cache and ITLB see
    alternating working sets (a harder workload than one long program).
    Program ``k``'s code is laid out from address ``k << 16``, and each
    slice is a zero-copy view of its program's trace appended with
    column extends -- no intermediate event objects.
    """
    parts = [trace_for(name, scale, code_base=index << 16)
             for index, name in enumerate(sorted(CORPUS))]
    builder = TraceBuilder()
    cursors = [0] * len(parts)
    remaining = sum(len(part) for part in parts)
    while remaining:
        for index, part in enumerate(parts):
            start = cursors[index]
            if start >= len(part):
                continue
            stop = min(start + chunk, len(part))
            builder.extend(part[start:stop])
            remaining -= stop - start
            cursors[index] = stop
    return builder.snapshot()


def monomorphic_trace(length: int = 20_000) -> Trace:
    """A degenerate single-key trace (control for cache experiments).

    Event i dispatches opcode 1 on receiver class 1 at address
    ``i % 64``.  The columns are built in bulk, as array repeats and an
    all-ones bitset: the payload is byte-identical to recording the
    events one by one.
    """
    cycles, rest = divmod(length, 64)
    addresses = array(_INT, range(64)) * cycles
    addresses.extend(range(rest))
    bits = bytearray(b"\xff" * (length >> 3))
    if length & 7:
        bits.append((1 << (length & 7)) - 1)
    return Trace(addresses, array(_INT, [1]) * length,
                 array(_INT, [1]) * length, bits)
