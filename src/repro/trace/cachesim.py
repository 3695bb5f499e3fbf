"""Trace-driven cache simulation (the section-5 methodology).

"The experiments were run on the Fith Machine simulator, a suite of C
programs including a Fith interpreter and a cache simulator which
processed address traces to produce cache statistics. [...] For each
trace, the instruction cache hit ratio and ITLB hit ratio was recorded
for several cache sizes and associativities.  A warmup trace was run
before the measurement trace to avoid biasing the results."

This module is that cache simulator: it replays columnar
:class:`~repro.trace.columnar.Trace` streams against ITLB and
instruction-cache models, one configuration per call, with a warm-up
prefix excluded from the recorded statistics.  These per-configuration
replays are the grid oracle every faster sweep engine
(:mod:`repro.sweep`) is checked against; figures 10 and 11 come from
:func:`repro.sweep.run_sweep`, whose result surfaces
:func:`ascii_plot` draws.
"""

from __future__ import annotations

from typing import Union

from repro.caches.icache import InstructionCache
from repro.caches.itlb import ITLB
from repro.caches.stats import CacheStats
from repro.trace.columnar import Trace
from repro.trace.semantics import DEFAULT_SEMANTICS, reset_index

#: The paper's sweep: sizes 8..4096 (log2 = 3..12).
PAPER_SIZES = tuple(1 << k for k in range(3, 13))
#: Associativities plotted in figures 10/11.
PAPER_ASSOCIATIVITIES = (1, 2, 4)


def simulate_itlb(
    trace: Trace,
    size: int,
    associativity: Union[int, str] = 2,
    *,
    policy: str = "lru",
    warmup_fraction: float = 0.25,
    double_pass: bool = False,
    dispatched_only: bool = True,
    semantics: str = DEFAULT_SEMANTICS,
) -> CacheStats:
    """Replay a trace against one ITLB configuration.

    ``dispatched_only`` restricts the stream to abstract (translated)
    instructions, which is what the ITLB actually sees; pass False to
    model a machine that translates every instruction.

    ``double_pass`` implements the paper's warm-up methodology exactly:
    "a warmup trace was run before the measurement trace" -- the whole
    trace is replayed once unmeasured, then measured on a second pass,
    so the recorded ratios contain no compulsory misses.  Otherwise the
    first ``warmup_fraction`` of the single pass is excluded, with the
    cut placed by :func:`repro.trace.semantics.reset_index` under the
    chosen ``semantics`` version (``"paper"`` reproduces the
    historical quirks bit-for-bit; ``"v2"`` fixes them).

    The replay iterates the packed opcode/class columns of the trace;
    no per-event objects are built.
    """
    itlb = ITLB(size, associativity, policy)
    opcodes = trace.opcodes()
    classes = trace.receiver_classes()
    indices = (trace.dispatched_indices() if dispatched_only
               else range(len(trace)))
    reference = itlb.reference
    if double_pass:
        for i in indices:
            reference(opcodes[i], (classes[i],))
        itlb.reset_stats()
        for i in indices:
            reference(opcodes[i], (classes[i],))
        return itlb.stats.snapshot()
    n_refs = len(indices)
    reset_at = reset_index(semantics, "itlb", trace, n_refs,
                           warmup_fraction=warmup_fraction,
                           dispatched_only=dispatched_only)
    position = 0
    for i in indices:
        if position == reset_at:
            itlb.reset_stats()
        reference(opcodes[i], (classes[i],))
        position += 1
    if reset_at is not None and reset_at >= n_refs:
        itlb.reset_stats()
    return itlb.stats.snapshot()


def simulate_icache(
    trace: Trace,
    size: int,
    associativity: Union[int, str] = 2,
    *,
    line_words: int = 1,
    policy: str = "lru",
    warmup_fraction: float = 0.25,
    double_pass: bool = False,
    semantics: str = DEFAULT_SEMANTICS,
) -> CacheStats:
    """Replay the instruction-address stream against one icache config.

    See :func:`simulate_itlb` for the warm-up semantics.
    """
    icache = InstructionCache(size, associativity, line_words, policy)
    addresses = trace.addresses()
    reference = icache.reference
    if double_pass:
        for address in addresses:
            reference(address)
        icache.reset_stats()
        for address in addresses:
            reference(address)
        return icache.stats.snapshot()
    reset_at = reset_index(semantics, "icache", trace, len(trace),
                           warmup_fraction=warmup_fraction)
    for index, address in enumerate(addresses):
        if index == reset_at:
            icache.reset_stats()
        reference(address)
    if reset_at is not None and reset_at >= len(trace):
        icache.reset_stats()
    return icache.stats.snapshot()


def _marker(associativity: Union[int, str]) -> str:
    """A curve's plot marker: the way count for 1..9 ways, ``*`` for
    wider sets, ``f`` for the fully-associative column."""
    if associativity == "full":
        return "f"
    return str(associativity) if associativity <= 9 else "*"


def ascii_plot(surface, width: int = 60, height: int = 16) -> str:
    """A rough ASCII rendition of a
    :class:`~repro.sweep.surface.ResultSurface` (hit ratio vs log2
    size), one curve per LRU column."""
    sizes = list(surface.sizes)
    rows = [[" "] * width for _ in range(height)]
    for associativity in surface.associativities:
        marker = _marker(associativity)
        for i, size in enumerate(sizes):
            x = int(i * (width - 1) / max(len(sizes) - 1, 1))
            ratio = surface.ratio(associativity, size)
            y = height - 1 - int(ratio * (height - 1))
            rows[y][x] = marker
    lines = [f"{surface.label}: hit ratio (y: 0..1) vs log2 size "
             f"({sizes[0].bit_length() - 1}..{sizes[-1].bit_length() - 1})"]
    lines.append("legend: " + ", ".join(
        f"{_marker(a)} = {'full' if a == 'full' else f'{a}-way'}"
        for a in surface.associativities))
    lines.extend("|" + "".join(row) for row in rows)
    lines.append("+" + "-" * width)
    return "\n".join(lines)
