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
:func:`repro.sweep.run_sweep`, whose surfaces convert to the
:class:`SweepResult` grids rendered here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Union

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


@dataclass
class SweepResult:
    """Hit ratios over a size x associativity grid.

    ``ratios[assoc][size]`` is the measured hit ratio.  ``label`` names
    the cache being swept ("ITLB" or "instruction cache").  ``meta``
    records how the grid was computed (engine, simulation pass count)
    when it came out of the sweep subsystem.
    """

    label: str
    sizes: Sequence[int]
    associativities: Sequence[Union[int, str]]
    ratios: Dict[Union[int, str], Dict[int, float]] = field(
        default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def ratio(self, associativity, size) -> float:
        return self.ratios[associativity][size]

    def smallest_size_reaching(self, target: float,
                               associativity) -> Optional[int]:
        """Smallest swept size whose hit ratio meets ``target``."""
        for size in self.sizes:
            if self.ratios[associativity][size] >= target:
                return size
        return None

    def table(self) -> str:
        """A figure-style text table: rows = log2 size, cols = assoc."""
        header = "log2(size)  size " + "".join(
            f"{str(a) + '-way':>10}" for a in self.associativities)
        lines = [f"{self.label} hit ratio vs cache size", header,
                 "-" * len(header)]
        for size in self.sizes:
            row = f"{size.bit_length() - 1:10d} {size:5d}"
            for associativity in self.associativities:
                row += f"{self.ratios[associativity][size]:10.4f}"
            lines.append(row)
        return "\n".join(lines)


def ascii_plot(result: SweepResult, width: int = 60,
               height: int = 16) -> str:
    """A rough ASCII rendition of the figure (hit ratio vs log2 size)."""
    sizes = list(result.sizes)
    rows = [[" "] * width for _ in range(height)]
    markers = {}
    for index, associativity in enumerate(result.associativities):
        markers[associativity] = "1248f"[index] if index < 5 else "*"
    for associativity in result.associativities:
        for i, size in enumerate(sizes):
            x = int(i * (width - 1) / max(len(sizes) - 1, 1))
            ratio = result.ratios[associativity][size]
            y = height - 1 - int(ratio * (height - 1))
            rows[y][x] = markers[associativity]
    lines = [f"{result.label}: hit ratio (y: 0..1) vs log2 size "
             f"({sizes[0].bit_length() - 1}..{sizes[-1].bit_length() - 1})"]
    lines.append("legend: " + ", ".join(
        f"{markers[a]} = {a}-way" for a in result.associativities))
    lines.extend("|" + "".join(row) for row in rows)
    lines.append("+" + "-" * width)
    return "\n".join(lines)
