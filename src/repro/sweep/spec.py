"""Declarative sweep descriptions: what to simulate, not how.

A :class:`SweepSpec` names one cache kind (ITLB or instruction cache)
and the grid to sweep over it -- sizes, associativities (integers
and/or ``"full"``), line size, replacement policy, and the section-5
warm-up methodology (``double_pass`` or a ``warmup_fraction``).  The
paper's figures are one ITLB spec and one icache spec over the same
trace.

Specs carry no events and run nothing themselves; the runner
(:mod:`repro.sweep.runner`) decides per spec whether the single-pass
stack-distance engine applies (LRU with power-of-two set counts) or
whether to run the per-configuration grid simulation, the reference
oracle, which serves any policy and geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple, Union

from repro.caches.setassoc import REPLACEMENT_POLICIES

#: The paper's sweep: sizes 8..4096 (log2 = 3..12) -- re-exported from
#: the cache simulator so the two modules cannot drift apart.
from repro.trace.cachesim import PAPER_ASSOCIATIVITIES, PAPER_SIZES
from repro.trace.semantics import (
    DEFAULT_SEMANTICS,
    validate_semantics,
    validate_warmup_fraction,
)

CACHE_KINDS = ("itlb", "icache")

ENGINES = ("auto", "grid")

#: Default display labels, matching the labels the figure tables have
#: always used (pinned by the figure-output parity tests).
_LABELS = {"itlb": "ITLB", "icache": "instruction cache"}

Assoc = Union[int, str]


@dataclass(frozen=True)
class SweepSpec:
    """One cache's size x associativity sweep, declaratively.

    ``associativities`` may mix integers with ``"full"``; every
    ``(size, assoc)`` pair must describe a cache the set-associative
    model could build (the same divisibility rules
    :class:`~repro.caches.setassoc.SetAssociativeCache` enforces).
    ``engine`` selects execution: ``"auto"`` uses the single-pass
    stack-distance engine (numpy) whenever the spec is eligible (LRU,
    power-of-two set counts) and the grid otherwise; ``"grid"`` forces
    one simulation per configuration.  ``semantics`` selects the
    measurement-semantics version (:mod:`repro.trace.semantics`):
    ``"paper"`` keeps the historical warm-up quirks bit-for-bit,
    ``"v2"`` fixes them.
    """

    cache: str
    sizes: Tuple[int, ...] = PAPER_SIZES
    associativities: Tuple[Assoc, ...] = PAPER_ASSOCIATIVITIES
    line_words: int = 1
    policy: str = "lru"
    warmup_fraction: float = 0.25
    double_pass: bool = False
    dispatched_only: bool = True
    include_full: bool = False
    include_opt: bool = False
    engine: str = "auto"
    semantics: str = DEFAULT_SEMANTICS
    label: str = ""

    def __post_init__(self) -> None:
        if self.cache not in CACHE_KINDS:
            raise ValueError(f"unknown cache kind {self.cache!r}; "
                             f"expected one of {CACHE_KINDS}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"expected one of {ENGINES}")
        if self.policy not in REPLACEMENT_POLICIES:
            raise ValueError(f"unknown replacement policy {self.policy!r}")
        validate_semantics(self.semantics)
        if not self.sizes:
            raise ValueError("a sweep needs at least one size")
        if not self.associativities:
            raise ValueError("a sweep needs at least one associativity")
        if self.line_words <= 0 or self.line_words & (self.line_words - 1):
            raise ValueError("line_words must be a power of two")
        if self.cache == "itlb" and self.line_words != 1:
            raise ValueError("line_words applies to the icache only")
        validate_warmup_fraction(self.warmup_fraction)
        for size in self.sizes:
            if not isinstance(size, int) or size <= 0:
                raise ValueError(f"bad sweep size {size!r}")
            if size % self.line_words:
                raise ValueError(
                    f"size {size} is not a multiple of line_words "
                    f"{self.line_words}")
        for assoc in self.associativities:
            if assoc == "full":
                continue
            if not isinstance(assoc, int) or assoc <= 0:
                raise ValueError(f"bad associativity {assoc!r}")
            for size in self.sizes:
                if (size // self.line_words) % assoc:
                    raise ValueError(
                        f"size {size} (line_words {self.line_words}) "
                        f"is not a multiple of associativity {assoc}")

    # -- derived geometry -------------------------------------------------

    @property
    def display_label(self) -> str:
        return self.label or _LABELS[self.cache]

    def entries(self, size: int) -> int:
        """Capacity in cache entries (blocks) for a swept size."""
        return size // self.line_words

    def num_sets(self, size: int, assoc: int) -> int:
        """Set count of one configuration (line size folded in)."""
        return self.entries(size) // assoc

    def lru_configs(self) -> Iterator[Tuple[int, int]]:
        """Every (size, integer associativity) pair of the grid."""
        for assoc in self.associativities:
            if assoc == "full":
                continue
            for size in self.sizes:
                yield size, assoc

    def wants_full_curve(self) -> bool:
        return self.include_full or "full" in self.associativities

    # -- engine eligibility -----------------------------------------------

    def single_pass_eligible(self) -> bool:
        """Whether the stack-distance engine reproduces this spec.

        The engine models LRU stacks over nested power-of-two set
        partitions; FIFO/random replacement does not satisfy the
        inclusion property and non-power-of-two set counts do not
        nest, so both fall back to the per-configuration grid.
        """
        if self.policy != "lru":
            return False
        for size, assoc in self.lru_configs():
            sets = self.num_sets(size, assoc)
            if sets <= 0 or sets & (sets - 1):
                return False
        return True
