"""Columnar traces and the trace-driven cache simulator of section 5."""

from repro.trace.cachesim import (
    PAPER_ASSOCIATIVITIES,
    PAPER_SIZES,
    ascii_plot,
    simulate_icache,
    simulate_itlb,
)
from repro.trace.columnar import Trace, TraceBuilder
from repro.trace.semantics import (
    DEFAULT_SEMANTICS,
    SEMANTICS,
    reset_index,
    validate_semantics,
    validate_warmup_fraction,
    warmup_cut,
)
from repro.trace.workloads import interleaved_trace, monomorphic_trace, paper_trace

__all__ = [
    "DEFAULT_SEMANTICS", "PAPER_ASSOCIATIVITIES", "PAPER_SIZES",
    "SEMANTICS", "Trace", "TraceBuilder", "ascii_plot",
    "interleaved_trace", "monomorphic_trace", "paper_trace",
    "reset_index", "simulate_icache", "simulate_itlb",
    "validate_semantics", "validate_warmup_fraction", "warmup_cut",
]
