"""FIG-11: instruction cache hit ratio vs cache size (paper figure 11).

Claim reproduced: "it appears that a 2 or 4-way associative cache with
4096 entries is required to achieve a 99% hit ratio" -- i.e. the
instruction cache needs both the largest swept size *and* associativity
above direct mapping, a much larger structure than the ITLB needs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import (
    ExperimentResult,
    semantics_delta_section,
)
from repro.experiments.registry import ExperimentSpec, register
from repro.sweep import SweepSpec, run_sweep
from repro.trace.cachesim import (
    PAPER_ASSOCIATIVITIES,
    PAPER_SIZES,
    ascii_plot,
)
from repro.trace.columnar import Trace
from repro.trace.workloads import paper_trace


def figure_spec(sizes: Sequence[int] = PAPER_SIZES,
                associativities: Sequence = PAPER_ASSOCIATIVITIES,
                semantics: str = "paper") -> SweepSpec:
    """The exact sweep FIG-11 replays: the instruction-cache twin of
    :func:`repro.experiments.fig10.figure_spec`."""
    return SweepSpec(cache="icache", sizes=tuple(sizes),
                     associativities=tuple(associativities),
                     double_pass=True, semantics=semantics)


def run(scale: int = 1, events: Optional[Trace] = None,
        sizes: Sequence[int] = PAPER_SIZES,
        associativities: Sequence = PAPER_ASSOCIATIVITIES,
        plot: bool = True,
        semantics: str = "paper",
        compare_semantics: bool = False) -> ExperimentResult:
    """Regenerate figure 11 and check its claims.

    The grid comes from the single-pass stack-distance engine (see
    :mod:`.fig10`) as a :class:`~repro.sweep.surface.ResultSurface`,
    kept as ``data["sweep"]``.  ``semantics`` and
    ``compare_semantics`` behave as in :func:`repro.experiments.fig10.run`.
    """
    if events is None:
        events = paper_trace(scale)
    surface = run_sweep(figure_spec(sizes, associativities, semantics),
                        events)
    result = ExperimentResult(
        "FIG-11 instruction cache hit ratio vs cache size",
        "The same traces' instruction-address stream replayed against "
        "the instruction cache (modulo-indexed, as hardware indexes).",
    )
    result.table = surface.table()
    if plot:
        result.table += "\n\n" + ascii_plot(surface)
    result.data = {
        "sweep": surface,
        "trace_length": len(events),
        "distinct_addresses": events.unique_address_count(),
        "engine": surface.meta.get("engine"),
        "trace_passes": surface.meta.get("trace_passes"),
        "semantics": surface.meta.get("semantics", semantics),
    }
    if compare_semantics:
        delta_table, delta = semantics_delta_section(
            "icache", sizes, associativities, events)
        result.table += "\n\n" + delta_table
        result.data["semantics_delta"] = delta

    r_4096_2w = surface.ratio(2, 4096)
    r_4096_4w = surface.ratio(4, 4096)
    r_4096_1w = surface.ratio(1, 4096)
    r_2048_2w = surface.ratio(2, 2048)
    result.check(
        "99% needs a 4096-entry cache with 2- or 4-way associativity",
        ">= 0.99 at 4096 entries, 2/4-way",
        f"2-way@4096 = {r_4096_2w:.4f}, 4-way@4096 = {r_4096_4w:.4f}",
        max(r_4096_2w, r_4096_4w) >= 0.99,
    )
    result.check(
        "direct mapping is not enough even at 4096 entries",
        "< 0.99 at 4096 entries 1-way",
        f"1-way@4096 = {r_4096_1w:.4f}",
        r_4096_1w < 0.99,
    )
    result.check(
        "half the size (2048 entries) is not enough either",
        "< 0.99 at 2048 entries 2-way",
        f"2-way@2048 = {r_2048_2w:.4f}",
        r_2048_2w < 0.99,
    )
    result.check(
        "the instruction cache must be much larger than the ITLB for "
        "the same hit ratio",
        "4096 entries vs 512 entries",
        f"icache 99% point: {surface.smallest_size_reaching(0.99, 2)}; "
        f"(ITLB reaches 99% well below 512 -- see FIG-10)",
        (surface.smallest_size_reaching(0.99, 2) or 1 << 30) >= 2048,
    )
    result.data.update({
        "ratio_4096_2w": r_4096_2w,
        "ratio_4096_1w": r_4096_1w,
        "ratio_2048_2w": r_2048_2w,
    })
    return result


# -- registry wiring ---------------------------------------------------

def _run(ctx) -> ExperimentResult:
    return run(ctx.scale, events=ctx.events("paper"))


register(ExperimentSpec(
    id="FIG-11",
    figure="figure 11",
    order=20,
    title="instruction cache hit ratio vs cache size",
    description="instruction-cache size/associativity sweep over the "
                "section-5 measurement trace (single-pass "
                "stack-distance engine)",
    runner=_run,
    workloads=("paper",),
))


if __name__ == "__main__":  # pragma: no cover
    print(run().report())
