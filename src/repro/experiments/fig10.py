"""FIG-10: ITLB hit ratio vs cache size (paper figure 10).

Claims reproduced:

* "a 99% hit ratio can be realized with a 512 entry 2-way associative
  cache";
* "a great deal can be gained by having at least a 2-way associative
  cache" (2-way clearly beats direct mapping at mid sizes);
* "it is not clear that adding more associativity improves the hit
  ratio much" (4-way's gain over 2-way is marginal);
* direct-mapped results "agree within a few percent" with published
  software method-cache data (high-90s hit ratios at a few hundred
  entries).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import ExperimentSpec, register
from repro.sweep import SweepSpec, run_sweep
from repro.trace.cachesim import (
    PAPER_ASSOCIATIVITIES,
    PAPER_SIZES,
    ascii_plot,
)
from repro.trace.columnar import Trace


def figure_spec(sizes: Sequence[int] = PAPER_SIZES,
                associativities: Sequence = PAPER_ASSOCIATIVITIES,
                semantics: str = "paper") -> SweepSpec:
    """The exact sweep FIG-10 replays: the ITLB grid under the
    paper's double warm-up methodology."""
    return SweepSpec(cache="itlb", sizes=tuple(sizes),
                     associativities=tuple(associativities),
                     double_pass=True, semantics=semantics)


def run(events: Trace,
        sizes: Sequence[int] = PAPER_SIZES,
        associativities: Sequence = PAPER_ASSOCIATIVITIES,
        plot: bool = True,
        semantics: str = "paper") -> ExperimentResult:
    """Regenerate figure 10 and check its claims.

    The grid comes from the single-pass stack-distance engine
    (:mod:`repro.sweep`): one warm replay plus one measured replay of
    the trace produce every (size, associativity) point at once, and
    the claims read that :class:`~repro.sweep.surface.ResultSurface`
    (kept as ``data["sweep"]``).  ``semantics`` picks the
    measurement-semantics version for the figure grid (the paper pin
    needs the default).
    """
    surface = run_sweep(figure_spec(sizes, associativities, semantics),
                        events)
    result = ExperimentResult(
        "FIG-10 ITLB hit ratio vs cache size",
        "Fith corpus + polymorphic workload traces replayed against the "
        "ITLB with the paper's double warm-up methodology.",
    )
    result.table = surface.table()
    if plot:
        result.table += "\n\n" + ascii_plot(surface)
    result.data = {
        "sweep": surface,
        "trace_length": len(events),
        "dispatched": events.dispatched_count(),
        "engine": surface.meta.get("engine"),
        "trace_passes": surface.meta.get("trace_passes"),
        "semantics": surface.meta.get("semantics", semantics),
    }

    ratio_512_2w = surface.ratio(2, 512)
    result.check(
        "99% hit ratio at a 512-entry 2-way ITLB",
        ">= 0.99",
        f"{ratio_512_2w:.4f}",
        ratio_512_2w >= 0.99,
    )
    mid_sizes = [s for s in sizes if 16 <= s <= 256]
    gain_2way = sum(surface.ratio(2, s) - surface.ratio(1, s)
                    for s in mid_sizes) / len(mid_sizes)
    result.check(
        "2-way associativity gains a great deal over direct mapping "
        "(mean gain over 16..256 entries)",
        "clearly positive",
        f"+{gain_2way:.4f} mean hit-ratio gain",
        gain_2way > 0.01,
    )
    gain_4way = sum(surface.ratio(4, s) - surface.ratio(2, s)
                    for s in mid_sizes) / len(mid_sizes)
    result.check(
        "more associativity beyond 2-way helps much less",
        "marginal",
        f"+{gain_4way:.4f} mean gain (vs +{gain_2way:.4f} for 2-way)",
        gain_4way < gain_2way,
    )
    dm_512 = surface.ratio(1, 512)
    result.check(
        "direct-mapped ITLB at a few hundred entries is within a few "
        "percent of the 2-way result (matches published software-cache "
        "data)",
        "within a few percent of 2-way",
        f"1-way@512 = {dm_512:.4f} vs 2-way@512 = {ratio_512_2w:.4f}",
        abs(ratio_512_2w - dm_512) < 0.05,
    )
    result.data["ratio_512_2w"] = ratio_512_2w
    return result


# -- registry wiring ---------------------------------------------------

def _run(ctx) -> ExperimentResult:
    return run(ctx.events("paper"))


register(ExperimentSpec(
    id="FIG-10",
    figure="figure 10",
    order=10,
    title="ITLB hit ratio vs cache size",
    description="ITLB size/associativity sweep over the section-5 "
                "measurement trace (single-pass stack-distance engine)",
    runner=_run,
    workloads=("paper",),
))
