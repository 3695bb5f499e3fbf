"""Versioned measurement semantics: where the warm-up window cuts.

Section 5's methodology -- "a warmup trace was run before the
measurement trace to avoid biasing the results" -- is implemented as a
stats reset partway through a replay.  Exactly *where* that reset
lands used to be decided independently by four layers
(``simulate_itlb``, ``simulate_icache``, the sweep runner's window
split, and the figure experiments), and the original single-pass code
carried a family of quirks that every layer had to mirror
reference-for-reference to keep the figures byte-identical:

* **raw-index cut** -- the warm-up cut is computed over raw event
  indices, not over the references the cache actually sees, so for a
  filtered ITLB stream the warmed fraction is not ``warmup_fraction``
  of the ITLB's accesses;
* **skipped ITLB reset** -- ``simulate_itlb`` checks the cut *after*
  the dispatched filter, so a cut landing on a filtered-out event
  means the reset never fires and "warmed" numbers silently include
  every cold miss;
* **asymmetric end of trace** -- a cut at/past the end zeroes
  everything for the ITLB but never fires for the icache, so a
  whole-trace warm-up measures nothing on one cache and everything on
  the other.

This module is the single audited home for that window logic, keyed
by a **semantics version**:

* ``"paper"`` (the default) preserves each quirk bit-for-bit -- it is
  what the 27 reproduced claims are pinned against;
* ``"v2"`` fixes the family: the cut is computed over the reference
  stream the cache observes, the reset always fires, and a cut
  at/past the last reference measures nothing on *both* caches.

Every consumer (``repro.trace.cachesim``, ``repro.sweep``, the
figure experiments, the ``repro sweep`` CLI) imports
:func:`reset_index` instead of re-deriving the window, so the two
behaviours cannot drift apart layer by layer.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.trace.columnar import Trace

#: Known measurement-semantics versions, in historical order.
SEMANTICS: Tuple[str, ...] = ("paper", "v2")

#: What you get when you don't ask: the paper's exact behaviour.
DEFAULT_SEMANTICS = "paper"

#: The quirk family, for docs and CLI help: id -> (paper behaviour,
#: v2 fix).  Purely descriptive; the executable truth is reset_index.
QUIRKS = {
    "raw-index-cut": (
        "warm-up cut computed over raw event indices",
        "cut computed over the references the cache observes",
    ),
    "skipped-itlb-reset": (
        "a cut landing on a non-dispatched event never resets",
        "the warm-up reset always fires",
    ),
    "asymmetric-end-of-trace": (
        "whole-trace warm-up zeroes the ITLB but measures the "
        "whole trace on the icache",
        "a cut at/past the last reference measures nothing on "
        "either cache",
    ),
}


def validate_semantics(semantics: str) -> str:
    """Check a semantics name, returning it for chaining."""
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown measurement semantics {semantics!r}; "
                         f"expected one of {SEMANTICS}")
    return semantics


def validate_warmup_fraction(fraction: float) -> float:
    """Reject warm-up fractions outside ``[0, 1)``.

    A fraction of 1.0 or more would place the cut at or past the end
    of the trace -- a window that measures nothing (or, under the
    paper quirk, everything).  The spec and CLI layers reject it up
    front instead of silently producing an out-of-range cut index;
    the ``simulate_*`` functions stay permissive so the pinned
    characterization tests can still exercise the edge behaviours.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(
            f"warmup_fraction must be in [0, 1), got {fraction!r}")
    return fraction


def warmup_cut(semantics: str, n: int, warmup_fraction: float) -> int:
    """The raw warm-up cut index over a stream of ``n`` items.

    The single audited home of the cut *arithmetic*:
    ``int(n * warmup_fraction)``, identical under every known
    semantics version -- the versions differ in **which** stream the
    cut is taken over (raw events vs observed references) and in how
    the reset fires, which is :func:`reset_index`'s business, not in
    the arithmetic itself.  :func:`reset_index` routes through here
    so a second cut implementation cannot creep back in.
    """
    validate_semantics(semantics)
    return int(n * warmup_fraction)


def reset_index(
    semantics: str,
    cache: str,
    trace: Trace,
    n_refs: int,
    *,
    warmup_fraction: float,
    dispatched_only: bool = True,
) -> Optional[int]:
    """Where in the *reference* stream the warm-up stats reset lands.

    ``trace`` is the raw trace; ``n_refs`` the length of the
    reference stream the cache observes (the dispatched subset for a
    filtered ITLB, every event otherwise).  The return value is an
    index into that reference stream: ``0 <= i < n_refs`` resets just
    before reference ``i``; ``n_refs`` means "reset after the last
    reference" (everything measured away); ``None`` means the reset
    never fires (everything measured, warm-up included).

    Under ``"paper"`` this reproduces the historical loops
    bit-for-bit, quirks included (see the module docstring).  Under
    ``"v2"`` the cut is ``int(n_refs * warmup_fraction)`` for both
    caches and always takes effect.
    """
    if semantics == "v2":
        cut = warmup_cut(semantics, n_refs, warmup_fraction)
        return min(max(cut, 0), n_refs)
    n = len(trace)
    cut = warmup_cut(semantics, n, warmup_fraction)
    if cut < 0:
        # A negative cut never matched a loop index in the historical
        # simulate_* loops: the reset never fires.
        return None
    if cache == "icache":
        # simulate_icache resets iff the loop reaches index == cut;
        # there is no end-of-trace reset.
        return cut if cut < n else None
    if cut >= n:
        return n_refs  # simulate_itlb's trailing reset
    if not dispatched_only:
        return cut
    if not trace.dispatched_flag(cut):
        return None    # the cut event is filtered out: never resets
    return trace.dispatched_count(cut)
