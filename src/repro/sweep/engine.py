"""Single-pass multi-configuration cache simulation (stack distances).

The classic observation (Mattson et al. 1970, generalized to
set-associative caches by Hill & Smith) is that LRU is a *stack
algorithm*: at any moment the contents of an A-way LRU set are exactly
the A most-recently-used blocks mapping to that set, for every A at
once.  A reference therefore hits in an (S sets, A ways) cache iff
fewer than A *distinct* conflicting blocks (same set under S) were
touched since the previous reference to the same block.  Replaying the
trace once while recording those per-set stack depths yields the hit
count of every configuration simultaneously -- one trace pass instead
of one per (size, associativity) point.

Two structures implement that here:

* :class:`MultiConfigLRU` -- one *level* per swept power-of-two set
  count.  A level keeps, per set, a bounded most-recent-first list of
  blocks: depths only matter up to the deepest swept associativity
  (4 on the paper grid), so each list is truncated there and a
  reference that falls off the end is simply "missed at every swept
  way count".  Set membership under S = 2^k sets is a pure function
  of the block's placement value (the stable hash for the ITLB's
  hashed directory, the block address for the icache's modulo
  indexing), so the same replay serves every level.  An optional
  unbounded-depth level (one set) yields the fully-associative
  reference curve and any one-set configurations.  Its one update is
  :meth:`MultiConfigLRU.replay_columns`, over a range of parallel
  block and placement columns.

* :class:`OptStack` -- the OPT/Belady reference curve.  OPT is also a
  stack algorithm, but its stack update needs each block's *next*
  reference time, so it is inherently two-pass:
  :func:`next_use_times` scans the stream backwards first, then the
  priority-carry update (the sooner-reused block stays shallower, the
  farther-reused one is carried down) maintains the stack on the
  second pass.

Both structures count into histograms of (capped) stack depth;
``hits(...)`` answers are prefix sums, computed once per histogram
and cached until the next counted update (surface extraction reads
hundreds of grid cells from the same histograms).  Misses -- compulsory ones
included, in the LRU levels -- land in the overflow bucket beyond
every swept way count, and a counter ``total`` tracks measured
references so per-configuration misses fall out by subtraction.
``reset_counts`` zeroes counters while keeping stack state -- exactly
what the section-5 warm-up methodology's mid-trace ``reset_stats``
does to a live cache.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro import telemetry

#: "Never referenced again" sentinel for OPT priorities; compares
#: greater than every real trace index.
NEVER = float("inf")


class MultiConfigLRU:
    """All swept LRU configurations, updated by one block stream.

    Parameters
    ----------
    level_caps:
        ``log2(num_sets) -> deepest associativity swept`` for every
        multi-set level (``num_sets`` a power of two >= 2).
    full_cap:
        Depth bound of the single-set level (0 disables it).  Covers
        the fully-associative curve (bound = largest capacity in
        entries) and any num_sets == 1 configurations.
    """

    def __init__(self, level_caps: Dict[int, int],
                 full_cap: int = 0) -> None:
        self._hist_by_k: Dict[int, List[int]] = {}
        levels = []
        for k in sorted(level_caps):
            cap = level_caps[k]
            if k <= 0 or cap <= 0:
                raise ValueError(f"bad level (k={k}, cap={cap})")
            hist = [0] * (cap + 1)
            self._hist_by_k[k] = hist
            levels.append(((1 << k) - 1, cap, {}, hist))
        self._levels: Tuple = tuple(levels)
        self._full = None
        self._full_hist: List[int] = []
        if full_cap:
            self._full_hist = [0] * (full_cap + 1)
            self._full = ([], full_cap, self._full_hist)
        self.total = 0
        # Cached hit prefix sums, dropped whenever a histogram counts.
        self._cum_by_k: Optional[Dict[int, List[int]]] = None
        self._full_cum: Optional[List[int]] = None

    # -- replay -----------------------------------------------------------

    def replay_columns(self, blocks: Sequence[Hashable],
                       placements: Sequence[int],
                       start: int = 0, stop: Optional[int] = None,
                       count: bool = True) -> None:
        """Reference ``blocks[i]`` placed by ``placements[i]`` in order.

        The engine's one update: two parallel indexable columns
        (packed int arrays, memoryviews over a trace's address column,
        or lists).  ``placement`` is the integer whose low bits select
        the set (stable hash or block address); ``start``/``stop``
        bound the replayed range so the warm-up window split replays
        sub-ranges without slicing (and without copying) the columns,
        and ``count=False`` updates stack state without recording
        depths (a warm-up pass).
        """
        if stop is None:
            stop = len(blocks)
        levels = self._levels
        full = self._full
        n = 0
        for index in range(start, stop):
            block = blocks[index]
            placement = placements[index]
            for mask, cap, sets, hist in levels:
                bucket = placement & mask
                lst = sets.get(bucket)
                if lst is None:
                    sets[bucket] = [block]
                    if count:
                        hist[cap] += 1
                elif block in lst:
                    depth = lst.index(block)
                    if depth:
                        del lst[depth]
                        lst.insert(0, block)
                    if count:
                        hist[depth] += 1
                else:
                    lst.insert(0, block)
                    if len(lst) > cap:
                        del lst[cap]
                    if count:
                        hist[cap] += 1
            if full is not None:
                stack, fcap, fhist = full
                try:
                    depth = stack.index(block)
                except ValueError:
                    depth = fcap
                    stack.insert(0, block)
                    if len(stack) > fcap:
                        del stack[fcap]
                else:
                    if depth:
                        del stack[depth]
                        stack.insert(0, block)
                if count:
                    fhist[depth] += 1
            n += 1
        if count:
            self.total += n
            self._cum_by_k = None
            self._full_cum = None
        if n:
            # One registry bump per bulk replay (never per reference):
            # the disabled path costs a single env lookup here.
            telemetry.inc("sweep.refs_replayed", n,
                          engine="single-pass")

    def reset_counts(self) -> None:
        """Zero every histogram and the access counter; keep stacks."""
        for hist in self._hist_by_k.values():
            hist[:] = [0] * len(hist)
        if self._full_hist:
            self._full_hist[:] = [0] * len(self._full_hist)
        self.total = 0
        self._cum_by_k = None
        self._full_cum = None

    # -- results ----------------------------------------------------------

    def hits(self, k: int, assoc: int) -> int:
        """Measured hits of the (2^k sets, assoc ways) configuration."""
        cum = self._cum_by_k
        if cum is None:
            cum = self._cum_by_k = {
                key: list(accumulate(hist, initial=0))
                for key, hist in self._hist_by_k.items()}
        prefix = cum[k]
        return prefix[min(assoc, len(prefix) - 1)]

    def full_hits(self, entries: int) -> int:
        """Measured hits of a one-set LRU cache with that many entries."""
        if self._full is None:
            raise ValueError("single-set level was not enabled")
        cum = self._full_cum
        if cum is None:
            cum = self._full_cum = list(
                accumulate(self._full_hist, initial=0))
        return cum[min(entries, len(cum) - 1)]

    # -- introspection (tests, benchmarks) --------------------------------

    def histograms(self) -> Dict[int, List[int]]:
        """Per-level depth histograms, ``log2(num_sets) -> counts``."""
        return {k: list(hist) for k, hist in self._hist_by_k.items()}

    def stack_state(self):
        """Current per-set recency stacks (per level, plus single-set).

        A copy, safe to mutate; the numpy backend exposes the same
        shape so equivalence tests can pin post-replay state, not just
        counts.
        """
        levels = {}
        for k, (mask, cap, sets, hist) in zip(sorted(self._hist_by_k),
                                              self._levels):
            levels[k] = {bucket: list(lst) for bucket, lst in sets.items()}
        state = {"levels": levels, "full": None}
        if self._full is not None:
            state["full"] = list(self._full[0])
        return state


def next_use_times(blocks: Sequence[Hashable]) -> List[float]:
    """``result[i]`` = index of the next reference to ``blocks[i]``.

    The backward scan OPT needs before its stack pass; positions with
    no later reference get :data:`NEVER`.
    """
    result: List[float] = [NEVER] * len(blocks)
    last: Dict[Hashable, int] = {}
    for i in range(len(blocks) - 1, -1, -1):
        block = blocks[i]
        nxt = last.get(block)
        if nxt is not None:
            result[i] = nxt
        last[block] = i
    return result


class OptStack:
    """Belady's OPT for every fully-associative capacity at once.

    The stack invariant: after each reference, the top C entries are
    exactly the contents of an OPT-managed cache of capacity C.  The
    update carries the farthest-next-use block downward (each capacity
    evicts its own victim), so unlike LRU the repair walk needs block
    priorities -- the next-use times from :func:`next_use_times`.

    The stack is truncated at ``cap`` (the largest swept capacity):
    blocks only ever move *down* the stack between their references,
    so the top-``cap`` prefix evolves identically with or without the
    deeper tail, and a truncated block's return is indistinguishable
    from a compulsory miss at every swept capacity.
    """

    def __init__(self, cap: int) -> None:
        if cap <= 0:
            raise ValueError("OPT capacity bound must be positive")
        self.cap = cap
        self._stack: List[Hashable] = []
        self._prio: List[float] = []
        self.hist = [0] * (cap + 1)
        self.total = 0
        self._cum: Optional[List[int]] = None

    def touch(self, block: Hashable, next_use: float,
              count: bool = True) -> None:
        stack = self._stack
        prio = self._prio
        size = len(stack)
        try:
            depth = stack.index(block)
        except ValueError:
            depth = size  # a miss: the carry chain runs the whole stack
        if size == 0:
            stack.append(block)
            prio.append(next_use)
        elif depth == 0:
            prio[0] = next_use
        else:
            carry_block, carry_prio = stack[0], prio[0]
            stack[0], prio[0] = block, next_use
            for i in range(1, depth):
                incumbent_prio = prio[i]
                if carry_prio < incumbent_prio:
                    # The carried block is reused sooner: it stays at
                    # this depth and the incumbent is carried down.
                    stack[i], carry_block = carry_block, stack[i]
                    prio[i], carry_prio = carry_prio, incumbent_prio
            if depth < size:
                stack[depth] = carry_block
                prio[depth] = carry_prio
            else:
                # Miss: every capacity admitted the block and evicted
                # its own farthest-reuse victim; the final carry drops
                # off (or grows the stack up to the truncation bound).
                stack.append(carry_block)
                prio.append(carry_prio)
                if len(stack) > self.cap:
                    del stack[self.cap:]
                    del prio[self.cap:]
        if count:
            self.total += 1
            if depth < size:
                cap = self.cap
                self.hist[depth if depth < cap else cap] += 1
                self._cum = None

    def reset_counts(self) -> None:
        self.hist[:] = [0] * len(self.hist)
        self.total = 0
        self._cum = None

    def hits(self, capacity: int) -> int:
        """Measured hits of an OPT-managed cache of that capacity."""
        cum = self._cum
        if cum is None:
            cum = self._cum = list(accumulate(self.hist, initial=0))
        return cum[min(capacity, len(cum) - 1)]
