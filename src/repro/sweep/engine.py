"""Belady's OPT reference curve as a stack algorithm.

OPT is a stack algorithm (Mattson et al. 1970): after each reference,
the top C entries of one priority-ordered stack are exactly the
contents of an OPT-managed cache of capacity C, for every C at once.
Its stack update needs each block's *next* reference time, so it is
inherently two-pass: :func:`~repro.sweep.np_engine.np_next_use_times`
scans the stream first, then the priority-carry update (the
sooner-reused block stays shallower, the farther-reused one is
carried down) maintains the stack on the second pass.

:class:`OptStack` counts into a histogram of (capped) stack depth;
``hits(capacity)`` answers are prefix sums, computed once and cached
until the next counted reference.  The LRU surfaces come from the
vectorized stack-distance engine,
:class:`~repro.sweep.np_engine.NumpyMultiConfigLRU`.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Hashable, List, Optional


class OptStack:
    """Belady's OPT for every fully-associative capacity at once.

    The stack invariant: after each reference, the top C entries are
    exactly the contents of an OPT-managed cache of capacity C.  The
    update carries the farthest-next-use block downward (each capacity
    evicts its own victim), so unlike LRU the repair walk needs block
    priorities -- the next-use times from
    :func:`~repro.sweep.np_engine.np_next_use_times`.

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

    def hits(self, capacity: int) -> int:
        """Measured hits of an OPT-managed cache of that capacity."""
        cum = self._cum
        if cum is None:
            cum = self._cum = list(accumulate(self.hist, initial=0))
        return cum[min(capacity, len(cum) - 1)]
