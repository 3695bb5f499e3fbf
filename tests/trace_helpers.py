"""Small columnar traces for tests, and the LRU oracle.

Every trace here is recorded the way the interpreters record theirs,
through :meth:`repro.trace.columnar.TraceBuilder.record`.
:class:`LruOracle` answers the stack-distance engine's queries with
the grid's own cache model.
"""

import random

from repro.caches.setassoc import SetAssociativeCache
from repro.trace.columnar import Trace, TraceBuilder


def trace_of(rows) -> Trace:
    """The trace of ``(address, opcode, receiver_class[, dispatched])``
    rows, recorded in order (``dispatched`` defaults to True)."""
    builder = TraceBuilder()
    for row in rows:
        builder.record(*row)
    return builder.snapshot()


def mixed_trace(n: int, seed: int) -> Trace:
    """Phased locality + random stragglers + a non-dispatched mix."""
    rnd = random.Random(seed)
    builder = TraceBuilder()
    for i in range(n):
        if rnd.random() < 0.3:
            address = rnd.randrange(600)
        else:
            address = (i * 7) % 97 + (i // 500) * 64
        builder.record(address, rnd.randrange(60), rnd.randrange(5),
                       rnd.random() < 0.7)
    return builder.snapshot()


class LruOracle:
    """The grid's cache model, one cache per configuration: the oracle
    for :class:`~repro.sweep.np_engine.NumpyMultiConfigLRU`.

    One ``SetAssociativeCache(sets * ways, ways, "lru",
    index="modulo")`` per ``(2**k sets, ways)`` configuration, ways
    1..cap for each ``k -> cap`` of ``level_caps``, plus one
    fully-associative cache per capacity in ``full_entries``.  A
    reference's key is ``(block << 16) | placement``: modulo indexing
    over at most 2**16 sets reads the key's low bits, which are the
    placement's, so a block lands in the set the engine's level picks
    (every test's placements fit in 16 bits).  Only counted segments
    count, and :meth:`reset` zeroes the counts and keeps the contents.
    """

    def __init__(self, level_caps, full_entries=()):
        self.caches = {}
        for k, cap in level_caps.items():
            for ways in range(1, cap + 1):
                self.caches[k, ways] = SetAssociativeCache(
                    (1 << k) * ways, ways, "lru", index="modulo")
        for entries in full_entries:
            self.caches["full", entries] = SetAssociativeCache(
                entries, "full", "lru", index="modulo")
        self.reset()

    def reset(self):
        self.total = 0
        self._hits = dict.fromkeys(self.caches, 0)

    def replay_columns(self, blocks, placements, start=0, stop=None,
                       count=True):
        stop = len(blocks) if stop is None else stop
        assert all(0 <= placement < 1 << 16
                   for placement in placements[start:stop])
        for i in range(start, stop):
            key = (blocks[i] << 16) | placements[i]
            for config, cache in self.caches.items():
                if cache.reference(key) and count:
                    self._hits[config] += 1
        if count:
            self.total += max(0, stop - start)

    def hits(self, k, ways):
        return self._hits[k, ways]

    def full_hits(self, entries):
        return self._hits["full", entries]

    def counts(self):
        """Every count, keyed as :func:`engine_counts` keys them."""
        return {"total": self.total, **self._hits}


def engine_counts(engine, level_caps, full_entries=()):
    """The engine's answers for every configuration an
    :class:`LruOracle` of the same geometry simulates."""
    counts = {"total": engine.total}
    for k, cap in level_caps.items():
        for ways in range(1, cap + 1):
            counts[k, ways] = engine.hits(k, ways)
    for entries in full_entries:
        counts["full", entries] = engine.full_hits(entries)
    return counts
