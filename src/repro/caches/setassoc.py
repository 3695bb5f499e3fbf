"""A generic set-associative cache model.

This single structure backs every lookaside buffer in the machine: the
ITLB (section 2.1), the ATLB (section 3.1) and the instruction cache.
Keys are arbitrary hashable values; a key is mapped to a set by a
deterministic hash and looked up associatively within the set.

Replacement policies: LRU (default -- what the Dorado and HP software
method caches approximate), FIFO and a deterministic pseudo-random
policy (xorshift, seedable) for ablation studies.

``associativity`` may be the string ``"full"`` for a fully associative
cache (one set).

The index scheme and the policy are resolved once, at construction,
so :meth:`~SetAssociativeCache.probe`, :meth:`~SetAssociativeCache.
reference` and :meth:`~SetAssociativeCache.fill` each run in a single
frame: one memoized key -> set lookup, then the set's ordered dict.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Generic, Hashable, Iterator, List, Optional, Tuple, TypeVar, Union

from repro.caches.stats import CacheStats

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISS = object()

REPLACEMENT_POLICIES = ("lru", "fifo", "random")

#: Upper bound on the key -> set placement memo (see ``_set_for``).
_PLACEMENT_MEMO_LIMIT = 1 << 16


def _stable_hash(key: Hashable) -> int:
    """A deterministic hash usable across runs (no PYTHONHASHSEED effects).

    Integers and tuples of integers/strings cover every key type the
    simulators use; strings are folded with FNV-1a so results are stable.
    """
    if isinstance(key, bool):  # bool is an int subclass; keep distinct
        return int(key)
    if isinstance(key, int):
        # Fibonacci hashing spreads consecutive integers across sets.
        return (key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    if isinstance(key, str):
        h = 0xCBF29CE484222325
        for ch in key.encode("utf-8"):
            h ^= ch
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return h
    if isinstance(key, tuple):
        h = 0x9E3779B97F4A7C15
        for item in key:
            h ^= _stable_hash(item)
            h = (h * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
        return h
    if isinstance(key, frozenset):
        h = 0
        for item in key:
            h ^= _stable_hash(item)
        return h
    return _stable_hash(repr(key))


#: Public name for the placement hash: the sweep engine
#: (repro.sweep) must place blocks exactly as this cache does to stay
#: bitwise-equivalent, so they share the function.
stable_hash = _stable_hash


class SetAssociativeCache(Generic[K, V]):
    """A fixed-capacity set-associative cache with pluggable replacement.

    Parameters
    ----------
    size:
        Total number of entries.  Must be a positive multiple of the
        associativity.
    associativity:
        Ways per set, or ``"full"`` for a single fully associative set.
    policy:
        ``"lru"`` (default), ``"fifo"`` or ``"random"``.
    seed:
        Seed for the deterministic random policy.
    """

    def __init__(
        self,
        size: int,
        associativity: Union[int, str] = 2,
        policy: str = "lru",
        seed: int = 0x2545F491,
        index: str = "hash",
    ) -> None:
        """``index`` selects set placement: "hash" scrambles keys (an
        associative memory with a hashed directory, right for the ITLB
        and ATLB), while "modulo" uses the key's low bits directly
        (integer keys only -- how a real instruction cache indexes, and
        necessary to reproduce direct-mapped conflict behaviour)."""
        if size <= 0:
            raise ValueError(f"cache size must be positive, got {size}")
        if associativity == "full":
            associativity = size
        if not isinstance(associativity, int) or associativity <= 0:
            raise ValueError(f"bad associativity: {associativity!r}")
        if size % associativity != 0:
            raise ValueError(
                f"size {size} is not a multiple of associativity {associativity}"
            )
        if policy not in REPLACEMENT_POLICIES:
            raise ValueError(f"unknown replacement policy {policy!r}")
        if index not in ("hash", "modulo"):
            raise ValueError(f"unknown index scheme {index!r}")
        self.index = index
        self.size = size
        self.associativity = associativity
        self.num_sets = size // associativity
        self.policy = policy
        self.stats = CacheStats()
        self._rand_state = seed or 0x2545F491
        # The policy and index scheme, resolved once for the hot paths.
        self._lru = policy == "lru"
        self._random = policy == "random"
        self._modulo = index == "modulo"
        # Each set is an OrderedDict, created on first use: iteration
        # order is recency order for LRU (oldest first) and insertion
        # order for FIFO and random.
        self._sets: List[Optional[OrderedDict]] = [None] * self.num_sets
        # key -> set memo for both index schemes: _stable_hash walks
        # tuples/strings, and with the memo every placement after the
        # first is one dict probe.  Placement is a pure function of the
        # key, so the memo is bounded by simply clearing it (trace-scale
        # key churn must not grow it without limit).
        self._placement: Dict[K, OrderedDict] = {}

    # -- internals --------------------------------------------------------

    def _set_for(self, key: K) -> OrderedDict:
        entries = self._placement.get(key)
        if entries is not None:
            return entries
        index = (key if self._modulo else _stable_hash(key)) % self.num_sets
        entries = self._sets[index]
        if entries is None:
            entries = self._sets[index] = OrderedDict()
        if len(self._placement) >= _PLACEMENT_MEMO_LIMIT:
            self._placement.clear()
        self._placement[key] = entries
        return entries

    def _next_random(self) -> int:
        x = self._rand_state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self._rand_state = x
        return x

    def _evict(self, entries: OrderedDict) -> Tuple[K, V]:
        """Displace one entry of a full set; returns it as (key, value)."""
        self.stats.evictions += 1
        if self._random:
            keys = list(entries)
            victim = keys[self._next_random() % len(keys)]
            return victim, entries.pop(victim)
        # LRU and FIFO both evict the front of the ordered dict; they
        # differ in whether lookups refresh the order.
        return entries.popitem(last=False)

    # -- public API -------------------------------------------------------

    def lookup(self, key: K) -> Optional[V]:
        """Probe the cache; returns the value or ``None``, updating stats.

        Use :meth:`probe` when ``None`` is a legitimate stored value.
        """
        value = self.probe(key)
        return None if value is _MISS else value

    def probe(self, key: K) -> Any:
        """Probe the cache; returns the sentinel ``MISS`` on a miss."""
        entries = self._placement.get(key)
        if entries is None:
            entries = self._set_for(key)
        value = entries.get(key, _MISS)
        if value is _MISS:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
            if self._lru:
                entries.move_to_end(key)
        return value

    def contains(self, key: K) -> bool:
        """Non-statistical membership test (for assertions/tests)."""
        return key in self._set_for(key)

    def fill(self, key: K, value: V) -> Optional[Tuple[K, V]]:
        """Insert (or update) an entry; returns the evicted (key, value).

        An update refreshes LRU order but does not count as an eviction.
        """
        entries = self._placement.get(key)
        if entries is None:
            entries = self._set_for(key)
        evicted = None
        if key in entries:
            entries[key] = value
            if self._lru:
                entries.move_to_end(key)
        else:
            if len(entries) >= self.associativity:
                evicted = self._evict(entries)
            entries[key] = value
        self.stats.fills += 1
        return evicted

    def access(self, key: K, loader) -> V:
        """Lookup, calling ``loader(key)`` and filling on a miss."""
        value = self.probe(key)
        if value is _MISS:
            value = loader(key)
            self.fill(key, value)
        return value

    def reference(self, key: K) -> bool:
        """Trace-driven access: returns True on hit, fills on miss.

        This is the operation the section-5 cache simulator performs on
        each trace event (and the machine on each instruction fetch).
        """
        entries = self._placement.get(key)
        if entries is None:
            entries = self._set_for(key)
        stats = self.stats
        if key in entries:
            stats.hits += 1
            if self._lru:
                entries.move_to_end(key)
            return True
        stats.misses += 1
        if len(entries) >= self.associativity:
            self._evict(entries)
        entries[key] = True
        stats.fills += 1
        return False

    def invalidate(self, key: K) -> bool:
        """Remove one entry; returns whether it was present."""
        entries = self._set_for(key)
        if key in entries:
            del entries[key]
            self.stats.invalidations += 1
            return True
        return False

    def invalidate_where(self, predicate) -> int:
        """Remove every entry whose (key, value) satisfies ``predicate``."""
        removed = 0
        for entries in self._sets:
            if not entries:
                continue
            victims = [k for k, v in entries.items() if predicate(k, v)]
            for k in victims:
                del entries[k]
            removed += len(victims)
        self.stats.invalidations += removed
        return removed

    def flush(self) -> None:
        """Empty the cache, counting invalidations."""
        count = len(self)
        for entries in self._sets:
            if entries:
                entries.clear()
        self.stats.invalidations += count

    def items(self) -> Iterator[Tuple[K, V]]:
        """Iterate over all resident (key, value) pairs."""
        for entries in self._sets:
            if entries:
                yield from entries.items()

    def set_occupancy(self) -> List[int]:
        """Entries resident per set (for distribution diagnostics)."""
        return [len(entries) if entries else 0 for entries in self._sets]

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._sets if entries)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SetAssociativeCache(size={self.size}, "
            f"assoc={self.associativity}, policy={self.policy!r}, "
            f"resident={len(self)})"
        )


#: Public miss sentinel for probe().
MISS = _MISS
