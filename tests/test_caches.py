"""Tests for the cache substrate (repro.caches)."""

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches.icache import InstructionCache
from repro.caches.itlb import ITLB, ITLBEntry
from repro.caches.setassoc import MISS, SetAssociativeCache, stable_hash
from repro.caches.stats import AccessProfile, CacheStats
from repro.errors import DoesNotUnderstandTrap
from repro.objects.model import ClassRegistry, DefinedMethod, PrimitiveMethod


class TestCacheStats:
    def test_empty_ratios(self):
        stats = CacheStats()
        assert stats.hit_ratio == 0.0
        assert stats.miss_ratio == 0.0

    def test_ratios(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.accesses == 4
        assert stats.hit_ratio == 0.75
        assert stats.miss_ratio == 0.25

    def test_reset(self):
        stats = CacheStats(hits=3, misses=1, fills=2)
        stats.reset()
        assert stats.accesses == 0 and stats.fills == 0

    def test_snapshot_is_independent(self):
        stats = CacheStats(hits=1)
        snap = stats.snapshot()
        stats.hits = 10
        assert snap.hits == 1

    def test_merge(self):
        a = CacheStats(hits=1, misses=2)
        a.merge(CacheStats(hits=3, misses=4, evictions=5))
        assert (a.hits, a.misses, a.evictions) == (4, 6, 5)


class TestAccessProfile:
    def test_context_fraction(self):
        profile = AccessProfile(context_reads=9, heap_reads=1)
        assert profile.context_fraction == 0.9

    def test_empty(self):
        assert AccessProfile().context_fraction == 0.0

    def test_categories(self):
        profile = AccessProfile()
        profile.count("x")
        profile.count("x", 2)
        assert profile.categories["x"] == 3


class TestSetAssociativeBasics:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache(8, 2)
        assert cache.lookup("a") is None
        cache.fill("a", 1)
        assert cache.lookup("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_reference_interface(self):
        cache = SetAssociativeCache(8, 2)
        assert cache.reference("k") is False
        assert cache.reference("k") is True

    def test_probe_distinguishes_stored_none(self):
        cache = SetAssociativeCache(8, 2)
        cache.fill("a", None)
        assert cache.probe("a") is None
        assert cache.probe("b") is MISS

    def test_update_does_not_evict(self):
        cache = SetAssociativeCache(4, "full")
        cache.fill("a", 1)
        cache.fill("a", 2)
        assert cache.lookup("a") == 2
        assert cache.stats.evictions == 0

    def test_access_loader_called_once(self):
        cache = SetAssociativeCache(8, 2)
        calls = []
        loader = lambda key: calls.append(key) or len(calls)
        assert cache.access("x", loader) == 1
        assert cache.access("x", loader) == 1
        assert calls == ["x"]

    def test_invalidate(self):
        cache = SetAssociativeCache(8, 2)
        cache.fill("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        assert cache.lookup("a") is None

    def test_invalidate_where(self):
        cache = SetAssociativeCache(16, "full")
        for i in range(10):
            cache.fill(i, i * 10)
        removed = cache.invalidate_where(lambda k, v: k % 2 == 0)
        assert removed == 5
        assert len(cache) == 5

    def test_flush(self):
        cache = SetAssociativeCache(8, 2)
        cache.fill("a", 1)
        cache.flush()
        assert len(cache) == 0

    def test_bad_configuration(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 1)
        with pytest.raises(ValueError):
            SetAssociativeCache(8, 3)   # not a divisor
        with pytest.raises(ValueError):
            SetAssociativeCache(8, 2, policy="magic")
        with pytest.raises(ValueError):
            SetAssociativeCache(8, 2, index="weird")


class TestReplacementPolicies:
    def test_lru_evicts_least_recent(self):
        cache = SetAssociativeCache(2, "full", policy="lru")
        cache.fill("a", 1)
        cache.fill("b", 2)
        cache.lookup("a")            # refresh a
        evicted = cache.fill("c", 3)
        assert evicted[0] == "b"

    def test_fifo_ignores_lookups(self):
        cache = SetAssociativeCache(2, "full", policy="fifo")
        cache.fill("a", 1)
        cache.fill("b", 2)
        cache.lookup("a")            # does not refresh under FIFO
        evicted = cache.fill("c", 3)
        assert evicted[0] == "a"

    def test_random_is_deterministic_per_seed(self):
        def evictions(seed):
            cache = SetAssociativeCache(4, "full", policy="random",
                                        seed=seed)
            order = []
            for i in range(16):
                evicted = cache.fill(i, i)
                if evicted:
                    order.append(evicted[0])
            return order
        assert evictions(1) == evictions(1)

    def test_modulo_indexing_conflicts(self):
        # Keys congruent mod num_sets conflict in a direct-mapped cache.
        cache = SetAssociativeCache(4, 1, index="modulo")
        cache.fill(0, "x")
        cache.fill(4, "y")           # same set as 0
        assert cache.lookup(0) is None
        assert cache.lookup(4) == "y"


class TestCapacityInvariants:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=300),
           st.sampled_from([(8, 1), (8, 2), (8, "full"), (16, 4)]))
    def test_never_exceeds_capacity(self, keys, config):
        size, assoc = config
        cache = SetAssociativeCache(size, assoc)
        for key in keys:
            cache.reference(key)
        assert len(cache) <= size
        occupancy = cache.set_occupancy()
        limit = size if assoc == "full" else assoc
        assert all(count <= limit for count in occupancy)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=100))
    def test_resident_keys_were_inserted(self, keys):
        cache = SetAssociativeCache(8, 2)
        for key in keys:
            cache.reference(key)
        for key, _value in cache.items():
            assert key in keys

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=50))
    def test_small_working_set_always_fits(self, keys):
        # 6 possible keys in an 8-entry fully associative cache: after
        # the first touch every access hits.
        cache = SetAssociativeCache(8, "full")
        misses = sum(0 if cache.reference(k) else 1 for k in keys)
        assert misses == len(set(keys))


class TestITLB:
    def _registry(self):
        registry = ClassRegistry()
        cls = registry.by_name("SmallInteger")
        cls.define_primitive("+", "arith.add")
        return registry, cls

    def test_translate_miss_then_hit(self):
        registry, cls = self._registry()
        itlb = ITLB(8, 2)
        calls = []

        def miss():
            calls.append(1)
            return registry.lookup("+", cls)

        first = itlb.translate(5, (cls.class_tag,), miss)
        assert first.hit is False
        assert first.entry.primitive is True
        assert first.entry.unit == "arith.add"
        second = itlb.translate(5, (cls.class_tag,), miss)
        assert second.hit is True
        assert len(calls) == 1

    def test_lookup_failure_not_cached(self):
        registry, cls = self._registry()
        itlb = ITLB(8, 2)

        def miss():
            return registry.lookup("nope", cls)

        for _ in range(2):
            with pytest.raises(DoesNotUnderstandTrap):
                itlb.translate(9, (cls.class_tag,), miss)
        assert len(itlb) == 0

    def test_entry_from_defined_method(self):
        method = DefinedMethod("foo", code=object(), argument_count=1)
        entry = ITLBEntry.from_method(method)
        assert entry.primitive is False
        assert entry.unit is None

    def test_invalidate_selector(self):
        itlb = ITLB(16, 2)
        itlb.reference(5, (1,))
        itlb.reference(5, (2,))
        itlb.reference(6, (1,))
        assert itlb.invalidate_selector(5) == 2
        assert len(itlb) == 1

    def test_invalidate_class(self):
        itlb = ITLB(16, 2)
        itlb.reference(5, (1,))
        itlb.reference(6, (1, 2))
        itlb.reference(7, (3,))
        assert itlb.invalidate_class(1) == 2

    def test_reset_stats_keeps_contents(self):
        itlb = ITLB(8, 2)
        itlb.reference(1, (1,))
        itlb.reset_stats()
        assert itlb.stats.accesses == 0
        assert itlb.reference(1, (1,)) is True


class TestInstructionCache:
    def test_reference(self):
        icache = InstructionCache(8, 2)
        assert icache.reference(0) is False
        assert icache.reference(0) is True

    def test_line_grouping(self):
        icache = InstructionCache(8, 2, line_words=4)
        icache.reference(0)
        assert icache.reference(3) is True    # same line
        assert icache.reference(4) is False   # next line

    def test_bad_line_words(self):
        with pytest.raises(ValueError):
            InstructionCache(8, 2, line_words=3)
        with pytest.raises(ValueError):
            InstructionCache(10, 2, line_words=4)

    def test_size_in_words(self):
        assert InstructionCache(64, 2, line_words=4).size == 64

    def test_direct_mapped_conflicts(self):
        # Addresses one cache-size apart thrash a direct-mapped cache
        # but coexist in a 2-way one.
        direct = InstructionCache(8, 1)
        twoway = InstructionCache(8, 2)
        for _ in range(4):
            for address in (0, 8):
                direct.reference(address)
                twoway.reference(address)
        assert direct.stats.hit_ratio < twoway.stats.hit_ratio


# -- differential test against an independent model ----------------------

_MASK64 = 0xFFFFFFFFFFFFFFFF


class _ListCache:
    """Reference model: one list of [key, value] pairs per set, oldest
    first.  Written independently of SetAssociativeCache; it shares only
    the placement hash and the random policy's xorshift seed."""

    def __init__(self, size, associativity, policy, modulo=False):
        self.ways = size if associativity == "full" else associativity
        self.sets = [[] for _ in range(size // self.ways)]
        self.policy = policy
        self.modulo = modulo
        self.rand = 0x2545F491
        self.reset_stats()

    def reset_stats(self):
        self.stats = dict.fromkeys(
            ("hits", "misses", "fills", "evictions", "invalidations"), 0)

    def _set(self, key):
        placement = key if self.modulo else stable_hash(key)
        return self.sets[placement % len(self.sets)]

    def _find(self, entries, key):
        """Index of ``key`` in its set, moved to MRU first under LRU."""
        for i, pair in enumerate(entries):
            if pair[0] == key:
                if self.policy == "lru":
                    entries.append(entries.pop(i))
                    return len(entries) - 1
                return i
        return None

    def probe(self, key):
        entries = self._set(key)
        i = self._find(entries, key)
        self.stats["misses" if i is None else "hits"] += 1
        return (False, None) if i is None else (True, entries[i][1])

    def fill(self, key, value):
        entries = self._set(key)
        i = self._find(entries, key)
        if i is not None:
            entries[i][1] = value
        else:
            if len(entries) == self.ways:
                victim = 0
                if self.policy == "random":
                    x = self.rand
                    x ^= (x << 13) & _MASK64
                    x ^= x >> 7
                    x ^= (x << 17) & _MASK64
                    self.rand = x
                    victim = x % len(entries)
                del entries[victim]
                self.stats["evictions"] += 1
            entries.append([key, value])
        self.stats["fills"] += 1

    def invalidate_where(self, doomed):
        removed = 0
        for entries in self.sets:
            kept = [pair for pair in entries if not doomed(pair[0])]
            removed += len(entries) - len(kept)
            entries[:] = kept
        self.stats["invalidations"] += removed
        return removed

    def keys(self):
        return [pair[0] for entries in self.sets for pair in entries]


_POLICIES = st.sampled_from(["lru", "fifo", "random"])
_ASSOCIATIVITIES = st.sampled_from([1, 2, 4, "full"])
#: ITLB operations: (name, opcode -- or class tag for invalidate_class --,
#: operand class tags).
_ITLB_OPS = st.lists(st.tuples(
    st.sampled_from(3 * ["probe_fill", "translate", "reference"]
                    + ["invalidate_selector", "invalidate_class",
                       "flush", "reset_stats"]),
    st.integers(0, 5),
    st.lists(st.integers(0, 4), max_size=2).map(tuple)), max_size=120)
#: Instruction-cache operations: (name, instruction address).
_ICACHE_OPS = st.lists(st.tuples(
    st.sampled_from(8 * ["reference"] + ["flush", "reset_stats"]),
    st.integers(0, 63)), max_size=160)


class TestCacheDifferential:
    """The ITLB and the instruction cache against the list-per-set
    model: the same hit/miss sequence, CacheStats counters and resident
    keys (in replacement order) after every operation."""

    @staticmethod
    def _same_state(stats, cache, model):
        assert dataclasses.asdict(stats) == model.stats
        assert [key for key, _ in cache.items()] == model.keys()

    @settings(max_examples=120, deadline=None)
    @given(_POLICIES, _ASSOCIATIVITIES, _ITLB_OPS)
    def test_itlb_matches_list_model(self, policy, associativity, ops):
        itlb = ITLB(8, associativity, policy)
        model = _ListCache(8, associativity, policy)
        for name, opcode, tags in ops:
            key = (opcode, tags)
            method = PrimitiveMethod(f"op{opcode}", "move")
            entry = ITLBEntry.from_method(method)
            if name == "probe_fill":
                hit, cached = model.probe(key)
                assert itlb.probe(key) == (cached if hit else MISS)
                if not hit:
                    itlb.fill(key, entry)
                    model.fill(key, entry)
            elif name == "translate":
                hit, cached = model.probe(key)
                if not hit:
                    cached = entry
                    model.fill(key, entry)
                outcome = itlb.translate(
                    opcode, tags, lambda: SimpleNamespace(method=method))
                assert (outcome.hit, outcome.entry) == (hit, cached)
            elif name == "reference":
                hit, _ = model.probe(key)
                if not hit:
                    model.fill(key, True)
                assert itlb.reference(opcode, tags) is hit
            elif name == "invalidate_selector":
                assert itlb.invalidate_selector(opcode) == \
                    model.invalidate_where(lambda k: k[0] == opcode)
            elif name == "invalidate_class":
                assert itlb.invalidate_class(opcode) == \
                    model.invalidate_where(lambda k: opcode in k[1])
            elif name == "flush":
                itlb.flush()
                model.invalidate_where(lambda k: True)
            else:
                itlb.reset_stats()
                model.reset_stats()
            self._same_state(itlb.stats, itlb._cache, model)

    @settings(max_examples=120, deadline=None)
    @given(_POLICIES, _ASSOCIATIVITIES, st.sampled_from([1, 2, 4]),
           _ICACHE_OPS)
    def test_icache_matches_list_model(self, policy, associativity,
                                       line_words, ops):
        icache = InstructionCache(16, associativity, line_words, policy)
        model = _ListCache(16 // line_words, associativity, policy,
                           modulo=True)
        for name, address in ops:
            if name == "reference":
                line = address // line_words
                hit, _ = model.probe(line)
                if not hit:
                    model.fill(line, True)
                assert icache.reference(address) is hit
            elif name == "flush":
                icache.flush()
                model.invalidate_where(lambda k: True)
            else:
                icache.reset_stats()
                model.reset_stats()
            self._same_state(icache.stats, icache._cache, model)
