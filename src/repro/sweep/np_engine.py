"""Vectorized numpy replay backend for the single-pass sweep engine.

:class:`NumpyMultiConfigLRU` is a drop-in, bitwise-identical
replacement for :class:`repro.sweep.engine.MultiConfigLRU`: same
constructor, same ``replay``/``replay_columns``/``touch`` update
surface, same ``hits``/``full_hits``/``total``/``reset_counts``
results surface -- but the per-reference LRU stack-depth loop is
replaced by whole-array passes.  On the paper's measurement trace the
replay runs an order of magnitude faster (see BENCH_throughput.json).

The formulation (details in DESIGN.md, "The vectorized stack-distance
backend"):

* Factorize the ``(block, placement)`` columns once per replayed
  segment into dense block ids plus previous-occurrence links
  (:class:`_SegmentStructs`; cached so the warm and counting passes of
  a double-pass replay share one build).
* Per level, sort ``(set id, position)`` composite keys so each set's
  references become one contiguous span, then classify every
  reference by *capped stack depth* with array passes only: depth 0
  (top-of-stack) and compulsory misses fall out of the
  previous-occurrence links directly, and depths 2..cap are resolved
  in *run space* -- maximal same-block stretches: depths 2 and 3 in
  one array pass each, and each deeper one by a pair round and a few
  vector rounds over the runs, the queries they leave finishing in
  one climb and descent of a max tree over the runs (O(log R) array
  steps).
* The single-set (fully-associative) level has no useful depth cap,
  so its depths come from an offline rank count instead: with
  ``p = prev[i]``, depth(i) = #{k < i : prev[k] < p} - (p + 1), which
  one bitwise prefix-rank pass answers for every reference at once
  (:func:`_full_depth_counts`), clamped at ``full_cap``.
* Stack state between segments is carried as one global MRU-ordered
  list of distinct ``(block, placement)`` pairs; replaying that list
  as a synthetic prefix regenerates every level's per-set stacks
  exactly, which is what makes warm-up cuts, mid-trace
  ``reset_counts`` and ``start``/``stop`` sub-range replay match the
  incremental engine bit for bit.  The fully-associative stack is the
  carry's first ``full_cap`` entries, so it keeps no state of its own.

:func:`np_itlb_ref_columns` builds the ITLB reference stream with
array operations, hashing each distinct key once, for the runner when
the resolved engine is numpy, at the dispatched indices
:func:`np_dispatched_indices` unpacks from the bitset.

numpy is an *optional* extra (``pip install .[numpy]``), imported on
first engine use: importing this module (or ``repro.sweep``) never
imports it, :func:`numpy_available` and :func:`require_numpy` do, so a
run whose sweeps are all result-cache hits never pays for it.  The
runner checks :func:`numpy_available` and falls back to the
pure-python engine when the import is missing.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.caches.setassoc import stable_hash
from repro.errors import BackendUnavailable

#: The numpy module, bound by :func:`numpy_available` on first engine
#: use (None until then, and where numpy is not importable).
np = None
_numpy_checked = False

#: Vector rounds of the chain resolver before the queries still open
#: go to the max-tree descent.  On the ``sweep`` benchmark's queries
#: the resolver took 64 ms per iteration with no rounds (the tree for
#: every query) and 47-51 ms with 1 to 10 (2-CPU box).
_CHAIN_VECTOR_ROUNDS = 6


def numpy_available() -> bool:
    """Whether the vectorized backend can actually run here.

    The first call imports numpy; later calls reuse its answer.
    """
    global np, _numpy_checked
    if not _numpy_checked:
        _numpy_checked = True
        try:
            import numpy
        except ImportError:  # exercised by the sys.modules block in the tests
            pass
        else:
            np = numpy
    return np is not None


def numpy_missing() -> bool:
    """Whether an engine check has already found numpy not importable
    (False while no :func:`numpy_available` call has run)."""
    return _numpy_checked and np is None


def require_numpy() -> None:
    """Raise the typed, actionable error if numpy is missing."""
    if not numpy_available():
        raise BackendUnavailable(
            "the numpy sweep backend was requested but numpy is not "
            "importable; install the optional extra with "
            "'pip install .[numpy]' (or 'pip install numpy'), or use "
            "engine='auto' / engine='single-pass' for the pure-python "
            "fallback")


class _SegmentStructs:
    """Cached, carry-independent factorization of one (columns, range).

    Holds the block-sorted order of the segment: dense block ids,
    previous same-block occurrence indices, first/last occurrence
    tables, and the per-block placement table.  Building this is the
    only O(n log n) work per replayed segment; the warm (count=False)
    pass and the counting pass of a double-pass replay share one
    instance.
    """

    __slots__ = ("blocks", "placements", "start", "stop", "m", "bid",
                 "uniq_vals", "uniq_pvals", "prev", "first_pos",
                 "first_bid", "last_desc_b", "last_desc_p")

    def __init__(self, blocks, placements, start, stop):
        self.blocks = blocks
        self.placements = placements
        self.start = start
        self.stop = stop
        b = np.asarray(blocks, dtype=np.int64)[start:stop]
        p = np.asarray(placements).astype(np.uint64)[start:stop]
        m = self.m = len(b)
        # Stable block-sort.  When (value range, position) packs into
        # one 64-bit key a plain sort is several times faster than a
        # stable argsort of int64; fall back to argsort otherwise.
        bmin = int(b.min()) if m else 0
        vbits = int(int(b.max()) - bmin).bit_length() if m else 0
        ibits = max(1, int(m - 1).bit_length()) if m > 1 else 1
        if m and vbits + ibits <= 63:
            key = (b - bmin).astype(np.uint64)
            key <<= np.uint64(ibits)
            key |= np.arange(m, dtype=np.uint64)
            key.sort()
            order = (key & np.uint64((1 << ibits) - 1)).astype(np.int32)
            bs = (key >> np.uint64(ibits)).astype(np.int64)
            bs += bmin
        else:
            order = np.argsort(b, kind="stable").astype(np.int32)
            bs = b[order]
        glast = np.empty(m, bool)
        glast[-1] = True
        glast[:-1] = bs[1:] != bs[:-1]
        gfirst = np.empty(m, bool)
        gfirst[0] = True
        gfirst[1:] = glast[:-1]
        # The per-level set tables index placements by block id, so
        # every occurrence of a block must carry one placement.
        ps = p[order]
        if m > 1 and not bool(np.all((ps[1:] == ps[:-1]) | glast[:-1])):
            raise ValueError(
                "numpy backend requires placements to be a pure function "
                "of blocks; found a block with two distinct placements")
        bid = np.empty(m, np.int32)
        bid[order] = np.cumsum(gfirst, dtype=np.int32) - np.int32(1)
        self.bid = bid
        self.uniq_vals = bs[glast]
        self.uniq_pvals = ps[glast]
        prev = np.full(m, -1, np.int32)
        if m > 1:
            same = ~glast[:-1]
            prev[order[1:][same]] = order[:-1][same]
        self.prev = prev
        fpos = order[gfirst]
        self.first_pos = fpos
        self.first_bid = bid[fpos]
        last_desc = np.sort(order[glast])[::-1]
        self.last_desc_b = b[last_desc]
        self.last_desc_p = p[last_desc]


class _Scratch:
    """Reused per-replay work arrays shared by all levels."""

    def __init__(self, n, use64):
        dt = np.uint64 if use64 else np.uint32
        self.key = np.empty(n, dt)
        self.kd = np.empty(n, dt)
        self.ar = np.arange(n, dtype=dt)
        self.first = np.empty(n, bool)
        self.posmap = np.empty(n + 1, np.int32)
        self.t32 = np.empty(n, np.int32)
        self.b1 = np.empty(n, bool)
        self.b2 = np.empty(n, bool)
        self.b3 = np.empty(n, bool)
        self.i32 = np.arange(n + 1, dtype=np.int32)


def _alive_tables(cprun, c32):
    """Run-space aliveness: nxr[v] is the run index of the next run of
    run v's block (R if none).  Run v is alive at a query in run q0 iff
    nxr[v] >= q0; nxr2[v] tests the pair (v, v-1) at once.  Built by one
    scatter: run w's block previously occurred as the close of run
    cprun[w]-1, so that run's next-run is w."""
    R = len(cprun)
    nxr = np.full(R + 1, R, np.int32)
    # redirect compulsory starts (cprun <= 0) to the dump slot R
    tgt = np.where(cprun > 0, cprun, np.int32(R + 1))
    tgt -= np.int32(1)
    nxr[tgt] = c32
    nxr2 = nxr[:R].copy()
    if R > 1:
        np.maximum(nxr2[1:], nxr[:R - 1], out=nxr2[1:])
    return nxr, nxr2


def _max_tree(values):
    """A max segment tree over ``values``: leaf i at ``tree[S + i]``
    (S the least power of two >= len(values), padding leaves -1), and
    every inner node j the max of its children 2j and 2j + 1."""
    size = 1 << max(0, int(len(values) - 1).bit_length())
    tree = np.full(2 * size, -1, values.dtype)
    tree[size:size + len(values)] = values
    lo = size
    while lo > 1:
        np.maximum(tree[lo:2 * lo:2], tree[lo + 1:2 * lo:2],
                   out=tree[lo >> 1:lo])
        lo >>= 1
    return tree


def _last_at_least(tree, v, x):
    """For each query i, the largest leaf index u <= v[i] whose value
    is >= x[i], or -1 (``x >= 0``, so padding leaves never qualify).

    Leaf v[i] and, climbing from it, the subtrees of the left
    siblings of the right children on the way up cover the leaves
    <= v[i], each to the left of the one before.  The climb stops at
    the first of these whose max reaches x[i]; the descent then takes
    the right child whenever its max reaches x[i].  O(log S) array
    steps for all queries together.
    """
    size = len(tree) >> 1
    node = v + size
    found = node.copy()
    pending = tree[node] < x
    climbed = 0
    while climbed < size.bit_length() - 1 and pending.any():
        sibling = node - 1
        hit = pending & ((node & 1) == 1) & (tree[sibling] >= x)
        np.copyto(found, sibling, where=hit)
        pending &= ~hit
        node >>= 1
        climbed += 1
    # a node found on climb step c sits c - 1 levels above the leaves
    for _ in range(climbed - 1):
        inner = np.flatnonzero(found < size)
        child = found[inner] * 2 + 1
        found[inner] = child - (tree[child] < x[inner])
    found -= size
    found[pending] = -1
    return found


def _chain_resolve(v_init, q_s, nxr, nxr2, LF):
    """For each query q, walk runs downward from v_init[q] and return the
    largest run alive at query-run rank q_s[q] (-1 if none).  Dead
    2-block alternations are skipped via the LF leap; queries that
    survive a few vector rounds finish in one climb and descent of a
    max tree over ``nxr`` (the largest run <= v with nxr >= q_s)."""
    rj = np.full(len(q_s), -1, np.int32)
    live = np.nonzero(v_init >= 0)[0]
    vcur = v_init[live]
    rounds = 0
    while len(live):
        rounds += 1
        if rounds > _CHAIN_VECTOR_ROUNDS:
            # nxr's last slot is the compulsory-start dump, not a run
            rj[live] = _last_at_least(_max_tree(nxr[:-1]), vcur,
                                      q_s[live])
            break
        pa = nxr2[vcur] >= q_s[live]
        if pa.any():
            hi = live[pa]
            vh = vcur[pa]
            one = nxr[vh] >= q_s[hi]
            rj[hi] = vh - np.int32(1) + one
            np.logical_not(pa, out=pa)
            live = live[pa]
            vcur = vcur[pa]
            if not len(live):
                break
        vcur = LF[vcur]
        vcur -= np.int32(2)
        keep = vcur >= 0
        live = live[keep]
        vcur = vcur[keep]
    return rj


def _depth4_chain(rank_i, r_start, cpr1, LF, nxr, nxr2, counts, cap):
    """Counts of queries at depth >= c for c in 4..cap.

    Appends one per-depth count to ``counts``.  Runs outside the query's
    set segment can report spuriously alive, but the final rank filter
    ``rj >= cpr1`` (the run rank right after the query's previous
    occurrence) rejects them, so no explicit segment bounds are needed.
    """
    sel = np.arange(len(rank_i))
    r_prev = r_start
    for depth in range(4, cap + 1):
        if not len(sel):
            counts.append(0)
            continue
        rj = _chain_resolve(r_prev - 1, rank_i[sel], nxr, nxr2, LF)
        hitj = rj >= cpr1[sel]
        counts.append(int(np.count_nonzero(hitj)))
        sel = sel[hitj]
        r_prev = rj[hitj]


def _full_depth_counts(prev, cap):
    """Fully-associative LRU depth counts of a linked reference stream.

    ``prev[i]`` is the index of the previous reference to reference
    i's block, -1 for a first reference.  Returns ``counts`` with
    ``counts[d]`` the references at depth d < cap and ``counts[cap]``
    the first references plus every depth >= cap (misses in a
    ``cap``-entry cache).

    The depth of a re-reference i with ``p = prev[i]`` is the number
    of distinct blocks touched strictly between p and i: the k in
    (p, i) whose own previous reference lies before p.  Every k <= p
    has ``prev[k] < k <= p``, so

        depth(i) = #{k < i : prev[k] < p} - (p + 1),

    a prefix-rank count that one bitwise pass answers for every i at
    once (a wavelet matrix over ``v = prev + 1``; Mattson et al. 1970,
    Bennett & Kruskal 1975).  First references have the smallest key,
    so a prefix sum counts them and only re-references enter the pass.
    Level b, most significant bit first, stably partitions the current
    order by bit b.  References that agree on the bits above b stay
    contiguous and in stream order, so for a reference with bit b set,
    the zero bits between its group's start and itself are exactly the
    earlier references that agree above b and are smaller at b.  Each
    level is one cumsum, one gather of group starts and the partition;
    no level sorts.
    """
    n = len(prev)
    first = prev < 0
    # every earlier first reference ranks below a re-reference
    rank = np.cumsum(first, dtype=np.int32)
    rank -= first
    again = ~first
    rank = rank[again]
    val = prev[again]
    val += np.int32(1)
    m = len(val)
    # start[j]: position of the first reference of j's group;
    # zeros[j]: zero bits among the first j references of the level
    start = np.zeros(m, np.int32)
    zeros = np.zeros(m + 1, np.int32)
    bit = np.empty(m, bool)
    scratch = np.empty(m, np.int32)
    for b in reversed(range(int(val.max()).bit_length() if m else 0)):
        np.bitwise_and(val, np.int32(1 << b), out=scratch)
        np.not_equal(scratch, 0, out=bit)
        zero = ~bit
        np.cumsum(zero, dtype=np.int32, out=zeros[1:])
        group_zeros = zeros[start]
        smaller = zeros[:-1] - group_zeros
        smaller *= bit
        rank += smaller
        # the next level's groups: a group's zero-bit members start at
        # the zeros before it, its one-bit members after all zeros, at
        # the ones before it
        start = np.where(bit, start - group_zeros + zeros[m], group_zeros)
        order = np.concatenate((np.flatnonzero(zero), np.flatnonzero(bit)))
        val = val[order]
        rank = rank[order]
        start = start[order]
    rank -= val
    np.minimum(rank, cap, out=rank)
    counts = np.bincount(rank, minlength=cap + 1)
    counts[cap] += n - m
    return counts


class NumpyMultiConfigLRU:
    """Bitwise-identical numpy replacement for ``MultiConfigLRU``.

    Stack state is carried between replays as a global MRU-ordered list
    of distinct (block, placement) pairs; replaying that list as a
    synthetic prefix regenerates every level's per-set recency stacks
    exactly, so segmented replay (warm-up cuts, ``reset_counts``
    mid-trace, sub-range replay) matches the incremental engine bit for
    bit.  Blocks and placements must be integer columns and placements
    must be a pure function of blocks (both hold for every reference
    stream the runner builds).
    """

    def __init__(self, level_caps: Dict[int, int],
                 full_cap: int = 0) -> None:
        require_numpy()
        self.ks = sorted(level_caps)
        for k in self.ks:
            if k <= 0 or level_caps[k] <= 0:
                raise ValueError(f"bad level (k={k}, cap={level_caps[k]})")
        self.levels = [((1 << k) - 1, level_caps[k]) for k in self.ks]
        self._hists = [np.zeros(cap + 1, np.int64) for _, cap in self.levels]
        self._carry_b = np.empty(0, np.int64)
        self._carry_p = np.empty(0, np.uint64)
        self._full_cap = full_cap
        self._full_hist: List[int] = [0] * (full_cap + 1) if full_cap else []
        self.total = 0
        self._seg_cache: List[_SegmentStructs] = []
        self._cum_by_k: Optional[Dict[int, List[int]]] = None
        self._full_cum: Optional[List[int]] = None

    # -- replay -----------------------------------------------------------

    def replay(self, refs: Sequence[Tuple[Hashable, int]],
               count: bool = True) -> None:
        """Reference every ``(block, placement)`` pair in order."""
        blocks = []
        placements = []
        for block, placement in refs:   # one pass: refs may be a
            blocks.append(block)        # one-shot iterable
            placements.append(placement)
        self.replay_columns(blocks, placements, count=count)

    def touch(self, block: Hashable, placement: int,
              count: bool = True) -> None:
        """Reference one block (incremental alternative to replay)."""
        self.replay_columns((block,), (placement,), count=count)

    def _segment(self, blocks, placements, start, stop):
        for s in self._seg_cache:
            if (s.blocks is blocks and s.placements is placements
                    and s.start == start and s.stop == stop):
                return s
        s = _SegmentStructs(blocks, placements, start, stop)
        self._seg_cache.append(s)
        del self._seg_cache[:-2]
        return s

    def replay_columns(self, blocks: Sequence, placements: Sequence[int],
                       start: int = 0, stop: Optional[int] = None,
                       count: bool = True) -> None:
        if stop is None:
            stop = len(blocks)
        if stop <= start:
            return
        seg = self._segment(blocks, placements, start, stop)
        P = len(self._carry_b)
        if count:
            bid, prev, pvals = self._links(seg, P)
            self._count_levels(bid, prev, pvals, P)
            if self._full_cap:
                self._replay_full(prev, P)
            self.total += seg.m
            self._cum_by_k = None
            self._full_cum = None

        new_b = seg.last_desc_b
        new_p = seg.last_desc_p
        if P:
            loc = np.searchsorted(seg.uniq_vals, self._carry_b)
            loc_c = np.minimum(loc, len(seg.uniq_vals) - 1)
            keep = seg.uniq_vals[loc_c] != self._carry_b
            # Purity guard across segments (the in-segment guard lives
            # in _SegmentStructs): a carried block re-seen here must
            # re-appear with its carried placement, or the carry-prefix
            # reconstruction would silently diverge from the
            # incremental engine.
            seen = ~keep
            if not bool(np.all(seg.uniq_pvals[loc_c[seen]]
                               == self._carry_p[seen])):
                raise ValueError(
                    "numpy backend requires placements to be a pure "
                    "function of blocks; found a block with two "
                    "distinct placements across replayed segments")
            self._carry_b = np.concatenate([new_b, self._carry_b[keep]])
            self._carry_p = np.concatenate([new_p, self._carry_p[keep]])
        else:
            self._carry_b = new_b
            self._carry_p = new_p
        # One registry bump per bulk replay (never per reference).
        telemetry.inc("sweep.refs_replayed", stop - start,
                      engine="numpy")

    def _links(self, seg, P):
        """(block ids, previous-occurrence links, per-block placements)
        over the carry prefix (LRU first) followed by the segment."""
        m = seg.m
        n = P + m
        U = len(seg.uniq_vals)
        if P:
            rev_b = self._carry_b[::-1]
            rev_p = self._carry_p[::-1]
            loc = np.searchsorted(seg.uniq_vals, rev_b)
            loc_c = np.minimum(loc, U - 1)
            in_seg = seg.uniq_vals[loc_c] == rev_b
            bid_pfx = np.where(in_seg, loc_c, 0).astype(np.int32)
            n_extra = int(np.count_nonzero(~in_seg))
            bid_pfx[~in_seg] = U + np.arange(n_extra, dtype=np.int32)
            pvals = np.concatenate([seg.uniq_pvals, rev_p[~in_seg]])
            bid = np.empty(n, np.int32)
            bid[:P] = bid_pfx
            bid[P:] = seg.bid
            prev = np.empty(n, np.int32)
            prev[:P] = -1
            np.add(seg.prev, np.int32(P), out=prev[P:])
            prev[P:][seg.prev < 0] = -1
            cmap = np.full(U + n_extra, -1, np.int32)
            cmap[bid_pfx] = np.arange(P, dtype=np.int32)
            prev[seg.first_pos + P] = cmap[seg.first_bid]
        else:
            bid = seg.bid
            prev = seg.prev
            pvals = seg.uniq_pvals
        return bid, prev, pvals

    def _count_levels(self, bid, prev, pvals, P):
        n = len(prev)
        idx_bits = max(1, int(n - 1).bit_length()) if n > 1 else 1
        kmax = int(self.levels[-1][0]).bit_length() if self.levels else 0
        use64 = kmax + idx_bits > 32
        s = _Scratch(n, use64)
        dt = np.uint64 if use64 else np.uint32
        low = dt((1 << idx_bits) - 1)
        i32 = s.i32
        comp_c_all = None

        for li, (mask, cap) in enumerate(self.levels):
            table = ((pvals & np.uint64(mask))
                     << np.uint64(idx_bits)).astype(dt)
            np.take(table, bid, out=s.key)
            s.key |= s.ar
            s.key.sort()
            first = s.first
            first[0] = True
            if n > 1:
                # set id changed <=> sorted keys jump by >= 2**idx_bits
                np.subtract(s.key[1:], s.key[:-1], out=s.kd[1:])
                np.greater_equal(s.kd[1:], dt(1 << idx_bits),
                                 out=first[1:])
            np.bitwise_and(s.key, low, out=s.key)
            if use64:
                idx = s.key.astype(np.int32)
            else:
                idx = s.key.view(np.int32)
            np.take(prev, idx, out=s.t32)
            # prev[idx] < 0 <=> compulsory; the previous occurrence sits
            # at level position i-1 <=> prev[idx[i]] == idx[i-1] (the
            # level order is a permutation, so the test is exact).
            # Carry-prefix entries are first occurrences of distinct
            # blocks (prev == -1), so every prefix position is
            # compulsory, none is an act query, and the only prefix
            # correction the histograms need is subtracting P from the
            # compulsory count.
            comp = np.less(s.t32, 0, out=s.b1)
            nontop = s.b2
            nontop[0] = True
            if n > 1:
                np.not_equal(s.t32[1:], idx[:-1], out=nontop[1:])
            if comp_c_all is None:
                # which accesses are compulsory does not depend on the
                # level's set mask, so count them once
                comp_c_all = int(np.count_nonzero(comp)) - P
            comp_c = comp_c_all
            d0_c = n - int(np.count_nonzero(nontop))
            actm = np.logical_xor(nontop, comp, out=s.b3)
            d1p_c = int(np.count_nonzero(actm))
            counts = [d1p_c]
            if cap >= 2 and d1p_c:
                newrun = np.logical_or(first, nontop, out=s.b1)
                cstart = np.nonzero(newrun)[0].astype(np.int32)
                R = len(cstart)
                # crankmap[j]: 1-based run rank of stream index j's
                # level position, filled only at run-end positions --
                # every lookup below is a previous occurrence, which
                # always closes its run.  crankmap[n] = -9 catches
                # prev == -1 (which wraps to index n).
                cend = np.empty(R, np.int32)
                cend[:-1] = cstart[1:]
                cend[:-1] -= np.int32(1)
                cend[-1] = n - 1
                crankmap = s.posmap
                crankmap[idx[cend]] = i32[1:R + 1]
                crankmap[n] = np.int32(-9)
                # everything below runs in run space: every act query
                # (depth >= 1) starts its own run, so per-query state is
                # per-run state and no per-query gathers are needed.
                # cprun[w] is the 1-based rank of the run holding run w's
                # previous occurrence; run w is an act query iff
                # cprun[w] > 0 (its start is non-compulsory).
                cprun = crankmap[s.t32[cstart]]
                c32 = i32[:R]
                # an act query's previous occurrence always closes its
                # run, so "candidate run r is more recent than the
                # previous occurrence" reduces to the rank test
                # r >= cprun[w] for the query starting run w (candidates
                # from previous sets are auto-rejected by the same
                # test).  The depth >= 2 candidate is run w - 2.
                hit2 = (c32 - 2) >= cprun
                np.bitwise_and(hit2, cprun > 0, out=hit2)
                cnt2 = int(np.count_nonzero(hit2))
                counts.append(cnt2)
                if cap >= 3 and cnt2:
                    # run w is a 2-block alternation continuation iff the
                    # previous occurrence of its block lies in run w-2
                    # (1-based rank w-1)
                    LF = np.where(cprun != (c32 - 1), c32, np.int32(0))
                    np.maximum.accumulate(LF, out=LF)
                    # depth >= 3 candidate: leap below the alternation
                    # ending at run w-1, i.e. LF[w-1] - 2
                    j3 = np.empty(R, np.int32)
                    j3[1:] = LF[:-1]
                    j3[0] = 0
                    j3 -= np.int32(2)
                    hit3 = hit2
                    np.bitwise_and(hit3, j3 >= cprun, out=hit3)
                    cnt3 = int(np.count_nonzero(hit3))
                    counts.append(cnt3)
                    if cap >= 4 and cnt3:
                        nxr, nxr2 = _alive_tables(cprun, c32)
                        if cap == 4 and cnt3 * 4 > R:
                            # dense fast path: one run-array round over
                            # the pair (j3-1, j3-2), then chain-walk only
                            # the dead-pair remainder
                            v0 = j3
                            v0 -= np.int32(1)
                            pa = np.take(nxr2, v0, mode="clip") >= c32
                            # an alive pair member is >= v0-1, so the
                            # final rank filter passes outright when
                            # v0-1 >= cprun; only v0 == cprun needs to
                            # know which member was alive
                            ok4 = (v0 > cprun) & pa
                            edge = (v0 == cprun) & pa
                            if edge.any():
                                esel = np.nonzero(edge)[0]
                                ok4[esel] = (nxr[v0[esel]]
                                             >= c32[esel])
                            unres = hit3 & ~pa & (v0 > 0)
                            if unres.any():
                                usel = np.nonzero(unres)[0]
                                vinit = LF[v0[usel]]
                                vinit -= np.int32(2)
                                rj_u = _chain_resolve(
                                    vinit, c32[usel], nxr, nxr2, LF)
                                ok4[usel] = rj_u >= cprun[usel]
                            hit4 = hit3
                            np.bitwise_and(hit4, ok4, out=hit4)
                            counts.append(
                                int(np.count_nonzero(hit4)))
                        else:
                            sel_idx = np.nonzero(hit3)[0].astype(
                                np.int32)
                            _depth4_chain(sel_idx, j3[sel_idx],
                                          cprun[sel_idx], LF, nxr,
                                          nxr2, counts, cap)
            hist = self._hists[li]
            while len(counts) < cap:
                counts.append(0)
            hist[0] += d0_c
            for c in range(1, cap):
                hist[c] += counts[c - 1] - counts[c]
            hist[cap] += comp_c + counts[cap - 1]

    def _replay_full(self, prev, P):
        """Count the fully-associative column of one counted segment.

        ``prev`` links the carry prefix (P distinct blocks, LRU first)
        followed by the segment, so a segment reference's previous
        occurrence may lie in the prefix and its depth counts every
        distinct block the carry orders above it.  Depths at or past
        ``full_cap`` clamp to the miss bucket, which is exact: a
        ``full_cap``-entry stack has evicted such a block, even though
        the carry, which is never truncated, still ranks it.  The
        prefix positions are first references and are not counted.
        """
        counts = _full_depth_counts(prev, self._full_cap)
        counts[-1] -= P
        self._full_hist[:] = [
            total + new for total, new in zip(self._full_hist,
                                              counts.tolist())]

    def reset_counts(self) -> None:
        """Zero every histogram and the access counter; keep stacks."""
        for h in self._hists:
            h[:] = 0
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
                key: [0] + np.cumsum(hist).tolist()
                for key, hist in zip(self.ks, self._hists)}
        prefix = cum[k]
        return prefix[min(assoc, len(prefix) - 1)]

    def full_hits(self, entries: int) -> int:
        """Measured hits of a one-set LRU cache with that many entries."""
        if not self._full_cap:
            raise ValueError("single-set level was not enabled")
        cum = self._full_cum
        if cum is None:
            cum = self._full_cum = list(
                accumulate(self._full_hist, initial=0))
        return cum[min(entries, len(cum) - 1)]

    # -- introspection (tests, benchmarks) --------------------------------

    def histograms(self) -> Dict[int, List[int]]:
        """Per-level depth histograms, ``log2(num_sets) -> counts``."""
        return {k: hist.tolist()
                for k, hist in zip(self.ks, self._hists)}

    def stack_state(self):
        """Current per-set recency stacks, reconstructed from the carry.

        Same shape as ``MultiConfigLRU.stack_state()``: per level, a
        mapping of set index to the MRU-first block list; plus the
        single-set stack when enabled.  The carry is the global
        MRU-ordered distinct-block list, so each set's stack is its
        per-set filtration truncated at the level's depth cap, and the
        single-set stack is the carry's first ``full_cap`` blocks.
        """
        carry_b = self._carry_b.tolist()
        carry_p = self._carry_p.tolist()
        levels = {}
        for k, (mask, cap) in zip(self.ks, self.levels):
            sets: Dict[int, List] = {}
            for block, placement in zip(carry_b, carry_p):
                lst = sets.setdefault(placement & mask, [])
                if len(lst) < cap:
                    lst.append(block)
            levels[k] = sets
        state = {"levels": levels, "full": None}
        if self._full_cap:
            state["full"] = carry_b[:self._full_cap]
        return state


def np_next_use_times(blocks: Sequence) -> List[float]:
    """Vectorized :func:`repro.sweep.engine.next_use_times`.

    Same contract: ``result[i]`` is the index of the next reference to
    ``blocks[i]``, ``inf`` (== ``NEVER``) when there is none.  Computed
    from the block-sorted order instead of a backward python scan.
    """
    require_numpy()
    b = np.asarray(blocks, dtype=np.int64)
    n = len(b)
    result = np.full(n, np.inf)
    if n > 1:
        order = np.argsort(b, kind="stable")
        bs = b[order]
        same = bs[1:] == bs[:-1]
        result[order[:-1][same]] = order[1:][same]
    return result.tolist()


def np_dispatched_indices(trace):
    """:meth:`~repro.trace.columnar.Trace.dispatched_indices` as an
    array: the view's bytes of the dispatched bitset unpacked
    LSB-first in one pass, cut to the view's ``[start, stop)``."""
    require_numpy()
    bits, start, stop = trace.dispatched_bitset()
    first = start >> 3
    flags = np.unpackbits(
        np.frombuffer(bits, np.uint8, count=((stop + 7) >> 3) - first,
                      offset=first),
        bitorder="little")
    lo = start & 7
    return np.flatnonzero(flags[lo:lo + stop - start])


def np_itlb_ref_columns(opcodes: Sequence[int], classes: Sequence[int],
                        indices: Optional[Sequence[int]]):
    """Vectorized ITLB reference build: the ``array('q')`` keys and
    ``array('Q')`` placements of the pure loop in
    :func:`repro.sweep.runner._itlb_ref_columns`, byte for byte.

    The opcode and receiver-class columns are gathered at ``indices``
    (every event when None) and packed into the same injective int
    keys.  :func:`~repro.caches.setassoc.stable_hash` runs once per
    distinct key, on the ``(opcode, (receiver,))`` tuple the real ITLB
    hashes, and a gather spreads the hashes back over the stream.
    """
    require_numpy()
    op = np.asarray(opcodes)
    cls = np.asarray(classes)
    if indices is not None:
        at = np.asarray(indices)
        op = op[at]
        cls = cls[at]
    keys = op.astype(np.int64)
    keys <<= 32
    keys ^= cls.astype(np.int64) & 0xFFFFFFFF
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    hashes = np.array(
        [stable_hash((opcode, (receiver,))) for opcode, receiver
         in zip(op[first].tolist(), cls[first].tolist())], np.uint64)
    blocks = array("q")
    blocks.frombytes(keys.tobytes())
    placements = array("Q")
    placements.frombytes(hashes[inverse].tobytes())
    return blocks, placements
