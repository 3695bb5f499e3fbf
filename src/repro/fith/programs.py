"""The Fith workload corpus (the section-5 "large Fith programs").

The paper's traces came from unpublished Fith programs, the longest
about 20,000 instructions.  This corpus substitutes workloads of the
same scale and character: recursive arithmetic, array algorithms,
polymorphic dispatch over class hierarchies, object allocation churn
and float-heavy kernels.  Each entry is a function ``scale -> source``
so experiments can grow traces; :func:`trace_for` compiles, runs and
returns the recorded events.

Stack-effect conventions used throughout (``put`` pops value, index,
array; ``at`` pops index, array; ``!`` pops address, value):

    arr idx val put      arr idx at      value addr !

A synthetic generator (:func:`polymorphic_workload`) additionally
produces programs with a controlled number of classes and selectors,
used to stress the ITLB across its whole size sweep.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.fith.interp import FithMachine
from repro.trace.columnar import Trace, TraceBuilder


def hanoi(scale: int = 1) -> str:
    """Towers of Hanoi move counting: deep LIFO recursion."""
    disks = min(9 + scale, 16)
    return f"""
    variable moves
    0 moves !
    : count-move  moves @ 1 + moves ! ;
    :: SmallInteger move-tower ( n -- )
        dup 1 < if drop else
            dup 1 - move-tower
            count-move
            dup 1 - move-tower
            drop
        then ;
    {disks} move-tower
    moves @ .
    """


def sieve(scale: int = 1) -> str:
    """Sieve of Eratosthenes: array traffic, tight loops."""
    limit = 150 * scale
    return f"""
    variable primes
    {limit} array primes !
    variable count
    0 count !
    : flags primes @ ;
    : mark ( i -- )  flags swap true put ;
    : clear-multiples ( p -- )
        dup dup * begin
            dup {limit} < while
            dup mark
            over +
        repeat drop drop ;
    : run-sieve
        {limit} 2 do
            flags i at true = not if
                count @ 1 + count !
                i clear-multiples
            then
        loop ;
    run-sieve
    count @ .
    """


def sort(scale: int = 1) -> str:
    """In-place insertion sort over a pseudo-random array."""
    n = 40 * scale
    return f"""
    variable data
    {n} array data !
    variable seed
    12345 seed !
    : rand  seed @ 75 * 74 + 65537 mod dup seed ! ;
    : fill-data  {n} 0 do data @ i rand put loop ;
    : get ( i -- v )  data @ swap at ;
    : set ( i v -- )  data @ rot rot put ;
    : exch ( i j -- )
        over get over get   ( i j vi vj )
        swap rot swap       ( i vj j vi )
        set                 ( i vj )
        set ;
    : insert-sort
        {n} 1 do
            i begin
                dup 0 > if
                    dup get over 1 - get < if
                        dup dup 1 - exch
                        1 - true
                    else false then
                else false then
            while repeat drop
        loop ;
    : check-sorted
        true
        {n} 1 do
            i get i 1 - get >= and
        loop ;
    fill-data
    insert-sort
    check-sorted .
    data @ 0 at . data @ {n - 1} at .
    """


def shapes(scale: int = 1) -> str:
    """Polymorphic dispatch over a small class hierarchy."""
    rounds = 12 * scale
    return f"""
    class Circle 1
    class Square 1
    class Rect 2
    class Tri 2

    :: Circle area   0 at dup * 3 * ;
    :: Square area   0 at dup * ;
    :: Rect area     dup 0 at swap 1 at * ;
    :: Tri area      dup 0 at swap 1 at * 2 / ;
    :: Circle grow   dup 0 at 1 + over swap 0 swap put drop ;
    :: Square grow   dup 0 at 1 + over swap 0 swap put drop ;
    :: Rect grow     dup 0 at 1 + over swap 0 swap put drop ;
    :: Tri grow      dup 1 at 1 + over swap 1 swap put drop ;

    variable shapes-arr
    4 array shapes-arr !
    : setup
        #Circle new dup 0 2 put  shapes-arr @ 0 rot put
        #Square new dup 0 3 put  shapes-arr @ 1 rot put
        #Rect new dup 0 2 put dup 1 5 put  shapes-arr @ 2 rot put
        #Tri new dup 0 6 put dup 1 4 put  shapes-arr @ 3 rot put ;
    variable total
    0 total !
    : tally ( n -- ) total @ + total ! ;
    : round
        4 0 do
            shapes-arr @ i at grow
            shapes-arr @ i at area tally
        loop ;
    setup
    {rounds} 0 do round loop
    total @ .
    """


def bank(scale: int = 1) -> str:
    """Object churn: accounts with deposits and withdrawals."""
    accounts = 8
    rounds = 20 * scale
    return f"""
    class Account 1
    class Savings 1
    class Checking 1

    :: Account balance   0 at ;
    :: Savings balance   0 at ;
    :: Checking balance  0 at ;
    : set-balance ( acct n -- )  0 swap put ;
    : deposit ( acct n -- )  over balance + set-balance ;
    : withdraw ( acct n -- )  over balance swap - set-balance ;

    variable accounts-arr
    {accounts} array accounts-arr !
    variable seed
    777 seed !
    : rand  seed @ 75 * 74 + 65537 mod dup seed ! ;
    : nth ( i -- acct ) accounts-arr @ swap at ;
    : setup
        {accounts} 0 do
            i 3 mod 0 = if #Account new else
            i 3 mod 1 = if #Savings new else
            #Checking new then then
            dup 100 set-balance
            accounts-arr @ i rot put
        loop ;
    : churn
        {accounts} 0 do
            i nth rand 50 mod deposit
            i nth rand 25 mod withdraw
        loop ;
    setup
    {rounds} 0 do churn loop
    0 nth balance .
    """


def matrix(scale: int = 1) -> str:
    """Float-heavy kernel: dense matrix-vector products."""
    n = 8
    rounds = 8 * scale
    return f"""
    variable mat
    {n * n} array mat !
    variable vec
    {n} array vec !
    variable out
    {n} array out !
    : mset ( r c v -- )  rot rot swap {n} * + mat @ swap rot put ;
    : mget ( r c -- v )  swap {n} * + mat @ swap at ;
    : setup
        {n} 0 do
            {n} 0 do
                j i  j i + 1 + float 1.0 swap /  mset
            loop
            vec @ i  i 1 + float  put
        loop ;
    : mvmul
        {n} 0 do
            0.0
            {n} 0 do
                j i mget  vec @ i at  * +
            loop
            out @ i rot put
        loop ;
    setup
    {rounds} 0 do mvmul loop
    out @ 0 at .
    """


def fib(scale: int = 1) -> str:
    """Naive Fibonacci: maximal call/return density."""
    n = min(13 + scale, 22)
    return f"""
    :: SmallInteger fib
        dup 2 < if else dup 1 - fib swap 2 - fib + then ;
    {n} fib .
    """


def collatz(scale: int = 1) -> str:
    """Collatz trajectories: data-dependent branching."""
    limit = 40 * scale
    return f"""
    variable steps
    0 steps !
    : bump steps @ 1 + steps ! ;
    :: SmallInteger collatz
        begin dup 1 > while
            bump
            dup 2 mod 0 = if 2 / else 3 * 1 + then
        repeat drop ;
    {limit} 2 do i collatz loop
    steps @ .
    """


def polymorphic_workload(
    classes: int = 12, selectors: int = 24, rounds: int = 40,
    seed: int = 99, phase_length: int = 120,
    hot_classes: int = 5, hot_selectors: int = 10,
    stray_percent: int = 4,
) -> str:
    """Generate a synthetic program with a controlled dispatch surface.

    ``classes`` x ``selectors`` bounds the number of distinct ITLB keys
    the trace can touch.  Calls are issued in *phases*: each phase
    works a hot subset of ``hot_classes`` x ``hot_selectors`` keys with
    an occasional stray call outside it, modelling the phase-local
    locality of real programs (uniform random calls would thrash every
    LRU cache and match no real workload).  Method bodies chain to
    strictly lower-numbered selectors pseudo-randomly (a scrambled but
    guaranteed-terminating call graph).
    """
    state = seed or 1

    def rand(bound: int) -> int:
        nonlocal state
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        # Use the high bits: the low bits of a mod-2^31 LCG have tiny
        # periods and would collapse the (class, selector) space.
        return (state >> 16) % bound

    lines: List[str] = []
    for c in range(classes):
        lines.append(f"class C{c} 1")
    for c in range(classes):
        for s in range(selectors):
            if s < 4:
                # A few "real" methods: bump field 0, maybe chain down.
                body = "dup 0 at 1 + over swap 0 swap put"
                if s > 0 and rand(100) < 45:
                    body += f" dup m{rand(s)}"
                body += " drop"
            else:
                # Most methods are small (Smalltalk methods are tiny);
                # this keeps the code footprint proportional to the
                # class count rather than the full key space.
                body = f"dup m{rand(4)} drop" if rand(100) < 30 else "drop"
            lines.append(f":: C{c} m{s} {body} ;")
    lines.append("variable objs")
    lines.append(f"{classes} array objs !")
    for c in range(classes):
        lines.append(f"#C{c} new dup 0 0 put objs @ {c} rot put")
    # Call sites are grouped into phase *words*, each executed `reps`
    # times from a loop, so the instruction stream has the loop reuse
    # of real programs (straight-line call sites would be all-cold).
    reps = max(1, phase_length // 40)
    sites_per_phase = 40
    issued = 0
    phase_index = 0
    while issued < rounds:
        phase_classes = [rand(classes)
                         for _ in range(min(hot_classes, classes))]
        phase_selectors = [rand(selectors)
                           for _ in range(min(hot_selectors, selectors))]
        sites = []
        for _ in range(min(sites_per_phase, rounds - issued)):
            if rand(100) < stray_percent:
                obj, sel = rand(classes), rand(selectors)
            else:
                obj = phase_classes[rand(len(phase_classes))]
                sel = phase_selectors[rand(len(phase_selectors))]
            sites.append(f"objs @ {obj} at m{sel}")
            issued += 1
        lines.append(f": p{phase_index} " + " ".join(sites) + " ;")
        lines.append(f"{reps} 0 do p{phase_index} loop")
        phase_index += 1
    lines.append("objs @ 0 at 0 at .")
    return "\n".join(lines)


def gc_churn(scale: int = 1, slots: int = 16, batch: int = 48) -> str:
    """Allocation churn: a rotating window of short-lived objects.

    Every round allocates ``batch`` fresh objects of three classes and
    stores them into a ``slots``-entry window, unlinking the previous
    generation (which becomes garbage); a sweep then reads every
    survivor.  The trace is dominated by ``new``/``put`` traffic with a
    constantly moving object population -- the storage-management
    regime section 2.3 budgets for.
    """
    rounds = 30 * scale
    return f"""
    class Node 2
    class Leaf 1
    class Pair 2
    variable slots
    {slots} array slots !
    variable seed
    4242 seed !
    : rand  seed @ 75 * 74 + 65537 mod dup seed ! ;
    : churn
        {batch} 0 do
            i 3 mod 0 = if #Node new dup 0 i put dup 1 rand put else
            i 3 mod 1 = if #Leaf new dup 0 rand 64 mod put else
            #Pair new dup 0 i put dup 1 i 2 * put then then
            slots @ i {slots} mod rot put
        loop ;
    : sweep ( -- n )
        0 {slots} 0 do slots @ i at 0 at + loop ;
    variable total
    0 total !
    : round  churn sweep total @ + total ! ;
    {rounds} 0 do round loop
    total @ .
    """


def megamorphic(scale: int = 1, classes: int = 26) -> str:
    """A megamorphic dispatch storm: one call site, ``classes`` receivers.

    Every class implements the same two selectors; the storm loop walks
    an array holding one instance of each class, so consecutive sends at
    the *same* site see a different receiver class every time -- the
    worst case for any translation cache whose associativity is below
    the receiver count (the anti-workload to ``polymorphic_workload``'s
    phase locality).
    """
    rounds = 40 * scale
    lines: List[str] = []
    for c in range(classes):
        lines.append(f"class M{c} 1")
    for c in range(classes):
        lines.append(f":: M{c} poke dup 0 at 1 + over swap 0 swap put "
                     "drop ;")
        lines.append(f":: M{c} probe 0 at {c % 7} + ;")
    lines.append("variable objs")
    lines.append(f"{classes} array objs !")
    for c in range(classes):
        lines.append(f"#M{c} new dup 0 0 put objs @ {c} rot put")
    lines.append("variable acc")
    lines.append("0 acc !")
    lines.append(f": storm {classes} 0 do "
                 "objs @ i at poke "
                 "objs @ i at probe acc @ + acc ! "
                 "loop ;")
    lines.append(f"{rounds} 0 do storm loop")
    lines.append("acc @ .")
    return "\n".join(lines)


def deep_calls(scale: int = 1, depth: int = 500) -> str:
    """Deep-recursion call stress: frames far past the context cache.

    ``sink`` recurses ``depth`` levels (a single self-call chain);
    ``m-even``/``m-odd`` alternate through two code addresses for the
    same depth.  Call/return density approaches one send per two
    instructions, and the return stack grows to ``depth`` frames --
    the copy-back regime of the paper's context cache.
    """
    reps = 8 * scale
    return f"""
    :: SmallInteger sink
        dup 1 < if drop 0 else dup 1 - sink 1 + swap drop then ;
    :: SmallInteger m-even  dup 1 < if drop 1 else 1 - m-odd then ;
    :: SmallInteger m-odd   dup 1 < if drop 0 else 1 - m-even then ;
    variable total
    0 total !
    {reps} 0 do
        {depth} sink
        {depth} m-even +
        total @ + total !
    loop
    total @ .
    """


def redefinition_epoch(epoch: int, scale: int = 1,
                       classes: int = 6) -> str:
    """One epoch of method-redefinition churn (load, run, repeat).

    Epoch 0 declares the classes, the object population and the
    accumulator; every epoch (including 0) *redefines* ``work`` on all
    ``classes`` classes with a body that varies by ``(epoch, class)``
    and then drives a dispatch loop over the population.  Reloading a
    program into a live machine is the Fith analogue of the COM's
    ``install_method``: it shoots down the send-translation memo
    (PR-1's predecode invalidation path) and places the new method
    bodies at fresh code addresses, so the instruction cache sees a
    shifting footprint.
    """
    rounds = 10 * scale
    lines: List[str] = []
    if epoch == 0:
        for c in range(classes):
            lines.append(f"class R{c} 1")
        lines.append("variable objs")
        lines.append(f"{classes} array objs !")
        for c in range(classes):
            lines.append(f"#R{c} new dup 0 {c + 1} put objs @ {c} rot put")
        lines.append("variable acc")
        lines.append("0 acc !")
    bodies = [
        "0 at",
        "dup 0 at 1 + over swap 0 swap put 0 at",
        "0 at 2 *",
        "0 at 3 +",
    ]
    for c in range(classes):
        body = bodies[(epoch + c) % len(bodies)]
        lines.append(f":: R{c} work {body} ;")
    lines.append(f": e{epoch} {rounds} 0 do {classes} 0 do "
                 "objs @ i at work acc @ + acc ! "
                 "loop loop ;")
    lines.append(f"e{epoch}")
    lines.append("acc @ .")
    return "\n".join(lines)


#: Additional single-source workloads (not part of the calibrated
#: section-5 corpus: CORPUS feeds the figure-10/11 measurement trace,
#: whose operating points must not shift when scenarios are added).
EXTRA_WORKLOADS: Dict[str, Callable[[int], str]] = {
    "gc_churn": gc_churn,
    "megamorphic": megamorphic,
    "deep_calls": deep_calls,
}


#: The named corpus: name -> source builder.
CORPUS: Dict[str, Callable[[int], str]] = {
    "hanoi": hanoi,
    "sieve": sieve,
    "sort": sort,
    "shapes": shapes,
    "bank": bank,
    "matrix": matrix,
    "fib": fib,
    "collatz": collatz,
}


def trace_for(name_or_source: str, scale: int = 1,
              max_steps: int = 20_000_000, *, code_base: int = 0) -> Trace:
    """Run a corpus program (or literal source) and return its trace,
    with the program's code laid out from ``code_base``."""
    if name_or_source in CORPUS:
        source = CORPUS[name_or_source](scale)
    else:
        source = name_or_source
    machine = FithMachine(trace=True, code_base=code_base)
    machine.run_source(source, max_steps=max_steps)
    return machine.trace.snapshot()


def combined_trace(scale: int = 1, names=None,
                   max_steps: int = 20_000_000) -> Trace:
    """Concatenate the whole corpus into one long measurement trace.

    Each program runs in its own machine, its code laid out 64
    addresses past the highest address the programs before it
    executed, so the programs occupy disjoint code regions, as
    separate programs would.  Each part is recorded at its final
    addresses, so the concatenation is plain column extends; no
    per-event work.
    """
    builder = TraceBuilder()
    base = 0
    top = 0
    for name in (names or sorted(CORPUS)):
        part = trace_for(name, scale, max_steps, code_base=base)
        builder.extend(part)
        if len(part):
            top = max(top, max(part.addresses()))
        base = top + 64
    return builder.snapshot()
