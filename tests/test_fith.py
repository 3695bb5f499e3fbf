"""Tests for the Fith language system (repro.fith, section 5)."""

import pytest

from repro.errors import DoesNotUnderstandTrap, FithError, TagMismatch
from repro.fith.code import FithOp, MACHINE_OP_SELECTORS
from repro.fith.interp import FithMachine
from repro.trace.columnar import TraceBuilder
from repro.fith.programs import (
    CORPUS,
    combined_trace,
    polymorphic_workload,
    trace_for,
)
from trace_helpers import trace_of


def run_fith(source: str, max_steps: int = 2_000_000) -> FithMachine:
    machine = FithMachine(trace=True)
    machine.run_source(source, max_steps=max_steps)
    return machine


def outputs(machine: FithMachine):
    return [word.value for word in machine.output]


class TestStackOps:
    def test_push_and_print(self):
        assert outputs(run_fith("1 2 3 . . .")) == [3, 2, 1]

    def test_dup_drop_swap_over_rot(self):
        assert outputs(run_fith("5 dup + .")) == [10]
        assert outputs(run_fith("1 2 drop .")) == [1]
        assert outputs(run_fith("1 2 swap . .")) == [1, 2]
        assert outputs(run_fith("1 2 over . . .")) == [1, 2, 1]
        assert outputs(run_fith("1 2 3 rot . . .")) == [1, 3, 2]

    def test_underflow(self):
        with pytest.raises(FithError):
            run_fith("drop")

    def test_dup_on_empty_stack(self):
        with pytest.raises(FithError, match="dup on empty stack"):
            run_fith("dup")

    def test_literals(self):
        machine = run_fith("1.5 . #foo . true . nil .")
        assert outputs(machine) == [1.5, "foo", "true", "nil"]


class TestArithmetic:
    def test_integer_ops(self):
        assert outputs(run_fith("7 3 + . 7 3 - . 7 3 * . 7 3 / . 7 3 mod .")) \
            == [10, 4, 21, 2, 1]

    def test_float_and_mixed(self):
        machine = run_fith("1.5 2.5 + . 2 1.5 * .")
        assert outputs(machine) == [4.0, 3.0]

    def test_comparisons(self):
        machine = run_fith("1 2 < . 2 1 < . 3 3 <= . 2 2 = . 2 3 <> .")
        assert outputs(machine) == ["true", "false", "true", "true", "true"]

    def test_min_max_abs_neg(self):
        assert outputs(run_fith("3 5 min . 3 5 max . 0 7 - abs . 4 neg .")) \
            == [3, 5, 7, -4]

    def test_division_by_zero(self):
        with pytest.raises(FithError):
            run_fith("1 0 /")

    def test_booleans(self):
        machine = run_fith("true false and . true false or . true not .")
        assert outputs(machine) == ["false", "true", "false"]


class TestControlFlow:
    def test_if_else_then(self):
        assert outputs(run_fith(": f 0 > if 1 else 2 then ; 5 f . 0 5 - f .")) \
            == [1, 2]

    def test_if_without_else(self):
        assert outputs(run_fith(": f dup 0 > if drop 99 then ; 5 f .")) == [99]

    def test_begin_until(self):
        machine = run_fith("""
        variable n
        0 n !
        : count begin n @ 1 + dup n ! 5 >= until ;
        count n @ .
        """)
        assert outputs(machine) == [5]

    def test_begin_while_repeat(self):
        machine = run_fith("""
        variable total
        0 total !
        variable k
        0 k !
        : sum begin k @ 10 < while total @ k @ + total ! k @ 1 + k ! repeat ;
        sum total @ .
        """)
        assert outputs(machine) == [45]

    def test_do_loop_with_index(self):
        machine = run_fith("""
        variable acc
        0 acc !
        5 0 do acc @ i + acc ! loop
        acc @ .
        """)
        assert outputs(machine) == [10]

    def test_nested_do_loops_j(self):
        machine = run_fith("""
        variable acc
        0 acc !
        3 0 do 3 0 do acc @ j 10 * i + + acc ! loop loop
        acc @ .
        """)
        # sum over outer j, inner i of (10j + i) = 90 + 9 = 99
        assert outputs(machine) == [99]

    def test_unbalanced_control(self):
        with pytest.raises(FithError):
            FithMachine().load(": f if ;")
        with pytest.raises(FithError):
            FithMachine().load("begin 1")

    def test_i_outside_loop(self):
        with pytest.raises(FithError):
            run_fith("i")


class TestDefinitionsAndDispatch:
    def test_colon_definition(self):
        assert outputs(run_fith(": square dup * ; 9 square .")) == [81]

    def test_class_specific_definition(self):
        machine = run_fith("""
        :: SmallInteger describe drop 1 ;
        :: Float describe drop 2 ;
        5 describe . 5.0 describe .
        """)
        assert outputs(machine) == [1, 2]

    def test_recursion_is_late_bound(self):
        assert outputs(run_fith(
            ":: SmallInteger fact dup 2 < if drop 1 else dup 1 - fact * "
            "then ; 5 fact .")) == [120]

    def test_redefinition_wins(self):
        machine = run_fith(": f 1 ; : g f ; : f 2 ; 0 g .")
        # g sends f; the send is late bound, so the new f answers 2.
        assert outputs(machine) == [2]

    def test_unknown_word_is_dnu(self):
        with pytest.raises(DoesNotUnderstandTrap):
            run_fith("1 zorble")

    def test_definition_without_semicolon(self):
        with pytest.raises(FithError):
            FithMachine().load(": f 1")

    def test_on_unknown_class(self):
        with pytest.raises(FithError):
            FithMachine().load(":: Zorp f 1 ;")


class TestObjectsAndVariables:
    def test_class_and_instances(self):
        machine = run_fith("""
        class Pair 2
        #Pair new dup 0 11 put dup 1 31 put
        dup 0 at swap 1 at + .
        """)
        assert outputs(machine) == [42]

    def test_arrays(self):
        machine = run_fith("""
        variable arr
        4 array arr !
        4 0 do arr @ i i i * put loop
        arr @ 3 at .
        arr @ size .
        """)
        assert outputs(machine) == [9, 4]

    def test_variables_are_cells(self):
        machine = run_fith("variable x 42 x ! x @ .")
        assert outputs(machine) == [42]

    def test_index_bounds(self):
        with pytest.raises(FithError):
            run_fith("1 array dup 5 at")


class TestTracing:
    def test_trace_fields(self):
        machine = run_fith("1 2 + .")
        events = machine.trace
        assert len(events) == 5   # push, push, send +, send ., halt
        assert events.dispatched_flag(0) is False     # push
        assert events.dispatched_flag(2) is True      # +
        assert machine.opcodes.selector_of(events.opcodes()[2]) == "+"
        # TOS at dispatch of + was the 2 (a SmallInteger).
        assert events.receiver_classes()[2] == \
            machine.registry.by_name("SmallInteger").class_tag

    def test_addresses_disjoint_across_words(self):
        machine = run_fith(": f 1 ; : g 2 ; 0 f drop 0 g drop")
        assert len(set(machine.trace.addresses())) > 4

    def test_trace_disabled_by_default(self):
        machine = FithMachine()
        machine.run_source("1 2 + drop")
        assert machine.trace is None

    def test_machine_ops_have_opcodes(self):
        machine = run_fith("1 drop")
        selectors = [machine.opcodes.selector_of(opcode)
                     for opcode in machine.trace.opcodes()]
        assert selectors == ["(push)", "(drop)", "(halt)"]

    def test_empty_stack_receiver_class(self):
        machine = run_fith(": f 1 drop ; f")
        first_send = machine.trace.dispatched_indices()[0]
        assert machine.trace.receiver_classes()[first_send] == -1


class TestFastPathFallbacks:
    """Sends of the hot primitives run inline when their operands are
    small integers or live object pointers in range; any other operand
    mix must reach the primitive's handler with the stack untouched, so
    results, errors, messages and the stack left behind are the
    handler's.  Expected values were recorded before the fast paths."""

    CASES = [
        ("1 134217727 +", (TagMismatch,
                           "134217728 does not fit in a small integer"), []),
        ("-134217728 1 -", (TagMismatch,
                            "-134217729 does not fit in a small integer"),
         []),
        ("99999 99999 *", (TagMismatch,
                           "9999800001 does not fit in a small integer"), []),
        ("1.5 2 +", None, [("FLOAT", 3.5)]),
        ("1.5 2 <", None, [("ATOM", "true")]),
        ("7 0 mod", (FithError, "modulo by zero"), []),
        ("-7 2 mod", None, [("SMALL_INTEGER", 1)]),
        ("#foo 3 =", None, [("ATOM", "false")]),
        ("#SmallInteger new 1 +", (FithError, "numeric word applied to "
                                   "<ptr 0x1 class=1>, <small_integer 1>"),
         []),
        ("3 array 5 at", (FithError, "index 5 out of bounds"), []),
        ("3 array -1 at", (FithError, "index -1 out of bounds"), []),
        ("5 2 at", (FithError, "not an object pointer: <small_integer 5>"),
         []),
        ("3 array dup 1 #x put 1 at", None, [("ATOM", "x")]),
        ("3 array 7 9 put", (FithError, "index 7 out of bounds"), []),
        ("0 array @", (FithError, "@ on empty object"), []),
        ("5 @", (FithError, "not an object pointer: <small_integer 5>"), []),
        ("1 0 array !", (FithError, "! on empty object"), []),
        ("1 !", (FithError, "stack underflow"), []),
        ("@", (FithError, "stack underflow"), []),
        ("1 swap", (FithError, "stack underflow"), []),
        ("drop", (FithError, "stack underflow"), []),
        ("#true if 1 else 2 then", None, [("SMALL_INTEGER", 1)]),
        ("nil if 1 else 2 then", None, [("SMALL_INTEGER", 2)]),
    ]

    @pytest.mark.parametrize("source, error, stack", CASES,
                             ids=[case[0] for case in CASES])
    def test_other_operands_reach_the_handler(self, source, error, stack):
        machine = FithMachine(trace=True)
        if error is None:
            machine.run_source(source)
        else:
            with pytest.raises(error[0]) as raised:
                machine.run_source(source)
            assert str(raised.value) == error[1]
        assert [(w.tag.name, w.value) for w in machine.stack] == stack
        assert len(machine.trace) == machine.steps


class TestDeferredRecording:
    """A traced run appends each step's address and receiver class and
    fills in the opcodes and dispatched bits when it exits, normally or
    by an error.  The expected events below were recorded by the
    per-event recorder this replaced: ``(address, opcode, receiver
    class, dispatched)``."""

    ABORTED = [
        pytest.param(
            ": step 1 + ; 0 begin step dup 100 > until .", 13,
            FithError, "exceeded step budget 13",
            [(3, 64, -1, False), (4, 100, 1, True), (0, 64, 1, False),
             (1, 1, 1, True), (2, 76, 1, False), (5, 65, 1, False),
             (6, 64, 1, False), (7, 79, 1, True), (8, 71, 3, False),
             (4, 100, 1, True), (0, 64, 1, False), (1, 1, 1, True),
             (2, 76, 1, False)],
            id="step-budget"),
        pytest.param(
            ": half 2 / ; : boom 0 / ; 9 half 7 boom .", 1000,
            FithError, "division by zero",
            [(6, 64, -1, False), (7, 100, 1, True), (0, 64, 1, False),
             (1, 4, 1, True), (2, 76, 1, False), (8, 64, 1, False),
             (9, 101, 1, True), (3, 64, 1, False), (4, 4, 1, True)],
            id="primitive-error"),
        pytest.param(
            ": f dup frobnicate ; 2 3 f", 1000,
            DoesNotUnderstandTrap, "does not understand 'frobnicate'",
            [(3, 64, -1, False), (4, 64, 1, False), (5, 101, 1, True),
             (0, 65, 1, False), (1, 100, 1, True)],
            id="not-understood"),
    ]

    @pytest.mark.parametrize("source, max_steps, error, message, expected",
                             ABORTED)
    def test_aborted_run_keeps_every_event(self, source, max_steps, error,
                                           message, expected):
        machine = FithMachine(trace=True)
        with pytest.raises(error, match=message):
            machine.run_source(source, max_steps=max_steps)
        assert machine.trace == trace_of(expected)
        assert len(machine.trace) == machine.steps

    @staticmethod
    def _per_event_reference(machine, words):
        """Re-record the machine's trace event by event, with each
        opcode and dispatched flag derived from the compiled
        instruction at the event's address."""
        at = {}
        for word in words:
            for offset, inst in enumerate(word.instructions):
                at[word.base_address + offset] = inst
        reference = TraceBuilder()
        for address, receiver in zip(machine.trace.addresses(),
                                     machine.trace.receiver_classes()):
            inst = at[address]
            sent = inst.op is FithOp.SEND
            opcode = machine.opcodes.number_of(
                inst.selector if sent else MACHINE_OP_SELECTORS[inst.op])
            reference.record(address, opcode, receiver, sent)
        return reference

    def test_epochs_match_per_event_recording(self):
        # Each load/run epoch appends a count of events that is not a
        # multiple of 8, so every later epoch starts mid-byte in the
        # dispatched bitset; the third epoch dies in a primitive.
        machine = FithMachine(trace=True)
        epochs = [
            ": tick 1 + ; variable n 0 n ! 5 0 do n @ tick n ! loop",
            ": tick 2 * ; n @ tick tick .",
            ": tick 0 mod ; 3 tick",
            ": tick dup 1 + swap drop ; n @ tick tick tick .",
        ]
        words = []
        counts = []
        for source in epochs:
            before = len(machine.trace)
            try:
                machine.run_source(source)
            except FithError:
                pass
            words.extend(machine._words.values())
            words.append(machine._main)
            counts.append(len(machine.trace) - before)
        assert all(count % 8 for count in counts), counts
        assert len(machine.trace) == machine.steps
        reference = self._per_event_reference(machine, words)
        assert machine.trace.to_bytes() == reference.to_bytes()
        assert machine.trace.dispatched_count() == \
            reference.dispatched_count()


class TestCorpus:
    EXPECTED = {
        "hanoi": [1023],
        "sieve": [35],               # primes below 150
        "fib": [377],                # fib(14)
        "collatz": [701],
        "matrix": [8.0],
    }

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_runs_and_traces(self, name):
        events = trace_for(name, scale=1)
        assert len(events) > 1000
        assert events.dispatched_count()

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_golden_outputs(self, name):
        machine = FithMachine()
        machine.run_source(CORPUS[name](1), max_steps=10_000_000)
        assert [w.value for w in machine.output] == self.EXPECTED[name]

    def test_sort_is_sorted(self):
        machine = FithMachine()
        machine.run_source(CORPUS["sort"](1), max_steps=10_000_000)
        verdict = machine.output[0]
        assert verdict.value == "true"

    def test_combined_trace_rebases_addresses(self):
        events = combined_trace(scale=1, names=["fib", "collatz"])
        fib_only = trace_for("fib", 1)
        assert len(events) > len(fib_only)
        # Addresses from the two programs do not collide.
        assert len(set(events.addresses())) >= \
            len(set(fib_only.addresses()))

    def test_polymorphic_workload_deterministic(self):
        assert polymorphic_workload(seed=5) == polymorphic_workload(seed=5)
        assert polymorphic_workload(seed=5) != polymorphic_workload(seed=6)

    def test_polymorphic_workload_runs(self):
        machine = FithMachine(trace=True)
        machine.run_source(polymorphic_workload(classes=4, selectors=6,
                                                rounds=50),
                           max_steps=2_000_000)
        assert machine.trace.unique_itlb_key_count() > 10
