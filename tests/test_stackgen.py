"""Tests for the stack bytecode compiler and VM (repro.smalltalk.stackgen)."""

import pytest

from repro.core.machine import COMMachine
from repro.errors import CompileError, DoesNotUnderstandTrap, FithError
from repro.smalltalk import compile_program
from repro.smalltalk.stackgen import (
    SOp,
    StackCompiler,
    StackVM,
    run_stack_program,
)


def run_both(source: str):
    """Run a source on both back ends; returns (com_word, stack_word)."""
    machine = COMMachine()
    main = compile_program(machine, source)
    com = machine.run_program(main, max_instructions=2_000_000)
    stack, vm = run_stack_program(source, max_instructions=2_000_000)
    return com, stack, machine, vm


class TestStackExecution:
    def test_arithmetic(self):
        result, vm = run_stack_program("main\n    ^2 + 3 * 4")
        assert result.value == 20     # left-assoc Smalltalk precedence

    def test_temps_and_control(self):
        result, _ = run_stack_program("""
        main | total |
            total := 0.
            1 to: 10 do: [:k | total := total + k].
            ^total
        """)
        assert result.value == 55

    def test_method_dispatch(self):
        result, _ = run_stack_program("""
        class A extends Object
        class B extends A
        A >> f
            ^1
        B >> f
            ^2
        main | b |
            b := B new.
            ^b f
        """)
        assert result.value == 2

    def test_instance_fields(self):
        result, _ = run_stack_program("""
        class P extends Object fields: x y
        P >> set
            x := 3. y := 4. ^self
        P >> sum
            ^x + y
        main | p |
            p := P new.
            p set.
            ^p sum
        """)
        assert result.value == 7

    def test_while(self):
        result, _ = run_stack_program("""
        main | i |
            i := 0.
            [i < 5] whileTrue: [i := i + 1].
            ^i
        """)
        assert result.value == 5

    def test_and_or(self):
        result, _ = run_stack_program("""
        main | n |
            n := 0.
            ((1 < 2) and: [2 < 3]) ifTrue: [n := n + 1].
            ((1 < 2) or: [3 < 2]) ifTrue: [n := n + 10].
            ((2 < 1) or: [2 < 3]) ifTrue: [n := n + 100].
            ^n
        """)
        assert result.value == 111

    def test_division_by_zero(self):
        with pytest.raises(FithError):
            run_stack_program("main\n    ^1 / 0")

    def test_instruction_budget(self):
        compiler = StackCompiler()
        compiler.compile_program("""
        main | i |
            i := 0.
            [true] whileTrue: [i := i + 1].
            ^i
        """)
        vm = StackVM(compiler)
        with pytest.raises(FithError, match="budget"):
            vm.run_main(max_instructions=100)
        # The budget exit leaves the counters complete: two set-up
        # instructions, then nine per loop pass with the send fifth, so
        # the first 100 instructions hold 11 sends.
        assert vm.instructions == 100
        assert vm.sends == 11

    def test_modulo(self):
        result, _ = run_stack_program("main\n    ^17 \\\\ 5")
        assert result.value == 2

    def test_modulo_by_zero_is_typed(self):
        with pytest.raises(FithError, match="modulo by zero"):
            run_stack_program("main\n    ^7 \\\\ 0")

    def test_modulo_of_non_integer_takes_method_lookup(self):
        # As on the COM, an atom has no \\ method: doesNotUnderstand.
        with pytest.raises(DoesNotUnderstandTrap):
            run_stack_program("main\n    ^#foo \\\\ 2")


class TestBackendAgreement:
    SOURCES = [
        "main\n    ^6 * 7",
        """
        SmallInteger >> fib
            self < 2 ifTrue: [^self].
            ^(self - 1) fib + (self - 2) fib
        main
            ^11 fib
        """,
        """
        main | total |
            total := 0.
            1 to: 25 do: [:i | total := total + (i * i)].
            ^total
        """,
        """
        class Box extends Object fields: v
        Box >> hold: n
            v := n. ^self
        Box >> get
            ^v
        main | b |
            b := Box new.
            b hold: 99.
            ^b get
        """,
        """
        main | n len |
            n := 27. len := 0.
            [n > 1] whileTrue: [
                (n \\\\ 2) = 0 ifTrue: [n := n / 2]
                              ifFalse: [n := (3 * n) + 1].
                len := len + 1
            ].
            ^len
        """,
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_same_result(self, source):
        com, stack, _machine, _vm = run_both(source)
        assert com.same_object_as(stack)

    @pytest.mark.parametrize("source", SOURCES)
    def test_stack_needs_more_instructions(self, source):
        # The section-5 design-study direction: the stack machine
        # always executes more instructions than three-address code.
        com, stack, machine, vm = run_both(source)
        assert vm.instructions > machine.cycles.instructions


class TestStackCompiler:
    def test_bytecode_shapes(self):
        compiler = StackCompiler()
        compiler.compile_program("main\n    ^1 + 2")
        ops = [instr.op for instr in compiler.main.code]
        assert ops == [SOp.PUSH_LIT, SOp.PUSH_LIT, SOp.SEND,
                       SOp.RETURN_TOP, SOp.HALT]

    def test_sends_counted(self):
        _result, vm = run_stack_program("main\n    ^1 + 2 + 3")
        assert vm.sends == 2

    def test_unknown_variable(self):
        with pytest.raises(CompileError):
            run_stack_program("main\n    ^zorp")

    def test_class_literal_is_atom(self):
        compiler = StackCompiler()
        compiler.compile_program("""
        class K extends Object
        main
            ^K new
        """)
        first = compiler.main.code[0]
        assert first.op is SOp.PUSH_LIT
        assert first.literal.value == "K"
