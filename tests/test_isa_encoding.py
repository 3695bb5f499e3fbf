"""Tests for opcodes, operand descriptors, instruction encoding and the
constant table (repro.core.{isa,operands,encoding,constants})."""

import pytest
from hypothesis import given, strategies as st

from repro.core.constants import (
    FALSE,
    NIL,
    TRUE,
    ConstantTable,
    boolean_word,
    is_true,
)
from repro.core.encoding import Instruction, disassemble
from repro.core.isa import (
    FIRST_USER_OPCODE,
    NUM_OPCODES,
    Op,
    OP_SELECTORS,
    OpcodeTable,
    architectural_op,
)
from repro.core.operands import (
    CONSTANT_TABLE_SIZE,
    MAX_CONTEXT_OFFSET,
    Mode,
    Operand,
    Space,
)
from repro.errors import EncodingError
from repro.memory.tags import Word


class TestOpcodeTable:
    def test_architectural_preloaded(self):
        table = OpcodeTable()
        for op in Op:
            assert table.selector_of(int(op)) == OP_SELECTORS[op]
            assert table.number_of(OP_SELECTORS[op]) == int(op)

    def test_intern_user_selector(self):
        table = OpcodeTable()
        number = table.intern("frobnicate:")
        assert number >= FIRST_USER_OPCODE
        assert table.intern("frobnicate:") == number
        assert table.selector_of(number) == "frobnicate:"

    def test_intern_is_deterministic(self):
        a, b = OpcodeTable(), OpcodeTable()
        for selector in ("x", "y:", "z"):
            assert a.intern(selector) == b.intern(selector)

    def test_architectural_op(self):
        assert architectural_op(int(Op.ADD)) is Op.ADD
        assert architectural_op(FIRST_USER_OPCODE) is None
        assert architectural_op(0) is None

    def test_unassigned_number(self):
        with pytest.raises(EncodingError):
            OpcodeTable().selector_of(NUM_OPCODES - 1)

    def test_number_of_unknown(self):
        assert OpcodeTable().number_of("nope") is None


class TestOperands:
    def test_spellings(self):
        assert str(Operand.current(3)) == "c3"
        assert str(Operand.next(1)) == "n1"
        assert str(Operand.constant(7)) == "k7"

    def test_parse(self):
        assert Operand.parse("c5") == Operand.current(5)
        assert Operand.parse("n0") == Operand.next(0)
        assert Operand.parse("k12") == Operand.constant(12)

    def test_parse_errors(self):
        for bad in ("x3", "c", "3c", "", "cX"):
            with pytest.raises(EncodingError):
                Operand.parse(bad)

    def test_offset_limits(self):
        Operand.current(MAX_CONTEXT_OFFSET)
        with pytest.raises(EncodingError):
            Operand.current(MAX_CONTEXT_OFFSET + 1)
        Operand.constant(CONSTANT_TABLE_SIZE - 1)
        with pytest.raises(EncodingError):
            Operand.constant(CONSTANT_TABLE_SIZE)

    @given(st.sampled_from(["current", "next", "constant"]),
           st.integers(0, MAX_CONTEXT_OFFSET))
    def test_encode_decode_roundtrip(self, kind, offset):
        operand = getattr(Operand, kind)(offset)
        assert Operand.decode(operand.encode()) == operand

    def test_decode_bad_bits(self):
        with pytest.raises(EncodingError):
            Operand.decode(1 << 7)


def _operand_strategy():
    return st.one_of(
        st.integers(0, MAX_CONTEXT_OFFSET).map(Operand.current),
        st.integers(0, MAX_CONTEXT_OFFSET).map(Operand.next),
        st.integers(0, CONSTANT_TABLE_SIZE - 1).map(Operand.constant),
    )


class TestInstructionEncoding:
    @given(st.integers(0, NUM_OPCODES - 1), _operand_strategy(),
           _operand_strategy(), _operand_strategy(), st.booleans())
    def test_three_operand_roundtrip(self, opcode, a, b, c, returns):
        instruction = Instruction.three(opcode, a, b, c, returns)
        word = instruction.encode()
        assert 0 <= word < (1 << 32)
        assert Instruction.decode(word) == instruction

    @given(st.integers(0, NUM_OPCODES - 1), st.integers(0, 2),
           st.integers(-(1 << 18), (1 << 18) - 1), st.booleans())
    def test_zero_operand_roundtrip(self, opcode, nargs, imm, returns):
        instruction = Instruction.zero(opcode, nargs, imm, returns)
        assert Instruction.decode(instruction.encode()) == instruction

    def test_formats_distinguished(self):
        three = Instruction.three(5, Operand.current(0),
                                  Operand.current(1), Operand.current(2))
        zero = Instruction.zero(5, nargs=1)
        assert Instruction.decode(three.encode()).is_zero_operand is False
        assert Instruction.decode(zero.encode()).is_zero_operand is True

    def test_bad_nargs(self):
        with pytest.raises(EncodingError):
            Instruction.zero(1, nargs=3)

    def test_bad_opcode(self):
        with pytest.raises(EncodingError):
            Instruction.zero(NUM_OPCODES)

    def test_immediate_range(self):
        with pytest.raises(EncodingError):
            Instruction.zero(1, immediate=1 << 19)

    def test_decode_oversized_word(self):
        with pytest.raises(EncodingError):
            Instruction.decode(1 << 32)

    def test_mnemonic(self):
        inst = Instruction.three(int(Op.ADD), Operand.current(2),
                                 Operand.current(3), Operand.constant(1),
                                 returns=True)
        table = OpcodeTable()
        assert inst.mnemonic(table) == "+ c2,c3,k1 ^"

    def test_disassemble(self):
        table = OpcodeTable()
        words = [Instruction.zero(int(Op.HALT)).encode()]
        lines = disassemble(words, table)
        assert len(lines) == 1
        assert "halt" in lines[0]


class TestConstantTable:
    def test_architectural_indices(self):
        table = ConstantTable()
        assert table.get(0) is NIL
        assert table.get(1) is TRUE
        assert table.get(2) is FALSE

    def test_small_integers_preloaded(self):
        table = ConstantTable()
        assert table.intern(Word.small_integer(0)) == 3
        assert table.intern(Word.small_integer(9)) == 12

    def test_intern_dedupes(self):
        table = ConstantTable()
        first = table.intern(Word.small_integer(42))
        second = table.intern(Word.small_integer(42))
        assert first == second

    def test_distinct_types_distinct_slots(self):
        table = ConstantTable()
        assert table.intern(Word.small_integer(1)) != \
            table.intern(Word.floating(1.0))

    def test_capacity(self):
        table = ConstantTable()
        room = CONSTANT_TABLE_SIZE - len(table)
        for i in range(room):
            table.intern(Word.small_integer(1000 + i))
        with pytest.raises(EncodingError):
            table.intern(Word.small_integer(99999))

    def test_get_unassigned(self):
        with pytest.raises(EncodingError):
            ConstantTable().get(60)


class TestTruthiness:
    def test_booleans(self):
        assert is_true(TRUE)
        assert not is_true(FALSE)
        assert not is_true(NIL)

    def test_integers(self):
        assert is_true(Word.small_integer(1))
        assert is_true(Word.small_integer(-1))
        assert not is_true(Word.small_integer(0))

    def test_boolean_word(self):
        assert boolean_word(True) is TRUE
        assert boolean_word(False) is FALSE

    def test_other_words_false(self):
        assert not is_true(Word.atom("something"))
        assert not is_true(Word.uninitialized())
