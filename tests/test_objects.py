"""Tests for the object model, heap and context recycler (repro.objects)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DoesNotUnderstandTrap, ReproError
from repro.memory.fpa import address_format
from repro.memory.mmu import MMU
from repro.memory.tags import Tag, Word
from repro.objects.gc import ContextRecycler
from repro.objects.heap import ObjectHeap
from repro.objects.model import (
    ClassRegistry,
    DefinedMethod,
    MethodDictionary,
    ObjectClass,
    PrimitiveMethod,
)


class TestMethodDictionary:
    def test_install_lookup(self):
        methods = MethodDictionary()
        method = PrimitiveMethod("+", "arith.add")
        methods.install("+", method)
        assert methods.lookup("+") is method
        assert methods.lookup("-") is None

    def test_replace(self):
        methods = MethodDictionary()
        methods.install("f", PrimitiveMethod("f", "a"))
        methods.install("f", PrimitiveMethod("f", "b"))
        assert methods.lookup("f").unit == "b"
        assert len(methods) == 1

    def test_remove_and_tombstone_probing(self):
        methods = MethodDictionary(capacity=4)
        for name in ("a", "b", "c"):
            methods.install(name, PrimitiveMethod(name, name))
        assert methods.remove("b") is True
        assert methods.remove("b") is False
        # Entries past the tombstone stay reachable.
        assert methods.lookup("a") is not None
        assert methods.lookup("c") is not None
        assert "b" not in methods

    def test_growth(self):
        methods = MethodDictionary(capacity=4)
        for i in range(50):
            methods.install(f"sel{i}", PrimitiveMethod(f"sel{i}", "u"))
        assert len(methods) == 50
        for i in range(50):
            assert methods.lookup(f"sel{i}") is not None

    def test_probe_counting(self):
        methods = MethodDictionary()
        methods.install("x", PrimitiveMethod("x", "u"))
        before = methods.probes
        methods.lookup("x")
        assert methods.probes > before
        assert methods.lookups == 1

    def test_selectors(self):
        methods = MethodDictionary()
        methods.install("a", PrimitiveMethod("a", "u"))
        methods.install("b", PrimitiveMethod("b", "u"))
        assert sorted(methods.selectors()) == ["a", "b"]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from("ixrl"),
                  st.text(alphabet="abcdef", min_size=1, max_size=4)),
        max_size=60))
    def test_matches_dict_semantics(self, operations):
        methods = MethodDictionary(capacity=4)
        reference = {}
        for action, key in operations:
            if action in ("i", "x"):
                method = PrimitiveMethod(key, action)
                methods.install(key, method)
                reference[key] = method
            elif action == "r":
                assert methods.remove(key) == (key in reference)
                reference.pop(key, None)
            else:
                assert methods.lookup(key) is reference.get(key)
        assert len(methods) == len(reference)
        assert sorted(methods.selectors()) == sorted(reference)


class TestClassRegistry:
    def test_primitive_classes_preinstalled(self):
        registry = ClassRegistry()
        assert registry.by_tag(int(Tag.SMALL_INTEGER)).name == "SmallInteger"
        assert registry.by_name("Float").class_tag == int(Tag.FLOAT)

    def test_define_class_assigns_tags(self):
        registry = ClassRegistry()
        a = registry.define_class("A")
        b = registry.define_class("B")
        assert b.class_tag == a.class_tag + 1
        assert a.class_tag >= ClassRegistry.FIRST_USER_TAG

    def test_duplicate_name_rejected(self):
        registry = ClassRegistry()
        registry.define_class("A")
        with pytest.raises(ReproError):
            registry.define_class("A")

    def test_explicit_tag(self):
        registry = ClassRegistry()
        cls = registry.define_class("A", class_tag=100)
        assert cls.class_tag == 100
        with pytest.raises(ReproError):
            registry.define_class("B", class_tag=100)

    def test_ancestry_lookup(self):
        registry = ClassRegistry()
        base = registry.define_class("Base")
        mid = registry.define_class("Mid", base)
        leaf = registry.define_class("Leaf", mid)
        base.define_primitive("root", "u1")
        mid.define_primitive("middle", "u2")
        result = registry.lookup("root", leaf)
        assert result.defining_class is base
        assert result.dictionaries_searched == 3
        assert registry.lookup("middle", leaf).defining_class is mid

    def test_override_shadows_super(self):
        registry = ClassRegistry()
        base = registry.define_class("Base")
        leaf = registry.define_class("Leaf", base)
        base.define_primitive("f", "base-unit")
        leaf.define_primitive("f", "leaf-unit")
        assert registry.lookup("f", leaf).method.unit == "leaf-unit"
        assert registry.lookup("f", base).method.unit == "base-unit"

    def test_dnu(self):
        registry = ClassRegistry()
        cls = registry.define_class("A")
        with pytest.raises(DoesNotUnderstandTrap) as exc:
            registry.lookup("missing", cls)
        assert exc.value.selector == "missing"
        assert registry.failed_lookups == 1

    def test_is_kind_of(self):
        registry = ClassRegistry()
        base = registry.define_class("Base")
        leaf = registry.define_class("Leaf", base)
        assert leaf.is_kind_of(base)
        assert not base.is_kind_of(leaf)


@pytest.fixture
def heap():
    mmu = MMU(address_format(36), arena_words=1 << 16)
    return ObjectHeap(mmu, team=0)


@pytest.fixture
def point_class():
    registry = ClassRegistry()
    return registry.define_class("Point", instance_size=2)


class TestObjectHeap:
    def test_allocate_and_fields(self, heap, point_class):
        address = heap.allocate(point_class)
        heap.store(address, 0, Word.small_integer(3))
        heap.store(address, 1, Word.small_integer(4))
        assert heap.load(address, 0).value == 3
        assert heap.load(address, 1).value == 4

    def test_class_tag_recorded(self, heap, point_class):
        address = heap.allocate(point_class)
        assert heap.class_tag_of(address) == point_class.class_tag

    def test_pointer_word(self, heap, point_class):
        address = heap.allocate(point_class)
        pointer = heap.pointer_to(address)
        assert pointer.is_pointer
        assert pointer.class_tag == point_class.class_tag
        assert pointer.value == address.packed

    def test_allocation_stats_by_kind(self, heap, point_class):
        heap.allocate(point_class)
        heap.allocate_context(point_class, 32)
        heap.allocate_context(point_class, 32)
        stats = heap.stats
        assert stats.allocations["object"] == 1
        assert stats.allocations["context"] == 2
        assert stats.total_allocations == 3


class TestContextRecycler:
    def test_lifo_path(self):
        recycler = ContextRecycler()
        recycler.note_allocation(1)
        assert recycler.on_return(1) is True
        assert recycler.stats.lifo_fraction == 1.0

    def test_captured_path(self):
        recycler = ContextRecycler()
        recycler.note_allocation(1)
        recycler.note_capture(1)
        assert recycler.on_return(1) is False
        assert recycler.stats.returned_non_lifo == 1
        assert recycler.stats.lifo_fraction == 0.0

    def test_mixed_fraction(self):
        recycler = ContextRecycler()
        for packed in range(10):
            recycler.note_allocation(packed)
        recycler.note_capture(3)
        recycler.note_capture(7)
        for packed in range(10):
            recycler.on_return(packed)
        assert recycler.stats.lifo_fraction == pytest.approx(0.8)
