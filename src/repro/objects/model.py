"""Classes, method dictionaries and method lookup.

The COM executes *abstract instructions*: an opcode is a message name
whose meaning is resolved against the class of its operands.  On an
ITLB miss "an instruction descriptor must be pulled in from the
appropriate message dictionary, via the standard technique of method
lookup" (section 2.1) -- i.e. the receiver's class hierarchy is walked,
hashing the selector into each class's message dictionary in turn.

The dictionaries here are real open-addressing hash tables with probe
counting so the cost of a full lookup (the thing the ITLB removes from
the critical path) is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import DoesNotUnderstandTrap, ReproError
from repro.memory.tags import NUM_CLASS_TAGS, Tag


@dataclass(frozen=True)
class PrimitiveMethod:
    """A method realised directly by a function unit.

    ``unit`` names the hardware function unit (see
    :mod:`repro.core.primitives`); the ITLB entry for this method has
    its primitive bit set and its method field selects the unit.
    """

    selector: str
    unit: str

    @property
    def is_primitive(self) -> bool:
        return True


@dataclass(frozen=True)
class DefinedMethod:
    """A method realised by code: the ITLB method field holds its address.

    ``code`` is the compiled method object (a CompiledMethod from the
    compiler, or any object exposing ``entry_address``); ``argument_count``
    is the number of operands the caller must copy into the new context.
    """

    selector: str
    code: object
    argument_count: int = 0

    @property
    def is_primitive(self) -> bool:
        return False


Method = object  # PrimitiveMethod | DefinedMethod (py39-friendly alias)


class MethodDictionary:
    """An open-addressing hash table from selector to method.

    Linear probing with power-of-two capacity, growing at 3/4 load.
    ``probes`` accumulates the number of slots inspected across all
    lookups -- the figure the ITLB exists to amortise away.
    """

    _TOMBSTONE = object()

    def __init__(self, capacity: int = 8) -> None:
        capacity = max(4, capacity)
        if capacity & (capacity - 1):
            capacity = 1 << capacity.bit_length()
        self._slots: List[Optional[Tuple[str, Method]]] = [None] * capacity
        self._count = 0
        self.probes = 0
        self.lookups = 0

    @staticmethod
    def _hash(selector: str) -> int:
        h = 0xCBF29CE484222325
        for ch in selector.encode("utf-8"):
            h ^= ch
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return h

    def _probe_sequence(self, selector: str) -> Iterator[int]:
        mask = len(self._slots) - 1
        index = self._hash(selector) & mask
        for _ in range(len(self._slots)):
            yield index
            index = (index + 1) & mask

    def install(self, selector: str, method: Method) -> None:
        """Add or replace the binding for ``selector``."""
        if (self._count + 1) * 4 >= len(self._slots) * 3:
            self._grow()
        first_tombstone = None
        for index in self._probe_sequence(selector):
            slot = self._slots[index]
            if slot is None:
                target = first_tombstone if first_tombstone is not None else index
                self._slots[target] = (selector, method)
                self._count += 1
                return
            if slot is self._TOMBSTONE:
                if first_tombstone is None:
                    first_tombstone = index
                continue
            if slot[0] == selector:
                self._slots[index] = (selector, method)
                return
        raise ReproError("method dictionary probe sequence exhausted")

    def remove(self, selector: str) -> bool:
        """Unbind a selector; returns whether it was present."""
        for index in self._probe_sequence(selector):
            slot = self._slots[index]
            if slot is None:
                return False
            if slot is self._TOMBSTONE:
                continue
            if slot[0] == selector:
                self._slots[index] = self._TOMBSTONE
                self._count -= 1
                return True
        return False

    def lookup(self, selector: str) -> Optional[Method]:
        """Find a method, counting hash probes."""
        self.lookups += 1
        for index in self._probe_sequence(selector):
            self.probes += 1
            slot = self._slots[index]
            if slot is None:
                return None
            if slot is self._TOMBSTONE:
                continue
            if slot[0] == selector:
                return slot[1]
        return None

    def _grow(self) -> None:
        old = [slot for slot in self._slots
               if slot is not None and slot is not self._TOMBSTONE]
        self._slots = [None] * (len(self._slots) * 2)
        self._count = 0
        for selector, method in old:
            self.install(selector, method)

    def selectors(self) -> List[str]:
        return [slot[0] for slot in self._slots
                if slot is not None and slot is not self._TOMBSTONE]

    def __len__(self) -> int:
        return self._count

    def __contains__(self, selector: str) -> bool:
        for index in self._probe_sequence(selector):
            slot = self._slots[index]
            if slot is None:
                return False
            if slot is self._TOMBSTONE:
                continue
            if slot[0] == selector:
                return True
        return False


class ObjectClass:
    """A class: a 16-bit tag, a superclass link and a message dictionary."""

    def __init__(
        self,
        class_tag: int,
        name: str,
        superclass: Optional["ObjectClass"] = None,
        instance_size: int = 0,
    ) -> None:
        if not 0 <= class_tag < NUM_CLASS_TAGS:
            raise ReproError(f"class tag {class_tag} out of 16-bit range")
        self.class_tag = class_tag
        self.name = name
        self.superclass = superclass
        self.instance_size = instance_size
        self.methods = MethodDictionary()

    def install(self, selector: str, method: Method) -> None:
        self.methods.install(selector, method)

    def define_primitive(self, selector: str, unit: str) -> PrimitiveMethod:
        method = PrimitiveMethod(selector, unit)
        self.install(selector, method)
        return method

    def define_method(self, selector: str, code: object,
                      argument_count: int = 0) -> DefinedMethod:
        method = DefinedMethod(selector, code, argument_count)
        self.install(selector, method)
        return method

    def ancestry(self) -> Iterator["ObjectClass"]:
        """This class and its superclasses, most specific first."""
        cls: Optional[ObjectClass] = self
        while cls is not None:
            yield cls
            cls = cls.superclass

    def is_kind_of(self, other: "ObjectClass") -> bool:
        return any(cls is other for cls in self.ancestry())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<class {self.name} tag={self.class_tag}>"


@dataclass
class LookupResult:
    """A successful full method lookup."""

    method: Method
    defining_class: ObjectClass
    dictionaries_searched: int
    probes: int


class ClassRegistry:
    """Assigns class tags and performs the full (slow-path) method lookup.

    Tags 0..5 are reserved for the primitive tags so that a primitive
    word's 16-bit class tag (the 4-bit tag zero-extended, section 3.2)
    is itself a valid class tag.
    """

    FIRST_USER_TAG = 16

    def __init__(self) -> None:
        self._by_tag: Dict[int, ObjectClass] = {}
        self._by_name: Dict[str, ObjectClass] = {}
        self._next_tag = self.FIRST_USER_TAG
        self.full_lookups = 0
        self.failed_lookups = 0
        self._install_primitive_classes()

    def _install_primitive_classes(self) -> None:
        names = {
            Tag.UNINITIALIZED: "Uninitialized",
            Tag.SMALL_INTEGER: "SmallInteger",
            Tag.FLOAT: "Float",
            Tag.ATOM: "Atom",
            Tag.INSTRUCTION: "Instruction",
            Tag.OBJECT_POINTER: "ObjectPointer",
        }
        for tag, name in names.items():
            cls = ObjectClass(int(tag), name)
            self._by_tag[int(tag)] = cls
            self._by_name[name] = cls

    # -- registration -----------------------------------------------------

    def define_class(
        self,
        name: str,
        superclass: Optional[ObjectClass] = None,
        instance_size: int = 0,
        class_tag: Optional[int] = None,
    ) -> ObjectClass:
        """Create and register a class, assigning the next free tag."""
        if name in self._by_name:
            raise ReproError(f"class {name!r} already defined")
        if class_tag is None:
            class_tag = self._next_tag
            self._next_tag += 1
        elif class_tag in self._by_tag:
            raise ReproError(f"class tag {class_tag} already in use")
        else:
            self._next_tag = max(self._next_tag, class_tag + 1)
        cls = ObjectClass(class_tag, name, superclass, instance_size)
        self._by_tag[class_tag] = cls
        self._by_name[name] = cls
        return cls

    def by_tag(self, class_tag: int) -> ObjectClass:
        try:
            return self._by_tag[class_tag]
        except KeyError:
            raise ReproError(f"no class with tag {class_tag}") from None

    def by_name(self, name: str) -> ObjectClass:
        try:
            return self._by_name[name]
        except KeyError:
            raise ReproError(f"no class named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def classes(self) -> Iterator[ObjectClass]:
        return iter(self._by_tag.values())

    # -- the slow path the ITLB caches --------------------------------------

    def lookup(self, selector: str, receiver_class: ObjectClass) -> LookupResult:
        """Full method lookup: walk the ancestry hashing into each dictionary.

        Raises :class:`DoesNotUnderstandTrap` when no class in the
        ancestry implements the selector.
        """
        self.full_lookups += 1
        searched = 0
        probes = 0
        for cls in receiver_class.ancestry():
            searched += 1
            before = cls.methods.probes
            method = cls.methods.lookup(selector)
            probes += cls.methods.probes - before
            if method is not None:
                return LookupResult(method, cls, searched, probes)
        self.failed_lookups += 1
        raise DoesNotUnderstandTrap(
            f"{receiver_class.name} does not understand {selector!r}",
            selector=selector,
            receiver_class=receiver_class,
        )

    def lookup_by_tag(self, selector: str, class_tag: int) -> LookupResult:
        """Lookup keyed by a 16-bit class tag (the ITLB miss path)."""
        return self.lookup(selector, self.by_tag(class_tag))
