"""The instruction translation lookaside buffer (paper section 2.1).

"Each ITLB [entry] corresponds to a unique method and contains three
fields: 1) A key, containing an opcode and a set of operand classes;
2) A primitive bit describing whether the method is primitive or
defined; and 3) A method field indicating how the method is to be
accomplished."

The ITLB is an associative memory keyed by (opcode, operand class
tags).  On a miss the instruction descriptor is pulled in from the
appropriate message dictionary via the standard method lookup, then
cached.  The simulation of section 5 measures exactly this structure's
hit ratio; :meth:`ITLB.reference` provides the trace-driven interface
the cache simulator uses.  The machine's fetch loop probes with
``ITLB.probe``, does the method lookup itself on a miss and fills
with ``ITLB.fill``, so that it can attach the resolved function unit
(``ITLBEntry.function``) to the entry.  A failed lookup
(doesNotUnderstand) raises before the fill, so it is never cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

from repro.caches.setassoc import SetAssociativeCache

#: An ITLB key: the opcode number plus the operand class tags.
ITLBKey = Tuple[int, Tuple[int, ...]]


@dataclass(frozen=True)
class ITLBEntry:
    """One ITLB entry: the primitive bit and the method field.

    For a primitive method the method field selects a function unit
    (``unit``); otherwise it points to the code of a defined method
    (``method`` carries the full descriptor either way).
    """

    primitive: bool
    method: object          # PrimitiveMethod | DefinedMethod
    unit: Optional[str] = None
    #: The selected unit itself, resolved by whoever fills the entry
    #: for the key's operand count (the machine does), so a hit can
    #: call it directly.  None for defined methods, for units that act
    #: on machine state, and where the filler left it unresolved.
    function: Optional[Callable] = field(default=None, compare=False)

    @staticmethod
    def from_method(method, function: Optional[Callable] = None
                    ) -> "ITLBEntry":
        # Duck-typed on the is_primitive property shared by
        # PrimitiveMethod and DefinedMethod (repro.objects.model); the
        # ITLB itself has no dependency on the object model.
        if getattr(method, "is_primitive", False):
            return ITLBEntry(True, method, method.unit, function)
        return ITLBEntry(False, method)


class ITLB:
    """A set-associative cache of (opcode, classes) -> method entries."""

    def __init__(
        self,
        size: int = 512,
        associativity: Union[int, str] = 2,
        policy: str = "lru",
    ) -> None:
        self._cache: SetAssociativeCache[ITLBKey, ITLBEntry] = (
            SetAssociativeCache(size, associativity, policy)
        )
        #: Probe and fill on a whole :data:`ITLBKey`; ``probe`` returns
        #: the entry or the cache's ``MISS`` sentinel and counts the hit
        #: or miss.  The machine's fetch loop forms the key, so its
        #: probe is one call.
        self.probe = self._cache.probe
        self.fill = self._cache.fill

    @property
    def stats(self):
        return self._cache.stats

    @property
    def size(self) -> int:
        return self._cache.size

    @property
    def associativity(self) -> int:
        return self._cache.associativity

    @staticmethod
    def key(opcode: int, class_tags: Tuple[int, ...]) -> ITLBKey:
        return (opcode, tuple(class_tags))

    # -- trace-driven path (the section-5 simulator) ----------------------------

    def reference(self, opcode: int, class_tags: Tuple[int, ...]) -> bool:
        """Hit/miss probe for trace simulation; fills on miss."""
        return self._cache.reference(self.key(opcode, class_tags))

    # -- maintenance ---------------------------------------------------------------

    def invalidate_selector(self, opcode: int) -> int:
        """Shoot down every entry for one opcode (method redefinition).

        Smooth extensibility (section 2.1): changing a method's
        implementation must not require touching object code, only the
        cached translations.
        """
        return self._cache.invalidate_where(lambda key, _v: key[0] == opcode)

    def invalidate_class(self, class_tag: int) -> int:
        """Shoot down every entry mentioning one class (class change)."""
        return self._cache.invalidate_where(
            lambda key, _v: class_tag in key[1]
        )

    def flush(self) -> None:
        self._cache.flush()

    def reset_stats(self) -> None:
        """Zero counters after a warm-up trace (section 5 methodology)."""
        self._cache.stats.reset()

    def __len__(self) -> int:
        return len(self._cache)
