"""The object model: classes, method dictionaries, the heap and
context recycling."""

from repro.objects.gc import ContextRecycler
from repro.objects.heap import AllocationStats, ObjectHeap
from repro.objects.model import (
    ClassRegistry,
    DefinedMethod,
    LookupResult,
    MethodDictionary,
    ObjectClass,
    PrimitiveMethod,
)

__all__ = [
    "AllocationStats", "ClassRegistry", "ContextRecycler",
    "DefinedMethod", "LookupResult", "MethodDictionary", "ObjectClass",
    "ObjectHeap", "PrimitiveMethod",
]
