"""The address translation lookaside buffer (paper section 3.1).

The ATLB caches virtual-to-absolute translations: it maps a
(team, segment name) key to the segment descriptor, so a hit resolves a
virtual address with one bounds check and no segment-table walk.

Because it associates on (team, name), a process switch needs no flush
-- only entries of a team whose table changed must be shot down, which
:meth:`ATLB.invalidate_team` and :meth:`ATLB.invalidate_segment`
provide.  Descriptors are cached by reference, so in-place descriptor
updates (length growth within the block) are visible without
invalidation; only rebinding a name requires a shoot-down.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.caches.setassoc import SetAssociativeCache
from repro.memory.segments import SegmentDescriptor, SegmentName

#: ATLB key: (team number, exponent, segment field).
ATLBKey = Tuple[int, int, int]


class ATLB:
    """A set-associative cache of segment descriptors."""

    def __init__(
        self,
        size: int = 64,
        associativity: Union[int, str] = 2,
        policy: str = "lru",
    ) -> None:
        self._cache: SetAssociativeCache[ATLBKey, SegmentDescriptor] = (
            SetAssociativeCache(size, associativity, policy)
        )
        #: Probe on a whole :data:`ATLBKey`: the descriptor or the
        #: cache's ``MISS`` sentinel, the hit or miss counted as
        #: :meth:`lookup` counts it.  ``MMU`` translation forms the key
        #: itself, so every translation's probe is one call.
        self.probe = self._cache.probe

    @property
    def stats(self):
        return self._cache.stats

    @staticmethod
    def _key(team: int, name: SegmentName) -> ATLBKey:
        return (team, name[0], name[1])

    def lookup(self, team: int, name: SegmentName) -> Optional[SegmentDescriptor]:
        """Probe for a cached descriptor; None on miss (counted)."""
        return self._cache.lookup(self._key(team, name))

    def fill(self, team: int, name: SegmentName, descriptor: SegmentDescriptor) -> None:
        """Install a translation after a table walk."""
        self._cache.fill(self._key(team, name), descriptor)

    def invalidate_segment(self, team: int, name: SegmentName) -> bool:
        """Shoot down one translation (name rebound or segment freed)."""
        return self._cache.invalidate(self._key(team, name))

    def invalidate_team(self, team: int) -> int:
        """Shoot down every translation belonging to one team space."""
        return self._cache.invalidate_where(lambda key, _value: key[0] == team)

    def __len__(self) -> int:
        return len(self._cache)
