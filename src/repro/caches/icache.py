"""The instruction cache model (paper sections 3.6 and 5, figure 11).

"An instruction cache holds the instructions of frequently accessed
methods."  Figure 11 sweeps its hit ratio against cache size in
*entries* (8..4096) for several associativities, so the default line
size is one instruction; ``line_words`` generalises to multi-word
lines for ablation.
"""

from __future__ import annotations

from typing import Union

from repro.caches.setassoc import SetAssociativeCache


class InstructionCache:
    """A set-associative cache of instruction addresses."""

    def __init__(
        self,
        size: int = 4096,
        associativity: Union[int, str] = 2,
        line_words: int = 1,
        policy: str = "lru",
    ) -> None:
        if line_words <= 0 or line_words & (line_words - 1):
            raise ValueError("line_words must be a power of two")
        if size % line_words:
            raise ValueError("size must be a multiple of line_words")
        self.line_words = line_words
        # Instruction caches index with the address's low bits (modulo),
        # which is what makes direct-mapped conflict misses visible.
        self._cache: SetAssociativeCache[int, bool] = SetAssociativeCache(
            size // line_words, associativity, policy, index="modulo"
        )
        if line_words == 1:
            # One word per line: an address is its own line number, so
            # a probe goes straight to the set cache in one call.
            self.reference = self._cache.reference

    @property
    def stats(self):
        return self._cache.stats

    @property
    def size(self) -> int:
        """Capacity in instruction words."""
        return self._cache.size * self.line_words

    def reference(self, address: int) -> bool:
        """Probe with an instruction address; True on hit, fills on miss."""
        return self._cache.reference(address // self.line_words)

    def flush(self) -> None:
        self._cache.flush()

    def reset_stats(self) -> None:
        """Zero counters after the warm-up trace."""
        self._cache.stats.reset()

    def __len__(self) -> int:
        return len(self._cache)
