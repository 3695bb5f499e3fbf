"""The hit-ratio surface a sweep produces, with grid queries.

A :class:`ResultSurface` stores measured (hits, misses) for every
grid cell plus the optional reference curves, and answers the
questions the figures and experiments ask: point ratios, iso-ratio
thresholds ("smallest size reaching 99%") and whole curves.  It is
the one result type of a sweep: the figure tables render from
:meth:`ResultSurface.table` and the ASCII figures from
:func:`repro.trace.cachesim.ascii_plot`.  Ratios are computed exactly
as :class:`~repro.caches.stats.CacheStats` computes them (integer hit
and access counts, one float division), which is what makes the
single-pass engine's figures bitwise identical to the per-config
grid's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.caches.stats import CacheStats

Assoc = Union[int, str]
#: (hits, misses) for one grid cell.
Cell = Tuple[int, int]


def _ratio(cell: Cell) -> float:
    hits, misses = cell
    accesses = hits + misses
    if accesses == 0:
        return 0.0
    return hits / accesses


@dataclass
class ResultSurface:
    """Hit counts over a size x associativity grid plus reference curves.

    ``counts[assoc][size]`` holds measured ``(hits, misses)``;
    ``opt_counts`` the OPT/Belady curve when the spec asked for it.
    ``meta`` records provenance: which engine ran, how many simulation
    passes over the trace it took, and the measured access count.
    """

    spec: object                      # the SweepSpec that produced this
    counts: Dict[Assoc, Dict[int, Cell]]
    opt_counts: Optional[Dict[int, Cell]] = None
    meta: Dict[str, object] = field(default_factory=dict)

    # -- point queries ----------------------------------------------------

    @property
    def label(self) -> str:
        return self.spec.display_label

    @property
    def semantics(self) -> str:
        """Which measurement-semantics version produced the counts."""
        return self.meta.get("semantics", self.spec.semantics)

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(self.spec.sizes)

    @property
    def associativities(self) -> Tuple[Assoc, ...]:
        return tuple(self.counts)

    def cell(self, associativity: Assoc, size: int) -> Cell:
        return self.counts[associativity][size]

    def ratio(self, associativity: Assoc, size: int) -> float:
        return _ratio(self.cell(associativity, size))

    def stats(self, associativity: Assoc, size: int) -> CacheStats:
        """The cell as a CacheStats (fills mirror misses: every miss
        fills; evictions/invalidations are not tracked per cell)."""
        hits, misses = self.cell(associativity, size)
        return CacheStats(hits=hits, misses=misses, fills=misses)

    def opt_ratio(self, size: int) -> float:
        if self.opt_counts is None:
            raise ValueError("sweep did not request the OPT curve")
        return _ratio(self.opt_counts[size])

    # -- grid queries -----------------------------------------------------

    def grid(self) -> Iterator[Tuple[int, Assoc, float]]:
        """Every (size, associativity, hit ratio) cell, row-major."""
        for associativity, row in self.counts.items():
            for size in row:
                yield size, associativity, _ratio(row[size])

    def curve(self, associativity: Assoc) -> List[Tuple[int, float]]:
        """(size, ratio) along one associativity, in swept order."""
        row = self.counts[associativity]
        return [(size, _ratio(row[size])) for size in row]

    def smallest_size_reaching(self, target: float,
                               associativity: Assoc) -> Optional[int]:
        """Smallest swept size whose hit ratio meets ``target``.

        Sizes are considered in ascending order regardless of the
        order they were swept in.
        """
        row = self.counts[associativity]
        for size in sorted(row):
            if _ratio(row[size]) >= target:
                return size
        return None

    def isoratio(self, target: float) -> Dict[Assoc, Optional[int]]:
        """The iso-hit-ratio threshold for every swept associativity."""
        return {assoc: self.smallest_size_reaching(target, assoc)
                for assoc in self.counts}

    # -- result-cache payload ---------------------------------------------

    def to_payload(self) -> dict:
        """The surface as a JSON document for the on-disk result cache.

        Cells are ordered rows ``[assoc, size, hits, misses]`` --
        column order first, then the spec's size order -- so
        reconstruction rebuilds ``counts`` with iteration order
        identical to what the engine produced (the figure tables
        iterate dicts, and cached runs must render byte-identically).
        ``meta`` is carried verbatim for the same reason.
        """
        rows = [[assoc, size, *row[size]]
                for assoc, row in self.counts.items() for size in row]
        opt_rows = None
        if self.opt_counts is not None:
            opt_rows = [[size, *self.opt_counts[size]]
                        for size in self.opt_counts]
        return {"surface": 1, "counts": rows, "opt_counts": opt_rows,
                "meta": dict(self.meta)}

    @classmethod
    def from_payload(cls, spec, payload: dict) -> Optional["ResultSurface"]:
        """Rebuild a surface from :meth:`to_payload` output, or None
        when the document does not decode (the cache treats any
        malformed entry as a miss, never an error)."""
        try:
            if payload.get("surface") != 1:
                return None
            counts: Dict[Assoc, Dict[int, Cell]] = {}
            for assoc, size, hits, misses in payload["counts"]:
                counts.setdefault(assoc, {})[size] = (hits, misses)
            opt_rows = payload.get("opt_counts")
            opt_counts = None
            if opt_rows is not None:
                opt_counts = {size: (hits, misses)
                              for size, hits, misses in opt_rows}
            meta = dict(payload["meta"])
        except (KeyError, TypeError, ValueError):
            return None
        return cls(spec, counts, opt_counts, meta)

    # -- rendering --------------------------------------------------------

    def table(self) -> str:
        """A figure-style table including any reference curves."""
        columns: List[Tuple[str, Dict[int, Cell]]] = [
            (f"{assoc}-way" if assoc != "full" else "full",
             self.counts[assoc])
            for assoc in self.counts]
        if self.opt_counts is not None:
            columns.append(("OPT", self.opt_counts))
        header = "log2(size)  size " + "".join(
            f"{name:>10}" for name, _ in columns)
        lines = [f"{self.label} hit ratio vs cache size", header,
                 "-" * len(header)]
        for size in self.sizes:
            row = f"{size.bit_length() - 1:10d} {size:5d}"
            for _, cells in columns:
                row += f"{_ratio(cells[size]):10.4f}"
            lines.append(row)
        return "\n".join(lines)


def semantics_delta_table(paper: ResultSurface,
                          v2: ResultSurface) -> str:
    """A figure-style table of per-cell v2-minus-paper ratio deltas.

    Renders the measured cost of the paper's warm-up quirk family:
    every cell is ``v2 hit ratio - paper hit ratio`` for one (size,
    associativity) point, signed, so a column of zeros means the
    quirks did not bias that configuration.
    """
    if tuple(paper.counts) != tuple(v2.counts) or \
            paper.sizes != v2.sizes:
        raise ValueError("semantics delta needs matching grids")
    header = "log2(size)  size " + "".join(
        f"{(f'{assoc}-way' if assoc != 'full' else 'full'):>10}"
        for assoc in paper.counts)
    lines = [f"{paper.label} hit-ratio delta (v2 - paper semantics)",
             header, "-" * len(header)]
    for size in paper.sizes:
        row = f"{size.bit_length() - 1:10d} {size:5d}"
        for assoc in paper.counts:
            row += f"{v2.ratio(assoc, size) - paper.ratio(assoc, size):+10.4f}"
        lines.append(row)
    return "\n".join(lines)
