"""Shared result structures for the reproduction experiments.

Every experiment returns an :class:`ExperimentResult`: a set of
:class:`ClaimCheck` rows (paper claim vs measured value vs verdict),
a printable table, and the raw data dictionary for programmatic use
(tests and benchmarks assert on ``data``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class ClaimCheck:
    """One paper claim compared against our measurement."""

    claim: str
    paper: str
    measured: str
    holds: bool

    def row(self) -> str:
        verdict = "REPRODUCED" if self.holds else "DIVERGES"
        return f"  [{verdict:>10}] {self.claim}\n" \
               f"               paper: {self.paper}\n" \
               f"               measured: {self.measured}"


@dataclass
class ExperimentResult:
    """The outcome of one experiment run."""

    experiment: str
    description: str
    claims: List[ClaimCheck] = field(default_factory=list)
    table: str = ""
    data: Dict[str, object] = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return all(claim.holds for claim in self.claims)

    def check(self, claim: str, paper: str, measured: str,
              holds: bool) -> ClaimCheck:
        result = ClaimCheck(claim, paper, measured, holds)
        self.claims.append(result)
        return result

    def report(self) -> str:
        lines = [f"=== {self.experiment} ===", self.description, ""]
        if self.table:
            lines.append(self.table)
            lines.append("")
        for claim in self.claims:
            lines.append(claim.row())
        lines.append("")
        return "\n".join(lines)

