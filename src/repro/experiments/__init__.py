"""Experiments regenerating every figure and quantitative claim.

Index (see DESIGN.md section 4):

==========  ======================================================
FIG-10      ITLB hit ratio vs cache size      (:mod:`.fig10`)
FIG-11      instruction cache hit ratio        (:mod:`.fig11`)
TAB-CALL    call/return cycle costs            (:mod:`.call_cost`)
TAB-CTX     context allocation statistics      (:mod:`.context_stats`)
TAB-CCACHE  context cache vs nesting depth     (:mod:`.context_cache`)
TAB-ADDR    floating vs fixed addressing       (:mod:`.addr_compare`)
TAB-3ADDR   stack vs three-address counts      (:mod:`.stack_vs_3addr`)
==========  ======================================================

Every module registers an :class:`~repro.experiments.registry
.ExperimentSpec`; ``python -m repro run`` drives the registry, with
``--only/--skip`` selection, and ``python -m repro list --experiments``
prints it.
"""

from repro.experiments.common import ClaimCheck, ExperimentResult
from repro.experiments.registry import ExperimentSpec, RunContext

__all__ = ["ClaimCheck", "ExperimentResult", "ExperimentSpec",
           "RunContext"]
