"""Simulator configuration and machine factories.

Before this module existed every experiment, benchmark and example
built its machines inline (``COMMachine()`` here, ``FithMachine(
trace=True)`` there), so changing a structure size for a study meant
hunting down a dozen call sites.  :class:`SimConfig` is the single
description of a simulated machine -- the paper's structure sizes are
its defaults -- and :func:`make_com` / :func:`make_fith` are the only
constructors the rest of the repository should use.

``SimConfig`` is a frozen dataclass: configurations hash, compare and
``dataclasses.replace`` cleanly, so a study can derive variants of
one configuration without touching the original.

Quickstart::

    from repro.config import SimConfig, make_com, make_fith

    machine = make_com()                       # the paper's COM
    small = make_com(itlb_size=8, itlb_associativity=1)
    tracer = make_fith(trace=True)             # section-5 tracing Fith

    study = SimConfig(icache_size=1024).replace(icache_associativity=4)
    machine = study.com()
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.machine import COMMachine
from repro.fith.interp import FithMachine


@dataclass(frozen=True)
class SimConfig:
    """One simulated machine, by value.

    The fields mirror the paper's hardware structures: a 36-bit
    floating-point address, a 512-entry 2-way ITLB (figure 10's
    operating point), a 4096-entry 2-way instruction cache (figure
    11's), and a 32-block context cache (section 2.3).  ``trace``
    only affects the Fith machine (the COM records its trace through
    the profile instead); ``predecode`` selects the PR-1 fast path
    and never changes observable results.
    """

    address_bits: int = 36
    itlb_size: int = 512
    itlb_associativity: Union[int, str] = 2
    icache_size: int = 4096
    icache_associativity: Union[int, str] = 2
    context_blocks: int = 32
    context_pool_limit: Optional[int] = None
    predecode: bool = True
    trace: bool = False

    def replace(self, **overrides) -> "SimConfig":
        """A copy of this config with the given fields changed."""
        return dataclasses.replace(self, **overrides)

    def com(self, *, cycle_params=None, hierarchy=None) -> COMMachine:
        """Build a COM functional simulator from this config.

        ``cycle_params`` and ``hierarchy`` carry live objects (cost
        tables, a shared memory hierarchy) and therefore stay
        per-call arguments rather than config fields.
        """
        return COMMachine(
            address_bits=self.address_bits,
            itlb_size=self.itlb_size,
            itlb_associativity=self.itlb_associativity,
            icache_size=self.icache_size,
            icache_associativity=self.icache_associativity,
            context_blocks=self.context_blocks,
            context_pool_limit=self.context_pool_limit,
            predecode=self.predecode,
            cycle_params=cycle_params,
            hierarchy=hierarchy,
        )

    def fith(self) -> FithMachine:
        """Build a Fith interpreter from this config."""
        return FithMachine(trace=self.trace)


#: The paper's machine: every structure at its published size.
DEFAULT_CONFIG = SimConfig()


def make_com(config: Optional[SimConfig] = None, *, cycle_params=None,
             hierarchy=None, **overrides) -> COMMachine:
    """Build a COM machine; keyword overrides patch the config."""
    base = config or DEFAULT_CONFIG
    if overrides:
        base = base.replace(**overrides)
    return base.com(cycle_params=cycle_params, hierarchy=hierarchy)


def make_fith(config: Optional[SimConfig] = None,
              **overrides) -> FithMachine:
    """Build a Fith interpreter; keyword overrides patch the config."""
    base = config or DEFAULT_CONFIG
    if overrides:
        base = base.replace(**overrides)
    return base.fith()
