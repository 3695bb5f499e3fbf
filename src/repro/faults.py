"""Seeded, deterministic fault injection for the experiment pipeline.

The pipeline's fault tolerance is proven by *injecting* faults, not
by waiting for them.  This module is the reproduction's chaos layer:
a registry of named **injection sites** threaded through the store
and the harness, and a :class:`FaultPlan` (seed + per-site specs)
that decides -- deterministically -- which calls fail and how.

Sites
-----

========================  ==================================================
``store.read``            a trace payload was read from disk (key: filename)
``store.write``           a trace payload is about to be written (key: filename)
``store.result_cache``    a sweep result-cache entry was read (key: result
                          key); a corrupt entry must be a clean miss
``worker.task``           an experiment is about to run (key: experiment id)
========================  ==================================================

Kinds
-----

``io-error``   raise :class:`~repro.errors.InjectedIOError` (an OSError)
``corrupt``    flip a deterministic bit in the payload bytes
``truncate``   drop the second half of the payload bytes
``error``      raise :class:`~repro.errors.InjectedTaskError`
               (a transient, retryable task failure)

Determinism
-----------

Every decision is a pure function of ``(seed, site, key,
call-counter)`` -- a SHA-256 roll compared against the spec's
probability -- so the same seed reproduces the same injection
sequence.  :func:`install` arms a plan in this process (the harness
does so for the length of a run); ``times`` caps fires per ``(site,
key)``, which is what makes "fail once, then succeed" plans
terminate.

Plans are written in one syntax, ``site:kind[:p=][:times=]``
(:meth:`FaultPlan.parse`).  ``repro run --faults PLAN`` parses the
plan before the run starts, so a malformed one is a usage error.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro import telemetry
from repro.errors import FaultInjected, InjectedIOError, InjectedTaskError

#: The named injection sites the pipeline is instrumented with.
SITES = ("store.read", "store.write", "store.result_cache",
         "worker.task")

#: Supported fault kinds (see module docstring).
KINDS = ("io-error", "corrupt", "truncate", "error")


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: where, what, how often."""

    site: str
    kind: str
    probability: float = 1.0
    #: Max fires per (site, key); None = unlimited.
    times: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {SITES}")
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("fault probability must be in [0, 1]")
        if self.times is not None and self.times < 0:
            raise ValueError("fault times must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the injection rules it drives.

    Parses from the compact CLI syntax (:meth:`parse`)::

        site:kind[:p=0.5][:times=2][,site:kind...]
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    @classmethod
    def parse(cls, text: str, *, seed: int = 0) -> "FaultPlan":
        """Parse the CLI plan syntax into a plan; raises
        :class:`ValueError` for a malformed one."""
        text = text.strip()
        if not text:
            return cls(seed=seed)
        specs = []
        for entry in text.split(","):
            entry = entry.strip()
            if not entry:
                continue
            parts = entry.split(":")
            if len(parts) < 2:
                raise ValueError(
                    f"fault spec {entry!r} is not site:kind[:k=v...]")
            kwargs: Dict[str, object] = {"site": parts[0],
                                         "kind": parts[1]}
            for option in parts[2:]:
                if "=" not in option:
                    raise ValueError(
                        f"fault option {option!r} is not key=value")
                key, value = option.split("=", 1)
                key = {"p": "probability"}.get(key, key)
                convert = {"times": int, "probability": float}.get(key)
                if convert is None:
                    raise ValueError(f"unknown fault option {key!r}")
                try:
                    kwargs[key] = convert(value)
                except ValueError:
                    raise ValueError(
                        f"fault option {option!r} in {entry!r} needs "
                        f"{'an integer' if convert is int else 'a number'}"
                    ) from None
            specs.append(FaultSpec(**kwargs))
        return cls(seed=seed, specs=tuple(specs))


class ActiveFaults:
    """A plan armed in this process: counters plus the decision rolls."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        #: (site, key, spec-index) -> calls seen / fires so far.
        self._calls: Dict[Tuple[str, str, int], int] = {}
        self._fires: Dict[Tuple[str, str, int], int] = {}
        self.fired: int = 0

    def _roll(self, site: str, key: str, index: int, call: int) -> float:
        """A uniform [0, 1) draw, pure in (seed, site, key, spec
        index, call counter)."""
        # The 0 is the retired epoch field: seeded plans fire as before.
        token = f"{self.plan.seed}:0:{site}:{key}:{index}:{call}"
        digest = hashlib.sha256(token.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def pick(self, site: str, key: str) -> Optional[FaultSpec]:
        """The spec that fires for this call, or None.  Advances the
        per-(site, key) call counters either way."""
        chosen = None
        for index, spec in enumerate(self.plan.specs):
            if spec.site != site:
                continue
            slot = (site, key, index)
            call = self._calls.get(slot, 0)
            self._calls[slot] = call + 1
            if chosen is not None:
                continue  # still advance later specs' counters
            if spec.times is not None \
                    and self._fires.get(slot, 0) >= spec.times:
                continue
            if spec.probability < 1.0 \
                    and self._roll(site, key, index, call) >= spec.probability:
                continue
            self._fires[slot] = self._fires.get(slot, 0) + 1
            self.fired += 1
            chosen = spec
        return chosen


#: The armed plan, or None.
_ACTIVE: Optional[ActiveFaults] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Arm *plan* in this process; ``install(None)`` disarms."""
    global _ACTIVE
    _ACTIVE = ActiveFaults(plan) if plan is not None and plan.specs \
        else None


def active_plan() -> Optional[FaultPlan]:
    """The armed plan, or None."""
    return _ACTIVE.plan if _ACTIVE is not None else None


def fired_count() -> int:
    """Faults fired since the plan was armed (for run summaries)."""
    return _ACTIVE.fired if _ACTIVE is not None else 0


def _flip_bit(payload: bytes, roll: float) -> bytes:
    if not payload:
        return payload
    bit = int(roll * len(payload) * 8) % (len(payload) * 8)
    mutated = bytearray(payload)
    mutated[bit >> 3] ^= 1 << (bit & 7)
    return bytes(mutated)


def inject(site: str, key: str = "", payload: Optional[bytes] = None):
    """Maybe inject a fault at *site* for *key*.

    Returns *payload* (possibly corrupted/truncated) for byte-level
    sites; raises for the others.  With no plan armed this is a
    near-free no-op, so production paths call it unconditionally.
    """
    active = _ACTIVE
    if active is None:
        return payload
    spec = active.pick(site, key)
    if spec is None:
        return payload
    # Logged before the fault acts, counter flushed with the event, so
    # a run that dies right after still reports agreeing numbers.
    telemetry.event("fault.fired", site=site, kind=spec.kind, key=key)
    telemetry.inc("faults.fired", site=site, kind=spec.kind)
    telemetry.flush()
    label = f"injected {spec.kind} at {site}" + (f" [{key}]" if key else "")
    if spec.kind == "io-error":
        raise InjectedIOError(label)
    if spec.kind == "error":
        raise InjectedTaskError(label)
    if payload is None:
        # A payload kind at a non-payload call: surface as IO error
        # rather than silently doing nothing.
        raise InjectedIOError(label + " (no payload to mutate)")
    if spec.kind == "truncate":
        return payload[:len(payload) // 2]
    # corrupt: flip one deterministic bit.
    roll = active._roll(site, key, -1, active.fired)
    return _flip_bit(payload, roll)


__all__ = ["SITES", "KINDS", "FaultSpec", "FaultPlan", "ActiveFaults",
           "install", "inject", "active_plan", "fired_count",
           "FaultInjected"]
