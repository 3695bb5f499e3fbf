"""The workload registry: named, parameterized scenario generators.

A :class:`WorkloadSpec` describes one trace-producing scenario: a
name, a generator function (``**params -> Trace``), its
default parameters, the overrides applied in ``--quick`` mode, and a
*generator version*.  The version participates in the trace store's
cache key (:mod:`repro.workloads.store`), so bumping it whenever the
generator's output changes invalidates every cached trace it
produced -- the store's only invalidation rule.

Registering a scenario is one call (usually via the :func:`workload`
decorator in :mod:`repro.workloads.scenarios`); everything else --
``python -m repro list``, ``python -m repro trace``, the experiment
harness, the benchmarks -- picks it up from the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Tuple

from repro.trace.columnar import Trace


@dataclass(frozen=True)
class WorkloadSpec:
    """One named scenario generator.

    ``build(**params)`` must be deterministic: the same parameters
    must yield the same event stream on every run (the store's
    byte-identity tests enforce this).  Generators that change
    behaviour must bump ``version``.
    """

    name: str
    description: str
    build: Callable[..., Trace]
    defaults: Mapping[str, object] = field(default_factory=dict)
    quick_overrides: Mapping[str, object] = field(default_factory=dict)
    version: int = 1

    def resolve(self, *, quick: bool = False, scale: int = None,
                overrides: Mapping[str, object] = None) -> Dict[str, object]:
        """The full parameter dict for one materialization.

        Precedence (lowest first): defaults, quick overrides, the
        harness-wide ``scale`` (only if the generator declares a
        ``scale`` default), explicit overrides.
        """
        params = dict(self.defaults)
        if quick:
            params.update(self.quick_overrides)
        if scale is not None and "scale" in params:
            params["scale"] = scale
        if overrides:
            unknown = set(overrides) - set(params)
            if unknown:
                raise KeyError(
                    f"workload {self.name!r} has no parameter(s) "
                    f"{sorted(unknown)}; it takes {sorted(params)}")
            params.update(overrides)
        return params

    def generate(self, params: Mapping[str, object]) -> Trace:
        """Run the generator: the columnar Trace of one
        parameterization."""
        return self.build(**params)


_REGISTRY: Dict[str, WorkloadSpec] = {}


def register(spec: WorkloadSpec) -> WorkloadSpec:
    """Add a spec to the registry (idempotent for identical specs)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing != spec:
        raise ValueError(f"workload {spec.name!r} already registered "
                         f"with a different spec")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> WorkloadSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(
            f"unknown workload {name!r}; registered: {known}") from None


def check_scale(scale) -> None:
    """Reject a workload scale that is not an integer of at least 1
    (the check ``repro run``, ``repro trace`` and ``repro sweep``
    share)."""
    if isinstance(scale, bool) or not isinstance(scale, int):
        raise ValueError(f"--scale must be an integer, got {scale!r}")
    if scale < 1:
        raise ValueError(f"--scale must be at least 1, got {scale}")


def names() -> Tuple[str, ...]:
    """Registered workload names, in registration order."""
    return tuple(_REGISTRY)


def specs() -> Tuple[WorkloadSpec, ...]:
    return tuple(_REGISTRY.values())
