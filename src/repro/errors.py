"""Exception hierarchy for the COM reproduction.

The paper's machine signals *traps* for events that must be handled by
system software (bounds violations, segment aliasing, ITLB double
misses, free-list exhaustion).  We model each trap as an exception so
that simulator clients can either handle them (as the COM trap routines
would) or let them propagate as hard errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class TrapError(ReproError):
    """Base class for conditions the COM would raise as a hardware trap."""


class BoundsTrap(TrapError):
    """A segment access fell outside the segment's length.

    Carries enough context for the alias-forwarding trap handler of
    section 2.2 to decide whether the access should be retried through
    a forwarded (grown) segment.
    """

    def __init__(self, message: str, *, segment=None, offset=None, length=None):
        super().__init__(message)
        self.segment = segment
        self.offset = offset
        self.length = length


class AliasTrap(TrapError):
    """An access through a stale floating point address must be forwarded.

    Raised when an object has been grown out of the exponent range of an
    old pointer; the handler rewrites the pointer with the new segment
    name (paper section 2.2).
    """

    def __init__(self, message: str, *, old_address=None, new_address=None):
        super().__init__(message)
        self.old_address = old_address
        self.new_address = new_address


class SegmentFault(TrapError):
    """A virtual address named a segment with no descriptor."""


class ProtectionTrap(TrapError):
    """A capability did not permit the attempted access.

    Includes executing the conditionally privileged ``as`` instruction
    (tag forging) from unprivileged code.
    """


class DoesNotUnderstandTrap(TrapError):
    """Method lookup failed for (selector, receiver class) in every dictionary.

    The Smalltalk ``doesNotUnderstand:`` condition: an abstract
    instruction was executed whose opcode has no method for the operand
    classes, even after the full dictionary search on an ITLB miss.
    """

    def __init__(self, message: str, *, selector=None, receiver_class=None):
        super().__init__(message)
        self.selector = selector
        self.receiver_class = receiver_class


class FreeListExhausted(TrapError):
    """The context free list (or heap) had no block to allocate."""


class InvalidAddress(ReproError):
    """An address could not be encoded/decoded in the floating point format."""


class TagMismatch(ReproError):
    """A primitive operation was applied to words of the wrong tag.

    Note: in the COM this is *not* an error — it causes a method call.
    The simulator raises this only from internal function units that
    were invoked with operands the ITLB should never have routed there.
    """


class EncodingError(ReproError):
    """An instruction could not be encoded into or decoded from 32 bits."""


class AssemblerError(ReproError):
    """Source-level error in a COM assembly program."""


class CompileError(ReproError):
    """Source-level error in a Smalltalk-subset program."""


class FithError(ReproError):
    """Source-level or runtime error in a Fith program."""


class MachineHalted(ReproError):
    """The simulator was stepped after halting."""


class BackendUnavailable(ReproError):
    """An optional acceleration backend was requested but cannot run.

    Raised when ``engine="numpy"`` is forced while numpy is not
    importable in the environment.  The message says how to get the
    backend; ``engine="auto"`` never raises this -- it falls back to
    the pure-python single-pass engine instead.
    """


class SimulationLimitExceeded(ReproError):
    """A watchdog instruction budget was exceeded (runaway program)."""


# -- pipeline robustness taxonomy ------------------------------------
#
# Every failure the fault-tolerant experiment pipeline handles is
# typed, so the harness can count, log and route each path (retry vs
# quarantine) instead of pattern-matching on messages.


class PipelineError(ReproError):
    """Base class for failures of the experiment pipeline itself
    (store integrity, retry budgets) as opposed to simulated-machine
    conditions."""


class PayloadFormatError(PipelineError, ValueError):
    """Bytes that are not a current trace-store payload at all.

    Raised for a wrong magic, an unknown (e.g. legacy v1/v2) format
    version, or a blob too short to carry a header.  The store treats
    this as a *clean miss* -- the file belongs to an older layout or
    another tool -- never as corruption.  Subclasses ``ValueError``
    for callers that predate the taxonomy.
    """


class StoreCorruption(PipelineError):
    """A recognized trace-store payload failed its integrity check.

    The payload carried the current magic and version but its length
    or a CRC32 block checksum does not match: the file was truncated
    or bit-flipped after it was written.  The store quarantines such
    files (they are evidence, not cache entries) instead of silently
    regenerating over them.
    """

    def __init__(self, message: str, *, path=None):
        super().__init__(message)
        self.path = path

    @property
    def reason(self) -> str:
        return str(self.args[0]) if self.args else "corrupt payload"


class RetryExhausted(PipelineError):
    """A task failed on every attempt its retry budget allowed.

    Carries the last underlying error; the harness records a failure
    result for the experiment and lets the rest of the suite finish.
    """

    def __init__(self, message: str, *, task=None, attempts=None,
                 last_error=None):
        super().__init__(message)
        self.task = task
        self.attempts = attempts
        self.last_error = last_error


class FaultInjected(PipelineError):
    """Base class for errors raised by the fault-injection framework
    (:mod:`repro.faults`).  Real failures never subclass this, so
    tests can assert that an observed error was (or was not) one the
    chaos plan produced."""


class InjectedIOError(FaultInjected, OSError):
    """An injected IO failure; also an ``OSError`` so the injected
    path exercises exactly the handlers real IO errors would."""


class InjectedTaskError(FaultInjected):
    """An injected transient task failure (the retryable kind)."""
