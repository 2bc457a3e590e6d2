"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(ReproError, ValueError):
    """An invalid cosmological or numerical parameter was supplied."""


class IntegrationError(ReproError, RuntimeError):
    """The ODE integrator failed (step size underflow, too many steps...)."""


class CompilerError(ReproError, RuntimeError):
    """The compiled solver could not be built or loaded: no C compiler,
    a broken toolchain, no writable kernel cache."""


class MessagePassingError(ReproError, RuntimeError):
    """A message-passing wrapper routine was misused or a backend failed."""


class ProtocolError(MessagePassingError):
    """The PLINGER master/worker protocol was violated (bad tag/sequence)."""


class ScheduleError(ReproError, RuntimeError):
    """The cluster schedule simulator received an inconsistent setup."""


class VerificationError(ReproError, AssertionError):
    """A verification check (constraint monitor, differential oracle,
    analytic-limit oracle) exceeded its tolerance budget."""


class CacheError(ReproError, RuntimeError):
    """The content-addressed on-disk store was misused or failed."""


class CorruptCacheEntry(CacheError):
    """A cache entry failed its content-digest check (torn write,
    truncation, bit rot).  The store deletes the entry before raising,
    so the caller can simply rebuild."""


class ServeError(ReproError, RuntimeError):
    """The spectrum service was misused, received a malformed request,
    or failed to complete one (the daemon maps this to an error
    response instead of dropping the connection)."""
