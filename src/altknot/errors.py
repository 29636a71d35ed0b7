"""Exception types shared across the package.

Three broad families, mirrored by the CLI exit codes:

* input/encoding problems (bad PD text, broken incidence, non-spherical
  rotation systems)            -> exit code 2
* precondition failures (operation asked of a diagram that does not
  qualify, e.g. augmenting an alternating diagram)   -> exit code 1
* internal guarantee violations (things the construction promises and
  re-checks at runtime; any of these firing is a bug) -> exit code 3
"""

from __future__ import annotations


class DiagramError(Exception):
    """Base class for all package errors."""


# -- input / encoding ---------------------------------------------------------

class PDSyntaxError(DiagramError):
    """Malformed PD record text."""


class IncidenceError(DiagramError):
    """An edge id is not used exactly twice across all crossing slots."""


class SphericityError(DiagramError):
    """The rotation system does not embed in the sphere (V - E + F != 2)."""


class UnknownCrossing(DiagramError, KeyError):
    pass


class UnknownFace(DiagramError, KeyError):
    pass


class UnknownEdge(DiagramError, KeyError):
    pass


class UnknownComponent(DiagramError, KeyError):
    """The diagram has no link component with the requested id."""


# -- preconditions ------------------------------------------------------------

class PreconditionError(DiagramError):
    """The diagram does not satisfy the operation's entry requirements."""

    def __init__(self, message: str, failed_flag: str | None = None):
        super().__init__(message)
        self.failed_flag = failed_flag


class NotConnected(PreconditionError):
    pass


class DomainError(PreconditionError):
    """Numeric argument outside the formula's domain."""


class NotCertified(PreconditionError):
    """A volume report was requested for an uncertified augmentation."""


class RetryExhausted(PreconditionError):
    """The random generator failed to produce a qualifying diagram."""


class RenderError(PreconditionError):
    pass


# -- internal guarantees ------------------------------------------------------

class InternalInvariantError(DiagramError):
    """A property the construction guarantees failed at runtime."""


class SigmaMismatch(InternalInvariantError):
    """Cross-class edges disagree with the non-alternating edge set."""


class ConstructionError(InternalInvariantError):
    """A cut-curve system violated one of its promised properties."""


class AlternationError(InternalInvariantError):
    """A pipeline stage produced a non-alternating diagram."""


class NoPathError(InternalInvariantError):
    """No admissible merge arc exists between augmenting curves."""


class InvariantError(InternalInvariantError):
    """Generic guaranteed-property violation."""


class JoinError(InternalInvariantError):
    """The band splice of two circles on their shared face is not
    alternating or fails the local edit check."""


class MappingError(InternalInvariantError):
    """Original-edge bookkeeping is inconsistent."""


class ReductionInvariantError(InternalInvariantError):
    """The reduction ended with a larger twist count than it started
    from."""


def exit_code_for(exc: BaseException) -> int:
    """CLI exit code for an exception (0 is success, reserved)."""
    if isinstance(exc, InternalInvariantError):
        return 3
    if isinstance(exc, PreconditionError):
        return 1
    if isinstance(exc, (DiagramError, OSError)):
        return 2
    return 3
