"""Exception types shared across the workbench."""


class VecautoError(Exception):
    """Base class for all workbench errors."""


class ShapeError(VecautoError):
    """Operands have incompatible dimensions."""


class SingularMatrixError(VecautoError):
    """Matrix inversion was attempted on a singular matrix."""


class InvalidScalarError(VecautoError):
    """A scalar parameter is outside its legal range (e.g. zero scale)."""


class UnsupportedKindError(VecautoError):
    """The operation is not defined for this machine kind."""


class UnsupportedPassError(VecautoError):
    """The transformation pass does not apply to the given machine."""


class InconsistentSpecError(VecautoError):
    """A machine breaks an invariant that a run relies on: a deterministic
    machine's rules conflict (found when they are indexed, before a run's
    first step), or a run is asked of a machine of the other mode."""


class BuilderError(VecautoError):
    """A machine builder was called with out-of-range parameters."""


class AlphabetError(VecautoError):
    """A string or machine uses symbols outside the expected alphabet."""


class EncodingError(VecautoError):
    """A digit string contains symbols invalid for its base."""


class DomainError(VecautoError):
    """A value lies outside the mathematical domain of the operation."""


class MachineFileError(VecautoError):
    """A machine or system file could not be parsed."""


class UndecidedError(VecautoError):
    """A nondeterministic search exhausted its budget before deciding.

    Carries the input string and the budget that was in force so callers
    can retry with a larger budget or report the failure precisely.
    """

    def __init__(self, message, word=None, budget=None):
        super().__init__(message)
        self.word = word
        self.budget = budget


class ReferenceLanguageError(VecautoError):
    """A reference language name is unknown or its parameter is malformed."""
