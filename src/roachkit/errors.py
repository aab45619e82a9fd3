"""Exception types shared across the library."""


class RoachkitError(Exception):
    """Base class for all library errors."""


class FrameFormatError(RoachkitError, ValueError):
    """Malformed frame data: bad indices, non-closed relation in strict mode, etc."""


class FormulaSyntaxError(RoachkitError, ValueError):
    """Unparseable formula text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PreconditionError(RoachkitError, ValueError):
    """An operation was applied outside its stated domain."""


class BudgetExceededError(RoachkitError, RuntimeError):
    """A brute-force search would exceed its configured budget."""


class CeilingExceededError(RoachkitError, ValueError):
    """Requested enumeration size is above the configured ceiling."""
