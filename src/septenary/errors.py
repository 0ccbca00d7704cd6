"""Exception types shared across the package."""


class SeptenaryError(Exception):
    """Base class for errors raised by this package."""


class DegenerateInput(SeptenaryError):
    """Geometric input too degenerate to use (zero vector, off-plane, ...)."""


class EmptyInput(SeptenaryError):
    """An operation that needs at least two operands got fewer."""


class ArityUnsupported(SeptenaryError):
    """Closed-form evaluation asked for an operand count it cannot serve."""


class ConfigError(SeptenaryError):
    """A run configuration failed validation."""
