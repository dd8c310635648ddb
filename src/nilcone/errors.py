"""Exception hierarchy shared across the package."""


class NilconeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(NilconeError):
    """Malformed algebra file or certificate file."""


class NotADerivationError(NilconeError):
    """A vector or matrix claimed to be a derivation is not one."""


class InputError(NilconeError, ValueError):
    """Input the computation is not defined for, e.g. a non-positive trace."""


class InvariantViolation(NilconeError):
    """An internal consistency check failed; indicates a bug."""


class UnknownCatalogEntry(NilconeError):
    """Requested catalog id does not exist."""
