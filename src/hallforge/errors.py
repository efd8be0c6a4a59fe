"""Exception types raised by hallforge.

Every domain error derives from HallforgeError so callers (and the CLI) can
distinguish usage problems (exit 2), resource-bound aborts (exit 3), and
genuine engine bugs (InternalInconsistency, which should never fire).
"""
from __future__ import annotations


class HallforgeError(Exception):
    """Base class for all hallforge errors."""


class InvalidField(HallforgeError):
    """The requested field order is not a prime."""


class DivisionByZero(HallforgeError):
    """Inversion of the zero element of F_p or of a zero scalar."""


class EnumerationTooLarge(HallforgeError):
    """An exhaustive enumeration would exceed its configured bound."""


class NotHereditarySetup(HallforgeError):
    """The quiver is malformed or fails acyclicity."""


class IncompatibleObjects(HallforgeError):
    """Operands live over different quivers/fields or have mismatched shapes."""


class NotASubobject(HallforgeError):
    """The given subspaces are not closed under the representation maps."""


class InternalInconsistency(HallforgeError):
    """A cross-check that must hold by theory failed; indicates a bug."""


class UnsupportedPeriod(HallforgeError):
    """Periodicity t is not 0 or a positive odd integer (or is unsupported here)."""


class RewriteBudgetExceeded(HallforgeError):
    """Word normalization did not terminate within the step budget."""


class CacheInvalid(HallforgeError):
    """A cache file failed fingerprint or schema validation."""
