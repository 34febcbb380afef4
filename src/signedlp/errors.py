"""Exception types shared across the package."""


class SignedLPError(Exception):
    """Base class for all errors raised by this package."""


# -- p-adic kernel ------------------------------------------------------------

class NotIntegral(SignedLPError):
    """A rational number lies outside Z_p (denominator divisible by p)."""


# -- Lambda ring ---------------------------------------------------------------

class NotDistinguished(SignedLPError):
    """Divisor is not a distinguished polynomial."""


class PrecisionExhausted(SignedLPError):
    """The p-adic precision budget ran out before a result was certified."""


# -- curve engine ----------------------------------------------------------------

class ParseError(SignedLPError):
    """Malformed input file; carries a line number when one makes sense."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SingularCurve(SignedLPError):
    """The given a-invariants have vanishing discriminant."""


class BadReduction(SignedLPError):
    """a_ell was requested at a prime dividing the conductor."""


class NonConvergence(SignedLPError):
    """Period iteration failed to converge, the Hecke eigenspace did not
    become a line, or a cycle period is not the rational it should be."""


class MetadataMismatch(SignedLPError):
    """The conductor or Fricke sign of a curve record contradicts its equation."""

    stage = "ingest"


# -- modular symbols ---------------------------------------------------------------

class IncompleteTable(SignedLPError):
    """Symbol table does not contain every residue the operation needs."""


class ContextMismatch(SignedLPError):
    """Imported table belongs to a different curve or prime."""


class InconsistentTable(SignedLPError):
    """The symbols break a relation their Hecke relations imply: a theta
    element, or a quotient of one, is not exactly divisible where it must be."""


# -- theta / extraction ------------------------------------------------------------

class NotAUnit(SignedLPError):
    """Unit decomposition requested for a residue divisible by p."""


class CompatFailed(SignedLPError):
    """Three-term theta congruence failed; carries the coefficient index."""

    def __init__(self, message, index=None):
        self.index = index
        super().__init__(message)


class NotStabilized(SignedLPError):
    """Invariants did not stabilize across the available levels."""


class WrongReductionType(SignedLPError):
    """Extraction method does not match the reduction type at p."""


# -- reporting ------------------------------------------------------------------

class IoError(SignedLPError):
    """Wraps OS-level failures writing a report or a cache entry, or making the cache."""
