"""Error taxonomy shared by the whole library.

Every failure mode that callers are expected to handle carries a stable
``code`` string so the CLI can map it to an exit status.
"""


class FormalConnError(Exception):
    """Base class for all library errors."""

    code = "ERROR"


class PrecisionError(FormalConnError):
    """A required coefficient lies outside the known precision window.

    ``needed`` is the window the failing step asks of its operand, in
    that operand's own exponents.  ``short_by``, when known, is how many
    digits the operand's windows lack; windows that follow the session
    precision one for one need that much more of it."""

    code = "INSUFFICIENT_PRECISION"

    def __init__(self, msg="insufficient precision", needed=None, short_by=None):
        super().__init__(msg)
        self.needed = needed
        self.short_by = short_by


class ZeroLeading(FormalConnError):
    """Inversion of a series that is zero to its precision."""

    code = "ZERO_LEADING"


class NonsplitField(FormalConnError):
    """A root or root of unity required by the computation is missing
    from the configured ground field."""

    code = "NONSPLIT_FIELD"


class IrreducibleStratum(FormalConnError):
    """The stratum characteristic polynomial admits no coprime
    factorization; the stratum is pure and is returned unsplit."""

    code = "IRREDUCIBLE"


class NotInFiltration(FormalConnError):
    code = "NOT_IN_FILTRATION"


class EmptyComposition(FormalConnError):
    code = "EMPTY_COMPOSITION"


class NotRegular(FormalConnError):
    code = "NOT_REGULAR"


class GcdViolation(FormalConnError):
    code = "GCD_VIOLATION"


class SingularGauge(FormalConnError):
    code = "SINGULAR_GAUGE"


class NotSplit(FormalConnError):
    code = "NOT_SPLIT"


class ShapeMismatch(FormalConnError):
    code = "SHAPE_MISMATCH"


class ResidueNonzero(FormalConnError):
    code = "RESIDUE_NONZERO"

    def __init__(self, msg, total=None):
        super().__init__(msg)
        self.total = total


class DuplicatePoints(FormalConnError):
    code = "DUPLICATE_POINTS"


class UnsupportedDepth(FormalConnError):
    code = "UNSUPPORTED_DEPTH"


class FactorTooLarge(FormalConnError):
    """Factoring over Q(zeta_m) would need a norm of degree above
    ``polys.MAX_NORM_DEGREE``."""

    code = "FACTOR_TOO_LARGE"


class ParseError(FormalConnError):
    code = "PARSE_ERROR"
