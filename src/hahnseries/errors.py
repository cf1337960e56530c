"""Exception types shared across the package."""


class HahnSeriesError(Exception):
    """Base class for all package-specific errors."""


class DescriptorMismatch(HahnSeriesError):
    """Operands belong to different group or field descriptors."""


class UnorderedField(HahnSeriesError):
    """An order-dependent operation was called on a field with no order."""


class FieldTooSmall(HahnSeriesError):
    """A witness construction needs more than two field elements."""


class ZeroUpToHorizon(HahnSeriesError):
    """No nonzero coefficient was found at or below the horizon bound.

    Semi-decidable zero test: the series may still be nonzero beyond the
    bound, so this is a report about the searched region, not a proof of
    being zero.
    """


class TermBudgetExceeded(HahnSeriesError):
    """Evaluation could not be completed within the term budget.

    Raised only when correctness below the exponent bound cannot be
    guaranteed; a truncated-but-sound prefix is returned as a value, not
    as an error.
    """


class NotInNonNegCone(HahnSeriesError):
    """A set operation requiring nonnegative elements met a negative one."""


class UnknownWithinBudget(HahnSeriesError):
    """A bounded search ended without settling a question either way.
    Every membership test is exact, so no procedure raises it; the name
    stays for callers that catch it."""


class InvalidWitness(HahnSeriesError):
    """A caller-supplied inversion witness exponent is wrong for the series."""


class ParseError(HahnSeriesError):
    """Syntax error in an expression or descriptor, with source position."""

    def __init__(self, message, line=1, column=None):
        self.line = line
        self.column = column
        if column is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
