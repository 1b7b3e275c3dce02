"""Error taxonomy.

One exception class per failure mode, so callers (and the CLI, which maps
these onto stable exit codes) can react to exactly what went wrong.
"""


class WittError(Exception):
    """Base class for every error raised by this package."""


class NotPrime(WittError):
    """The modulus parameter p failed the primality check."""


class ReduciblePolynomial(WittError):
    """A defining polynomial is not monic of degree f, or is reducible mod p."""


class PrecisionTooSmall(WittError):
    """Working precision N < 2; a Fermat quotient would carry no digits."""


class PrecisionExhausted(WittError):
    """An operation needs more absolute precision than its input carries."""


class ParamsMismatch(WittError):
    """Operands belong to different rings."""


class MixedParams(ParamsMismatch):
    """Relation-probe values do not share a single ring."""


class NonUnit(WittError):
    """A unit was required but the reduction mod p is zero."""


class DomainError(WittError):
    """Argument lies outside an operation's convergence or validity domain."""


class UnsupportedPrime(WittError):
    """The operation requires p odd (exp_p does not converge on 2*Z_2)."""


class ArityMismatch(WittError):
    """A series was evaluated on the wrong number of arguments."""


class SingularSeed(WittError):
    """The mod-p seed matrix is not invertible."""


class BudgetExceeded(WittError):
    """A search (relation probe, Conway polynomial) or constants list exceeded its budget."""
