"""Exception types shared across the package.

Every error the library raises on bad input is a ``VocaggError``, and so a
``ValueError``; a check with no kind of its own raises ``VocaggError`` itself.
Programming errors and broken internal invariants stay outside the family.
"""


class VocaggError(ValueError):
    """Base class for every error raised by this library on bad input."""


class ParseError(VocaggError):
    """Malformed document, numeral, or rule descriptor."""


class InvalidVocabulary(VocaggError):
    """A word partition that cannot be encoded (bad tiling, too few active words)."""


class ShapeMismatch(VocaggError):
    """Objects with incompatible word counts, agent counts, or lengths."""


class DomainMismatch(VocaggError):
    """Objects defined over different intervals were combined."""


class IndexOutOfRange(VocaggError, IndexError):
    """An order-statistic rank, agent index or boundary index outside its valid range.

    Also an ``IndexError``, so a caller catching that still catches it.
    """


class ParityViolation(VocaggError):
    """Median positions requested for an odd word-boundary count with an even agent count."""


class EvenAgentCount(VocaggError):
    """The pooled-multiset rule needs an odd number of agents."""


class UnknownFixture(VocaggError):
    """No benchmark rule registered under the requested name."""


class InconsistentLabels(VocaggError):
    """Exemplar labels that contradict the linear order of the observations."""


class MalformedGaps(VocaggError):
    """Gap sequences whose left or right ends fail to be nondecreasing."""
