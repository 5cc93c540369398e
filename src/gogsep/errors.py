"""Exception types shared across the package.

Structural checks that return reports (immersion/cover violations) do not
raise; everything that is a broken precondition or malformed input does.
"""


class GogsepError(Exception):
    """Base class for all package errors."""


class SchemaError(GogsepError):
    """Malformed JSON document. Carries a $.path pointer to the offender."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class ForeignElement(GogsepError):
    """An element handle was used with a group it does not belong to."""


class EdgeChainBroken(GogsepError):
    """Word letters do not chain: tau of one edge is not iota of the next."""


class ElementOutOfGroup(GogsepError):
    """A word letter is not an element of the vertex group at its position."""


class ComposabilityError(GogsepError):
    """Multiplying words (``Word.__mul__``) whose endpoints do not match."""


class EndpointMismatch(GogsepError):
    """A loop was required but the word starts and ends at different vertices."""


class InfiniteIndex(GogsepError):
    """A finite-index-only operation hit an infinite-index subgroup."""


class NotSeparated(GogsepError):
    """``SubgroupHandle.separate`` precondition failure: X meets the subgroup."""


class NotAnImmersion(GogsepError):
    """Operation requires an immersion but local injectivity fails."""


class NotACover(GogsepError):
    """Operation requires a cover but some local map is not bijective."""


class InfiniteIndexVertex(GogsepError):
    """Completion/cover check impossible: a vertex subgroup has infinite index."""


class AlreadyMember(GogsepError):
    """separate_element was asked to separate an element of the subgroup."""


class UnboundedEnumeration(GogsepError):
    """Enumeration over an infinite vertex group without an element bound."""


class DidNotClose(GogsepError):
    """Coset enumeration exceeded its cap without closing.

    Raised whenever the Todd-Coxeter engine defines more than its cap of
    cosets; crosscheck's enumeration over the cover's edges reports it as
    a failed check.
    """

    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"coset enumeration did not close within {cap} cosets")
