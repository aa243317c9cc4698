"""Exception types shared across the package."""


class TotalPrimeError(Exception):
    """Base of every error the package raises for input it cannot accept."""


class InvalidParameterError(TotalPrimeError, ValueError):
    """Family or construction parameters outside their validity range."""


class MalformedTreeError(TotalPrimeError, ValueError):
    """Edge list supplied for a tree does not describe a tree."""


class NoCanonicalCycleError(TotalPrimeError, LookupError):
    """No built-in Hamiltonian cycle recipe for the requested family."""


class NoPrimeError(TotalPrimeError, ValueError):
    """No prime exists at or below the requested bound."""


class SieveLimitError(TotalPrimeError, RuntimeError):
    """The prime table would have to grow past its configured cap."""


class SizeMismatchError(TotalPrimeError, ValueError):
    """Labeling shape does not match the graph it is checked against."""


class BoundTooSmallError(TotalPrimeError, ValueError):
    """Coprime label bound smaller than the vertex count."""


class NotPrimeLabelingError(TotalPrimeError, ValueError):
    """Vertex labeling fails the prime-labeling conditions."""


class NotCoprimeError(TotalPrimeError, ValueError):
    """Vertex labeling fails the coprime-labeling conditions."""


class InvalidHamiltonianDataError(TotalPrimeError, ValueError):
    """Cycle or chord data inconsistent with the graph."""


class BoundViolatedError(TotalPrimeError, ValueError):
    """Label bound too large for the edge-count hypothesis."""


class NotATreeError(TotalPrimeError, ValueError):
    """Input graph is not a tree."""


class UnsupportedCaseError(TotalPrimeError, ValueError):
    """Parameter combination outside the implemented construction cases."""


class NotFoundWithinBoundError(TotalPrimeError, LookupError):
    """Exhaustive search ruled out every bound up to the requested cap."""
