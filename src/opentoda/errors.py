"""Exception taxonomy for the library.

Every failure mode raised by the package derives from TodaError, so callers can
catch one base class. The CLI maps subclasses onto exit codes: validation
problems exit 2, numerical blow-ups exit 3.
"""


class TodaError(Exception):
    """Base class for all library errors."""


class NonRealOrMultipleRoots(TodaError):
    """Root finding produced complex or coincident roots where simple real ones are required."""


class MultiplePole(TodaError):
    """Two poles of a rational function coincide within tolerance."""


class ConvergenceFailure(TodaError):
    """An iterative kernel hit its iteration cap; the input is degenerate or invalid."""


class SingularMatrix(TodaError):
    """A matrix inverse was requested with an eigenvalue at (or numerically at) zero."""


class PoleEvaluation(TodaError):
    """A rational function was evaluated exactly on one of its poles."""


class NotInRatNPrime(TodaError):
    """Spectral data violates the normalized class: rho > 0 and sum(rho) = 1."""


class CoincidentPoints(TodaError):
    """Bracket evaluation points p, q coincide with each other or with a pole."""


class CoincidentPoles(TodaError):
    """Spectral data with non-distinct (or non-increasing) pole locations."""


class ConstraintBracketNotUnit(TodaError):
    """Dirac reduction requires {Phi1, Phi2} = 1 at the evaluation state."""


class StructureViolation(TodaError):
    """A Lax commutator left the symmetric tridiagonal pattern."""


class NonFiniteState(TodaError):
    """Integration produced NaN or infinity."""


class OverflowGuard(TodaError):
    """Flow exponents are non-finite; the closed-form propagator cannot proceed."""


class ResidueUnderflow(OverflowGuard):
    """A residue rho_k falls below the smallest normal double in the direct
    transform, or underflows to 0 along the exact flow."""


class DomainViolation(TodaError):
    """Input outside the mathematical domain of the operation (e.g. z <= 0 under a log)."""


class SignViolation(TodaError):
    """A logarithm argument that must be positive by structure came out non-positive."""
