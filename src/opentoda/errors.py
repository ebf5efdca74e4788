"""Exception taxonomy for the library.

Every failure mode raised by the package derives from TodaError, so callers can
catch one base class. The class decides the CLI's exit code: a
NumericalFailure (a numerical failure on valid input) exits 3, and every other
TodaError (the input is outside the operation's domain) exits 2.
"""


class TodaError(Exception):
    """Base class for all library errors."""


class NumericalFailure(TodaError):
    """A numerical failure on valid input; the CLI exits 3."""


class NonRealOrMultipleRoots(NumericalFailure):
    """Root finding produced complex or coincident roots where simple real ones are required."""


class MultiplePole(NumericalFailure):
    """Two poles of a rational function coincide within tolerance, or the
    eigenvalues of a Jacobi matrix lie closer together than their accuracy."""


class ConvergenceFailure(NumericalFailure):
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


class ConstraintBracketNotUnit(NumericalFailure):
    """Dirac reduction requires {Phi1, Phi2} = 1 at the evaluation state."""


class NonFiniteState(NumericalFailure):
    """Integration left the state space: a NaN, an infinity, or a state the
    package refuses as input."""


class OverflowGuard(NumericalFailure):
    """Not representable in double precision: the exact flow's exponents z^k t or
    residue mass, a bracket value, or a phase point's Flaschka coupling."""


class ResidueUnderflow(OverflowGuard):
    """A residue rho_k falls below the smallest normal double in the direct
    transform, or underflows to 0 along the exact flow."""


class DomainViolation(TodaError):
    """Input outside the mathematical domain of the operation (e.g. z <= 0 under a log)."""


class SignViolation(TodaError):
    """A logarithm argument that must be positive by structure came out non-positive."""
