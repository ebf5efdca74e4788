"""Real polynomials and rational functions with simple real poles.

Polynomials are plain 1-D numpy arrays of coefficients in ascending degree
order; numpy.polynomial.polynomial supplies evaluation, products and the
companion-matrix root finder, with a Newton polish and validation layer on top.
numpy.polynomial is imported on first use, inside the functions that call it,
so a process that never evaluates or roots a polynomial does not load it.
Rational functions are numerator/denominator pairs; partial_fractions reads
off their poles and residues.
"""

import numpy as np

from .errors import (
    DomainViolation,
    MultiplePole,
    NonRealOrMultipleRoots,
    PoleEvaluation,
)

# trailing coefficients below TRIM_REL * max|coeff| do not count toward the degree
TRIM_REL = 1e-14


def poly_trim(P):
    """Drop trailing coefficients that are zero at working precision.

    The zero polynomial comes back as the single coefficient [0.].
    """
    c = np.atleast_1d(np.asarray(P, dtype=float))
    if c.size == 0:
        return np.zeros(1)
    top = np.max(np.abs(c))
    if top == 0.0:
        return np.zeros(1)
    keep = np.nonzero(np.abs(c) > TRIM_REL * top)[0]
    if keep.size == 0:
        return np.zeros(1)
    return c[: keep[-1] + 1].copy()


def poly_degree(P):
    """Degree after trimming; -1 for the zero polynomial."""
    c = poly_trim(P)
    if c.size == 1 and c[0] == 0.0:
        return -1
    return c.size - 1


def poly_eval(P, x):
    """Evaluate P at x (scalar or array, real or complex)."""
    from numpy.polynomial import polynomial as npp

    c = np.atleast_1d(np.asarray(P))
    return npp.polyval(x, c)


def poly_from_roots(roots, leading=1.0):
    """leading * prod(z - r) as a coefficient array."""
    from numpy.polynomial import polynomial as npp

    if leading == 0.0:
        raise DomainViolation("leading coefficient must be nonzero")
    r = np.asarray(roots, dtype=float)
    if r.size == 0:
        return np.array([float(leading)])
    return float(leading) * npp.polyfromroots(r)


def poly_derivative(P):
    """Coefficientwise derivative."""
    from numpy.polynomial import polynomial as npp

    c = poly_trim(P)
    if c.size == 1:
        return np.zeros(1)
    return npp.polyder(c)


def _eval_scale(P, x):
    # magnitude of the evaluation ignoring cancellation: sum |c_i| |x|^i
    from numpy.polynomial import polynomial as npp

    c = np.abs(np.atleast_1d(np.asarray(P, dtype=float)))
    return float(npp.polyval(abs(x), c))


def poly_real_roots(P):
    """All roots of P, required real and simple, in ascending order.

    Companion-matrix eigenvalues polished by two Newton steps. Raises
    NonRealOrMultipleRoots when a root keeps a significant imaginary part,
    when two roots are not separated, or when the polished value fails the
    residual bound |P(root)| <= 1e-9 * scale.
    """
    from numpy.polynomial import polynomial as npp

    c = poly_trim(P)
    deg = poly_degree(c)
    if deg <= 0:
        return np.zeros(0)
    if deg == 1:
        return np.array([-c[0] / c[1]])
    rts = npp.polyroots(c)
    scale = max(1.0, float(np.max(np.abs(rts))))
    if np.max(np.abs(rts.imag)) > 1e-8 * scale:
        raise NonRealOrMultipleRoots(
            f"complex roots detected (max imag {np.max(np.abs(rts.imag)):.3e})"
        )
    x = np.sort(rts.real)
    dp = poly_derivative(c)
    for _ in range(2):
        fx = poly_eval(c, x)
        fpx = poly_eval(dp, x)
        safe = np.abs(fpx) > 0
        x = np.where(safe, x - np.where(safe, fx, 0.0) / np.where(safe, fpx, 1.0), x)
    x = np.sort(x)
    if deg >= 2 and np.min(np.diff(x)) <= 1e-8 * scale:
        raise NonRealOrMultipleRoots("roots not separated; multiple root suspected")
    for xi in x:
        if abs(poly_eval(c, xi)) > 1e-9 * (_eval_scale(c, xi) + abs(c[-1])):
            raise NonRealOrMultipleRoots(f"root {xi!r} fails the residual bound")
    return x


class Rat:
    """Rational function num(z)/den(z).

    Immutable after construction. Its residues follow the spectral-measure
    orientation: partial_fractions gives rho_k = -Res_{z_k} R, so a Weyl
    function held as num = -q, den = p hands back exactly its spectral
    weights.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = poly_trim(num)
        self.den = poly_trim(den)
        if poly_degree(self.den) == -1:
            raise DomainViolation("denominator is the zero polynomial")

    def __call__(self, x):
        dv = poly_eval(self.den, x)
        if np.any(np.asarray(dv) == 0):
            raise PoleEvaluation("evaluation exactly on a pole")
        return poly_eval(self.num, x) / dv

    @property
    def degrees(self):
        return poly_degree(self.num), poly_degree(self.den)

    def __repr__(self):
        return f"Rat(num={self.num!r}, den={self.den!r})"


def partial_fractions(R):
    """Pole locations and residues of R, with rho_k = -Res_{z_k} R.

    Requires deg num < deg den and simple real denominator roots. With this
    orientation sum_k rho_k/(z_k - z) reproduces num/den away from the poles.

    Raises MultiplePole when two denominator roots coincide within 1e-12
    relative.
    """
    from numpy.polynomial import polynomial as npp

    dn, dd = R.degrees
    if dn >= dd:
        raise DomainViolation("partial fractions need deg num < deg den")
    rts = npp.polyroots(R.den)
    scale = max(1.0, float(np.max(np.abs(rts))))
    if rts.size >= 2:
        sep = np.abs(rts[:, None] - rts[None, :])
        np.fill_diagonal(sep, np.inf)
        if np.min(sep) <= 1e-12 * scale:
            raise MultiplePole("coincident poles within 1e-12 relative")
    poles = poly_real_roots(R.den)
    dden = poly_derivative(R.den)
    rho = -poly_eval(R.num, poles) / poly_eval(dden, poles)
    return poles, np.atleast_1d(rho)
