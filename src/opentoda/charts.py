"""Darboux-type coordinate charts on the pole-residue manifolds and the
numeric verification that each one canonicalizes its bracket.

Charts: Z-Q pairs (z_k, q(z_k)) with q the numerator polynomial; the I-y
rectification I_k = F(z_k), y_k = ln|q(z_k)| with F an antiderivative of
1/f; action-angle (I, theta) on the normalized class; and the gamma-pi
system built from the numerator roots. Canonicality is checked by pushing
the tensor through the chart map with finite-difference Jacobians and
comparing to the constant canonical pattern.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .brackets import WeightFn, pushforward, zrho_unpack
from .errors import DomainViolation, SignViolation
from .ratfun import poly_eval, poly_from_roots
from .spectral import SpectralData, gammas

__all__ = [
    "ChartValues",
    "zq_chart",
    "iy_chart",
    "action_coords",
    "angle_coords",
    "gamma_pi_chart",
    "ChartMap",
    "zq_map",
    "iy_map",
    "action_angle_map",
    "gamma_pi_map",
    "verify_canonical",
]


@dataclass(frozen=True)
class ChartValues:
    """Named coordinate values of one chart at one state, with the Casimir
    pair attached where the chart carries one."""

    chart: str
    names: Tuple[str, ...]
    values: np.ndarray
    casimirs: Optional[Tuple[float, float]] = None


def _pprime(z):
    """p'(z_k) for the monic polynomial with roots z: the product of the
    gaps to the other roots."""
    dz = z[:, None] - z[None, :]
    np.fill_diagonal(dz, 1.0)
    return dz.prod(axis=1)


def numerator_values(S):
    """q(z_k) = p'(z_k) rho_k; alternates in sign when all rho > 0."""
    return _pprime(S.z) * S.rho


def zq_chart(S):
    q = numerator_values(S)
    n = S.n
    names = tuple(f"z{k}" for k in range(n)) + tuple(f"q(z{k})" for k in range(n))
    return ChartValues(chart="ZQ", names=names, values=np.concatenate([S.z, q]))


def action_coords(S, f):
    """I_k = F(z_k); domain errors surface for weights whose F needs z > 0."""
    return f.antiderivative(S.z)


def iy_chart(S, f):
    q = numerator_values(S)
    if np.any(q == 0):
        raise SignViolation("numerator vanishes at a pole")
    I = action_coords(S, f)
    y = np.log(np.abs(q))
    n = S.n
    names = tuple(f"I{k}" for k in range(n)) + tuple(f"y{k}" for k in range(n))
    return ChartValues(chart="IY", names=names, values=np.concatenate([I, y]))


def angle_coords(S):
    """theta_k = ln((-1)^k q(z_k)/q(z_0)) for k = 1..N-1; the argument is
    positive exactly on the normalized interlacing class."""
    q = numerator_values(S)
    signs = (-1.0) ** np.arange(1, S.n)
    arg = signs * q[1:] / q[0]
    if np.any(arg <= 0):
        raise SignViolation("angle argument (-1)^k q(z_k)/q(z_0) not positive")
    return np.log(arg)


def action_angle_chart(S, f):
    I = action_coords(S, f)
    theta = angle_coords(S)
    n = S.n
    names = tuple(f"I{k}" for k in range(n)) + tuple(f"theta{k}" for k in range(1, n))
    q0 = float(np.sum(S.rho))
    casimirs = (float(np.sum(I)), -float(np.log(q0)))
    return ChartValues(
        chart="ACTION_ANGLE", names=names,
        values=np.concatenate([I, theta]), casimirs=casimirs,
    )


def gamma_pi_chart(S):
    """(gamma_k, pi_k) from the numerator roots, plus the Casimir pair
    (sum z_k, -ln sum rho). pi_k = -ln((-1)^{N+k} p(gamma_k)); interlacing
    makes the argument positive."""
    g, q0 = gammas(S)
    n = S.n
    p = poly_from_roots(S.z)
    b = ((-1.0) ** (n + 1 + np.arange(n - 1))) * poly_eval(p, g)
    if np.any(b <= 0):
        raise SignViolation("(-1)^{N+k} p(gamma_k) not positive")
    pi = -np.log(b)
    names = (
        tuple(f"gamma{k}" for k in range(1, n))
        + tuple(f"pi{k}" for k in range(1, n))
        + ("Phi1", "Phi2")
    )
    casimirs = (float(np.sum(S.z)), -float(np.log(q0)))
    return ChartValues(
        chart="GAMMA_PI", names=names,
        values=np.concatenate([g, pi, casimirs]), casimirs=casimirs,
    )


# ---------------------------------------------------------------------------
# chart maps on flat z-rho states, with their canonical target patterns

@dataclass(frozen=True)
class ChartMap:
    """A differentiable map from the flat z-rho state to chart coordinates,
    bundled with the constant tensor the bracket should become there."""

    name: str
    map_fn: Callable[[np.ndarray], np.ndarray]
    expected: np.ndarray


def _antisym(M):
    return M - M.T


def zq_map(n):
    """Map to (z, q(z_k)); its target pattern is state-dependent, so no
    constant expectation is attached."""

    def map_fn(x):
        z, rho = zrho_unpack(x, n)
        return np.concatenate([z, _pprime(z) * rho])

    return ChartMap(name="ZQ", map_fn=map_fn, expected=np.zeros((2 * n, 2 * n)))


def iy_map(f, n):
    def map_fn(x):
        z, rho = zrho_unpack(x, n)
        return np.concatenate([f.antiderivative(z), np.log(np.abs(_pprime(z) * rho))])

    M = np.zeros((2 * n, 2 * n))
    for k in range(n):
        M[n + k, k] = 1.0
    return ChartMap(name="IY", map_fn=map_fn, expected=_antisym(M))


def action_angle_map(f, n):
    if n < 2:
        raise DomainViolation("angles need N >= 2")

    def map_fn(x):
        z, rho = zrho_unpack(x, n)
        q = _pprime(z) * rho
        signs = (-1.0) ** np.arange(1, n)
        theta = np.log(signs * q[1:] / q[0])
        return np.concatenate([f.antiderivative(z), theta])

    d = 2 * n - 1
    M = np.zeros((d, d))
    for j in range(n - 1):
        M[n + j, j + 1] = 1.0
        M[n + j, 0] = -1.0
    return ChartMap(name="ACTION_ANGLE", map_fn=map_fn, expected=_antisym(M))


def gamma_pi_map(n):
    """Flat map to (gamma, pi, Phi1, Phi2) with the f=1 canonical pattern.

    The attached expectation holds for the f=1 bracket; for other weights
    the measured pairing is {gamma_k, pi_k} = f(gamma_k), not delta.
    """
    if n < 2:
        raise DomainViolation("gamma-pi needs N >= 2")

    def map_fn(x):
        z, rho = zrho_unpack(x, n)
        S = SpectralData(z=z, rho=rho)
        g, q0 = gammas(S)
        p = poly_from_roots(z)
        b = ((-1.0) ** (n + 1 + np.arange(n - 1))) * poly_eval(p, g)
        return np.concatenate([g, -np.log(b), [float(np.sum(z)), -np.log(q0)]])

    d = 2 * n
    M = np.zeros((d, d))
    for j in range(n - 1):
        M[j, (n - 1) + j] = 1.0
    M[d - 2, d - 1] = 1.0
    return ChartMap(name="GAMMA_PI", map_fn=map_fn, expected=_antisym(M))


def verify_canonical(chart, structure, state):
    """Push the structure's tensor through the chart map at a state and
    compare with the chart's canonical pattern. Returns a report dict; the
    tensors ride along for inspection."""
    T = pushforward(structure, chart.map_fn, state)
    E = chart.expected
    dev = float(np.max(np.abs(T - E)))
    return {
        "chart": chart.name,
        "max_deviation": dev,
        "tensor": T,
        "expected": E,
    }
