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
from typing import Callable

import numpy as np

from .brackets import pushforward, zrho_unpack
from .errors import DomainViolation, SignViolation
from .spectral import SpectralData, gammas

__all__ = [
    "numerator_values",
    "ChartMap",
    "zq_map",
    "iy_map",
    "action_angle_map",
    "gamma_pi_map",
    "verify_canonical",
]


# ---------------------------------------------------------------------------
# each chart's coordinates as a function of (z, rho), for the maps

def _numerator(z, rho):
    """q(z_k) = p'(z_k) rho_k with p'(z_k) the product of the gaps to the
    other poles; it alternates in sign when all rho > 0."""
    dz = z[:, None] - z[None, :]
    np.fill_diagonal(dz, 1.0)
    q = dz.prod(axis=1) * rho
    if np.any(q == 0):
        raise SignViolation("numerator vanishes at a pole")
    return q


def _zq(z, rho):
    return np.concatenate([z, _numerator(z, rho)])


def _iy(f, z, rho):
    q = _numerator(z, rho)
    return np.concatenate([f.antiderivative(z), np.log(np.abs(q))])


def _angles(z, rho):
    """theta_k = ln((-1)^k q(z_k)/q(z_0)) for k = 1..N-1; the argument is
    positive exactly on the normalized interlacing class."""
    q = _numerator(z, rho)
    signs = (-1.0) ** np.arange(1, z.size)
    arg = signs * q[1:] / q[0]
    if np.any(arg <= 0):
        raise SignViolation("angle argument (-1)^k q(z_k)/q(z_0) not positive")
    return np.log(arg)


def _action_angle(f, z, rho):
    return np.concatenate([f.antiderivative(z), _angles(z, rho)])


def _gamma_pi(z, rho):
    """(gamma, pi, Phi1, Phi2) with pi_k = -ln((-1)^{N+k} p(gamma_k)), which
    interlacing keeps real, and (Phi1, Phi2) = (sum z_k, -ln sum rho).

    p(gamma_k) is the product of the gaps gamma_k - z_j, which keeps its
    relative accuracy where the expanded coefficients of p do not."""
    n = z.size
    g, q0 = gammas(SpectralData(z=z, rho=rho))
    b = ((-1.0) ** (n + 1 + np.arange(n - 1))) * np.prod(g[:, None] - z, axis=1)
    if np.any(b <= 0):
        raise SignViolation("(-1)^{N+k} p(gamma_k) not positive")
    return np.concatenate([g, -np.log(b), [float(np.sum(z)), -np.log(q0)]])


def numerator_values(S):
    """q(z_k) = p'(z_k) rho_k; alternates in sign when all rho > 0."""
    return _numerator(S.z, S.rho)


# ---------------------------------------------------------------------------
# chart maps on flat z-rho states, with their canonical target patterns

@dataclass(frozen=True)
class ChartMap:
    """A differentiable map from the flat z-rho state to chart coordinates,
    bundled with the constant tensor the bracket should become there."""

    name: str
    map_fn: Callable[[np.ndarray], np.ndarray]
    expected: np.ndarray


def _flat(coords, n, *head):
    """coords(*head, z, rho) as a map of the flat z-rho state."""
    return lambda x: coords(*head, *zrho_unpack(x, n))


def zq_map(n):
    """Map to (z, q(z_k)); its target pattern is state-dependent, so no
    constant expectation is attached."""
    return ChartMap(name="ZQ", map_fn=_flat(_zq, n), expected=np.zeros((2 * n, 2 * n)))


def iy_map(f, n):
    M = np.zeros((2 * n, 2 * n))
    for k in range(n):
        M[n + k, k] = 1.0
    return ChartMap(name="IY", map_fn=_flat(_iy, n, f), expected=M - M.T)


def action_angle_map(f, n):
    if n < 2:
        raise DomainViolation("angles need N >= 2")
    d = 2 * n - 1
    M = np.zeros((d, d))
    for j in range(n - 1):
        M[n + j, j + 1] = 1.0
        M[n + j, 0] = -1.0
    return ChartMap(name="ACTION_ANGLE", map_fn=_flat(_action_angle, n, f), expected=M - M.T)


def gamma_pi_map(n):
    """Flat map to (gamma, pi, Phi1, Phi2) with the f=1 canonical pattern.

    The attached expectation holds for the f=1 bracket; for other weights
    the measured pairing is {gamma_k, pi_k} = f(gamma_k), not delta.
    """
    if n < 2:
        raise DomainViolation("gamma-pi needs N >= 2")
    d = 2 * n
    M = np.zeros((d, d))
    for j in range(n - 1):
        M[j, (n - 1) + j] = 1.0
    M[d - 2, d - 1] = 1.0
    return ChartMap(name="GAMMA_PI", map_fn=_flat(_gamma_pi, n), expected=M - M.T)


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
