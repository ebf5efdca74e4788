"""Shared generators and the quadrature oracle used across the test suite.

The generators are those of opentoda.properties; the tests draw residues
with no floor unless they ask for one."""

import numpy as np
import pytest

from opentoda import JacobiMatrix, properties, weyl_eval
from opentoda.properties import random_jacobi  # noqa: F401  (re-exported)
from opentoda.properties import random_spectral as _random_spectral


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture
def worked():
    # two sites at rest with unit coupling: z = (-1, 1), rho = (1/2, 1/2)
    return JacobiMatrix(v=np.zeros(2), c=np.array([1.0]))


def random_spectral(rng, n, positive=False, min_gap=0.05, rho_floor=0.0):
    return _random_spectral(rng, n, positive, min_gap, rho_floor)


def corrupt_zrho_tensors(monkeypatch):
    """Make every z-rho tensor the properties draw a corrupted one, the
    negative control of `toda verify`'s jacobi suite."""
    zrho_tensor = properties.zrho_tensor
    monkeypatch.setattr(properties, "zrho_tensor", lambda f, n: properties.corrupt(zrho_tensor(f, n)))


def contour_bracket(S, p, q, power, restricted=False, points=64):
    """Quadrature evaluation of the contour bracket, independent of the
    residue algebra.

    Clockwise circles around each pole, radius a tenth of the distance to
    the nearest other singularity; the periodic trapezoid rule converges
    geometrically, so 64 points reach machine precision at these radii.
    """
    chi_p = weyl_eval(S, p)
    chi_q = weyl_eval(S, q)
    q0 = float(np.sum(S.rho))
    theta = 2.0 * np.pi * np.arange(points) / points
    phase = np.exp(-1j * theta)
    total = 0.0 + 0.0j
    for k in range(S.n):
        gaps = [abs(S.z[k] - S.z[m]) for m in range(S.n) if m != k]
        r = 0.1 * min(gaps + [abs(S.z[k] - p), abs(S.z[k] - q)])
        zc = S.z[k] + r * phase
        g = zc**power * weyl_eval(S, zc) * (chi_p - chi_q) / ((zc - p) * (zc - q))
        if restricted:
            g = g - (
                zc**power
                * weyl_eval(S, zc)
                * (1.0 / (zc - p) - 1.0 / (zc - q))
                * chi_p
                * chi_q
                / q0
            )
        # clockwise parametrization z = z_k + r e^{-i theta}
        total += -(r / points) * np.sum(g * phase)
    assert abs(total.imag) < 1e-10
    return float(total.real)
