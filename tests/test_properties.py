"""The verify suites called directly, as `toda verify` calls them."""

import numpy as np
import pytest

from opentoda import properties

SUITES = [properties.suite_roundtrip, properties.suite_jacobi, properties.suite_hierarchy,
          properties.suite_darboux, properties.suite_casimirs]


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_every_suite_passes(seed, n):
    rng = np.random.default_rng(seed)
    for suite in SUITES:
        for r in suite(rng, n, 2 * n):
            assert r["pass"], (suite.__name__, r)
            assert r["max_residual"] <= properties.TOL[r["property"]]
