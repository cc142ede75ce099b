"""The package's own special functions against scipy.special and mpmath."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import polygamma

from wellquench import _special
from wellquench.universal import universal_tail_bound

EPS = np.finfo(float).eps


class TestTrigamma:
    NS = list(range(2, 40)) + np.unique(np.geomspace(40, 1e8, 200).astype(int)).tolist()

    def test_against_polygamma(self):
        # polygamma itself is up to 2.2 ulps off at these n
        for n in self.NS:
            expected = polygamma(1, n)
            assert abs(_special.trigamma(n) - expected) <= 4 * math.ulp(expected)

    def test_against_mpmath(self):
        with mpmath.workdps(40):
            for x in self.NS[::4] + [1e-3, 2.5, 9.999, 10.0]:
                reference = mpmath.psi(1, mpmath.mpf(x))
                assert abs(_special.trigamma(x) - reference) <= 2 * math.ulp(float(reference))


class TestHelpers:
    def test_lentz_gives_the_golden_ratio(self):
        golden = _special.lentz(1.0, lambda j: (1.0, 1.0))
        assert abs(golden - (1.0 + math.sqrt(5.0)) / 2.0) <= 2 * EPS

    def test_lentz_names_a_fraction_that_does_not_converge(self):
        # 1 - 1/(1 - 1/(1 - ...)) cycles through 1, 0, inf
        with pytest.raises(ArithmeticError, match="did not converge"):
            _special.lentz(1.0, lambda j: (-1.0, 1.0))

    def test_two_square_is_exact(self):
        rng = random.Random(5)
        for x in [rng.uniform(0.0, 200.0) for _ in range(200)] + [math.pi, 1e150]:
            hi, lo = _special.two_square(x)
            assert Fraction(hi) + Fraction(lo) == Fraction(x) ** 2
            assert abs(lo) <= math.ulp(hi) / 2


class TestUniversalTailBound:
    @pytest.mark.parametrize("n_modes", [2, 3, 5, 9, 10, 11, 50, 500])
    def test_is_the_tail_sum(self, n_modes):
        # 2 sum_{n > N} n^2/(n^2-1)^2 up to M = 10^6, plus a remainder
        # between 2/(M+1) and 2/(M-1): the bound is still an upper bound
        m = 10**6
        n = np.arange(n_modes + 1, m + 1, dtype=float)
        partial = math.fsum(2.0 * n * n / (n * n - 1.0) ** 2)
        bound = universal_tail_bound(n_modes)
        assert partial + 2.0 / (m + 1) <= bound <= partial + 2.0 / (m - 1)
