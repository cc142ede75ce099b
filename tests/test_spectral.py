import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wellquench import fractal, spectral, survival, universal
from wellquench.errors import TruncationCapError
from wellquench.spectral import (WellConfig, coefficient_tail_bound,
                                 density_field, mode_coefficients,
                                 survival_tail_bound, truncation_for_tolerance,
                                 wavefunction)


def overlap_quadrature(delta, n):
    """Independent oracle: direct quadrature of the overlap integral."""
    L = 1.0 + delta
    value, err = quad(lambda x: np.sin(np.pi * x) * np.sin(n * np.pi * x / L),
                      0.0, 1.0, limit=200)
    assert err < 1e-10
    return 2.0 / math.sqrt(L) * value


class TestWellConfig:
    def test_derived_fields(self):
        w = WellConfig(0.2)
        assert w.width == 1.0 + 0.2
        assert w.period == pytest.approx(2.0 * w.width**2 / math.pi, rel=1e-15)

    def test_no_quench_case_allowed(self):
        w = WellConfig(0.0)
        assert w.width == 1.0
        assert w.period == pytest.approx(2.0 / math.pi, rel=1e-15)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            WellConfig(-0.1)

    def test_overflowing_shift_names_the_input(self):
        # width**2 used to raise a bare OverflowError
        with pytest.raises(ValueError, match="wall shift 1e[+]200"):
            WellConfig(1e200)


class TestModeCoefficient:
    def test_no_shift_orthonormality(self):
        values = mode_coefficients(WellConfig(0.0), 3).values
        assert values[0] == pytest.approx(1.0, abs=1e-14)
        assert values[2] == pytest.approx(0.0, abs=1e-14)

    def test_against_quadrature_oracle(self):
        values = mode_coefficients(WellConfig(0.2), 8).values
        for n in (1, 2, 3, 5, 8):
            assert values[n - 1] == pytest.approx(
                overlap_quadrature(0.2, n), abs=1e-12)

    def test_frozen_leading_coefficient(self):
        # quadrature oracle value, delta = 0.2
        assert mode_coefficients(WellConfig(0.2), 1).values[0] == pytest.approx(
            0.950975481489623, abs=1e-12)

    def test_removable_singularity_exact_hit(self):
        # delta = 1 puts mode 2 exactly at n/L = 1
        values = mode_coefficients(WellConfig(1.0), 2).values
        assert values[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_continuity_across_window(self):
        # formula branch just outside the window vs the expansion inside
        n = 3
        for e in (1.2e-6, -1.2e-6):
            L = n / (1.0 + e)
            w = WellConfig(L - 1.0)
            outside = mode_coefficients(w, n).values[n - 1]
            expansion = (1.0 / math.sqrt(L)) * (
                1.0 - e / 2.0 + (0.25 - math.pi**2 / 6.0) * e * e)
            assert abs(outside - expansion) / abs(expansion) < 1e-6

    def test_bad_index(self):
        with pytest.raises(ValueError):
            mode_coefficients(WellConfig(0.1), 0)


class TestCompleteness:
    @pytest.mark.parametrize("delta", [0.003, 0.05, 0.2])
    def test_deficit_decreases_and_meets_tolerance(self, delta):
        w = WellConfig(delta)
        deficits = [mode_coefficients(w, n).completeness_deficit
                    for n in (10, 40, 160, 640)]
        assert all(a > b for a, b in zip(deficits, deficits[1:]))
        n_star = truncation_for_tolerance(w, "coefficients", 1e-6)
        assert mode_coefficients(w, n_star).completeness_deficit < 1e-6

    @pytest.mark.parametrize("delta", [0.003, 0.2])
    def test_tail_bound_is_a_true_bound(self, delta):
        w = WellConfig(delta)
        for n in (8, 32, 128):
            deficit = mode_coefficients(w, n).completeness_deficit
            assert deficit <= coefficient_tail_bound(w, n)


class TestTruncationForTolerance:
    def test_degenerate_tolerance_gives_minimum(self):
        assert truncation_for_tolerance(WellConfig(0.003), "survival", 1.0) == 2

    def test_returned_count_satisfies_quartic_tail(self):
        # sum_{n>N} (8 L^3 / pi^4) / n^4 < tol must hold for the returned N
        w = WellConfig(0.2)
        n = truncation_for_tolerance(w, "survival", 1e-6)
        tail = (8.0 * w.width**3 / math.pi**4) / (3.0 * n**3)
        assert tail < 1e-6

    def test_monotone_in_tolerance(self):
        w = WellConfig(0.05)
        tols = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10]
        counts = [truncation_for_tolerance(w, "survival", t) for t in tols]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_cap_behavior(self):
        w = WellConfig(0.2)
        assert truncation_for_tolerance(w, "survival", 1e-12, hard_cap=10**6) <= 10**6
        with pytest.raises(TruncationCapError):
            truncation_for_tolerance(w, "survival", 1e-12, hard_cap=100)

    def test_unknown_observable(self):
        with pytest.raises(ValueError):
            truncation_for_tolerance(WellConfig(0.1), "density", 1e-6)


class TestWavefunction:
    def test_dirichlet_boundaries(self):
        w = WellConfig(0.2)
        coeffs = mode_coefficients(w, 500)
        for t in (0.0, 0.01, 0.3):
            assert abs(wavefunction(w, coeffs, 0.0, t)) < 1e-10
            assert abs(wavefunction(w, coeffs, w.width, t)) < 1e-10

    def test_initial_midpoint_value(self):
        w = WellConfig(0.2)
        coeffs = mode_coefficients(w, 2000)
        assert wavefunction(w, coeffs, 0.5, 0.0) == pytest.approx(
            math.sqrt(2.0), abs=1e-3)

    def test_domain_error(self):
        w = WellConfig(0.2)
        coeffs = mode_coefficients(w, 10)
        with pytest.raises(ValueError):
            wavefunction(w, coeffs, w.width + 0.01, 0.0)
        with pytest.raises(ValueError):
            wavefunction(w, coeffs, -0.01, 0.0)

    def test_nan_position_rejected(self):
        # used to return nan+nanj: NaN fails neither range comparison
        w = WellConfig(0.2)
        coeffs = mode_coefficients(w, 10)
        with pytest.raises(ValueError, match="position must be finite"):
            wavefunction(w, coeffs, math.nan, 0.0)

    def test_revival_density(self):
        w = WellConfig(0.2)
        coeffs = mode_coefficients(w, 500)
        x = np.linspace(0.0, w.width, 101)
        for t in (0.0, 0.123):
            before = np.abs(wavefunction(w, coeffs, x, t)) ** 2
            after = np.abs(wavefunction(w, coeffs, x, t + w.period)) ** 2
            assert np.abs(after - before).max() < 1e-10

    def test_mismatched_config_rejected(self):
        coeffs = mode_coefficients(WellConfig(0.1), 10)
        with pytest.raises(ValueError):
            wavefunction(WellConfig(0.2), coeffs, 0.5, 0.0)


class TestDensityField:
    def setup_method(self):
        self.w = WellConfig(0.2)
        self.coeffs = mode_coefficients(self.w, 800)

    def test_initial_maximum_is_two_at_center(self):
        x = np.linspace(0.0, self.w.width, 513)
        field = density_field(self.w, self.coeffs, x, np.array([0.0]))
        row = field.values[0]
        assert row.min() >= -1e-12
        assert row.max() == pytest.approx(2.0, abs=1e-4)
        assert x[np.argmax(row)] == pytest.approx(0.5, abs=2e-3)

    def test_boundary_columns_vanish(self):
        x = np.linspace(0.0, self.w.width, 65)
        ts = np.linspace(0.0, self.w.period, 5)
        field = density_field(self.w, self.coeffs, x, ts)
        assert np.abs(field.values[:, 0]).max() < 1e-18
        assert np.abs(field.values[:, -1]).max() < 1e-18

    def test_normalization_at_all_sampled_times(self):
        x = np.linspace(0.0, self.w.width, 1025)
        ts = np.array([0.0, 0.2 * self.w.period, 0.7 * self.w.period])
        field = density_field(self.w, self.coeffs, x, ts)
        for row in field.values:
            assert np.trapezoid(row, x) == pytest.approx(1.0, abs=1e-5)

    def test_revival_of_whole_field(self):
        x = np.linspace(0.0, self.w.width, 257)
        field = density_field(self.w, self.coeffs, x,
                              np.array([0.0, self.w.period]))
        assert np.abs(field.values[1] - field.values[0]).max() < 1e-10

    def test_nan_position_rejected(self):
        # used to write a NaN column: NaN passes the sorted and range checks
        with pytest.raises(ValueError, match="position must be finite"):
            density_field(self.w, self.coeffs, np.array([0.1, math.nan, 0.5]),
                          np.array([0.0]))

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            density_field(self.w, self.coeffs, np.array([0.5, 0.1]),
                          np.array([0.0]))

    def test_mismatched_config_rejected(self):
        # used to sum the coefficients of one well over the modes of another
        with pytest.raises(ValueError, match="different well"):
            density_field(WellConfig(0.3), self.coeffs, np.array([0.5]),
                          np.array([0.0]))


class TestSurvivalTailBound:
    def test_bound_shrinks_cubically(self):
        w = WellConfig(0.1)
        assert survival_tail_bound(w, 200) < survival_tail_bound(w, 100) / 7.5


_ENGINE_WELL = WellConfig(0.05)
_ENGINE_TIMES = np.logspace(-6, 0, 25) * math.pi
_ENGINE_XI = np.linspace(0.1234, 0.3456789, 23)  # no j/K lattice
# every route that sums modes through spectral._direct_sums; with budgets of
# 1, 7 and 97 phases a block holds one row or several, as the mode count sets
_DIRECT_ROUTES = {
    "survival_amplitude": lambda n: survival.survival_amplitude(
        _ENGINE_WELL, _ENGINE_TIMES, n),
    "escape_exact": lambda n: survival.escape_probability_exact(
        _ENGINE_WELL, _ENGINE_TIMES, n),
    "escape_aligned": lambda n: survival.escape_probability_aligned(
        _ENGINE_WELL, _ENGINE_TIMES, n),
    "escape_small_delta": lambda n: survival.escape_small_delta(
        _ENGINE_WELL, _ENGINE_TIMES, n),
    "universal_function": lambda n: universal.universal_function(_ENGINE_XI, n),
    "phase_sum_samples": lambda n: fractal.phase_sum_samples(1.0 / (n + 0.5)).values,
}


class TestDirectSums:
    @pytest.mark.parametrize("n_modes", [30, 300])
    @pytest.mark.parametrize("budget", [1, 7, 97])
    @pytest.mark.parametrize("route", sorted(_DIRECT_ROUTES))
    def test_budget_sets_memory_never_bits(self, monkeypatch, route, budget,
                                           n_modes):
        default = _DIRECT_ROUTES[route](n_modes)
        monkeypatch.setattr(spectral, "_CHUNK_BUDGET", budget)
        blocked = _DIRECT_ROUTES[route](n_modes)
        assert blocked.dtype == default.dtype
        assert np.array_equal(blocked, default)

    def test_empty_points_give_an_empty_sum_of_the_terms_dtype(self):
        rates = np.arange(1.0, 5.0)
        for terms, dtype in ((np.sin, float), (lambda p: np.exp(1j * p), complex)):
            sums = spectral._direct_sums(np.empty(0), rates, terms)
            assert sums.shape == (0,) and sums.dtype == dtype


def exact_turn(multiplier, x):
    num, den = Fraction(x).as_integer_ratio()
    return (int(multiplier) * num % den) / den


def turn_distance(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    return np.minimum(d, 1.0 - d)


class TestTurns:
    @settings(max_examples=60, deadline=None)
    @given(top=st.integers(1, 10**13), x=st.floats(-1e3, 1e3),
           seed=st.integers(0, 2**32 - 1))
    def test_within_two_ulps_of_one_of_exact_turns(self, top, x, seed):
        nsq = np.random.default_rng(seed).integers(1, top + 1, 40)
        turns = spectral._turns(nsq, x)
        assert turns.min() >= 0.0 and turns.max() <= 1.0
        exact = [exact_turn(s, x) for s in nsq]
        assert turn_distance(turns, exact).max() <= 2 * np.finfo(float).eps

    def test_broadcasts_like_a_product(self):
        nsq = np.arange(1, 6) ** 2
        xs = np.array([0.1, -0.37, 12.5])
        assert spectral._turns(nsq, xs[:, None]).shape == (3, 5)
        assert spectral._turns(7, xs).shape == (3,)
        assert spectral._turns(0, 0.3) == 0.0


class TestWindowSums:
    @settings(max_examples=40, deadline=None)
    @given(sources=st.integers(1, 300), P=st.integers(1, 3000),
           seed=st.integers(0, 2**32 - 1), segment=st.sampled_from([None, 64]))
    def test_matches_the_direct_sum_over_exact_turns(self, sources, P, seed,
                                                      segment):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-1.0, 2.0, sources)
        c = rng.standard_normal((2, sources)) + 1j * rng.standard_normal((2, sources))
        with pytest.MonkeyPatch.context() as patch:
            # a small _FFT_LIMIT splits the frequencies into several segments
            if segment is not None:
                patch.setattr(spectral, "_FFT_LIMIT", 8 * segment)
            sums = spectral._window_sums(theta, c, P)
        assert sums.shape == (2, P)
        ks = rng.integers(0, P, 8)
        for row, weights in zip(sums, c):
            direct = np.array([np.sum(weights * np.exp(
                2j * math.pi * spectral._turns(k, theta))) for k in ks])
            assert np.abs(row[ks] - direct).max() <= 2e-14 * np.abs(weights).sum()
        assert spectral._window_sums(theta, c[0], P).shape == (P,)
