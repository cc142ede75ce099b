import collections
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wellquench import fractal, oracle, spectral, survival, universal
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


class TestOneModeTable:
    """ModeCoefficients forms a_n^2 and E_n once per table, and every mode
    sum reads them there."""

    @staticmethod
    def count(monkeypatch, module, name, calls):
        func = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        monkeypatch.setattr(module, name, wrapper)

    def test_table_holds_the_squares_and_the_energies(self):
        w = WellConfig(0.2)
        coeffs = mode_coefficients(w, 500)
        assert np.array_equal(coeffs.weights, coeffs.values * coeffs.values)
        assert np.array_equal(coeffs.energies, spectral.mode_energies(w, 500))

    @pytest.mark.parametrize("x", [np.linspace(0.0, 1.2, 65),
                                   np.array([0.1, 0.5, 0.93]), 0.5],
                             ids=["lattice", "off_lattice", "scalar"])
    def test_wavefunction_and_density_read_the_table(self, monkeypatch, x):
        w = WellConfig(0.2)
        coeffs = mode_coefficients(w, 800)
        calls = {"mode_energies": 0}
        self.count(monkeypatch, spectral, "mode_energies", calls)
        wavefunction(w, coeffs, x, 0.01)
        assert calls == {"mode_energies": 0}
        density_field(w, coeffs, np.atleast_1d(x), np.linspace(0.0, w.period, 5))
        assert calls == {"mode_energies": 0}

    @pytest.mark.parametrize("name", ["survival_amplitude", "escape_probability_exact",
                                      "escape_probability_aligned"])
    @pytest.mark.parametrize("xi", [np.array([0.0, 0.0123, 0.31]),
                                    np.linspace(0.0, 1.0, 9)],
                             ids=["off_lattice", "period_lattice"])
    def test_survival_builds_one_table(self, monkeypatch, name, xi):
        w = WellConfig(0.2)
        calls = {"mode_coefficients": 0, "mode_energies": 0}
        self.count(monkeypatch, survival, "mode_coefficients", calls)
        self.count(monkeypatch, spectral, "mode_energies", calls)
        getattr(survival, name)(w, xi * w.period, 800)
        assert calls == {"mode_coefficients": 1, "mode_energies": 1}


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
        assert truncation_for_tolerance(w, "survival", 1e-12) <= 10**6
        # the survival bound at the 10**6-mode cap is about 4.7e-19
        with pytest.raises(TruncationCapError):
            truncation_for_tolerance(w, "survival", 1e-20)

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


# x / (2L) on the lattice j/128 at this well, and on no lattice at the other
_ROUTE_WELL, _OFF_WELL = WellConfig(0.2), WellConfig(0.3)
_ROUTE_INPUTS = {
    "lattice": (_ROUTE_WELL, np.linspace(0.0, _ROUTE_WELL.width, 65)),
    "direct": (_OFF_WELL, np.linspace(0.1, 0.9, 400)),
}


def direct_psi(w, coeffs, x, t):
    """The direct mode sum _mode_sums, scaled as wavefunction scales it."""
    psi = spectral._mode_sums(w, coeffs, np.atleast_1d(x), np.array([t]))[0]
    return psi * math.sqrt(2.0 / w.width)


def lattice_period(w, coeffs, x):
    lattice = spectral._lattice_of(np.asarray(x) / (2.0 * w.width),
                                   coeffs.truncation)
    return lattice[0] if lattice is not None else 0


class TestWavefunctionInputs:
    @pytest.mark.parametrize("t", [[0.1, 0.2], [], [0.1]],
                             ids=["two", "empty", "one-element"])
    @pytest.mark.parametrize("route", sorted(_ROUTE_INPUTS))
    def test_time_must_be_one_scalar(self, route, t):
        # [0.1, 0.2] used to return the t = 0.1 row, [] an IndexError
        w, x = _ROUTE_INPUTS[route]
        with pytest.raises(ValueError, match="time must be a scalar"):
            wavefunction(w, mode_coefficients(w, 50), x, t)

    def test_empty_positions_rejected(self):
        # used to raise numpy's zero-size reduction error
        w = _ROUTE_WELL
        with pytest.raises(ValueError, match="at least one position"):
            wavefunction(w, mode_coefficients(w, 50), [], 0.1)

    @pytest.mark.parametrize("route", sorted(_ROUTE_INPUTS))
    def test_every_check_runs_before_the_route(self, route):
        w, x = _ROUTE_INPUTS[route]
        coeffs = mode_coefficients(w, 2000)
        assert lattice_period(w, coeffs, x) or route == "direct"
        with pytest.raises(ValueError, match="different well"):
            wavefunction(w, mode_coefficients(WellConfig(0.1), 2000), x, 0.1)
        # twice as wide: a lattice too, with K = 4 (M - 1)
        with pytest.raises(ValueError, match="outside"):
            wavefunction(w, coeffs, 2.0 * x, 0.1)
        with pytest.raises(ValueError, match="position must be >= 0"):
            wavefunction(w, coeffs, x - x[-1], 0.1)
        broken = x.copy()
        broken[3] = math.nan
        with pytest.raises(ValueError, match="position must be finite"):
            wavefunction(w, coeffs, broken, 0.1)
        with pytest.raises(ValueError, match="time must be finite"):
            wavefunction(w, coeffs, x, math.nan)


class TestWavefunctionRoute:
    """x / (2L) on a lattice takes _lattice_sums with the rates n; every other
    x keeps the direct sum _mode_sums, which is the reference."""

    @pytest.mark.parametrize("delta, M, N, t", [
        (0.2, 1025, 2000, 0.005),   # oracle-check
        (0.2, 65, 2000, 0.005),     # its coarse grid: N > K folds
        (0.2, 65, 5000, 1.3),
        (0.7, 513, 800, 0.1),
        (0.05, 4097, 5000, 0.0),
    ])
    def test_lattice_matches_the_direct_sum(self, delta, M, N, t):
        w = WellConfig(delta)
        coeffs = mode_coefficients(w, N)
        x = np.linspace(0.0, w.width, M)
        assert lattice_period(w, coeffs, x) == 2 * (M - 1)
        psi = wavefunction(w, coeffs, x, t)
        assert np.abs(psi - direct_psi(w, coeffs, x, t)).max() <= 1e-14

    def test_shifted_lattice_matches_the_direct_sum(self):
        w = _ROUTE_WELL
        coeffs = mode_coefficients(w, 2000)
        x = 0.31 + np.arange(500) * (w.width / 1000)
        period, origin, _ = spectral._lattice_of(x / (2.0 * w.width), 2000)
        assert period == 2000 and origin != 0.0
        psi = wavefunction(w, coeffs, x, 0.01)
        assert np.abs(psi - direct_psi(w, coeffs, x, 0.01)).max() <= 1e-14

    @pytest.mark.parametrize("M, N, t", [(65, 2000, 0.005), (1025, 2000, 0.005),
                                         (129, 5000, 1.3)])
    def test_lattice_matches_exact_residues(self, M, N, t):
        # sin(2 pi (n j mod K) / K) with the residues reduced in integers and
        # each sum taken by fsum; the bound is _lattice_sums' stated error
        w = _ROUTE_WELL
        coeffs = mode_coefficients(w, N)
        K = 2 * (M - 1)
        psi = wavefunction(w, coeffs, np.linspace(0.0, w.width, M), t)
        c = coeffs.values * np.exp(-1j * (t * spectral.mode_energies(w, N)))
        n = np.arange(1, N + 1)
        scale = math.sqrt(2.0 / w.width)
        bound = 1e-16 * math.log2(K) * np.abs(c).sum() * scale
        for j in np.random.default_rng(M).integers(0, M, 12).tolist():
            sines = np.sin(2.0 * math.pi * ((n * j) % K) / K)
            exact = scale * complex(math.fsum(c.real * sines),
                                    math.fsum(c.imag * sines))
            assert abs(psi[j] - exact) <= bound

    @pytest.mark.parametrize("x", [
        0.5,
        np.linspace(0.1, 0.9, 400),
        np.sort(np.random.default_rng(5).uniform(0.0, _OFF_WELL.width, 300)),
    ], ids=["scalar", "window", "random"])
    def test_off_lattice_keeps_the_direct_bits(self, x):
        w = _OFF_WELL
        coeffs = mode_coefficients(w, 2000)
        assert lattice_period(w, coeffs, x) == 0
        psi = wavefunction(w, coeffs, x, 0.01)
        assert np.shape(psi) == np.shape(x)
        assert np.array_equal(np.atleast_1d(psi), direct_psi(w, coeffs, x, 0.01))

    def test_left_wall_is_exactly_zero_on_the_lattice(self):
        w = _ROUTE_WELL
        coeffs = mode_coefficients(w, 2000)
        for t in (0.0, 0.005, 0.37):
            assert wavefunction(w, coeffs, np.linspace(0.0, w.width, 65), t)[0] == 0.0


class TestLatticeSums:
    """At origin 0 one real-input FFT gives the bins j <= K/2 and conjugation
    the rest; the complex FFT of the same binned weights is the reference."""

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 1042, 20011, 37500, 91833])
    def test_origin_zero_is_exactly_hermitian(self, K):
        n = np.arange(2, 400, dtype=np.int64)
        j = np.arange(1, K)
        for weights in (np.ones(n.size), np.random.default_rng(K).normal(size=n.size)):
            B = spectral._lattice_sums(weights, n * n, K)
            assert B.shape == (K,)
            assert np.array_equal(B[K - j], B[j].conj())
            assert B[0] == 0.0
            assert K % 2 or B[K // 2].imag == 0.0

    @pytest.mark.parametrize("K", [1000, 1042, 4096, 12345, 20011, 34292, 37500, 91833,
                                   10**5, 10**6])
    def test_origin_zero_matches_the_complex_fft(self, K):
        # the phase sums' unit weights up to floor(sqrt(K/2)), and signed
        # weights on n = 1..3000 whose residues fold; the bound is
        # _lattice_sums' stated error
        unit, folded = np.arange(2, math.isqrt(K // 2) + 1), np.arange(1, 3001)
        for n, weights in ((unit, np.ones(unit.size)),
                           (folded, np.random.default_rng(K).normal(size=folded.size))):
            sums = np.fft.fft(np.bincount(n * n % K, weights, minlength=K))
            expected = sums[0].real - sums
            bound = 1e-16 * math.log2(K) * np.abs(weights).sum()
            B = spectral._lattice_sums(weights, n * n, K)
            assert np.abs(B - expected).max() <= bound


def same_bits(a, b):
    """True if the arrays have one shape and every entry the same bits."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestStackedRows:
    """A stack of weight rows that share the rates gives every row the bits
    of the 1-D call alone: per-row bins, the real FFT along the rows."""

    @pytest.mark.parametrize("nx, origin", [(384, 0.0), (384, 0.31), (602, 0.0)],
                             ids=["folded", "shifted", "split"])
    def test_rows_match_one_dimensional_calls(self, nx, origin):
        # K = 2(nx - 1): 766 < N = 800 folds the residues; 1202 = 2 * 601 takes
        # _real_dft's Cooley-Tukey step; origin 0.31 twists and takes the
        # complex FFT
        w = _ROUTE_WELL
        coeffs = mode_coefficients(w, 800)
        x = origin + np.arange(nx // 2) * (w.width / (nx - 1))
        xs = x / (2.0 * w.width)
        K, found, _ = spectral._lattice_of(xs, coeffs.truncation)
        assert K == 2 * (nx - 1) and (found != 0.0) == (origin != 0.0)
        c = spectral._phased(coeffs.values, coeffs.energies,
                             np.linspace(0.0, w.period, 7))
        stack = np.concatenate((c.real, c.imag))
        n = np.arange(1, coeffs.truncation + 1)
        sums = spectral._lattice_sums(stack, n, K, found)
        read = spectral._lattice_read(stack, n, xs)
        assert sums.shape == (14, K) and read.shape == (14, x.size)
        for weights, row, values in zip(stack, sums, read):
            assert same_bits(row, spectral._lattice_sums(weights, n, K, found))
            assert same_bits(values, spectral._lattice_read(weights, n, xs))

    @pytest.mark.parametrize("delta, nx, nt", [(0.2, 512, 512), (0.07, 384, 683),
                                               (0.45, 640, 410)])
    def test_phases_are_the_bits_of_np_exp(self, delta, nx, nt):
        w = WellConfig(delta)
        coeffs = mode_coefficients(w, 800)
        for ts in (np.linspace(0.0, w.period, nt)[:(nt + 1) // 2],
                   np.random.default_rng(nx).uniform(0.0, 50.0, 9)):
            expected = coeffs.values * np.exp(-1j * np.outer(ts, coeffs.energies))
            assert same_bits(spectral._phased(coeffs.values, coeffs.energies, ts),
                             expected)

    def test_time_blocks_keep_the_bits(self, monkeypatch):
        w = _ROUTE_WELL
        coeffs = mode_coefficients(w, 800)
        x, ts = np.linspace(0.0, w.width, 129), np.linspace(0.0, 0.3, 40)
        default = spectral._psi_rows(w, coeffs, x, ts)
        for block in (1, 7, 2**40):
            monkeypatch.setattr(spectral, "_ROW_BLOCK", block)
            assert same_bits(spectral._psi_rows(w, coeffs, x, ts), default)


class TestRealDft:
    """A length whose largest prime factor P exceeds _DIRECT_PRIME and is not
    the whole length takes one Cooley-Tukey step K = a P; every other length
    is rfft's own."""

    @pytest.mark.parametrize("K, P", [(1042, 521), (12345, 823), (60682, 30341),
                                      (82814, 881), (91833, 4373)])
    def test_split_lengths_match_rfft(self, K, P, monkeypatch):
        x = np.random.default_rng(K).random(K)
        expected = np.fft.rfft(x)
        lengths = []
        rfft = np.fft.rfft

        def spy(a, *args, axis=-1, **kwargs):
            lengths.append(np.shape(a)[axis])
            return rfft(a, *args, axis=axis, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", spy)
        X = spectral._real_dft(x)
        assert lengths == [P]
        assert X.shape == expected.shape
        assert np.abs(X - expected).max() <= 1e-16 * math.log2(K) * x.sum()

    @pytest.mark.parametrize("K", [1, 2, 511, 4097, 61609, 65538, 80028, 84534])
    def test_other_lengths_are_rfft(self, K):
        # 511 = 7 * 73, 4097 = 17 * 241, 65538 has 331, 84534 has 193, all at
        # most _DIRECT_PRIME; 61609 is prime
        x = np.random.default_rng(K).random(K)
        assert np.array_equal(spectral._real_dft(x), np.fft.rfft(x))


class TestDensityField:
    def setup_method(self):
        self.w = WellConfig(0.2)
        self.coeffs = mode_coefficients(self.w, 800)

    def test_initial_maximum_is_two_at_center(self):
        x = np.linspace(0.0, self.w.width, 513)
        field = density_field(self.w, self.coeffs, x, np.array([0.0]))
        row = field[0]
        assert row.min() >= -1e-12
        assert row.max() == pytest.approx(2.0, abs=1e-4)
        assert x[np.argmax(row)] == pytest.approx(0.5, abs=2e-3)

    def test_boundary_columns_vanish(self):
        x = np.linspace(0.0, self.w.width, 65)
        ts = np.linspace(0.0, self.w.period, 5)
        field = density_field(self.w, self.coeffs, x, ts)
        assert np.abs(field[:, 0]).max() < 1e-18
        assert np.abs(field[:, -1]).max() < 1e-18

    def test_normalization_at_all_sampled_times(self):
        x = np.linspace(0.0, self.w.width, 1025)
        ts = np.array([0.0, 0.2 * self.w.period, 0.7 * self.w.period])
        field = density_field(self.w, self.coeffs, x, ts)
        for row in field:
            assert np.trapezoid(row, x) == pytest.approx(1.0, abs=1e-5)

    def test_revival_of_whole_field(self):
        # each row in its own call: on the grid [0, P] row 1 is a copy of row 0
        x = np.linspace(0.0, self.w.width, 257)
        start = density_field(self.w, self.coeffs, x, [0.0])[0]
        revived = density_field(self.w, self.coeffs, x, [self.w.period])[0]
        assert np.abs(revived - start).max() < 1e-10

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


def direct_density(w, coeffs, x, ts):
    """|psi|^2 of the direct sum _mode_sums, every row at its own t."""
    psi = spectral._mode_sums(w, coeffs, x, np.asarray(ts, dtype=float))
    return (2.0 / w.width) * (psi.real**2 + psi.imag**2)


def mirror_bound(w, coeffs, multiple):
    """density_field's stated error of a copied row about t = multiple."""
    a = np.abs(coeffs.values)
    energies = spectral.mode_energies(w, coeffs.truncation)
    return (spectral._MIRROR_ULPS * np.spacing(multiple) * (4.0 / w.width)
            * a.sum() * (a * energies).sum())


def route_gap_bound(w, coeffs, K):
    """The summed routes' stated errors of psi / sqrt(2/L), added and carried
    to rho = (2/L) |psi|^2: the residue FFT's 1e-16 log2(K) sum |a_n| and the
    direct sum's eps sum |a_n| (N + 1 + 5 pi n), with |psi| <= sum |a_n|."""
    a = np.abs(coeffs.values)
    n = np.arange(1, a.size + 1)
    d = (1e-16 * math.log2(K) * a.sum()
         + 2.0**-53 * (a * (a.size + 1 + 5.0 * math.pi * n)).sum())
    return (2.0 / w.width) * (2.0 * a.sum() + d) * d


def mpmath_density(w, coeffs, x, t):
    """rho(x, t) with every phase E_n t taken in 40 digits; the sines and
    the sum in doubles add about 1e-15."""
    n = np.arange(1, coeffs.truncation + 1)
    with mpmath.workdps(40):
        rate = (mpmath.pi / mpmath.mpf(w.width)) ** 2 * mpmath.mpf(t)
        phases = [rate * (k * k) for k in n.tolist()]
        cos = np.array([float(mpmath.cos(p)) for p in phases])
        sin = np.array([float(mpmath.sin(p)) for p in phases])
    psi = (coeffs.values * (cos - 1j * sin)) @ np.sin(np.outer(n, math.pi * x / w.width))
    return (2.0 / w.width) * (psi.real**2 + psi.imag**2)


# (delta, nx, nt) of evolve grids linspace(0, P, nt): the CLI default, its
# test in test_cli.py and three of the benchmark's nx, nt = 2^18 / nx
_EVOLVE_GRIDS = [(0.2, 512, 512), (0.2, 129, 9), (0.07, 384, 683),
                 (0.45, 640, 410), (0.05, 500, 524)]


class TestDensityMirror:
    """On a time grid symmetric about a multiple of the period, density_field
    sums the first ceil(T/2) rows and copies them into the rest."""

    @pytest.fixture
    def summed(self, monkeypatch):
        """The times each route sums: half the weight rows of every stacked
        _lattice_sums call, and the times of every _mode_sums call."""
        counts = collections.Counter()
        lattice_sums, mode_sums = spectral._lattice_sums, spectral._mode_sums

        def lattice_spy(weights, *args):
            counts["lattice"] += len(weights) // 2
            return lattice_sums(weights, *args)

        def direct_spy(config, coeffs, xs, ts):
            counts["direct"] += ts.size
            return mode_sums(config, coeffs, xs, ts)

        monkeypatch.setattr(spectral, "_lattice_sums", lattice_spy)
        monkeypatch.setattr(spectral, "_mode_sums", direct_spy)
        return counts

    @pytest.mark.parametrize("delta, nx, nt", _EVOLVE_GRIDS)
    def test_rows_mirror_bit_for_bit(self, delta, nx, nt, summed):
        w = WellConfig(delta)
        field = density_field(w, mode_coefficients(w, 800),
                              np.linspace(0.0, w.width, nx),
                              np.linspace(0.0, w.period, nt))
        assert summed == {"lattice": (nt + 1) // 2}
        assert np.array_equal(field, field[::-1])

    @pytest.mark.parametrize("delta, nx, nt", _EVOLVE_GRIDS)
    def test_every_row_within_bound_of_its_own_time(self, delta, nx, nt):
        w = WellConfig(delta)
        coeffs = mode_coefficients(w, 800)
        x, ts = np.linspace(0.0, w.width, nx), np.linspace(0.0, w.period, nt)
        gap = np.abs(density_field(w, coeffs, x, ts)
                     - direct_density(w, coeffs, x, ts)).max(axis=1)
        bound = mirror_bound(w, coeffs, w.period)
        assert bound < 1.1e-11
        assert gap.max() <= bound
        # the summed rows, residue FFT against the direct sum
        assert gap[:(nt + 1) // 2].max() <= route_gap_bound(w, coeffs, 2 * (nx - 1))

    @pytest.mark.parametrize("delta, nx, nt", [(0.2, 512, 512), (0.07, 384, 683)])
    def test_rows_against_40_digit_phases(self, delta, nx, nt):
        w = WellConfig(delta)
        coeffs = mode_coefficients(w, 800)
        x, ts = np.linspace(0.0, w.width, nx), np.linspace(0.0, w.period, nt)
        values = density_field(w, coeffs, x, ts)
        for j in (1, nt // 3, nt - 1 - nt // 3, nt - 2):  # two summed, two copied
            gap = np.abs(values[j] - mpmath_density(w, coeffs, x, ts[j])).max()
            assert gap <= mirror_bound(w, coeffs, w.period)
            assert j >= (nt + 1) // 2 or gap <= 1e-13

    _ASYMMETRIC = pytest.mark.parametrize("fraction", [
        np.linspace(0.0, 0.9, 9), np.array([0.0, 0.2, 0.7]),
        np.array([0.0, 0.5, 1.0 + 1e-12]),
    ], ids=["0-0.9P", "0-0.2P-0.7P", "P-off-by-1e-12"])

    @_ASYMMETRIC
    def test_asymmetric_grid_sums_every_row(self, fraction, summed):
        w = WellConfig(0.2)
        coeffs = mode_coefficients(w, 800)
        x, ts = np.linspace(0.0, w.width, 129), fraction * w.period
        values = density_field(w, coeffs, x, ts)
        assert summed == {"lattice": ts.size}
        assert (np.abs(values - direct_density(w, coeffs, x, ts)).max()
                <= route_gap_bound(w, coeffs, 256))

    @_ASYMMETRIC
    def test_off_lattice_grid_keeps_the_direct_bits(self, fraction, summed):
        w = WellConfig(0.2)
        coeffs = mode_coefficients(w, 800)
        x, ts = np.geomspace(1e-3, w.width, 129), fraction * w.period
        values = density_field(w, coeffs, x, ts)
        assert summed == {"direct": ts.size}
        assert np.array_equal(values, direct_density(w, coeffs, x, ts))

    @pytest.mark.parametrize("ts", [[0.0, 0.0, 0.0], [0.3, 0.7], [1.0],
                                    np.linspace(0.0, 2.0, 7),
                                    np.linspace(0.25, 1.75, 6)])
    def test_grids_about_any_multiple_mirror(self, ts, summed):
        w = WellConfig(0.2)
        coeffs = mode_coefficients(w, 800)
        x, ts = np.linspace(0.0, w.width, 65), np.asarray(ts) * w.period
        values = density_field(w, coeffs, x, ts)
        assert summed == {"lattice": (ts.size + 1) // 2}
        multiple = round((ts[0] + ts[-1]) / w.period) * w.period
        assert (np.abs(values - direct_density(w, coeffs, x, ts)).max()
                <= mirror_bound(w, coeffs, multiple) + route_gap_bound(w, coeffs, 128))


class TestModeSums:
    """_mode_sums stacks the real and imaginary rows of its phases over one
    real sine table; the complex product of the same blocks is the reference."""

    @staticmethod
    def complex_product(w, coeffs, xs, ts):
        n = np.arange(1, coeffs.truncation + 1, dtype=float)
        phased = coeffs.values * np.exp(
            -1j * np.outer(ts, spectral.mode_energies(w, coeffs.truncation)))
        return phased @ np.sin(np.outer(n, math.pi * xs / w.width)).astype(complex)

    @pytest.mark.parametrize("delta, M, N, ts", [
        (0.2, 129, 800, np.linspace(0.0, 0.9167, 9)),
        (0.07, 384, 800, np.linspace(0.0, 0.4, 50)),
        (0.3, 4097, 2000, np.array([0.0, 0.01, 1.3])),  # two mode blocks
        (1.5, 1, 5000, np.array([0.37])),
    ])
    def test_real_product_matches_complex_product(self, delta, M, N, ts):
        w = WellConfig(delta)
        coeffs = mode_coefficients(w, N)
        xs = np.linspace(0.01, w.width, M)
        psi = spectral._mode_sums(w, coeffs, xs, ts)
        assert psi.shape == (ts.size, M) and psi.dtype == complex
        assert np.abs(psi - self.complex_product(w, coeffs, xs, ts)).max() <= 1e-14

    @pytest.mark.parametrize("blocks", [2, 3, 7, 50])
    def test_a_smaller_budget_moves_only_the_last_bits(self, monkeypatch, blocks):
        # unlike _direct_sums the mode blocks are added up, so the budget can
        # move the last bits: measured 3.3e-15 at most, about 10 ulps of sum |a_n|
        w, N, X = WellConfig(0.2), 2000, 300
        coeffs = mode_coefficients(w, N)
        xs = np.sort(np.random.default_rng(1).uniform(0.0, w.width, X))
        ts = np.array([0.0123])
        default = spectral._mode_sums(w, coeffs, xs, ts)
        monkeypatch.setattr(spectral, "_CHUNK_BUDGET", 2**40)
        assert np.array_equal(spectral._mode_sums(w, coeffs, xs, ts), default)
        monkeypatch.setattr(spectral, "_CHUNK_BUDGET", 4 * X * -(-N // blocks))
        assert np.abs(spectral._mode_sums(w, coeffs, xs, ts) - default).max() <= 1e-14

    def test_off_lattice_wavefunction_matches_complex_product(self):
        w = _OFF_WELL
        coeffs = mode_coefficients(w, 2000)
        x = np.linspace(0.1, 0.9, 400)
        assert lattice_period(w, coeffs, x) == 0
        psi = wavefunction(w, coeffs, x, 0.01)
        reference = self.complex_product(w, coeffs, x, np.array([0.01]))[0]
        assert np.abs(psi - reference * math.sqrt(2.0 / w.width)).max() <= 1e-14


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

    def test_integer_rates_take_exact_turns(self):
        points = np.array([0.1234, -3.7, 1e6 / 3])
        nsq = np.arange(2, 40, dtype=np.int64) ** 2
        blocks = []
        spectral._direct_sums(points, nsq, lambda p: blocks.append(p) or p)
        spectral._direct_sums(points, nsq.astype(float), lambda p: blocks.append(p) or p)
        assert np.array_equal(blocks[0], spectral._turns(nsq, points[:, None]))
        assert np.array_equal(blocks[1], np.outer(points, nsq.astype(float)))

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

    @settings(max_examples=40, deadline=None)
    @given(sources=st.integers(1, 20000), P=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1), segment=st.sampled_from([None, 64]))
    def test_many_sources_per_frequency_match_exact_turns(self, sources, P, seed,
                                                          segment):
        # up to 2e4 sources against P <= 300 reach both routes and the switch
        # at _BIN_MIN sources per frequency; where every segment is binned the
        # tighter bound of the binned route holds
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-1.0, 2.0, sources)
        c = rng.standard_normal((2, sources)) + 1j * rng.standard_normal((2, sources))
        with pytest.MonkeyPatch.context() as patch:
            if segment is not None:
                patch.setattr(spectral, "_FFT_LIMIT", 32 * segment)
            sums = spectral._window_sums(theta, c, P)
        binned = sources >= spectral._BIN_MIN * min(P, segment or P)
        ks = rng.integers(0, P, 8)
        for row, weights in zip(sums, c):
            direct = np.array([np.sum(weights * np.exp(
                2j * math.pi * spectral._turns(k, theta))) for k in ks])
            assert (np.abs(row[ks] - direct).max()
                    <= (2e-15 if binned else 2e-14) * np.abs(weights).sum())

    @settings(max_examples=40, deadline=None)
    @given(sources=st.integers(1, 300), P=st.integers(1, 3000),
           seed=st.integers(0, 2**32 - 1))
    def test_each_route_holds_its_bound_at_any_shape(self, sources, P, seed):
        # a _BIN_MIN of 0 bins every segment and one above any count spreads
        # every one, so each route meets few and many sources per frequency
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-1.0, 2.0, sources)
        c = rng.standard_normal(sources) + 1j * rng.standard_normal(sources)
        ks = np.unique(np.concatenate([[0, P - 1], rng.integers(0, P, 6)]))
        direct = np.array([np.sum(c * np.exp(2j * math.pi * spectral._turns(k, theta)))
                           for k in ks])
        for threshold, bound in ((0, 2e-15), (10**9, 2e-14)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(spectral, "_BIN_MIN", threshold)
                sums = spectral._window_sums(theta, c, P)
            assert np.abs(sums[ks] - direct).max() <= bound * np.abs(c).sum()

    def test_the_shape_of_the_call_picks_the_route(self):
        # a zoom window has some 400 modes per point and bins; the phase sums
        # off a ruler have some 1/200 of a mode per sample and spread: each
        # reads the bits of its route forced, and not those of the other
        def routes(call):
            with pytest.MonkeyPatch.context() as patch:
                forced = []
                for threshold in (0, 10**9):
                    patch.setattr(spectral, "_BIN_MIN", threshold)
                    forced.append(call())
            return call(), forced
        zoom = np.linspace(1 / 9 - 7e-4, 1 / 9 + 7e-4, 257)  # on no lattice j/K
        default, (binned, spread) = routes(lambda: universal.universal_function(zoom, 10**5))
        assert np.array_equal(default, binned) and not np.array_equal(default, spread)
        default, (binned, spread) = routes(
            lambda: fractal.phase_sum_samples(1.0 / 20000.5).values)
        assert np.array_equal(default, spread) and not np.array_equal(default, binned)


def _record_builds():
    """A maker of each record that compares by identity; two calls give
    equal values."""
    well = WellConfig(0.1)
    coeffs = lambda: mode_coefficients(well, 8)  # noqa: E731
    eps = np.logspace(-5, -2, 10)
    return {
        "ModeCoefficients": coeffs,
        "UniversalCurve": lambda: universal.universal_curve(8, 10),
        "PhaseSumSample": lambda: fractal.phase_sum_samples(1e-2),
        "DimensionFit": lambda: fractal.dimension_fit(eps, eps**-0.25),
        "NormalityReport": lambda: fractal.normality_diagnostics(
            fractal.phase_sum_samples(1e-2)),
        "GridState": lambda: oracle.initial_state(well, 9),
    }


# each refusal of a record or of the function that makes one, and its message
_REFUSALS = {
    "ModeCoefficients": (lambda: spectral.ModeCoefficients(
        values=np.ones((2, 2)), config=WellConfig(0.1)), "coefficient array must be 1-d"),
    "coefficient_tail_bound": (lambda: coefficient_tail_bound(WellConfig(5.0), 3),
                               "truncation must exceed the well width"),
    "dimension_fit": (lambda: fractal.dimension_fit([1, 2], [1, 2, 3]),
                      "rulers and lengths must be matching 1-d arrays"),
    "UniversalCurve": (lambda: universal.UniversalCurve([0.0], [0.0], 2),
                       "curve needs matching 1-d grids with >= 2 samples"),
    "universal_curve": (lambda: universal.universal_curve(1),
                        "need at least 2 grid intervals"),
    "PhaseSumSample": (lambda: fractal.PhaseSumSample(1e-3, []), "empty sample"),
    "profile_dimension": (lambda: fractal.profile_dimension([0]),
                          "strides must be positive integers"),
    "GridState": (lambda: oracle.GridState(x_grid=[0.0, 1.0], amplitudes=[0.0, 0.0], t=0.0),
                  "state needs matching 1-d grids with >= 3 points"),
    "initial_state": (lambda: oracle.initial_state(WellConfig(0.1), 2),
                      "need at least 3 grid points"),
}


class TestRecords:
    @pytest.mark.parametrize("name", sorted(_REFUSALS))
    def test_bad_shapes_and_sizes_are_refused(self, name):
        call, match = _REFUSALS[name]
        with pytest.raises(ValueError, match=match):
            call()

    @pytest.mark.parametrize("name", sorted(_record_builds()))
    def test_array_records_compare_and_hash_by_identity(self, name):
        # equal values do not make equal records: == and hash() go by identity
        build = _record_builds()[name]
        a, b = build(), build()
        assert type(a).__name__ == name
        assert a == a
        assert a != b
        assert len({a, b}) == 2

    @pytest.mark.parametrize("name", ["GridState", "PhaseSumSample", "ModeCoefficients",
                                      "DimensionFit", "ValleyEntry"])
    def test_derived_fields_are_not_arguments(self, name):
        # each record takes only the fields that fix the others
        x = np.linspace(0.0, 1.2, 9)
        amplitudes = np.sin(np.pi * x / 1.2).astype(complex)
        amplitudes[-1] = 0.0
        values = np.array([1.0, 2.0, 4.0])
        build, derived = {
            "GridState": (lambda **extra: oracle.GridState(
                x_grid=x, amplitudes=amplitudes, t=0.0, **extra),
                {"dx": float(x[1] - x[0])}),
            "PhaseSumSample": (lambda **extra: fractal.PhaseSumSample(
                epsilon=0.1, values=values, **extra),
                {"cutoff": 2, "mean": float(values.mean()), "std": float(values.std())}),
            "ModeCoefficients": (lambda **extra: spectral.ModeCoefficients(
                values=values, config=WellConfig(0.1), **extra), {"truncation": 3}),
            "DimensionFit": (lambda **extra: fractal.DimensionFit(
                slope=-0.25, residual=0.0, **extra),
                {"dimension": 1.25, "epsilons": None, "lengths": None}),
            "ValleyEntry": (lambda **extra: universal.ValleyEntry(
                numerator=1, denominator_root=3, depth=0.5, **extra),
                {"location": float(Fraction(1, 9))}),
        }[name]
        record = build()
        for field_name, value in derived.items():
            with pytest.raises(TypeError):
                build(**{field_name: value})
            if value is not None:
                assert getattr(record, field_name) == value
            else:
                assert not hasattr(record, field_name)


_SHAPE_WELL = WellConfig(0.01)
_SHAPE_COEFFS = mode_coefficients(_SHAPE_WELL, 300)
# each pointwise reader, and the unit its points are scaled by
_READERS = {
    "survival_amplitude": (lambda t: survival.survival_amplitude(_SHAPE_WELL, t, 300),
                           _SHAPE_WELL.period),
    "escape_probability_exact": (
        lambda t: survival.escape_probability_exact(_SHAPE_WELL, t, 300), _SHAPE_WELL.period),
    "escape_probability_aligned": (
        lambda t: survival.escape_probability_aligned(_SHAPE_WELL, t, 300), _SHAPE_WELL.period),
    "escape_small_delta": (lambda t: survival.escape_small_delta(_SHAPE_WELL, t, 300),
                           _SHAPE_WELL.period),
    "asymptote_free": (survival.asymptote_free, 1e-3),
    "asymptote_confined": (lambda t: survival.asymptote_confined(0.01, t), 1e-3),
    "universal_function": (lambda xi: universal.universal_function(xi, 300), 1.0),
    "wavefunction": (lambda x: wavefunction(_SHAPE_WELL, _SHAPE_COEFFS, x, 0.01),
                     _SHAPE_WELL.width),
}


class TestPointShapes:
    """Every pointwise reader returns one value per point in the shape of its
    input: a (2, 2) array used to raise from the lattice test in some readers
    and come back flat from others."""

    @pytest.mark.parametrize("points", [
        np.array([[0.1, 0.2], [0.35, 0.5]]),
        np.arange(8).reshape(2, 4) / 8.0,
    ], ids=["2x2", "2x4-lattice"])
    @pytest.mark.parametrize("reader", list(_READERS))
    def test_result_is_the_flat_call_reshaped(self, reader, points):
        read, unit = _READERS[reader]
        points = points * unit
        out = read(points)
        assert out.shape == points.shape
        assert np.array_equal(out, read(points.ravel()).reshape(points.shape))

    @pytest.mark.parametrize("reader", list(_READERS))
    def test_scalar_gives_one_number(self, reader):
        read, unit = _READERS[reader]
        value = read(0.25 * unit)
        assert type(value) in (float, complex)
        assert value == read(np.array([0.25 * unit]))[0]
