import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellquench import fractal
from wellquench.errors import GridMismatchError, InsufficientSpanError
from wellquench.fractal import (curve_length, dimension_fit,
                                normality_diagnostics, phase_sum_samples,
                                phase_sum_scaling, profile_dimension)
from wellquench.spectral import _ruler_period
from wellquench.universal import UniversalCurve


def direct_phase_sums(epsilon):
    """xi_m for m = 1..floor(1/eps), summed directly over the rounded phases
    2 pi n^2 m eps: phase_sum_samples' route at non-integer 1/eps before the
    window transform."""
    cutoff = int(math.floor(math.sqrt(1.0 / (2.0 * epsilon))))
    n = np.arange(2, cutoff + 1, dtype=float)
    m = np.arange(1, int(math.floor(1.0 / epsilon)) + 1, dtype=float)
    return np.sin(np.outer(m, 2.0 * math.pi * n * n * epsilon)).sum(axis=1)


def exact_phase_sums(epsilon, ms):
    """xi_m by math.fsum over turns n^2 m eps reduced exactly with integers."""
    cutoff = int(math.floor(math.sqrt(1.0 / (2.0 * epsilon))))
    num, den = Fraction(epsilon).as_integer_ratio()
    nsq = [n * n for n in range(2, cutoff + 1)]
    return np.array([math.fsum(np.sin(2.0 * math.pi * np.array(
        [(s * int(m) * num % den) / den for s in nsq]))) for m in ms])


def window_phase_bound(epsilon, m):
    """phase_sum_samples' stated bound at non-integer 1/eps: per mode, 2e-14
    from the transform and 2 pi m 5e-16 from the rounding of the turns."""
    cutoff = int(math.floor(math.sqrt(1.0 / (2.0 * epsilon))))
    return (cutoff - 1) * (2e-14 + 2.0 * math.pi * m * 5e-16)


def synthetic_curve(func, epsilon):
    steps = int(round(1.0 / epsilon))
    xi = np.arange(steps + 2) * epsilon
    return UniversalCurve(xi_grid=xi, values=func(xi), truncation=2)


class TestCurveLength:
    def test_constant_curve_exposes_the_two_variants(self):
        curve = synthetic_curve(lambda x: np.full_like(x, 0.7), 1e-2)
        lengths = curve_length(curve, 1e-2)
        assert lengths.chord == pytest.approx(0.25, rel=1e-12)
        assert lengths.variation == 0.0

    def test_linear_curve_total_variation(self):
        curve = synthetic_curve(lambda x: x, 1e-2)
        lengths = curve_length(curve, 1e-2)
        assert lengths.variation == pytest.approx(1.0, rel=1e-12)
        assert lengths.chord == pytest.approx(math.sqrt(5.0) / 4.0, rel=1e-12)

    def test_grid_mismatch_errors(self):
        curve = synthetic_curve(lambda x: x, 1e-2)
        with pytest.raises(GridMismatchError):
            curve_length(curve, 2e-2)
        short = UniversalCurve(xi_grid=curve.xi_grid[:50],
                               values=curve.values[:50], truncation=2)
        with pytest.raises(GridMismatchError):
            curve_length(short, 1e-2)

    def test_profile_ruler_ratio(self):
        # l(1e-4) / l(1e-3) should sit near 10^(1/4) = 1.778
        from wellquench.universal import universal_curve
        lengths = {}
        for intervals in (10**4, 10**3):
            curve = universal_curve(intervals, 2 * 10**4)
            lengths[intervals] = curve_length(curve, 1.0 / intervals)
        ratio = lengths[10**4].chord / lengths[10**3].chord
        assert ratio == pytest.approx(10.0**0.25, rel=0.15)


class TestDimensionFit:
    def test_exact_quarter_power(self):
        eps = np.logspace(-5, -2, 10)
        fit = dimension_fit(eps, eps**-0.25)
        assert fit.dimension == pytest.approx(1.25, abs=1e-12)
        assert fit.residual < 1e-12

    def test_rectifiable_curve(self):
        eps = np.logspace(-5, -2, 10)
        fit = dimension_fit(eps, np.full(10, 3.7))
        assert fit.dimension == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_lengths_and_rulers_that_are_not_positive(self, bad):
        eps = np.logspace(-5, -2, 10)
        lengths = eps**-0.25
        lengths[3] = bad
        with pytest.raises(ValueError, match="lengths must be finite and positive"):
            dimension_fit(eps, lengths)
        eps[3] = bad
        with pytest.raises(ValueError, match="rulers must be finite and positive"):
            dimension_fit(eps, np.full(10, 3.7))

    def test_span_validation(self):
        with pytest.raises(InsufficientSpanError):
            dimension_fit([1e-3, 2e-3, 4e-3, 8e-3], [1, 1, 1, 1])
        eps = np.logspace(-2.5, -2, 6)
        with pytest.raises(InsufficientSpanError):
            dimension_fit(eps, eps**-0.25)


class TestProfileDimension:
    STRIDES = [1, 2, 3, 5, 7, 10, 15, 20, 30, 50, 70, 100,
               150, 200, 300, 500, 700, 1000]

    def test_dimension_near_five_fourths(self):
        fit, _ = profile_dimension(self.STRIDES)
        assert fit.dimension == pytest.approx(1.25, abs=0.05)

    def test_chord_and_variation_forms_agree(self):
        fit_chord, lengths = profile_dimension(self.STRIDES)
        fit_var = dimension_fit([m.ruler for m in lengths],
                                [m.variation for m in lengths])
        assert abs(fit_chord.dimension - fit_var.dimension) < 0.03

    def test_ruler_halving_monotonicity(self):
        _, lengths = profile_dimension([5, 10, 50, 100, 500, 1000],
                                       base_intervals=10**5, n_modes=5 * 10**4)
        by_ruler = {m.ruler: m.chord for m in lengths}
        for half, full in ((5e-5, 1e-4), (5e-4, 1e-3), (5e-3, 1e-2)):
            assert by_ruler[half] >= 0.9 * by_ruler[full]

    def test_base_grid_coarser_than_a_stride_rejected(self):
        # base_intervals // stride == 0 would give a zero length and a NaN
        # dimension
        with pytest.raises(ValueError, match="largest stride 1000"):
            profile_dimension(self.STRIDES, base_intervals=100, n_modes=1000)
        profile_dimension([1, 10, 100, 1000, 2000], base_intervals=2000, n_modes=1000)

    def test_deterministic(self):
        fit_a, lengths_a = profile_dimension([10, 30, 100, 300, 1000],
                                             base_intervals=10**4,
                                             n_modes=10**4)
        fit_b, lengths_b = profile_dimension([10, 30, 100, 300, 1000],
                                             base_intervals=10**4,
                                             n_modes=10**4)
        assert fit_a.dimension == fit_b.dimension
        assert fit_a.residual == fit_b.residual
        assert all(x.chord == y.chord and x.variation == y.variation
                   for x, y in zip(lengths_a, lengths_b))


class TestPhaseSums:
    def test_fft_path_matches_reference_loop(self):
        sample = phase_sum_samples(1e-3)  # 1/eps integral: FFT route
        n = np.arange(2, sample.cutoff + 1, dtype=float)
        m = np.arange(1, 1001, dtype=float)
        reference = np.sin(2.0 * math.pi * np.outer(m * 1e-3, n * n)).sum(axis=1)
        assert np.abs(sample.values - reference).max() < 1e-9

    def test_window_path_matches_exact_turns(self):
        eps = 1.0 / 800.5  # non-integral 1/eps: window route
        sample = phase_sum_samples(eps)
        assert np.abs(sample.values - direct_phase_sums(eps)).max() < 1e-9
        m = np.arange(1, sample.values.size + 1)
        exact = exact_phase_sums(eps, m)
        assert np.all(np.abs(sample.values - exact) <= window_phase_bound(eps, m))

    def test_ruler_near_a_lattice_takes_the_window(self):
        # 1/eps is 1e5 within 3e-10 relative: a 1e-9 tolerance snapped it
        # onto K = 1e5 and put the sums 2.6e-3 off
        eps = 1e-5 * (1 + 3e-10)
        sample = phase_sum_samples(eps)
        count = sample.values.size
        ms = np.array([1, count // 2, count])
        error = np.abs(sample.values[ms - 1] - exact_phase_sums(eps, ms))
        assert np.all(error <= window_phase_bound(eps, ms))

    def test_every_integer_ruler_is_a_lattice(self):
        K = np.arange(2, 2**20 + 1)
        assert np.array_equal(_ruler_period(1.0 / K), K)
        assert _ruler_period(1e-5 * (1 + 3e-10)) == 0

    @settings(max_examples=25, deadline=None)
    @given(inverse=st.integers(8, 20000), fraction=st.floats(0.01, 0.99),
           data=st.data())
    def test_window_route_matches_exact_turns(self, inverse, fraction, data):
        eps = 1.0 / (inverse + fraction)
        sample = phase_sum_samples(eps)
        assert sample.values.size == int(math.floor(1.0 / eps))
        ms = np.array(data.draw(st.lists(st.integers(1, sample.values.size),
                                         min_size=1, max_size=4, unique=True)))
        error = np.abs(sample.values[ms - 1] - exact_phase_sums(eps, ms))
        assert np.all(error <= window_phase_bound(eps, ms))

    def test_bound_and_moments_at_reference_ruler(self):
        sample = phase_sum_samples(1e-5)
        assert sample.cutoff == 223
        terms = sample.cutoff - 1
        assert np.abs(sample.values).max() <= terms
        # mean of a full period of phase sums vanishes identically
        assert abs(sample.mean) <= 3.0 * sample.std / math.sqrt(sample.values.size)
        # std within a factor 2 of eps^(-1/4)
        target = (1e-5) ** -0.25
        assert target / 2.0 < sample.std < target * 2.0
        assert sample.std == pytest.approx(10.535706431516594, rel=1e-9)

    def test_ruler_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            phase_sum_samples(0.2)  # cutoff would fall below n = 2

    @pytest.mark.parametrize("inverse", [1000.0, 2000.5], ids=["lattice", "window"])
    def test_one_mode_table_per_sample(self, monkeypatch, inverse):
        # the n^2 of a sample come from the profile's own mode table
        calls = []
        modes = fractal._profile_modes
        monkeypatch.setattr(fractal, "_profile_modes",
                            lambda n: calls.append(n) or modes(n))
        sample = phase_sum_samples(1.0 / inverse)
        assert calls == [sample.cutoff]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_ruler_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="ruler must be finite and positive"):
            phase_sum_samples(bad)

    @pytest.mark.parametrize("inverse", [1000, 4096, 20011, 37500, 10**5, 10**6])
    def test_fft_route_equals_add_at_copy(self, inverse):
        # the residue binning before the shared engine: np.add.at then FFT;
        # bincount adds in the same order, so the values are the same bits
        sample = phase_sum_samples(1.0 / inverse)
        n = np.arange(2, sample.cutoff + 1, dtype=np.int64)
        residue_weights = np.zeros(inverse)
        np.add.at(residue_weights, (n * n) % inverse, 1.0)
        sums = -np.fft.fft(residue_weights).imag
        expected = np.concatenate([sums[1:], sums[:1]])[:sample.values.size]
        assert np.array_equal(sample.values, expected)


class TestScaling:
    def test_sigma_slope_quarter_power(self):
        slope, _ = phase_sum_scaling([1e-5, 1e-4, 1e-3])
        assert slope == pytest.approx(-0.25, abs=0.07)


class TestNormalityDiagnostics:
    def test_histogram_counts_the_whole_sample(self):
        sample = phase_sum_samples(1e-4)
        report = normality_diagnostics(sample, bins=41)
        assert report.counts.sum() == sample.values.size
        assert report.bin_edges.size == 42

    def test_moments_at_reference_ruler(self):
        report = normality_diagnostics(phase_sum_samples(1e-5))
        assert abs(report.skewness) < 0.05
        # the tails are genuinely heavier than normal at this ruler
        assert report.excess_kurtosis == pytest.approx(1.890, abs=0.01)

    def test_degenerate_sample_reports_nan(self):
        from wellquench.fractal import PhaseSumSample
        single = PhaseSumSample(epsilon=0.1, cutoff=2, values=np.array([1.3]),
                                mean=1.3, std=0.0)
        report = normality_diagnostics(single)
        assert math.isnan(report.skewness)
        assert math.isnan(report.excess_kurtosis)
        assert report.counts.sum() == 1
