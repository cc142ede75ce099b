import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellquench import oracle, spectral, survival, universal
from wellquench.errors import TruncationInconsistencyError
from wellquench.spectral import WellConfig, mode_coefficients, wavefunction
from wellquench.survival import (CONFINED_KERNEL_CONSTANT,
                                 CONFINED_LAW_COEFFICIENT,
                                 FREE_KERNEL_CONSTANT, FREE_LAW_COEFFICIENT,
                                 asymptote_confined,
                                 asymptote_free, crossover_time,
                                 escape_integral, escape_probability_exact,
                                 escape_small_delta, regime_report,
                                 survival_amplitude)

from test_oscillatory import mpmath_kernel


class TestSurvivalAmplitude:
    def test_certain_at_zero(self):
        w = WellConfig(0.2)
        amp = survival_amplitude(w, 0.0, 2000)
        assert amp.imag == 0.0
        assert amp.real == pytest.approx(1.0, abs=1e-9)

    def test_full_revival(self):
        w = WellConfig(0.2)
        assert abs(survival_amplitude(w, w.period, 2000)
                   - survival_amplitude(w, 0.0, 2000)) < 1e-9

    def test_frozen_value(self):
        amp = survival_amplitude(WellConfig(0.2), 0.01, 2000)
        assert amp == pytest.approx(0.99047260172387 - 0.09306427280113741j,
                                    abs=1e-12)

    def test_matches_overlap_quadrature(self):
        # central oracle check: series amplitude vs trapezoid overlap of
        # the sampled states <psi_0 | psi_t>
        w = WellConfig(0.2)
        n_points, n_modes, t = 4096, 3000, 0.01
        initial = oracle.initial_state(w, n_points)
        coeffs = mode_coefficients(w, n_modes)
        evolved = oracle.from_samples(initial.x_grid,
                                      wavefunction(w, coeffs, initial.x_grid, t),
                                      t)
        quadrature = oracle.overlap(initial, evolved)
        series = survival_amplitude(w, t, n_modes)
        assert abs(series - quadrature) < 1e-6


class TestEscapeExact:
    def test_zero_time(self):
        for delta in (0.003, 0.2):
            assert escape_probability_exact(WellConfig(delta), 0.0, 2000) < 1e-9

    def test_revival_returns_to_zero(self):
        for delta in (0.003, 0.2):
            w = WellConfig(delta)
            assert escape_probability_exact(w, w.period, 2000) < 1e-6

    def test_frozen_values(self):
        w = WellConfig(0.003)
        expected = {
            1e-8: 1.0456310871803111e-11,
            1e-7: 3.320035247663007e-10,
            1e-4: 2.167903568806973e-06,
            1e-3: 8.29378928005292e-06,
        }
        for t, value in expected.items():
            assert escape_probability_exact(w, t, 40000) == pytest.approx(
                value, rel=1e-6)

    def test_free_law_at_short_times(self):
        w = WellConfig(0.003)
        for t in (1e-8, 1e-7):
            ratio = (escape_probability_exact(w, t, 40000)
                     / float(asymptote_free(t)))
            assert ratio == pytest.approx(1.0, abs=6e-3)

    def test_vectorized_matches_scalar(self):
        w = WellConfig(0.01)
        ts = np.array([1e-6, 1e-4, 1e-2])
        vec = escape_probability_exact(w, ts, 2000)
        for t, v in zip(ts, vec):
            assert escape_probability_exact(w, float(t), 2000) == v

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            escape_probability_exact(WellConfig(0.1), -1.0, 100)

    @pytest.mark.parametrize("delta, times", [
        # the escape CLI defaults, and a 20-point window about the crossover
        # as the benchmark's escape sweep draws them
        (0.003, np.logspace(-8.0, -2.0, 121)),
        (0.0052, 3.0 * 0.0052**2 * np.logspace(-1.75, 1.75, 20)),
    ])
    def test_one_phase_block_keeps_the_two_pass_bits(self, delta, times):
        config = WellConfig(delta)
        coeffs = mode_coefficients(
            config, spectral.truncation_for_tolerance(config, "survival", 1e-12))
        a2, energies = coeffs.weights, coeffs.energies
        reference = math.fsum(a2)
        phases = np.outer(times, energies)
        re_b = (a2 * 2.0 * np.sin(phases / 2.0) ** 2).sum(axis=1)
        im_b = -(a2 * np.sin(phases)).sum(axis=1)
        expected = ((1.0 - reference) * (1.0 + reference)
                    + 2.0 * reference * re_b - re_b * re_b - im_b * im_b)
        fused = survival._escape_core(a2, energies, times, reference)
        assert np.array_equal(fused, expected)

    def test_noise_clamp_contract(self):
        from wellquench.survival import _apply_noise_clamp
        # noise-level violations are clamped
        assert _apply_noise_clamp(np.array([-1e-13]))[0] == 0.0
        # mid-range violations pass through visibly
        assert _apply_noise_clamp(np.array([-1e-10]))[0] == -1e-10
        # larger ones are an error
        with pytest.raises(TruncationInconsistencyError):
            _apply_noise_clamp(np.array([-1e-7]))


class TestEscapeSmallDelta:
    def test_zero_time(self):
        assert escape_small_delta(WellConfig(0.003), 0.0, 10000) == 0.0

    def test_agrees_with_exact_at_short_time(self):
        w = WellConfig(0.003)
        exact = escape_probability_exact(w, 1e-6, 40000)
        approx = escape_small_delta(w, 1e-6, 40000)
        assert abs(approx / exact - 1.0) < 0.01  # well inside the 10% target

    def test_slope_transition_near_crossover(self):
        w = WellConfig(0.003)
        ts = np.logspace(-7, -2, 61)
        ps = escape_small_delta(w, ts, 10**5)
        logs = np.log(ps)
        logt = np.log(ts)
        slopes = (logs[2:] - logs[:-2]) / (logt[2:] - logt[:-2])
        centers = ts[1:-1]
        early = slopes[centers < 1e-6]
        late = slopes[centers > 1e-3]
        assert early.min() > 1.4
        assert late.max() < 0.7
        # the local slope passes through 1 inside [delta^2, 10 delta^2]
        window = (centers >= w.delta**2) & (centers <= 10 * w.delta**2)
        assert np.abs(slopes[window] - 1.0).min() < 0.15


class TestEscapeIntegral:
    def test_zero_shift_and_zero_time(self):
        assert escape_integral(0.0, 1e-3) == 0.0
        assert escape_integral(0.003, 0.0) == 0.0

    def test_free_regime_matches_closed_form(self):
        # t << delta^2: the continuum escape approaches the free law
        t = 1e-8
        value = escape_integral(0.003, t)
        assert value == pytest.approx(float(asymptote_free(t)), rel=1e-4)

    def test_confined_regime_frozen_value(self):
        # t >> delta^2: approaches the confined law from below; the residual
        # 8% gap at t = 1e-3 is the genuine finite-(delta/sqrt(t)) correction
        value = escape_integral(0.003, 1e-3)
        assert value == pytest.approx(8.267678940640683e-06, rel=1e-6)
        ratio = value / float(asymptote_confined(0.003, 1e-3))
        assert 0.91 < ratio < 0.94

    def test_confined_law_next_term(self):
        # for delta^2 << t the confined law exceeds the continuum escape by a
        # t-independent (8 pi^2 / 3) delta^3, approached as delta/sqrt(t) -> 0
        delta = 0.003
        ts = (1e-4, 3e-4, 1e-3, 1e-2)
        gaps = np.array([float(asymptote_confined(delta, t))
                         - escape_integral(delta, t) for t in ts]) / delta**3
        target = 8.0 * math.pi**2 / 3.0
        assert np.all(np.diff(np.abs(gaps - target)) < 0.0)
        assert gaps[-1] == pytest.approx(target, rel=0.01)

    # the power series below alpha = 2, the bracket from 2 on, against the
    # exact Fresnel form that test_oscillatory's Gauss-panel quadrature
    # checks; 0.03 and 200 were the edges of earlier routes
    @pytest.mark.parametrize("alpha", [
        1e-3, 3e-3, 0.01, 0.0299, 0.03, 0.1, 0.3, 1.0, 2.0, 5.0, 30.0, 100.0,
        199.9, 200.0, 1e3, 1e4])
    def test_closed_form_against_quadrature_oracle(self, alpha):
        bound = 3e-15 if alpha < 2.0 else 6e-16
        exact = mpmath_kernel(alpha)
        closed = escape_integral(alpha, 1.0) / (16.0 * math.pi)
        assert abs(closed - exact) <= bound * exact

    @pytest.mark.parametrize("lo, hi", [
        (1e-3, 0.03), (0.03, 2.0), (2.0, 30.0), (30.0, 200.0), (200.0, 1e3),
        (1e3, 1e6)])
    def test_closed_form_against_mpmath(self, lo, hi):
        # the documented relative error, 3e-15 below alpha = 2 and 6e-16 from
        # 2 on, is the worst over 1500 log-spaced points per band; every 25th
        # of them is checked against the Fresnel form of I to 60 digits
        bound = 3e-15 if hi <= 2.0 else 6e-16
        for alpha in np.geomspace(lo, hi, 1500, endpoint=False)[::25].tolist():
            exact = mpmath_kernel(alpha)
            closed = escape_integral(alpha, 1.0) / (16.0 * math.pi)
            assert abs(closed - exact) <= bound * exact

    @pytest.mark.parametrize("edge, bound", [
        (0.03, 5e-12), (2.0, 3e-15 + 6e-16), (200.0, 3e-9)])
    def test_branches_meet_continuously(self, edge, bound):
        # edge 2 is the switch between the series and the bracket; 0.03
        # and 200 lie inside one branch and must show no step either.
        # bound: at least the sum of the documented errors on either side
        below = escape_integral(math.nextafter(edge, 0.0), 1.0)
        at = escape_integral(edge, 1.0)
        assert abs(at - below) <= bound * at

    @pytest.mark.parametrize("delta, t, expected", [
        (1.0, 1e-310, 0.0), (1e160, 1.0, 10.499739963814944),
        (1e300, 1.0, 10.499739963814944),
        (1e154, 1e-154, 1.0499739963814944e-230), (1e300, 1e-310, 0.0),
        (1e5, 1.0, 10.499739963814944)])
    def test_huge_alpha_keeps_the_limit(self, delta, t, expected):
        # alpha^2 overflows, or (at 1e5) the bracket's correction is below
        # one ulp of 1: I is F / 2 to the last bit, and 8 pi F t^{3/2} is
        # 0, tiny or 10.4997... as before the bracket, without raising
        assert escape_integral(delta, t) == expected

    @pytest.mark.parametrize("t", [np.array([1e-3]), np.array([1e-3, 2e-3]),
                                   [1e-3]], ids=["array-1", "array-2", "list"])
    def test_rejects_a_time_array(self, t):
        with pytest.raises(ValueError, match="time must be a scalar"):
            escape_integral(0.003, t)

    def test_cli_grid_matches_the_quadrature_route(self):
        # the escape command's default grid, whose integral column a tol =
        # 1e-7 quadrature computed before the closed form, against the exact
        # 16 pi t^{3/2} I(alpha): the documented bound on I, plus 5e-16 for
        # fl(pi), t**1.5 and the two products that carry I to P in doubles
        delta = 0.003
        for t in np.logspace(-8, -2, 121).tolist():
            alpha = delta / math.sqrt(t)
            with mpmath.workdps(60):
                exact = 16 * mpmath.pi * mpmath.mpf(t) ** 1.5 * mpmath_kernel(alpha)
            bound = (3e-15 if alpha < 2.0 else 6e-16) + 5e-16
            assert abs(escape_integral(delta, t) - exact) <= bound * exact

    def test_confined_law_third_term(self):
        # P = two-term law + (4 pi/3) sqrt(pi/2) delta^4 / sqrt(t) (1 + a^2/15
        # + O(a^4)), a = delta / sqrt(t): the a^4 and a^6 series terms
        delta = 0.003
        coefficient = 4.0 * math.pi / 3.0 * math.sqrt(math.pi / 2.0)
        for t in (1e-3, 1e-2, 1e-1):
            two_term = (float(asymptote_confined(delta, t))
                        - 8.0 * math.pi**2 / 3.0 * delta**3)
            ratio = ((escape_integral(delta, t) - two_term) * math.sqrt(t)
                     / delta**4 / coefficient)
            assert ratio - 1.0 == pytest.approx(delta * delta / t / 15.0,
                                                rel=0.01)

    def test_exact_vs_integral_cross_method(self):
        w = WellConfig(0.003)
        ts = np.logspace(-7, -3, 9)
        exact = escape_probability_exact(w, ts, 40000)
        integral = np.array([escape_integral(w.delta, float(t)) for t in ts])
        assert np.abs(integral / exact - 1.0).max() < 0.01

    def test_sandwich_against_mode_sum(self):
        w = WellConfig(0.003)
        ts = np.logspace(-8, -2, 13)
        total = escape_small_delta(w, ts, 2 * 10**5)
        integral = np.array([escape_integral(w.delta, float(t)) for t in ts])
        keep = (total > 1e-12) & (integral > 1e-12)
        assert keep.any()
        assert np.abs(integral[keep] / total[keep] - 1.0).max() < 0.10

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            escape_integral(-0.1, 1e-3)
        with pytest.raises(ValueError):
            escape_integral(0.1, -1e-3)
        for delta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and >= 0"):
                escape_integral(delta, 1e-3)
        with pytest.raises(ValueError):
            escape_integral(0.1, math.nan)

    def test_overflowing_time_names_the_input(self):
        # t**1.5 used to raise a bare OverflowError
        with pytest.raises(ValueError, match="time 1e[+]300"):
            escape_integral(0.003, 1e300)


class TestAsymptotes:
    def test_kernel_constants_closed_forms(self):
        assert FREE_KERNEL_CONSTANT == pytest.approx(
            math.sqrt(math.pi) / (3.0 * math.sqrt(2.0)), rel=1e-15)
        assert CONFINED_KERNEL_CONSTANT == pytest.approx(
            math.sqrt(math.pi) / (2.0 * math.sqrt(2.0)), rel=1e-15)

    def test_kernel_constants_against_quadrature(self):
        # numerical integrals must reproduce the closed forms
        assert abs(oracle.kernel_integral(4)
                   - FREE_KERNEL_CONSTANT) < 1e-8
        assert abs(oracle.kernel_integral(2)
                   - CONFINED_KERNEL_CONSTANT) < 1e-8

    def test_law_coefficients(self):
        assert FREE_LAW_COEFFICIENT == pytest.approx(10.499739963814946,
                                                     rel=1e-14)
        assert CONFINED_LAW_COEFFICIENT == pytest.approx(31.499219891444838,
                                                         rel=1e-14)

    def test_zero_time(self):
        assert asymptote_free(0.0) == 0.0
        assert asymptote_confined(0.01, 0.0) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_time_names_the_input(self):
        # used to return inf with a RuntimeWarning
        with pytest.raises(ValueError, match="time 1e[+]300"):
            asymptote_free(1e300)
        with pytest.raises(ValueError, match="time 1e[+]300"):
            asymptote_free(np.array([1.0, 1e300]))

    def test_frozen_sample_points(self):
        assert float(asymptote_free(1e-4)) == pytest.approx(
            1.0499739963814947e-05, rel=1e-12)
        assert float(asymptote_confined(0.003, 1e-3)) == pytest.approx(
            8.96483514379027e-06, rel=1e-12)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -1.0])
    def test_bad_shift_rejected(self, delta):
        # asymptote_confined used to return nan (0.996 at delta = -1) and
        # crossover_time nan
        with pytest.raises(ValueError, match="wall shift must be finite and >= 0"):
            asymptote_confined(delta, 1e-3)
        with pytest.raises(ValueError, match="wall shift must be finite and >= 0"):
            crossover_time(delta)

    @pytest.mark.parametrize("delta", [np.array([0.1, 0.2]), [0.1, 0.2]],
                             ids=["array", "list"])
    @pytest.mark.parametrize("call", [
        WellConfig, lambda d: escape_integral(d, 1e-3),
        lambda d: asymptote_confined(d, 1e-3), crossover_time,
    ], ids=["config", "integral", "confined", "crossover"])
    def test_shift_must_be_one_scalar(self, call, delta):
        # float() of a 2-element array or a list raised TypeError
        with pytest.raises(ValueError, match="wall shift must be a scalar"):
            call(delta)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call, name", [
        (lambda: asymptote_confined(1e200, 1.0), "wall shift 1e[+]200"),
        (lambda: asymptote_confined(1e200, 0.0), "wall shift 1e[+]200"),
        (lambda: crossover_time(1e200), "wall shift 1e[+]200"),
        (lambda: asymptote_confined(1e150, 1e300), "time 1e[+]300"),
    ], ids=["confined", "confined_at_zero_time", "crossover", "confined_product"])
    def test_overflowing_law_names_the_input(self, call, name):
        # delta^2 overflowed to inf (a RuntimeWarning for inf * 0 at t = 0),
        # and a finite delta^2 times sqrt(t) overflowed with a RuntimeWarning
        with pytest.raises(ValueError, match=name + " overflows the escape law"):
            call()

    @pytest.mark.parametrize("delta", [1e-3, 0.003, 0.05])
    def test_crossover_identity(self, delta):
        t = crossover_time(delta)
        assert t == 3.0 * delta * delta
        free = float(asymptote_free(t))
        confined = float(asymptote_confined(delta, t))
        assert abs(free - confined) <= 1e-13 * free


class TestRegimeReport:
    def test_early_regime_fit(self):
        report = regime_report(0.003, (1e-8, 1e-7), (1e-2, 1e-1))
        assert report.transition_time == crossover_time(0.003)
        assert report.transition_time == 3.0 * 0.003 * 0.003
        assert report.fitted_slope_early == pytest.approx(1.5, abs=0.05)
        assert report.prefactor_early == pytest.approx(FREE_LAW_COEFFICIENT,
                                                       rel=0.05)

    def test_window_whose_escape_rounds_to_zero_is_refused(self):
        # at delta = 1e-4 the escape before 3e-10 is 0 to the clamp, and the
        # fit used to return a NaN slope and prefactor with a RuntimeWarning
        with pytest.raises(ValueError, match="escape probabilities must be finite"):
            regime_report(1e-4, (3e-11, 3e-10), (3e-7, 3e-6))

    def test_zero_shift_is_refused_for_its_zero_escape(self):
        # the per-window tolerance would be 0, which truncation_for_tolerance
        # refuses as "tolerance must be positive"
        with pytest.raises(ValueError, match="continuum escape of wall shift 0.0 "
                                             "at t = 1e-08 is 0"):
            regime_report(0.0, (1e-8, 1e-7), (1e-2, 1e-1))

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = []
        exact = survival.escape_probability_exact

        def spy(config, t, n_modes):
            seen.append(n_modes)
            return exact(config, t, n_modes)

        monkeypatch.setattr(survival, "escape_probability_exact", spy)
        return seen

    @pytest.mark.parametrize("delta, windows", [
        (0.003, ((1e-8, 1e-7), (1e-2, 1e-1))),
        (0.008033, ((1.9e-7, 1.9e-6), (5.8e-3, 5.8e-2))),
    ])
    def test_each_window_sums_the_fewest_modes_its_escape_needs(self, counts,
                                                                delta, windows):
        regime_report(delta, *windows)
        config = WellConfig(delta)
        assert len(counts) == 2
        for (lo, _), n_modes in zip(windows, counts):
            target = 1e-3 * escape_integral(delta, lo)
            assert spectral.survival_tail_bound(config, n_modes) <= target
            assert spectral.survival_tail_bound(config, n_modes - 1) > target

    def test_late_fit_holds_at_the_early_windows_count(self, counts):
        # the late window sums about 1% of the early window's modes; every
        # value stays within the tail bound, and the fit within 1e-5
        delta = 0.003
        report = regime_report(delta, (1e-8, 1e-7), (1e-2, 1e-1))
        early_modes, late_modes = counts
        config = WellConfig(delta)
        ts = np.logspace(-2.0, -1.0, 16)
        fewer = escape_probability_exact(config, ts, late_modes)
        more = escape_probability_exact(config, ts, early_modes)
        assert np.abs(fewer - more).max() <= spectral.survival_tail_bound(config, late_modes)
        slope, _ = survival._power_law_fit(ts, more, ("times", "escape probabilities"))
        assert report.fitted_slope_late == pytest.approx(slope, abs=1e-5)
        assert report.prefactor_late == pytest.approx(
            survival._fixed_exponent_amplitude(ts, more, 0.5), rel=1e-5)

    def test_late_regime_fit_far_from_transition(self):
        # the confined law needs t >> delta^2 by a wide margin; a window two
        # decades past the transition shows the clean exponent
        report = regime_report(0.003, (1e-8, 1e-7), (1e-2, 1e-1))
        assert report.fitted_slope_late == pytest.approx(0.5, abs=0.05)
        assert report.prefactor_late == pytest.approx(
            CONFINED_LAW_COEFFICIENT * 0.003**2, rel=0.05)


class TestInvariants:
    @pytest.mark.parametrize("delta", [0.01, 0.05, 0.2])
    def test_periodicity(self, delta):
        w = WellConfig(delta)
        ts = np.linspace(0.0, w.period, 17)
        base = escape_probability_exact(w, ts, 3000)
        shifted = escape_probability_exact(w, ts + w.period, 3000)
        assert np.abs(shifted - base).max() < 1e-8

    @pytest.mark.parametrize("delta", [0.01, 0.05, 0.2])
    def test_time_reflection_within_period(self, delta):
        w = WellConfig(delta)
        ts = np.linspace(0.01, w.period / 2, 13)
        forward = escape_probability_exact(w, ts, 3000)
        mirrored = escape_probability_exact(w, w.period - ts[::-1], 3000)
        assert np.abs(mirrored[::-1] - forward).max() < 1e-8

    @pytest.mark.parametrize("n_small", [64, 128, 256])
    def test_monotone_truncation(self, n_small):
        w = WellConfig(0.2)
        ts = np.linspace(0.0, w.period, 41)
        small = escape_probability_exact(w, ts, n_small)
        large = escape_probability_exact(w, ts, 4 * n_small)
        bound = spectral.survival_tail_bound(w, n_small)
        assert np.abs(large - small).max() <= bound

    @settings(max_examples=100, deadline=None)
    @given(log_delta=st.floats(-3.0, math.log10(0.5)), log_t=st.floats(-8.0, 0.0),
           sizes=st.lists(st.integers(2, 3000), min_size=2, max_size=2,
                          unique=True))
    def test_further_modes_move_escape_within_tail_bound(self, log_delta,
                                                         log_t, sizes):
        # N <= 3000 keeps the bound (>= 1e-11) far above rounding
        w = WellConfig(10.0 ** log_delta)
        n_small, n_large = sorted(sizes)
        t = 10.0 ** log_t
        change = (escape_probability_exact(w, t, n_large)
                  - escape_probability_exact(w, t, n_small))
        assert abs(change) <= spectral.survival_tail_bound(w, n_small)


_WELL = WellConfig(0.01)
_COEFFS = mode_coefficients(_WELL, 20)


class TestTimeValidation:
    """Every public function taking times (or xi = t/T) rejects non-finite
    values, and negative ones where the argument is a time."""

    @pytest.mark.parametrize("call, signed", [
        (lambda t: spectral.wavefunction(_WELL, _COEFFS, 0.5, t), False),
        (lambda t: spectral.density_field(_WELL, _COEFFS, [0.5], [t]), False),
        (lambda t: survival_amplitude(_WELL, t, 20), False),
        (lambda t: escape_probability_exact(_WELL, t, 20), False),
        (lambda t: survival.escape_probability_aligned(_WELL, [0.0, t], 20), False),
        (lambda t: escape_small_delta(_WELL, t, 20), False),
        (lambda t: escape_integral(0.01, t), False),
        (lambda t: asymptote_free(np.array([1e-3, t])), False),
        (lambda t: asymptote_confined(0.01, t), False),
        (lambda xi: universal.universal_function(xi, 20), True),
        (lambda xi: universal.scaled_escape_limit(0.01, [0.0, xi], 20), False),
    ], ids=["wavefunction", "density_field", "survival_amplitude",
            "escape_probability_exact", "escape_probability_aligned",
            "escape_small_delta", "escape_integral", "asymptote_free",
            "asymptote_confined", "universal_function", "scaled_escape_limit"])
    def test_rejects_non_finite_and_negative(self, call, signed):
        call(0.001)
        for bad in (math.nan, math.inf, -math.inf) + (() if signed else (-1e-3,)):
            with pytest.raises(ValueError):
                call(bad)
        if signed:
            call(-0.25)
