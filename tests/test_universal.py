import cmath
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wellquench import spectral, universal
from wellquench.cli import main
from wellquench.spectral import (WellConfig, _lattice_of, _turns, _window_of,
                                 mode_coefficients)
from wellquench.survival import (_apply_noise_clamp, _escape_core,
                                 escape_probability_aligned)
from wellquench.universal import (MODE_WEIGHT_TOTAL, UPPER_BOUND,
                                  UniversalCurve, _profile_modes,
                                  scaled_escape_limit,
                                  universal_curve, universal_function,
                                  universal_tail_bound, valley_locations)


def direct_sum(xi, n_modes):
    """Plain unchunked reference summation."""
    n = np.arange(2, n_modes + 1, dtype=float)
    weights = n * n / (1.0 - n * n) ** 2
    return float(np.sum(weights * (1.0 - np.cos(2.0 * math.pi * n * n * xi))))


def profile_weights(n_modes):
    n = np.arange(2, n_modes + 1, dtype=np.int64)
    return n * n, (n * n).astype(float) / (1.0 - (n * n).astype(float)) ** 2


def exact_turns(nsq, x):
    """frac(n^2 x) for each integer n^2, reduced from the exact rational value
    of ``x`` (a float or a Fraction) with Python integers."""
    num, den = Fraction(x).as_integer_ratio()
    return np.array([(int(s) * num % den) / den for s in nsq])


def gauss_mean(a, b):
    """g(a/b) = (1/b) sum_{r<b} e^{2 pi i a r^2 / b}, the normalised quadratic
    Gauss sum (Apostol, Introduction to Analytic Number Theory, ch. 9)."""
    return sum(cmath.exp(2j * math.pi * (a * r * r % b) / b) for r in range(b)) / b


def exact_profile(points, n_modes):
    """F by math.fsum over exactly reduced turns at each point."""
    nsq, weights = profile_weights(n_modes)
    return np.array([math.fsum(weights * (1.0 - np.cos(2.0 * math.pi * exact_turns(nsq, x))))
                     for x in points])


def window_bound(points, n_modes, offsets):
    """universal_function's stated bound on a window: 2e-14 of the weights
    from the transform, 2 pi P 5e-16 of them from the rounding of the turns,
    and (2 pi^2 / 3) N^3 d^2 left over by the offset correction."""
    total = profile_weights(n_modes)[1].sum()
    curvature = 2.0 * math.pi**2 / 3.0 * float(n_modes) ** 3
    return ((2e-14 + 2.0 * math.pi * points * 5e-16) * total
            + curvature * float(np.abs(offsets).max()) ** 2)


class TestProfileValues:
    def test_zero_at_origin_and_period(self):
        assert universal_function(0.0, 10**4) == 0.0
        assert abs(universal_function(1.0, 10**4)) < 1e-9

    def test_half_period_frozen_oracle(self):
        # frozen from direct summation at N = 1e6; only odd modes survive
        value = universal_function(0.5, 10**6)
        assert value == pytest.approx(0.5362325167120569, abs=2e-9)
        n = np.arange(3, 2 * 10**6, 2, dtype=float)
        odd_only = 2.0 * np.sum(n * n / (n * n - 1.0) ** 2)
        assert value == pytest.approx(odd_only, abs=1e-6)

    def test_reflection_symmetry(self):
        a = universal_function(0.3, 10**5)
        b = universal_function(0.7, 10**5)
        assert a == pytest.approx(b, abs=1e-12)

    def test_periodicity(self):
        xs = np.array([0.1, 0.37, 0.92])
        base = universal_function(xs, 10**4)
        shifted = universal_function(xs + 1.0, 10**4)
        assert np.abs(shifted - base).max() < 1e-9

    def test_bounds(self):
        xs = np.linspace(0.0, 1.0, 257)
        vals = universal_function(xs, 10**4)
        assert vals.min() >= 0.0
        assert vals.max() <= UPPER_BOUND
        assert MODE_WEIGHT_TOTAL == pytest.approx(math.pi**2 / 12.0 + 1.0 / 16.0,
                                                  rel=1e-15)

    def test_matches_reference_sum(self):
        for xi in (0.123, 0.5, 0.9):
            assert universal_function(xi, 3000) == pytest.approx(
                direct_sum(xi, 3000), abs=1e-11)

    def test_signature_has_no_shift_or_period_parameter(self):
        # the testable form of universality: xi and truncation only
        params = list(inspect.signature(universal_function).parameters)
        assert params == ["xi", "n_modes"]


class TestTailBound:
    def test_truncation_error_within_bound(self):
        xs = np.array([0.17, 0.5, 0.83])
        coarse = universal_function(xs, 500)
        fine = universal_function(xs, 10**5)
        assert np.abs(fine - coarse).max() <= universal_tail_bound(500)

    def test_scales_like_two_over_n(self):
        assert universal_tail_bound(10**5) == pytest.approx(2e-5, rel=1e-3)

    @pytest.mark.parametrize("n_modes", [0, 1])
    def test_needs_the_n_2_mode(self, n_modes):
        # 0 used to raise ZeroDivisionError and 1 to return 1.77
        with pytest.raises(ValueError, match="need at least the n = 2 mode"):
            universal_tail_bound(n_modes)


class TestGridEvaluation:
    def test_fft_path_matches_direct_summation(self):
        curve = universal_curve(10000, 20000)
        idx = np.array([0, 1, 7, 1234, 5000, 9999, 10000])
        direct = np.array([direct_sum(i / 10000.0, 20000) for i in idx])
        assert np.abs(curve.values[idx] - direct).max() < 1e-9

    def test_periodic_continuation(self):
        curve = universal_curve(1000, 5000, extra_points=3)
        assert curve.xi_grid[-1] == pytest.approx(1.003, rel=1e-12)
        assert curve.values[1001] == curve.values[1]


class TestScaledEscapeLimit:
    def test_zero_at_origin(self):
        curve = scaled_escape_limit(1e-3, np.array([0.0, 0.25]), n_modes=3000)
        assert curve.values[0] == 0.0

    def test_convergence_to_profile(self):
        xi = np.linspace(0.0, 1.0, 512)
        profile = universal_function(xi, 10**5)
        top = profile.max()
        distances = {}
        for delta in (1e-2, 3e-3, 1e-3):
            scaled = scaled_escape_limit(delta, xi)
            distances[delta] = np.abs(scaled.values - profile).max()
        assert distances[1e-3] < 0.02 * top
        assert distances[1e-3] < distances[3e-3] < distances[1e-2]

    def test_rejects_zero_shift(self):
        with pytest.raises(ValueError):
            scaled_escape_limit(0.0, np.array([0.1]))

    def test_no_bound_is_claimed_unless_one_is_known(self):
        # a default of 0.0 claimed the truncated profile was exact
        assert math.isnan(UniversalCurve([0.0, 1.0], [0.0, 0.0], 2).tail_bound)
        assert math.isnan(scaled_escape_limit(1e-2, np.array([0.1, 0.25]), 200).tail_bound)
        curve = universal_curve(8, 50)
        assert curve.tail_bound == universal_tail_bound(50) > 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("delta", [1e-170, 1e-160])
    def test_underflowing_scale_names_the_shift(self, delta):
        # 8 delta^2 is 0 at 1e-170 (a divide-by-zero RuntimeWarning) and
        # subnormal at 1e-160
        with pytest.raises(ValueError, match=f"wall shift {delta!r} underflows"):
            scaled_escape_limit(delta, np.array([0.1, 0.25]))


class TestValleys:
    def test_quarter_point_is_a_valley(self):
        valleys = valley_locations(2, n_modes=10**5)
        locations = [e.location for e in valleys.entries]
        assert any(abs(loc - 0.25) < 1e-12 for loc in locations)
        center = universal_function(0.25, 10**5)
        assert center < universal_function(0.25 - 1e-3, 10**5)
        assert center < universal_function(0.25 + 1e-3, 10**5)

    def test_origin_is_the_global_minimum(self):
        valleys = valley_locations(2, n_modes=10**4)
        origin = [e for e in valleys.entries if e.location == 0.0]
        assert origin and origin[0].depth == 0.0

    def test_ninths_appear_at_p_three(self):
        valleys = valley_locations(3, n_modes=10**5)
        locations = [e.location for e in valleys.entries]
        for target in (1.0 / 9.0, 2.0 / 9.0, 0.25):
            assert any(abs(loc - target) < 1e-12 for loc in locations)

    def test_locations_deduplicated_and_in_range(self):
        valleys = valley_locations(4, n_modes=10**4)
        locations = [e.location for e in valleys.entries]
        assert len(locations) == len(set(locations))
        assert all(0.0 <= loc <= 1.0 for loc in locations)
        # the stored pair presents the location exactly
        for e in valleys.entries:
            assert e.location == e.numerator / e.denominator_root**2

    def test_one_mode_table_and_one_twist_per_call(self, monkeypatch):
        # each p used to rebuild the table twice and twist the weights once;
        # one set of turns now builds the rows of each p's one lattice call
        calls = {"modes": 0, "turns": 0, "lattice": 0}

        def counted(name, func):
            def wrapper(*args):
                calls[name] += 1
                return func(*args)
            return wrapper

        monkeypatch.setattr(universal, "_profile_modes",
                            counted("modes", universal._profile_modes))
        for module in (universal, spectral):
            monkeypatch.setattr(module, "_turns", counted("turns", spectral._turns))
        monkeypatch.setattr(universal, "_lattice_sums",
                            counted("lattice", spectral._lattice_sums))
        valley_locations(4, n_modes=1000)
        assert calls == {"modes": 1, "turns": 1, "lattice": 3}

    @pytest.mark.parametrize("p_max, spacing, n_modes", [
        (4, 1e-4, 10**5),                   # the CLI default
        (5, 10**-4.5, 5 * 10**4), (5, 10**-3.5, 5 * 10**4),
        (6, 1e-6, 10**6)])
    def test_gauss_sums_predict_the_valleys(self, p_max, spacing, n_modes):
        # near a reduced a/b the one-sided slopes of F are pi sqrt(h) (Re g
        # +- Im g), g = gauss_mean(a, b): a valley at first order exactly when
        # Re g > |Im g|.  Where g = 0 or Re g = |Im g| the next order decides
        predicted, marginal = set(), set()
        for p in range(2, p_max + 1):
            for q in range(p * p + 1):
                x = Fraction(q, p * p)
                g = gauss_mean(x.numerator, x.denominator)
                if abs(g) <= 1e-9 or abs(g.real - abs(g.imag)) <= 1e-9:
                    marginal.add(x)
                elif g.real > abs(g.imag):
                    predicted.add(x)
        found = {Fraction(e.numerator, e.denominator_root**2)
                 for e in valley_locations(p_max, spacing, n_modes).entries}
        assert predicted <= found
        assert found - predicted <= marginal

    def test_p_max_validation(self):
        with pytest.raises(ValueError):
            valley_locations(1)

    @pytest.mark.parametrize("n_modes", [0, 1])
    def test_every_profile_reader_needs_the_n_2_mode(self, n_modes):
        # valley_locations used to return an empty ValleyList
        readers = [lambda: valley_locations(4, n_modes=n_modes),
                   lambda: universal_function([0.1, 0.3], n_modes),
                   lambda: universal_function(np.arange(8) / 8, n_modes),
                   lambda: universal_curve(16, n_modes)]
        for read in readers:
            with pytest.raises(ValueError, match="need at least the n = 2 mode"):
                read()

    @pytest.mark.parametrize("spacing", [math.nan, 0.0, -1e-4, math.inf])
    def test_spacing_must_be_finite_and_positive(self, spacing):
        # NaN and 0 used to return an empty list
        with pytest.raises(ValueError, match="valley spacing must be finite and positive"):
            valley_locations(2, spacing=spacing, n_modes=100)


#: a mode count that never makes the lattice test fall back on cost
NO_COST_LIMIT = 10**9


class TestResidueGrid:
    """The lattice route against exact residues, the direct loop and itself."""

    @settings(max_examples=60, deadline=None)
    @given(K=st.integers(2, 4096), n_modes=st.integers(2, 5000),
           picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_grid_matches_exact_residue_sum(self, K, n_modes, picks):
        js = sorted({min(K, int(p * K)) for p in picks})
        reference = exact_profile([Fraction(j, K) for j in js], n_modes)
        grid = universal_function(np.linspace(0.0, 1.0, K + 1), n_modes)
        curve = universal_curve(K, n_modes).values
        assert np.abs(grid[js] - reference).max() <= 1e-14
        assert np.abs(curve[js] - reference).max() <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(K=st.integers(2, 4096), n_modes=st.integers(2, 5000),
           extra=st.integers(0, 50))
    def test_reflection_and_periodic_continuation(self, K, n_modes, extra):
        values = universal_curve(K, n_modes, extra_points=extra).values
        period = values[:K + 1]
        assert np.array_equal(period, period[::-1])
        assert np.array_equal(values[K:], values[:extra + 1])

    def test_the_mode_count_sets_the_lattice_limit(self):
        # three points j/1000 read the lattice only once the direct sum costs
        # more than the FFT: 999 modes do (2997 >= 1000 terms), 99 do not
        xs = np.arange(3) / 1000
        for n_modes, expected in ((100, []), (1000, [1000])):
            calls, lattice_sums = [], spectral._lattice_sums
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(spectral, "_lattice_sums",
                              lambda *args: calls.append(args[2]) or lattice_sums(*args))
                values = universal_function(xs, n_modes)
            assert calls == expected
            assert np.abs(values - exact_profile(xs, n_modes)).max() <= 1e-14

    def test_never_negative_and_zero_at_origin(self):
        # with sum(w) as the reference instead of FFT bin 0,
        # universal_curve(199, 55276).values[0] was -3.3e-16
        for K in [*range(2, 300), 511, 1000, 4096, 65536, 99991, 100000]:
            for n_modes in (2, 3, 50, 5000, 55276):
                values = universal_curve(K, n_modes).values
                assert values[0] == 0.0 and values[K] == 0.0
                assert values.min() >= 0.0

    @settings(max_examples=40, deadline=None)
    @given(K=st.integers(2, 4096), size=st.integers(2, 300),
           nudge=st.floats(1e-12, 1e-6), sign=st.sampled_from([-1.0, 1.0]),
           where=st.floats(0.0, 1.0), n_modes=st.integers(2, 3000))
    def test_nudged_lattice_is_summed_directly(self, K, size, nudge, sign,
                                               where, n_modes):
        xs = np.arange(size) / K
        period, index = _lattice_of(xs, NO_COST_LIMIT)
        assert period == K
        assert np.array_equal(index, np.arange(size) % K)
        nudged = min(size - 1, int(where * size))
        xs[nudged] += sign * nudge
        assert _lattice_of(xs, NO_COST_LIMIT) is None and _window_of(xs) is None
        picks = sorted({0, nudged, size - 1})
        total = profile_weights(n_modes)[1].sum()
        assert np.abs(universal_function(xs, n_modes)[picks]
                      - exact_profile(xs[picks], n_modes)).max() <= 1e-15 * total

    def test_sparse_points_of_a_fine_lattice_are_summed_directly(self):
        # one FFT of length 2^23 would cost ~1 s and ~600 MB for two points
        xs = np.array([0.0, 2.0**-23])
        assert _lattice_of(xs, 10**5 - 1) is None
        total = profile_weights(10**5)[1].sum()
        assert np.abs(universal_function(xs, 10**5)
                      - exact_profile(xs, 10**5)).max() <= 1e-15 * total
        assert _lattice_of(xs, NO_COST_LIMIT) is not None

    @settings(max_examples=40, deadline=None)
    @given(xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
           n_modes=st.integers(2, 3000))
    # 1 / a subnormal first step used to overflow in _lattice_of
    @example(xs=[0.0, 2.2250738585e-313], n_modes=2)
    def test_direct_route_matches_exact_turns(self, xs, n_modes):
        xs = np.array(xs)
        assume(_lattice_of(xs, n_modes - 1) is None)
        total = profile_weights(n_modes)[1].sum()
        assert np.abs(universal_function(xs, n_modes)
                      - exact_profile(xs, n_modes)).max() <= 1e-15 * total

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(2, 6), q=st.integers(1, 35),
           log_half_width=st.floats(-3.5, -2.5), points=st.integers(220, 290),
           n_modes=st.integers(2, 20000), data=st.data())
    def test_zoom_windows_match_exact_turns(self, p, q, log_half_width, points,
                                            n_modes, data):
        center = (q % (p * p - 1) + 1) / (p * p)
        half_width = 10.0 ** log_half_width
        xs = np.linspace(center - half_width, center + half_width, points)
        assert _lattice_of(xs, NO_COST_LIMIT) is None
        origin, _, offsets = _window_of(xs)
        assert origin == xs[0]
        picks = data.draw(st.lists(st.integers(0, points - 1), min_size=1,
                                   max_size=3, unique=True))
        error = np.abs(universal_function(xs, n_modes)[picks]
                       - exact_profile(xs[picks], n_modes)).max()
        assert error <= window_bound(points, n_modes, offsets)

    @settings(max_examples=30, deadline=None)
    @given(center=st.floats(-1.0, 1.5), log_half_width=st.floats(-6.0, -0.5),
           points=st.integers(spectral._WINDOW_MIN, 700),
           n_modes=st.integers(2, 20000), data=st.data())
    def test_windows_match_exact_turns(self, center, log_half_width, points,
                                       n_modes, data):
        xs = np.linspace(center - 10.0 ** log_half_width,
                         center + 10.0 ** log_half_width, points)
        window = _window_of(xs)
        assume(_lattice_of(xs, n_modes - 1) is None and window is not None)
        picks = data.draw(st.lists(st.integers(0, points - 1), min_size=1,
                                   max_size=3, unique=True))
        error = np.abs(universal_function(xs, n_modes)[picks]
                       - exact_profile(xs[picks], n_modes)).max()
        assert error <= window_bound(points, n_modes, window[2])

    @settings(max_examples=40, deadline=None)
    @given(K=st.integers(2, 4096), size=st.integers(2, 300),
           start=st.integers(-8192, 8192), fraction=st.floats(0.01, 0.99),
           n_modes=st.integers(2, 3000), data=st.data())
    def test_shifted_lattices_match_exact_turns(self, K, size, start, fraction,
                                                n_modes, data):
        # no residue FFT reads x0 + j/K: a window takes _window_sums, the rest
        # the direct route, each within its own bound
        xs = (start + fraction) / K + np.arange(size) / K
        assert _lattice_of(xs, NO_COST_LIMIT) is None
        window = _window_of(xs)
        bound = (1e-15 * profile_weights(n_modes)[1].sum() if window is None
                 else window_bound(size, n_modes, window[2]))
        picks = data.draw(st.lists(st.integers(0, size - 1), min_size=1,
                                   max_size=3, unique=True))
        error = np.abs(universal_function(xs, n_modes)[picks]
                       - exact_profile(xs[picks], n_modes)).max()
        assert error <= bound

    @settings(max_examples=20, deadline=None)
    @given(p_max=st.integers(2, 5), log_spacing=st.floats(-4.5, -3.5),
           n_modes=st.integers(2, 3000))
    def test_valley_lattices_match_exact_turns(self, p_max, log_spacing,
                                               n_modes):
        # valley_locations reads each q/p^2 off the rows w, u = w cos 2 pi n^2 s
        # and v = w sin 2 pi n^2 s of one call: the centre Re B_w[q], and both
        # neighbours q/p^2 +- s as F(s) + Re B_u[q] +- Im B_v[q], F(s) = sum w - sum u
        spacing = 10.0 ** log_spacing
        K = p_max * p_max
        nsq, weights = _profile_modes(n_modes)
        calls, stacks, lattice_sums = [], [], spectral._lattice_sums
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(universal, "_lattice_sums", lambda *args: calls.append(
                (args[2], args[0].shape)) or stacks.append(args[0]) or lattice_sums(*args))
            valleys = valley_locations(p_max, spacing=spacing, n_modes=n_modes)
        assert calls == [(p * p, (3, nsq.size)) for p in range(2, p_max + 1)]
        rows = stacks[-1]
        assert np.array_equal(rows[0], weights)
        c, u, v = lattice_sums(rows, nsq, K)
        f_s = rows[0].sum() - rows[1].sum()
        j = np.arange(K)
        for values, shift in ((c.real, Fraction(0)),
                              (f_s + u.real + v.imag, Fraction(spacing)),
                              (f_s + u.real - v.imag, -Fraction(spacing))):
            exact = exact_profile([Fraction(int(i), K) + shift for i in j], n_modes)
            assert np.abs(values - exact).max() <= 1e-14
        for e in valleys.entries:
            exact = exact_profile([Fraction(e.numerator, e.denominator_root**2)], n_modes)
            assert abs(e.depth - exact[0]) <= 1e-14

    def test_million_modes_within_the_stated_bounds(self):
        # the exact-turn direct route is the oracle here: each point alone
        n_modes = 10**6
        direct = lambda xs: np.array([universal_function(x, n_modes) for x in xs])
        xs = np.linspace(0.31, 0.3127, 64)
        assert _lattice_of(xs, n_modes - 1) is None
        offsets = _window_of(xs)[2]
        picks = [0, 17, 40, 63]
        window = universal_function(xs, n_modes)[picks]
        assert np.abs(window - direct(xs[picks])).max() <= \
            window_bound(64, n_modes, offsets) + 2e-15 * MODE_WEIGHT_TOTAL
        # a shifted lattice too short to be a window is summed directly
        xs = 0.123 + np.arange(5) / 97.0
        assert _lattice_of(xs, n_modes - 1) is None and _window_of(xs) is None
        assert np.abs(universal_function(xs, n_modes) - direct(xs)).max() <= \
            1e-15 * MODE_WEIGHT_TOTAL
        exact = exact_profile(xs[:1], n_modes)[0]
        assert abs(direct(xs[:1])[0] - exact) <= 1e-15 * MODE_WEIGHT_TOTAL

    @settings(max_examples=40, deadline=None)
    @given(log_delta=st.floats(-3.0, math.log10(0.5)), K=st.integers(2, 1024),
           n_modes=st.integers(2, 3000))
    def test_aligned_escape_on_period_lattice_matches_direct_route(
            self, log_delta, K, n_modes):
        config = WellConfig(10.0 ** log_delta)
        ts = np.linspace(0.0, 1.0, K + 1) * config.period
        grid = escape_probability_aligned(config, ts, n_modes)
        coeffs = mode_coefficients(config, n_modes)
        a2, energies = coeffs.weights, coeffs.energies
        direct = _apply_noise_clamp(_escape_core(a2[1:], energies[1:], ts, 1.0))
        # the direct route rounds each phase E_n t to a few ulps
        phase_rounding = float(np.sum(a2[1:] * energies[1:])) * ts.max()
        tol = 8.0 * np.finfo(float).eps * (phase_rounding + 1.0)
        assert grid[0] == 0.0
        assert np.abs(grid - direct).max() <= tol

    @settings(max_examples=20, deadline=None)
    @given(log_delta=st.floats(-3.0, -1.0), times=st.lists(
        st.floats(1e-6, 2.0), min_size=1, max_size=6), n_modes=st.integers(2, 3000))
    def test_aligned_escape_off_lattice_is_the_direct_route(self, log_delta,
                                                           times, n_modes):
        config = WellConfig(10.0 ** log_delta)
        ts = np.array(times) * math.pi
        assume(_lattice_of(ts / config.period, NO_COST_LIMIT) is None)
        coeffs = mode_coefficients(config, n_modes)
        a2, energies = coeffs.weights, coeffs.energies
        direct = _apply_noise_clamp(_escape_core(a2[1:], energies[1:], ts, 1.0))
        assert np.array_equal(escape_probability_aligned(config, ts, n_modes), direct)

    @settings(max_examples=40, deadline=None)
    @given(log_delta=st.floats(-3.0, math.log10(0.5)), K=st.integers(2, 1024),
           start=st.floats(0.01, 0.99), n_modes=st.integers(2, 3000))
    def test_aligned_escape_on_shifted_period_lattice_matches_direct_route(
            self, log_delta, K, start, n_modes):
        # no residue FFT reads the shifted period lattice (start + j/K) T:
        # it takes the direct route, bit for bit
        config = WellConfig(10.0 ** log_delta)
        ts = (start + np.arange(K + 1) / K) * config.period
        assume(_lattice_of(ts / config.period, NO_COST_LIMIT) is None)
        calls, lattice_sums = [], spectral._lattice_sums
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "_lattice_sums",
                          lambda *args: calls.append(args[2:]) or lattice_sums(*args))
            grid = escape_probability_aligned(config, ts, n_modes)
        assert calls == []
        coeffs = mode_coefficients(config, n_modes)
        a2, energies = coeffs.weights, coeffs.energies
        direct = _apply_noise_clamp(_escape_core(a2[1:], energies[1:], ts, 1.0))
        assert np.array_equal(grid, direct)

    def test_only_universal_function_reads_windows(self):
        # the wavefunction and the aligned escape sum a window directly, so
        # they never ask for one; the profile does
        calls, window_of = [], spectral._window_of

        def spy(xs):
            calls.append(xs.size)
            return window_of(xs)

        config = WellConfig(0.3)
        window = np.linspace(0.2, 0.2013, 257)
        with pytest.MonkeyPatch.context() as patch:
            for module in (spectral, universal):
                patch.setattr(module, "_window_of", spy)
            spectral.wavefunction(config, mode_coefficients(config, 200),
                                  np.linspace(0.1, 0.9, 400), 0.01)
            escape_probability_aligned(config, window * config.period, 200)
            assert calls == []
            universal_function(window, 2000)
        assert calls == [257]


class TestWholeRowSums:
    def test_many_points_stay_within_rounding_of_the_column_blocks(self):
        # 250 points x 1e5 modes span two column blocks of a loop over modes.
        # Shuffled, the points are neither a lattice nor a window, so they
        # take the direct route, which sums each point's exact turns in one
        # row.  Each route is a pairwise sum within a few ulps of the exact
        # sum of the same terms (at most 4 ulps of max F), so the two may
        # differ by up to 8 ulps
        n_modes = 10**5
        xs = np.random.default_rng(5).permutation(np.linspace(0.123456, 0.3456789, 250))
        assert _lattice_of(xs, NO_COST_LIMIT) is None and _window_of(xs) is None
        assert xs.size * (n_modes - 1) > 2**24
        rows = universal_function(xs, n_modes)
        nsq, weights = profile_weights(n_modes)
        blocks = np.zeros(xs.size)
        chunk = 2**24 // xs.size
        for start in range(0, nsq.size, chunk):
            turns = _turns(nsq[start:start + chunk], xs[:, None])
            blocks += (weights[start:start + chunk]
                       * (1.0 - np.cos(2.0 * math.pi * turns))).sum(axis=1)
        ulp = np.spacing(UPPER_BOUND)
        assert np.abs(rows - blocks).max() <= 8 * ulp
        for i in range(0, xs.size, 37):
            terms = weights * (1.0 - np.cos(2.0 * math.pi * _turns(nsq, xs[i])))
            assert abs(rows[i] - math.fsum(terms)) <= 4 * ulp
        picks = [0, 125, 249]
        assert np.abs(rows[picks] - exact_profile(xs[picks], n_modes)).max() \
            <= 1e-15 * weights.sum()


class TestDefaultProfileOutput:
    def test_universal_defaults_near_direct_sum(self, tmp_path):
        # lattice values differ from the direct loop by its own phase
        # rounding at N = 1e5 (up to 2.7e-11, at xi = 365/511); against
        # exact residues the file is within 1e-15
        out = tmp_path / "profile.csv"
        assert main(["universal", "--out", str(out)]) == 0
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.read_text().splitlines()
                         if not line.startswith("#")])
        xi, values = rows[:, 0], rows[:, 1]
        assert np.array_equal(xi, np.linspace(0.0, 1.0, 512))
        picks = sorted({*range(0, 512, 7), 365, 511})
        direct = np.array([direct_sum(x, 10**5) for x in xi[picks]])
        assert np.abs(values[picks] - direct).max() <= 3e-11
        exact = exact_profile([Fraction(365, 511)], 10**5)[0]
        assert abs(values[365] - exact) <= 1e-15
