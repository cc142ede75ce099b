"""Survival and escape probabilities after the sudden wall shift.

The survival amplitude is A(t) = sum_n a_n^2 e^{-i E_n t} and the escape
probability is 1 - |A|^2.  At short times the escape grows as t^{3/2} while
the emitted wavefront still propagates freely, and crosses over to t^{1/2}
once it has bounced off the displaced wall; the two closed-form laws meet
exactly at t = 3 delta^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._oscillatory import _MEAN_FIELD_ALPHA
from ._special import fresnel_tail, two_square
from .errors import TruncationInconsistencyError
from .spectral import (WellConfig, _direct_sums, _grid_numerators,
                       _lattice_sums, _valid_shift, _valid_times,
                       mode_coefficients, mode_energies,
                       truncation_for_tolerance)

#: closed forms of int_0^inf sin^2(y^2/2)/y^p dy for p = 4 and p = 2
FREE_KERNEL_CONSTANT = math.sqrt(math.pi) / (3.0 * math.sqrt(2.0))
CONFINED_KERNEL_CONSTANT = math.sqrt(math.pi) / (2.0 * math.sqrt(2.0))

#: escape ~ FREE_LAW_COEFFICIENT * t^{3/2} while the front is in free flight
FREE_LAW_COEFFICIENT = 8.0 * math.pi * FREE_KERNEL_CONSTANT
#: escape ~ CONFINED_LAW_COEFFICIENT * delta^2 * t^{1/2} after the bounce
CONFINED_LAW_COEFFICIENT = 16.0 * math.pi * CONFINED_KERNEL_CONSTANT

# negative escape values beyond this are a hard error, below it they are
# reported as-is, and only violations within the noise floor are clamped
_NEGATIVE_ERROR = -1e-8
_NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class RegimeReport:
    """Fitted power laws on both sides of the free/confined crossover."""

    transition_time: float
    fitted_slope_early: float
    fitted_slope_late: float
    prefactor_early: float
    prefactor_late: float


def _weights_and_energies(config: WellConfig, n_modes: int):
    coeffs = mode_coefficients(config, n_modes)
    a2 = coeffs.values * coeffs.values
    return a2, mode_energies(config, n_modes)


def survival_amplitude(config: WellConfig, t, n_modes: int):
    """A(t) = sum_{n=1..N} a_n^2 e^{-i E_n t}; scalar or array ``t``."""
    a2, energies = _weights_and_energies(config, n_modes)
    ts = _valid_times(t)
    out = _direct_sums(ts, energies, lambda p: a2 * np.exp(-1j * p))
    return out if np.ndim(t) else complex(out[0])


def _escape_core(a2, energies, ts, aligned: bool):
    """Cancellation-free evaluation of the escape probability.

    With B = sum_n w_n (1 - e^{-i E_n t}) over the summed modes,
    1 - |R - B|^2 = (1 - R^2) + 2 R Re B - |B|^2 where R is the reference
    (R = sum w_n normally; R = 1 with the ground mode excluded when
    ``aligned``).  Re B is accumulated as 2 w sin^2(theta/2), which never
    cancels, so the result stays accurate down to the 1e-15 scale.
    """
    if aligned:
        a2, energies = a2[1:], energies[1:]
        reference = 1.0
    else:
        reference = math.fsum(a2)
    re_b = _direct_sums(ts, energies, lambda p: a2 * 2.0 * np.sin(p / 2.0) ** 2)
    im_b = -_direct_sums(ts, energies, lambda p: a2 * np.sin(p))
    return ((1.0 - reference) * (1.0 + reference)
            + 2.0 * reference * re_b - re_b * re_b - im_b * im_b)


def _apply_noise_clamp(values: np.ndarray) -> np.ndarray:
    worst = values.min() if values.size else 0.0
    if worst < _NEGATIVE_ERROR:
        raise TruncationInconsistencyError(
            f"escape probability reached {worst:.3e} < {_NEGATIVE_ERROR:g}; "
            "increase the mode count")
    # clamp only noise-level violations; larger ones pass through visibly
    np.copyto(values, 0.0, where=(values < 0.0) & (values >= -_NOISE_FLOOR))
    np.copyto(values, 1.0, where=(values > 1.0) & (values <= 1.0 + _NOISE_FLOOR))
    return values


def escape_probability_exact(config: WellConfig, t, n_modes: int):
    """1 - |A(t)|^2 from the truncated mode sum; scalar or array ``t``."""
    a2, energies = _weights_and_energies(config, n_modes)
    ts = _valid_times(t)
    out = _apply_noise_clamp(_escape_core(a2, energies, ts, aligned=False))
    return out if np.ndim(t) else float(out[0])


def escape_probability_aligned(config: WellConfig, t, n_modes: int):
    """Escape probability with the ground mode's phase factored into the reference.

    Evaluates 1 - |1 + sum_{n>=2} a_n^2 (e^{-i E_n t} - 1)|^2, i.e. survival
    measured against a reference that rotates with the expanded-well ground
    mode.  This is the quantity whose delta -> 0 limit over one period is
    8 delta^2 times the universal profile; the physical escape
    (escape_probability_exact) agrees with it at short times but differs at
    order-one fractions of the period by the ground-phase bookkeeping.
    Times on a lattice j T / K of the period T (E_n T = 2 pi n^2) are read
    off one spectral._lattice_sums, whose Re B is symmetric in j <-> K - j.
    """
    a2, energies = _weights_and_energies(config, n_modes)
    ts = _valid_times(t)
    grid = _grid_numerators(ts / config.period, n_modes - 1)
    if grid is None or not grid.period or grid.origin:
        core = _escape_core(a2, energies, ts, aligned=True)
    else:  # E_n T = 2 pi n^2 exactly, so _escape_core's B is a lattice sum
        nsq = np.arange(2, n_modes + 1, dtype=np.int64) ** 2
        b = _lattice_sums(a2[1:], nsq, grid.period)[grid.index]
        core = 2.0 * b.real - b.real * b.real - b.imag * b.imag
    out = _apply_noise_clamp(core)
    return out if np.ndim(t) else float(out[0])


def escape_small_delta(config: WellConfig, t, n_modes: int):
    """Small-shift short-time approximation of the escape probability.

    (16/pi^2) sum_{n>=2} sin^2(pi n delta) sin^2((pi n)^2 t / 2) / n^4,
    truncated at ``n_modes``.  Intended for delta << 1; no guard is applied.
    """
    delta = config.delta
    n = np.arange(2, n_modes + 1, dtype=float)
    weights = np.sin(math.pi * n * delta) ** 2 / n**4
    half_phase_rates = (math.pi * n) ** 2 / 2.0
    ts = _valid_times(t)
    out = (16.0 / math.pi**2) * _direct_sums(
        ts, half_phase_rates, lambda p: np.sin(p) ** 2 * weights)
    return out if np.ndim(t) else float(out[0])


def escape_integral(delta: float, t: float) -> float:
    """Continuum form of the short-time escape probability, in closed form.

    16 pi t^{3/2} I(a) for a = delta / sqrt(t), where
    I(a) = int_0^inf sin^2(a y) sin^2(y^2/2) / y^4 dy has fourth derivative
    2 sqrt(pi/2) (cos a^2 + sin a^2), I(0) = I'(0) = 0, I''(0) = 2 C and
    I'''(0+) = -pi (C = CONFINED_KERNEL_CONSTANT, F = FREE_KERNEL_CONSTANT
    = sqrt(pi/2) / 3).  Integrated back, with T = int_a^inf e^{i s^2} ds:

        I = (F / 2) [1 - sin a^2 - cos a^2 - a^2 (sin a^2 - cos a^2)
                     - 2 a^3 (Re T + Im T) + 3 a (Im T - Re T)].

    Below a = 0.03 this cancels, and the exact series
    C a^2 - (pi/6) a^3 + (F/4) a^4 + (F/60) a^6 is used.  Above, a^2 is carried
    exactly as hi + lo (``_special.two_square``) into sin a^2, cos a^2 and T,
    and the a^2 and a^3 terms still cancel to ~a^2 ulps; from a = 200, I is
    the mean field F / 2.  Relative error: <= 1e-12 up to 30, 4e-11 up to 200
    and 7e-10 beyond; tests pin it to a 60-digit mpmath evaluation and to the
    quadrature oracle ``_oscillatory.kernel_integral``.  Returns 0 at t = 0.
    """
    delta = _valid_shift(delta)
    _valid_times(t)
    if t == 0.0 or delta == 0.0:
        return 0.0
    alpha = delta / math.sqrt(t)
    a2 = alpha * alpha
    if alpha < 0.03:
        value = (CONFINED_KERNEL_CONSTANT * a2 - (math.pi / 6.0) * a2 * alpha
                 + FREE_KERNEL_CONSTANT * (a2 * a2 / 4.0 + a2 * a2 * a2 / 60.0))
    elif alpha < _MEAN_FIELD_ALPHA:
        low = two_square(alpha)[1]  # a^2 = a2 + low exactly
        sin2, cos2 = math.sin(a2), math.cos(a2)
        sin2, cos2 = sin2 + low * cos2, cos2 - low * sin2
        tail = fresnel_tail(alpha)
        value = (FREE_KERNEL_CONSTANT / 2.0) * (
            1.0 - sin2 - cos2 - a2 * (sin2 - cos2)
            - 2.0 * a2 * alpha * (tail.real + tail.imag)
            + 3.0 * alpha * (tail.imag - tail.real))
    else:
        value = FREE_KERNEL_CONSTANT / 2.0
    try:
        power = t**1.5
    except OverflowError:
        power = math.inf
    return _finite_law(16.0 * math.pi * power * value, t)


def asymptote_free(t) -> np.ndarray | float:
    """Escape before the wavefront reaches the displaced wall: ~ t^{3/2}."""
    t_arr = _valid_times(t)
    with np.errstate(over="ignore"):
        out = _finite_law(FREE_LAW_COEFFICIENT * t_arr**1.5, t_arr)
    return out if np.ndim(t) else float(out[0])


def _finite_law(value, t, name: str = "time"):
    """``value``, or ValueError naming the largest ``t`` if it overflowed."""
    if not np.isfinite(value).all():
        raise ValueError(f"{name} {float(np.max(t))!r} overflows the escape law")
    return value


def asymptote_confined(delta: float, t) -> np.ndarray | float:
    """Escape after reflections set in: ~ delta^2 t^{1/2}.

    This is the leading term for delta^2 << t << 1.  The next term of the
    continuum escape (``escape_integral``) is the t-independent
    -(8 pi^2 / 3) delta^3, which is 0.835 delta / sqrt(t) of the leading
    term; near the crossover the two-term law is the one to compare with.
    """
    delta = _valid_shift(delta)
    t_arr = _valid_times(t)
    factor = _finite_law(CONFINED_LAW_COEFFICIENT * delta * delta, delta, "wall shift")
    with np.errstate(over="ignore"):
        out = _finite_law(factor * np.sqrt(t_arr), t_arr)
    return out if np.ndim(t) else float(out[0])


def crossover_time(delta: float) -> float:
    """Time at which the two closed-form laws are equal: 3 delta^2."""
    delta = _valid_shift(delta)
    return _finite_law(3.0 * delta * delta, delta, "wall shift")


def _loglog_slope(ts: np.ndarray, ps: np.ndarray) -> float:
    slope, _ = np.polyfit(np.log(ts), np.log(ps), 1)
    return float(slope)


def _fixed_exponent_amplitude(ts, ps, exponent):
    return float(np.exp(np.mean(np.log(ps) - exponent * np.log(ts))))


def regime_report(delta: float, early_window, late_window,
                  points_per_window: int = 16,
                  n_modes: int | None = None) -> RegimeReport:
    """Fit both power-law regimes of the exact escape probability.

    Slopes come from unweighted least squares on (log t, log P) over each
    window.  The prefactors are the least-squares amplitudes at the
    theoretical exponents (3/2 early, 1/2 late), which keeps them meaningful
    even when the fitted slope drifts a little.
    """
    if points_per_window < 5:
        raise ValueError("need at least 5 points per window for a stable fit")
    config = WellConfig(delta)
    if n_modes is None:
        target = 1e-3 * float(asymptote_free(float(early_window[0])))
        n_modes = truncation_for_tolerance(config, "survival", target)
    slopes = []
    amplitudes = []
    for window, exponent in ((early_window, 1.5), (late_window, 0.5)):
        lo, hi = float(window[0]), float(window[1])
        if not 0.0 < lo < hi:
            raise ValueError(f"bad fit window {window}")
        ts = np.logspace(math.log10(lo), math.log10(hi), points_per_window)
        ps = escape_probability_exact(config, ts, n_modes)
        slopes.append(_loglog_slope(ts, ps))
        amplitudes.append(_fixed_exponent_amplitude(ts, ps, exponent))
    return RegimeReport(
        transition_time=crossover_time(delta),
        fitted_slope_early=slopes[0],
        fitted_slope_late=slopes[1],
        prefactor_early=amplitudes[0],
        prefactor_late=amplitudes[1],
    )
