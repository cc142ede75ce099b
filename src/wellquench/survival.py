"""Survival and escape probabilities after the sudden wall shift.

The survival amplitude is A(t) = sum_n a_n^2 e^{-i E_n t} and the escape
probability is 1 - |A|^2.  At short times the escape grows as t^{3/2} while
the emitted wavefront still propagates freely, and crosses over to t^{1/2}
once it has bounced off the displaced wall; the two closed-form laws meet
exactly at t = 3 delta^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

import numpy as np

from ._special import lentz, two_square
from .errors import InsufficientSpanError, TruncationInconsistencyError
from .spectral import (WellConfig, _direct_sums, _lattice_read, _shaped,
                       _valid_shift, _valid_times, mode_coefficients,
                       truncation_for_tolerance)

#: closed forms of int_0^inf sin^2(y^2/2)/y^p dy for p = 4 and p = 2
FREE_KERNEL_CONSTANT = math.sqrt(math.pi) / (3.0 * math.sqrt(2.0))
CONFINED_KERNEL_CONSTANT = math.sqrt(math.pi) / (2.0 * math.sqrt(2.0))

#: escape ~ FREE_LAW_COEFFICIENT * t^{3/2} while the front is in free flight
FREE_LAW_COEFFICIENT = 8.0 * math.pi * FREE_KERNEL_CONSTANT
#: escape ~ CONFINED_LAW_COEFFICIENT * delta^2 * t^{1/2} after the bounce
CONFINED_LAW_COEFFICIENT = 16.0 * math.pi * CONFINED_KERNEL_CONSTANT

# escape_integral sums I's power series (k = 0..33; the omitted terms stay
# below 2e-24) under this alpha and takes the bracket from it up; past the
# cap the bracket's correction, below 1.1 alpha^-4, is far under one ulp of 1,
# and capping alpha there keeps alpha^2 finite
_SERIES_SWITCH = 2.0
_SERIES = tuple(2.0 * math.sqrt(math.pi / 2.0) * (-1.0) ** (k // 2)
                / (math.factorial(k) * (2 * k + 1) * (2 * k + 2) * (2 * k + 3) * (2 * k + 4))
                for k in range(34))
_BRACKET_CAP = 1e8

#: log-spaced times in each fit window of regime_report
_FIT_POINTS = 16

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


def survival_amplitude(config: WellConfig, t, n_modes: int):
    """A(t) = sum_{n=1..N} a_n^2 e^{-i E_n t}; scalar or array ``t``."""
    coeffs = mode_coefficients(config, n_modes)
    ts = _valid_times(t)
    out = _direct_sums(ts, coeffs.energies, lambda p: coeffs.weights * np.exp(-1j * p))
    return _shaped(out, t)


def _escape_core(a2, energies, ts, reference: float):
    """Cancellation-free evaluation of the escape probability.

    With B = sum_n w_n (1 - e^{-i E_n t}) over the modes summed, ``a2``,
    1 - |R - B|^2 = (1 - R^2) + 2 R Re B - |B|^2 for the ``reference`` R
    (sum w_n, or 1 for the aligned escape, whose modes start at n = 2).
    Re B is accumulated as 2 w sin^2(theta/2), which never cancels, so the
    result stays accurate down to the 1e-15 scale.  Both sums come from one
    phase block: w sin^2(theta/2) and w sin(theta) are formed in place, and
    doubling the first sum is exact.
    """
    def terms(p):
        stack = np.empty((2,) + p.shape)
        np.multiply(a2, np.sin(p, out=stack[1]), out=stack[1])
        np.sin(np.multiply(p, 0.5, out=p), out=p)
        np.multiply(a2, np.square(p, out=p), out=stack[0])
        return stack

    half, im = _direct_sums(ts, energies, terms)
    re_b, im_b = 2.0 * half, -im
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
    coeffs = mode_coefficients(config, n_modes)
    ts = _valid_times(t)
    w = coeffs.weights
    out = _apply_noise_clamp(_escape_core(w, coeffs.energies, ts, math.fsum(w)))
    return _shaped(out, t)


def escape_probability_aligned(config: WellConfig, t, n_modes: int):
    """Escape probability with the ground mode's phase factored into the reference.

    Evaluates 1 - |1 + sum_{n>=2} a_n^2 (e^{-i E_n t} - 1)|^2, i.e. survival
    measured against a reference that rotates with the expanded-well ground
    mode.  This is the quantity whose delta -> 0 limit over one period is
    8 delta^2 times the universal profile; the physical escape
    (escape_probability_exact) agrees with it at short times but differs at
    order-one fractions of the period by the ground-phase bookkeeping.
    Times on a lattice (x0 + j / K) T of the period T (E_n T = 2 pi n^2) make
    _escape_core's B one spectral._lattice_read of a_n^2 at the rates n^2.
    """
    coeffs = mode_coefficients(config, n_modes)
    ts = _valid_times(t)
    nsq = np.arange(2, n_modes + 1, dtype=np.int64) ** 2
    b = _lattice_read(coeffs.weights[1:], nsq, ts / config.period)
    if b is None:
        core = _escape_core(coeffs.weights[1:], coeffs.energies[1:], ts, 1.0)
    else:
        core = 2.0 * b.real - b.real * b.real - b.imag * b.imag
    out = _apply_noise_clamp(core)
    return _shaped(out, t)


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
    return _shaped(out, t)


def escape_integral(delta: float, t: float) -> float:
    """Continuum form of the short-time escape probability, in closed form.

    16 pi t^{3/2} I(a) for a = delta / sqrt(t), where
    I(a) = int_0^inf sin^2(a y) sin^2(y^2/2) / y^4 dy has fourth derivative
    2 sqrt(pi/2) (cos a^2 + sin a^2), I(0) = I'(0) = 0, I''(0) = 2 C and
    I'''(0+) = -pi (C = CONFINED_KERNEL_CONSTANT, F = FREE_KERNEL_CONSTANT
    = sqrt(pi/2) / 3).  Below a = 2, I is that integrated back term by term,
    C a^2 - (pi/6) a^3 + 2 sqrt(pi/2) sum_k (-1)^{k//2} a^{2k+4} /
    (k! (2k+1)(2k+2)(2k+3)(2k+4)), summed with math.fsum.  From 2 on it is
    (F / 2) [1 + Re((1 - i) e^{i a^2} (12 / L2 - 3) / (L L1))] with the even
    erfc continued fraction L = 1 - 2i a^2 - 2 / L1, L1 = 5 - 2i a^2 - 12 / L2
    (L2 its tail from level 2, by ``_special.lentz``): its O(a^-4) correction
    cancels nothing, and e^{i a^2} = e^{i hi} (1 + i lo) for a^2 = hi + lo
    (``_special.two_square``).  Relative error <= 3e-15 below 2 and 6e-16
    from 2 on; tests pin it to I's Fresnel form in 60-digit mpmath, itself
    checked by a panel quadrature.  ``t`` is one time; returns 0 at t = 0.
    """
    delta = _valid_shift(delta)
    if np.ndim(t) != 0:
        raise ValueError("time must be a scalar")
    t = float(_valid_times(t)[0])
    if t == 0.0 or delta == 0.0:
        return 0.0
    alpha = delta / math.sqrt(t)
    if alpha < _SERIES_SWITCH:
        a2 = alpha * alpha
        powers = accumulate(repeat(a2, len(_SERIES) - 1), mul, initial=a2 * a2)
        value = math.fsum([CONFINED_KERNEL_CONSTANT * a2, -(math.pi / 6.0) * a2 * alpha,
                           *map(mul, _SERIES, powers)])
    else:
        hi, lo = two_square(min(alpha, _BRACKET_CAP))
        shift = complex(1.0, -2.0 * hi)
        l2 = lentz(shift + 8.0, lambda j: (-(2.0 * j + 3.0) * (2.0 * j + 4.0),
                                           shift + 4.0 * j + 8.0))
        l1 = shift + 4.0 - 12.0 / l2
        phase = complex(1.0, -1.0) * cmath.exp(1j * hi) * complex(1.0, lo)
        value = (FREE_KERNEL_CONSTANT / 2.0) * (
            1.0 + (phase * (12.0 / l2 - 3.0) / ((shift - 2.0 / l1) * l1)).real)
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
    return _shaped(out, t)


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
    return _shaped(out, t)


def crossover_time(delta: float) -> float:
    """Time at which the two closed-form laws are equal: 3 delta^2."""
    delta = _valid_shift(delta)
    return _finite_law(3.0 * delta * delta, delta, "wall shift")


def _power_law_fit(xs, ys, names) -> tuple[float, float]:
    """Slope and RMS residual of the least-squares line through (log x, log y).
    ValueError, naming ``names``, unless x and y are matching 1-d arrays of
    finite, positive numbers; InsufficientSpanError unless x takes two values."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"{names[0]} and {names[1]} must be matching 1-d arrays")
    for name, values in zip(names, (x, y)):
        if not (np.isfinite(values).all() and (values > 0.0).all()):
            raise ValueError(f"{name} must be finite and positive")
    if not (x.size and x.min() < x.max()):
        raise InsufficientSpanError(f"a fit needs two distinct {names[0]}")
    log_x, log_y = np.log(x), np.log(y)
    slope, intercept = np.polyfit(log_x, log_y, 1)
    return float(slope), float(np.sqrt(np.mean((log_y - slope * log_x - intercept) ** 2)))


def _fixed_exponent_amplitude(ts, ps, exponent):
    return float(np.exp(np.mean(np.log(ps) - exponent * np.log(ts))))


def regime_report(delta: float, early_window, late_window) -> RegimeReport:
    """Fit both power-law regimes of the exact escape probability.

    Slopes come from unweighted least squares on (log t, log P) over each
    window (``_power_law_fit``: an escape that rounds to 0 raises ValueError).
    The prefactors are the least-squares amplitudes at the theoretical
    exponents (3/2 early, 1/2 late), which keeps them meaningful even when
    the fitted slope drifts a little.  Each window holds _FIT_POINTS times,
    summed over as many modes as keep the survival tail bound under 1e-3 of
    the continuum escape (``escape_integral``) at that window's first time.
    """
    config = WellConfig(delta)
    slopes, amplitudes = [], []
    for window, exponent in ((early_window, 1.5), (late_window, 0.5)):
        lo, hi = float(window[0]), float(window[1])
        if not 0.0 < lo < hi:
            raise ValueError(f"bad fit window {window}")
        scale = escape_integral(delta, lo)
        if not scale > 0.0:
            raise ValueError(f"escape probabilities must be finite and positive: the "
                             f"continuum escape of wall shift {delta!r} at t = {lo!r} is 0")
        n_modes = truncation_for_tolerance(config, "survival", 1e-3 * scale)
        ts = np.logspace(math.log10(lo), math.log10(hi), _FIT_POINTS)
        ps = escape_probability_exact(config, ts, n_modes)
        slopes.append(_power_law_fit(ts, ps, ("times", "escape probabilities"))[0])
        amplitudes.append(_fixed_exponent_amplitude(ts, ps, exponent))
    return RegimeReport(
        transition_time=crossover_time(delta),
        fitted_slope_early=slopes[0],
        fitted_slope_late=slopes[1],
        prefactor_early=amplitudes[0],
        prefactor_late=amplitudes[1],
    )
