"""Scalar helpers in double precision, each as accurate as its docstring says.

``lentz`` (modified Lentz, Numerical Recipes 3rd ed. sec. 5.2) evaluates the
erfc continued fraction of ``survival.escape_integral``; ``veltkamp`` and
``two_square`` are exact splits, for ``spectral._window_offsets`` and for the
e^{i a^2} of ``escape_integral``; ``trigamma``, a recurrence up to x = 10 and
then an asymptotic series, serves ``universal.universal_tail_bound``.
"""

from __future__ import annotations

import math
import sys

_EPS = sys.float_info.epsilon
_TINY = 1e-300
_MAX_TERMS = 1000

# trigamma recurs up to this x, then sums the asymptotic series
_TRIGAMMA_SWITCH = 10.0
# B_2k for k = 8 down to 1: the asymptotic series of trigamma in Horner order
_BERNOULLI = (-3617.0 / 510.0, 7.0 / 6.0, -691.0 / 2730.0, 5.0 / 66.0,
              -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 1.0 / 6.0)


def lentz(b0, term):
    """b0 + a1 / (b1 + a2 / (b2 + ...)) with (a_j, b_j) = term(j), j >= 1.

    Modified Lentz: stops when a step changes the value by less than one
    ulp; ArithmeticError if that takes more than _MAX_TERMS steps.
    """
    f = b0 or _TINY
    c, d = f, 0.0
    for j in range(1, _MAX_TERMS):
        a, b = term(j)
        d = 1.0 / ((b + a * d) or _TINY)
        c = (b + a / c) or _TINY
        step = c * d
        f *= step
        if abs(step - 1.0) <= _EPS:
            return f
    raise ArithmeticError(f"continued fraction did not converge from b0 = {b0}")


def veltkamp(x: float) -> tuple[float, float]:
    """x = high + low exactly, each half with at most 26 significant bits."""
    split = 134217729.0 * x
    high = split - (split - x)
    return high, x - high


def two_square(x: float) -> tuple[float, float]:
    """x * x = hi + lo exactly (Dekker's product on the Veltkamp split)."""
    hi = x * x
    high, low = veltkamp(x)
    return hi, ((high * high - hi) + 2.0 * high * low) + low * low


def trigamma(x: float) -> float:
    """psi'(x) for x > 0, within 2 ulps.

    psi'(x) = 1/x^2 + psi'(x + 1) up to x >= 10, then the asymptotic series
    1/x + 1/(2x^2) + sum_{k=1..8} B_2k / x^{2k+1} (Abramowitz & Stegun
    6.4.12), whose first omitted term is below 1e-17 of the value.
    """
    terms = []
    while x < _TRIGAMMA_SWITCH:
        terms.append(1.0 / (x * x))
        x += 1.0
    t = 1.0 / x
    t2 = t * t
    series = 0.0
    for b in _BERNOULLI:
        series = series * t2 + b
    terms.append(t + t2 * (0.5 + t * series))
    return math.fsum(terms)
