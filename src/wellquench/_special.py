"""Scalar special functions: the Fresnel tail, trigamma and the sine integral.

Each one is a convergent series for small arguments and a continued fraction
or an asymptotic series for large ones, in double precision with the
accuracy stated in its docstring.  Continued fractions are evaluated by the
modified Lentz method (Numerical Recipes, 3rd ed., sec. 5.2).
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import accumulate, repeat
from operator import mul

_EPS = sys.float_info.epsilon
_TINY = 1e-300
_MAX_TERMS = 1000

# fresnel_tail sums the power series below this alpha, the continued fraction
# from it up; sine_integral switches likewise at its x
_FRESNEL_SWITCH = 2.0
_SI_SWITCH = 4.0
# trigamma recurs up to this x, then sums the asymptotic series
_TRIGAMMA_SWITCH = 10.0
# T(alpha) = T0 (1 + i) - sum_k i^k alpha^{2k+1} / (k! (2k + 1)): the real
# factors of the coefficients for k = 0..33, real at even k and imaginary at
# odd k; the omitted terms stay below 1e-19 for alpha < 2
_T0 = math.sqrt(math.pi / 8.0)
_FRESNEL_SERIES = tuple((-1.0) ** (k // 2 + 1) / (math.factorial(k) * (2 * k + 1))
                        for k in range(34))
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


def fresnel_tail(alpha: float) -> complex:
    """T(alpha) = int_alpha^inf e^{i s^2} ds for alpha >= 0.

    Below 2 it is (sqrt(pi)/2) e^{i pi/4} minus the power series of
    int_0^alpha, each part summed with math.fsum.  From 2 it is
    alpha e^{i alpha^2} / L, with L the even form of the erfc continued
    fraction at z = e^{-i pi/4} alpha (Numerical Recipes, 3rd ed., sec.
    6.8.1), L = 1 - 2i alpha^2 - 1*2 / (5 - 2i alpha^2 - 3*4 / (9 - ...)),
    and the phase taken from alpha^2 = hi + lo as e^{i hi} (1 + i lo).
    Relative error <= 4e-15.
    """
    if alpha < _FRESNEL_SWITCH:
        powers = accumulate(repeat(alpha * alpha, len(_FRESNEL_SERIES) - 1), mul,
                            initial=alpha)
        terms = [_T0, _T0, *map(mul, _FRESNEL_SERIES, powers)]
        return complex(math.fsum(terms[0::2]), math.fsum(terms[1::2]))
    hi, lo = two_square(alpha)
    shift = complex(1.0, -2.0 * hi)
    fraction = lentz(shift, lambda j: (-(2.0 * j - 1.0) * 2.0 * j, shift + 4.0 * j))
    return alpha * cmath.exp(1j * hi) * complex(1.0, lo) / fraction


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


def sine_integral(x: float) -> float:
    """Si(x) = int_0^x sin(s)/s ds for x >= 0.

    Below 4 the power series, from 4 on pi/2 + Im E1(ix) with
    E1(z) = e^{-z} / (z + 1 - 1 / (z + 3 - 4 / (z + 5 - ...))) (Numerical
    Recipes, 3rd ed., sec. 6.8.2).  Relative error <= 5e-16.
    """
    if x < _SI_SWITCH:
        terms, power, k = [], x, 0
        while power > _EPS * 1e-3 * x:
            terms.append((-1.0) ** k * power / (2 * k + 1))
            k += 1
            power *= x * x / ((2 * k) * (2 * k + 1))
        return math.fsum(terms)
    return math.pi / 2.0 - sine_integral_tail(x)


def sine_integral_tail(x: float) -> float:
    """pi/2 - Si(x) = -Im E1(ix) for x >= 0.

    From 4 on the continued fraction of sine_integral, with no cancellation:
    absolute error <= 4e-15 / x, a few ulps of the envelope 1/x, where
    pi/2 - sine_integral(x) keeps one ulp of pi/2.  Below 4 that difference,
    within 7e-16 absolute.
    """
    if x < _SI_SWITCH:
        return math.pi / 2.0 - sine_integral(x)
    z = complex(1.0, x)
    fraction = lentz(z, lambda j: (-float(j * j), z + 2.0 * j))
    return -(complex(math.cos(x), -math.sin(x)) / fraction).imag
