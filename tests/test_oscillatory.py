"""The quadrature oracle of the two kernel constants, pinned bit for bit, and
the exact Fresnel form of the shifted kernel that ``escape_integral`` is
tested against, checked by a Gauss-panel route that shares none of its
algebra."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import exp1

from wellquench import _oscillatory


def mpmath_kernel(alpha):
    """int_0^inf sin^2(alpha y) sin^2(y^2/2) / y^4 dy to 60 digits: its closed
    form in mpmath's Fresnel integrals."""
    with mpmath.workdps(60):
        a, scale = mpmath.mpf(alpha), mpmath.sqrt(mpmath.pi / 2)
        re_t = scale * (0.5 - mpmath.fresnelc(a / scale))
        im_t = scale * (0.5 - mpmath.fresnels(a / scale))
        sin2, cos2 = mpmath.sin(a * a), mpmath.cos(a * a)
        return scale / 6 * (1 - sin2 - cos2 - a * a * (sin2 - cos2)
                            - 2 * a**3 * (re_t + im_t) + 3 * a * (im_t - re_t))


def gauss_kernel_integral(alpha):
    """The same integral by 20-point Gauss-Legendre on panels between the
    zeros of sin^2(y^2/2), none wider than pi / alpha, up to
    Y = max(150, 2.5 alpha); beyond Y sin^2(y^2/2) is its mean 1/2, which
    leaves 1/(12 Y^3) - (1/4) int_Y^inf cos(2 alpha y) / y^4 dy, integrated
    by parts down to pi/2 - Si(2 alpha Y), taken as -Im E1(2 i alpha Y):
    pi/2 less scipy's Si would cost up to (2 alpha)^3 ulp(pi/2) / 24."""
    upper = max(150.0, 2.5 * alpha)
    zeros = np.sqrt(2.0 * math.pi * np.arange(1, int(upper**2 / (2.0 * math.pi)) + 1))
    edges = np.concatenate([[0.0], zeros[zeros < upper], [upper]])
    parts = np.maximum(1, np.ceil(np.diff(edges) * alpha / math.pi)).astype(int)
    # the i-th of n equal parts of [a, b) starts at a + i (b - a) / n
    i = np.arange(parts.sum()) - np.repeat(np.cumsum(parts) - parts, parts)
    edges = np.append(np.repeat(edges[:-1], parts)
                      + i * np.repeat(np.diff(edges) / parts, parts), upper)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    half = np.diff(edges)[:, None] / 2.0
    y = (edges[:-1, None] + half) + half * nodes
    body = np.sum(half * weights * (np.sin(alpha * y) * np.sin(y * y / 2.0) / (y * y)) ** 2)
    beta, Y = 2.0 * alpha, upper
    c2 = math.cos(beta * Y) / Y + beta * exp1(1j * beta * Y).imag
    c3 = math.sin(beta * Y) / (2.0 * Y**2) + beta / 2.0 * c2
    c4 = math.cos(beta * Y) / (3.0 * Y**3) - beta / 3.0 * c3
    return float(body) + 1.0 / (12.0 * Y**3) - c4 / 4.0


# the series branch of escape_integral below alpha = 2, its bracket from 2 on
@pytest.mark.parametrize("alpha", [0.3, 1.0, 3.0, 10.0, 40.0, 100.0, 199.0])
def test_kernel_integral_against_mpmath(alpha):
    assert abs(gauss_kernel_integral(alpha) - mpmath_kernel(alpha)) <= 1e-12


def test_panels_are_the_kernel_zeros():
    edges = _oscillatory._panel_edges()
    assert edges[0] == 0.0 and edges[-1] == 60.0
    assert edges.size - 2 == int(60.0**2 / (2.0 * math.pi))
    assert np.abs(np.sin(edges[1:-1] ** 2 / 2.0)).max() <= 1e-12
    assert 0.0 < np.diff(edges).min() and np.diff(edges).max() <= math.sqrt(2.0 * math.pi)


def test_results_do_not_depend_on_call_order():
    sequence = [4, 2, 4, 4, 2, 4]
    first = [_oscillatory.kernel_integral(p) for p in sequence]
    backwards = [_oscillatory.kernel_integral(p) for p in reversed(sequence)][::-1]
    assert first == backwards
    assert first[0] == first[2] == first[3] == first[5] and first[1] == first[4]


# kernel_integral(power): the constants oracle-check prints, bit for bit
PINNED_BITS = {4: 0.41777137910516693, 2: 0.6266570686576636}


@pytest.mark.parametrize("power", list(PINNED_BITS))
def test_kernel_integral_keeps_its_bits(power):
    assert _oscillatory.kernel_integral(power) == PINNED_BITS[power]


def test_memoised_arrays_are_read_only():
    for order in (12, 20):
        for cached, fresh in zip(_oscillatory._gauss_rule(order),
                                 np.polynomial.legendre.leggauss(order)):
            assert np.array_equal(cached, fresh)
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 1.0
