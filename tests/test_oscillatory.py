"""The quadrature oracle: its vectorised panel layout pinned to the per-panel
linspace route it replaced, and its values pinned bit for bit."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellquench import _oscillatory
from wellquench.survival import CONFINED_KERNEL_CONSTANT


def reference_panel_edges(upper, alpha):
    """One np.linspace per interval between kernel zeros, then np.unique."""
    ks = np.arange(1, int(upper * upper / (2.0 * math.pi)) + 1)
    zeros = np.sqrt(2.0 * math.pi * ks)
    edges = np.concatenate([[0.0], zeros[zeros < upper], [upper]])
    width = math.pi / max(alpha or 1.0, 1.0)
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        parts = max(1, int(math.ceil((b - a) / width)))
        pieces.append(np.linspace(a, b, parts + 1))
    return np.unique(np.concatenate(pieces))


def upper_for(alpha, tol=1e-7):
    """The cut-off kernel_integral chooses for this rate and tolerance."""
    if alpha is None:
        return 60.0
    return max(150.0, 2.5 * alpha, (alpha / (4.0 * tol)) ** 0.25,
               (1.0 / tol) ** 0.2)


rates = st.one_of(st.none(), st.floats(min_value=0.0, max_value=200.0,
                                       exclude_min=True, exclude_max=True))


# the tolerances of escape_integral and kernel_integral's default
@settings(max_examples=30, deadline=None)
@given(alpha=rates, tol=st.sampled_from([1e-7, 1e-9]))
def test_panel_edges_match_linspace_route(alpha, tol):
    upper = upper_for(alpha, tol)
    edges = _oscillatory._panel_edges(upper, alpha)
    expected = reference_panel_edges(upper, alpha)
    assert edges.shape == expected.shape
    assert np.array_equal(edges, expected)
    assert edges[0] == 0.0 and edges[-1] == upper
    assert np.all(np.diff(edges) > 0.0)
    # every zero of sin^2(y^2/2) below the cut-off is a panel edge
    ks = np.arange(1, int(upper * upper / (2.0 * math.pi)) + 1)
    zeros = np.sqrt(2.0 * math.pi * ks)
    assert np.isin(zeros[zeros < upper], edges).all()
    width = math.pi / max(alpha or 1.0, 1.0)
    assert np.diff(edges).max() <= width * (1.0 + 1e-12)


def test_results_do_not_depend_on_call_order():
    sequence = [0.5, 3.0, 0.5, None, 0.5, 1.0, 0.01]
    first = [_oscillatory.kernel_integral(4, alpha=a, tol=1e-7) for a in sequence]
    backwards = [_oscillatory.kernel_integral(4, alpha=a, tol=1e-7)
                 for a in reversed(sequence)][::-1]
    assert first == backwards
    assert first[0] == first[2] == first[4]


# kernel_integral(4, alpha, tol) at tol = 1e-7 and 1e-9, as computed since
# the tail takes pi/2 - Si(2 alpha Y) without cancellation
PINNED_BITS = {
    None: (0.41777137910516693, 0.41777137910516693),
    1e-3: (6.261335806877072e-07, 6.261335806877072e-07),
    0.3: (0.043112982772047385, 0.043112982772047385),
    1.0: (0.21364465775658303, 0.21364465775658303),
    3.0: (0.2092047592463839, 0.2092047592462981),
    40.0: (0.20888560386450267, 0.20888560386409585),
    250.0: (0.20888568955258346, 0.20888568955258346),
}


def mpmath_kernel(alpha):
    """int_0^inf sin^2(alpha y) sin^2(y^2/2) / y^4 dy to 60 digits: the Fresnel
    form of survival.escape_integral in mpmath's Fresnel integrals."""
    with mpmath.workdps(60):
        a, scale = mpmath.mpf(alpha), mpmath.sqrt(mpmath.pi / 2)
        re_t = scale * (0.5 - mpmath.fresnelc(a / scale))
        im_t = scale * (0.5 - mpmath.fresnels(a / scale))
        sin2, cos2 = mpmath.sin(a * a), mpmath.cos(a * a)
        return scale / 6 * (1 - sin2 - cos2 - a * a * (sin2 - cos2)
                            - 2 * a**3 * (re_t + im_t) + 3 * a * (im_t - re_t))


@pytest.mark.parametrize("alpha", [0.3, 1.0, 3.0, 10.0, 40.0, 100.0, 199.0])
def test_kernel_integral_against_mpmath(alpha):
    # far inside tol: with pi/2 - Si(2 alpha Y) taken by subtraction the tail
    # lost up to 2e-10 at alpha = 199 (2.3e-12 at 40)
    value = _oscillatory.kernel_integral(4, alpha=alpha, tol=1e-9)
    assert abs(value - mpmath_kernel(alpha)) <= 1e-12


@pytest.mark.parametrize("alpha", list(PINNED_BITS))
def test_kernel_integral_keeps_its_bits(alpha):
    for tol, expected in zip((1e-7, 1e-9), PINNED_BITS[alpha]):
        assert _oscillatory.kernel_integral(4, alpha=alpha, tol=tol) == expected


def test_memoised_arrays_are_read_only():
    for order in (12, 20):
        for cached, fresh in zip(_oscillatory._gauss_rule(order),
                                 np.polynomial.legendre.leggauss(order)):
            assert np.array_equal(cached, fresh)
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 1.0


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
@pytest.mark.parametrize("alpha", [1e-3, 1e-2])
def test_tight_tolerances_converge_to_the_small_rate_series(alpha, tol):
    # the cut-off grows with 1/tol, so the 0.5/Y^5 tail bound no longer
    # stalls the estimate above tol (at Y = 150 it is 6.6e-12); the series
    # I = C a^2 - (pi/6) a^3 + (sqrt(pi/2)/12) a^4 drops O(a^6 / 100) terms
    series = (CONFINED_KERNEL_CONSTANT * alpha**2 - (math.pi / 6.0) * alpha**3
              + math.sqrt(math.pi / 2.0) / 12.0 * alpha**4)
    value = _oscillatory.kernel_integral(4, alpha=alpha, tol=tol)
    assert abs(value - series) <= tol
