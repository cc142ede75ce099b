"""The vectorised panel layout and the shared alpha <= 1 kernel values of the
oscillatory quadrature, pinned to the per-panel linspace route they replace."""

import math

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
    _oscillatory._shared_layout.cache_clear()
    first = [_oscillatory.kernel_integral(4, alpha=a, tol=1e-7) for a in sequence]
    _oscillatory._shared_layout.cache_clear()
    backwards = [_oscillatory.kernel_integral(4, alpha=a, tol=1e-7)
                 for a in reversed(sequence)][::-1]
    assert first == backwards
    assert first[0] == first[2] == first[4]


@pytest.mark.parametrize("alpha", [None, 1e-3, 0.3, 1.0])
def test_shared_layout_equals_a_fresh_one(alpha):
    # the memoised nodes and weights reproduce the unshared route bit for bit
    upper = upper_for(alpha)
    edges = _oscillatory._panel_edges(upper, alpha)
    for order in (12, 20):
        shared = _oscillatory._composite_gauss(
            _oscillatory._shared_layout(4, upper, order), alpha)
        fresh = _oscillatory._composite_gauss(
            _oscillatory._layout(4, edges, order), alpha)
        nodes, weights = np.polynomial.legendre.leggauss(order)
        a, b = edges[:-1], edges[1:]
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        ys = mid[:, None] + half[:, None] * nodes[None, :]
        direct = float((half[:, None] * weights[None, :]
                        * _oscillatory._kernel(ys, 4, alpha)).sum())
        assert shared == fresh == direct


def test_memoised_arrays_are_read_only():
    _oscillatory.kernel_integral(4, alpha=0.5, tol=1e-7)
    arrays = [*_oscillatory._shared_layout(4, 150.0, 12),
              *_oscillatory._gauss_rule(20)]
    for cached, fresh in zip(_oscillatory._gauss_rule(12),
                             np.polynomial.legendre.leggauss(12)):
        assert np.array_equal(cached, fresh)
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_large_rates_are_not_memoised():
    _oscillatory._shared_layout.cache_clear()
    for alpha in (1.5, 7.0, 40.0):
        _oscillatory.kernel_integral(4, alpha=alpha, tol=1e-7)
    assert _oscillatory._shared_layout.cache_info().currsize == 0


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
