"""Quadrature oracle for the two kernel constants int_0^inf sin^2(y^2/2) / y^p.

``kernel_integral`` is the independent route that the closed forms of the
free (p = 4) and confined (p = 2) kernel constants are checked against in
``oracle.invariant_checks``, with which it shares no numerics.  Outside
``oracle`` no result of the package is computed with it.

The semi-infinite integral is split at Y = 60 into a finite part, integrated
by composite Gauss-Legendre on panels bounded by the zeros y = sqrt(2 pi k) of
sin^2(y^2/2), and an analytic tail in which the oscillation is integrated by
parts against the quadratic phase.  One pass meets the fixed 1e-9 target.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import QuadratureConvergenceError

#: absolute error that kernel_integral guarantees
_TOL = 1e-9
#: where the Gauss panels end and the tail by parts begins
_UPPER = 60.0


def _kernel(y: np.ndarray, power: int) -> np.ndarray:
    """The integrand at Gauss nodes, which lie inside panels and so at y > 0."""
    return np.sin(y * y / 2.0) ** 2 / y**power


def _panel_edges() -> np.ndarray:
    """0, the kernel zeros below _UPPER, and _UPPER: no panel is wider than
    the first, sqrt(2 pi)."""
    ks = np.arange(1, int(_UPPER * _UPPER / (2.0 * math.pi)) + 1)
    zeros = np.sqrt(2.0 * math.pi * ks)
    return np.concatenate([[0.0], zeros[zeros < _UPPER], [_UPPER]])


@functools.lru_cache(maxsize=None)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    rule = np.polynomial.legendre.leggauss(order)
    for array in rule:
        array.flags.writeable = False
    return rule


def _composite_gauss(power: int, edges: np.ndarray, order: int) -> float:
    nodes, weights = _gauss_rule(order)
    a, b = edges[:-1], edges[1:]
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    ys = mid[:, None] + half[:, None] * nodes[None, :]
    return float((half[:, None] * weights[None, :] * _kernel(ys, power)).sum())


def _tail(power: int) -> tuple[float, float]:
    """int_Y^inf sin^2(y^2/2) / y^power dy by parts at Y = _UPPER, and its error bound."""
    Y = _UPPER
    if power == 4:
        return (1.0 / (6.0 * Y**3) + math.sin(Y * Y) / (4.0 * Y**5)
                - 5.0 * math.cos(Y * Y) / (8.0 * Y**7)), 5.0 / Y**9
    return (1.0 / (2.0 * Y) + math.sin(Y * Y) / (4.0 * Y**3)
            - 3.0 * math.cos(Y * Y) / (8.0 * Y**5)), 2.0 / Y**7


def kernel_integral(power: int) -> float:
    """int_0^inf sin^2(y^2/2) / y^power dy: power 4 gives the free-law
    constant, power 2 the confined one.

    Any other power raises ValueError before a panel is built.  The result
    carries an absolute error below _TOL, estimated as |fine - coarse| (a
    bound for the 12-point rule and so conservative for the 20-point value
    returned) plus the tail bound: 1.3e-12 at power 2, 1.7e-14 at power 4.
    Else QuadratureConvergenceError is raised with diagnostics.
    """
    if power not in (2, 4):
        raise ValueError(f"unsupported kernel power {power}")
    edges = _panel_edges()
    tail_value, tail_err = _tail(power)
    coarse, fine = (_composite_gauss(power, edges, order) for order in (12, 20))
    estimate = abs(fine - coarse) + tail_err
    if not estimate <= _TOL:
        raise QuadratureConvergenceError(
            f"quadratic-phase integral did not converge: power={power} upper={_UPPER} "
            f"panels={edges.size - 1} estimate={estimate:.3e} tol={_TOL:.3e}")
    return fine + tail_value
