"""Quadrature oracle for the two kernel constants int_0^inf sin^2(y^2/2) / y^p.

``kernel_integral`` is the independent route that the closed forms of the
free (p = 4) and confined (p = 2) kernel constants are checked against in
``oracle.invariant_checks``, with which it shares no numerics.  Outside
``oracle`` no result of the package is computed with it.

The semi-infinite integral is split at Y = 60 into a finite part, integrated
by composite Gauss-Legendre on panels bounded by the zeros y = sqrt(2 pi k) of
sin^2(y^2/2), and an analytic tail in which the oscillation is integrated by
parts against the quadratic phase.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import QuadratureConvergenceError


def _kernel(y: np.ndarray, power: int) -> np.ndarray:
    """The integrand at Gauss nodes, which lie inside panels and so at y > 0."""
    return np.sin(y * y / 2.0) ** 2 / y**power


def _panel_edges(upper: float) -> np.ndarray:
    """0, the kernel zeros below ``upper``, and ``upper``: no panel is wider
    than the first, sqrt(2 pi)."""
    ks = np.arange(1, int(upper * upper / (2.0 * math.pi)) + 1)
    zeros = np.sqrt(2.0 * math.pi * ks)
    return np.concatenate([[0.0], zeros[zeros < upper], [upper]])


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


def _tail(power: int, Y: float) -> tuple[float, float]:
    """int_Y^inf sin^2(y^2/2) / y^power dy by parts, and a bound on its error."""
    if power == 4:
        return (1.0 / (6.0 * Y**3) + math.sin(Y * Y) / (4.0 * Y**5)
                - 5.0 * math.cos(Y * Y) / (8.0 * Y**7)), 5.0 / Y**9
    return (1.0 / (2.0 * Y) + math.sin(Y * Y) / (4.0 * Y**3)
            - 3.0 * math.cos(Y * Y) / (8.0 * Y**5)), 2.0 / Y**7


def kernel_integral(power: int, tol: float = 1e-9) -> float:
    """int_0^inf sin^2(y^2/2) / y^power dy: power 4 gives the free-law
    constant, power 2 the confined one.

    Any other power, or a ``tol`` that is not > 0 (NaN too), raises
    ValueError before a panel is built.  The result carries an absolute error
    below ``tol``, estimated as |fine - coarse| (a bound for the 12-point rule
    and so conservative for the 20-point value returned) plus the tail bound;
    else QuadratureConvergenceError is raised with diagnostics.
    """
    if power not in (2, 4):
        raise ValueError(f"unsupported kernel power {power}")
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    upper = 60.0
    edges = _panel_edges(upper)
    tail_value, tail_err = _tail(power, upper)
    for refinement in range(3):
        coarse, fine = (_composite_gauss(power, edges, order) for order in (12, 20))
        estimate = abs(fine - coarse) + tail_err
        if estimate <= tol:
            return fine + tail_value
        mids = (edges[:-1] + edges[1:]) / 2.0
        edges = np.sort(np.concatenate([edges, mids]))
    raise QuadratureConvergenceError(
        f"quadratic-phase integral did not converge: power={power} upper={upper} "
        f"panels={edges.size - 1} estimate={estimate:.3e} tol={tol:.3e}")
