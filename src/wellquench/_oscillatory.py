"""Quadrature oracle for the quadratic-phase kernels sin^2(y^2/2) / y^p.

``kernel_integral`` is the independent route that the closed forms are
tested against: the kernel constants of the two escape laws and the power
series and continued-fraction bracket of the continuum escape
(``survival.escape_integral``), with which it shares no numerics.  Outside
``oracle`` no result of the package is computed with it.

The semi-infinite integrals are split at Y into a finite part, integrated by
composite Gauss-Legendre on panels bounded by the zeros y = sqrt(2 pi k) of
sin^2(y^2/2), and an analytic tail in which the oscillation is integrated by
parts (the surviving smooth piece has a closed form in terms of Si).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._special import sine_integral_tail
from .errors import QuadratureConvergenceError

# kernel_integral, and nothing else, takes sin^2(a y) as its mean 1/2 from this a
# on where the cross-oscillation dropped, O(0.3 / a^4) by stationary phase, <= tol
_MEAN_FIELD_ALPHA = 200.0


def _kernel(y: np.ndarray, power: int, alpha: float | None) -> np.ndarray:
    """The integrand at Gauss nodes, which lie inside panels and so at y > 0."""
    out = np.sin(y * y / 2.0) ** 2 / y**power
    if alpha is not None:
        out = out * np.sin(alpha * y) ** 2
    return out


def _panel_edges(upper: float, alpha: float | None) -> np.ndarray:
    ks = np.arange(1, int(upper * upper / (2.0 * math.pi)) + 1)
    zeros = np.sqrt(2.0 * math.pi * ks)
    edges = np.concatenate([[0.0], zeros[zeros < upper], [upper]])
    width = math.pi / max(alpha or 1.0, 1.0)  # resolve the sin^2(alpha y) period
    a, b = edges[:-1], edges[1:]
    parts = np.maximum(1, np.ceil((b - a) / width)).astype(np.int64)
    # i * step + a for i < parts: np.linspace(a, b, parts + 1) without its end
    step = np.repeat((b - a) / parts, parts)
    i = np.arange(step.size) - np.repeat(np.cumsum(parts) - parts, parts)
    return np.append(i * step + np.repeat(a, parts), upper)


@functools.lru_cache(maxsize=None)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    rule = np.polynomial.legendre.leggauss(order)
    for array in rule:
        array.flags.writeable = False
    return rule


def _composite_gauss(power: int, edges: np.ndarray, alpha: float | None,
                     order: int) -> float:
    nodes, weights = _gauss_rule(order)
    a, b = edges[:-1], edges[1:]
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    ys = mid[:, None] + half[:, None] * nodes[None, :]
    return float((half[:, None] * weights[None, :]
                  * _kernel(ys, power, alpha)).sum())


def _c4_tail(beta: float, upper: float) -> float:
    """Closed form of int_Y^inf cos(beta y) / y^4 dy (beta > 0)."""
    Y = upper
    inner = math.cos(beta * Y) / Y - beta * sine_integral_tail(beta * Y)
    mid = math.sin(beta * Y) / (2.0 * Y * Y) + (beta / 2.0) * inner
    return math.cos(beta * Y) / (3.0 * Y**3) - (beta / 3.0) * mid


def _tail(power: int, alpha: float | None, upper: float) -> tuple[float, float]:
    """Analytic tail of the integral beyond Y and a bound on its error, for
    the kernels ``kernel_integral`` accepts."""
    Y = upper
    if alpha is None and power == 4:
        return (1.0 / (6.0 * Y**3) + math.sin(Y * Y) / (4.0 * Y**5)
                - 5.0 * math.cos(Y * Y) / (8.0 * Y**7)), 5.0 / Y**9
    if alpha is None:  # power 2
        return (1.0 / (2.0 * Y) + math.sin(Y * Y) / (4.0 * Y**3)
                - 3.0 * math.cos(Y * Y) / (8.0 * Y**5)), 2.0 / Y**7
    # replace sin^2(y^2/2) by its mean 1/2; the dropped cross term is bounded
    # by integration by parts against the monotone phase y^2
    value = 1.0 / (12.0 * Y**3) - 0.25 * _c4_tail(2.0 * alpha, Y)
    err = 0.5 / Y**5 + alpha / (8.0 * Y**4)
    return value, err


def kernel_integral(power: int, alpha: float | None = None,
                    tol: float = 1e-9) -> float:
    """int_0^inf [sin^2(alpha y)] sin^2(y^2/2) / y^power dy.

    Power 4 gives the free-law constant, power 2 the confined one, and power
    4 with ``alpha = delta / sqrt(t)`` the continuum escape integral; without
    ``alpha`` the factor in brackets is absent.  Any other power, an
    ``alpha`` with power 2, or a ``tol`` that is not > 0 (NaN too) raises
    ValueError before a panel is built.  The result carries an error below
    ``tol`` (absolute, relative to the scale of the value for the shifted
    kernel) or QuadratureConvergenceError is raised with diagnostics.  From
    alpha = 200 on, while 0.3 / alpha^4 <= ``tol``, sin^2(alpha y) is its mean
    1/2; else the estimate is |fine - coarse|, a bound for the 12-point rule
    and so conservative for the 20-point value returned, plus the tail bound.
    """
    if power not in (2, 4):
        raise ValueError(f"unsupported kernel power {power}")
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if alpha is not None:
        if power != 4:
            raise ValueError("the shifted kernel is only used with power 4")
        if math.isnan(alpha) or alpha < 0.0:
            raise ValueError(f"oscillation rate must be >= 0, got {alpha}")
        if alpha == 0.0:
            return 0.0
        if alpha >= max(_MEAN_FIELD_ALPHA, (0.3 / tol) ** 0.25):
            # 0.3 / alpha^4 <= tol: I -> (1/2) int sin^2(y^2/2)/y^4
            return 0.5 * kernel_integral(4, None, tol)
        # keep the tail bounds alpha/(8 Y^4) and 0.5/Y^5 under tol/2 each
        upper = max(150.0, 2.5 * alpha, (alpha / (4.0 * tol)) ** 0.25,
                    (1.0 / tol) ** 0.2)
    else:
        upper = 60.0
    edges = _panel_edges(upper, alpha)
    for refinement in range(3):
        # one order at a time: a large-alpha layout holds ~10^6 nodes
        coarse, fine = (_composite_gauss(power, edges, alpha, order)
                        for order in (12, 20))
        tail_value, tail_err = _tail(power, alpha, upper)
        value = fine + tail_value
        estimate = abs(fine - coarse) + tail_err
        scale = max(abs(value), 1e-30)
        if estimate <= max(tol, tol * scale):
            return value
        mids = (edges[:-1] + edges[1:]) / 2.0
        edges = np.sort(np.concatenate([edges, mids]))
    raise QuadratureConvergenceError(
        f"quadratic-phase integral did not converge: power={power} "
        f"alpha={alpha} upper={upper} panels={edges.size - 1} "
        f"estimate={estimate:.3e} tol={tol:.3e}")
