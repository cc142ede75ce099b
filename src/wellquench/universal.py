"""The shift-independent limit profile of the scaled escape probability.

As the wall shift goes to zero, the escape probability over one revival
period approaches 8 delta^2 F(t/T) with

    F(xi) = sum_{n>=2} n^2 / (1 - n^2)^2 * (1 - cos(2 pi n^2 xi)),

a periodic, reflection-symmetric function with no remaining delta or period
dependence.  Its quadratic phases put dips at every rational xi = q/p^2 and
give the graph a fractal structure (analyzed in the fractal module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import polygamma

from .errors import GridMismatchError
from .spectral import (WellConfig, _direct_sums, _grid_numerators,
                       _residue_sums, _valid_times)
from .survival import escape_probability_aligned

DEFAULT_MODES = 10**5

#: F never exceeds 2 sum_{n>=2} n^2/(n^2-1)^2 = 2 (pi^2/12 + 1/16)
MODE_WEIGHT_TOTAL = math.pi**2 / 12.0 + 1.0 / 16.0
UPPER_BOUND = 2.0 * MODE_WEIGHT_TOTAL


@dataclass(frozen=True)
class UniversalCurve:
    """Samples of the limit profile on a uniform grid, with truncation record."""

    xi_grid: np.ndarray
    values: np.ndarray
    truncation: int
    tail_bound: float = 0.0

    def __post_init__(self):
        xi = np.asarray(self.xi_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if xi.shape != vals.shape or xi.ndim != 1 or xi.size < 2:
            raise ValueError("curve needs matching 1-d grids with >= 2 samples")
        object.__setattr__(self, "xi_grid", xi)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ValleyEntry:
    numerator: int         # q >= 0, with location == q / denominator_root^2
    denominator_root: int  # smallest p >= 2 that presents the location
    location: float
    depth: float


@dataclass(frozen=True)
class ValleyList:
    entries: tuple

    def locations(self) -> list[float]:
        return [e.location for e in self.entries]


def universal_function(xi, n_modes: int = DEFAULT_MODES):
    """Truncated evaluation of the limit profile at arbitrary xi.

    The function is periodic with period 1, so any finite xi is accepted.
    Terms fall off as 1/n^2; see universal_tail_bound for the cutoff error.
    Points on a lattice j/K are read off the residue-FFT profile; any other
    input is summed directly.
    """
    if n_modes < 2:
        raise ValueError("need at least the n = 2 mode")
    xs = _valid_times(xi, "xi", signed=True)
    lattice = _grid_numerators(xs, n_modes - 1)
    if lattice is not None:
        K, j = lattice
        return _grid_profile(K, n_modes)[j]
    n = np.arange(2, n_modes + 1, dtype=float)
    nsq = n * n
    weights = nsq / (1.0 - nsq) ** 2
    out = _direct_sums(xs, nsq, lambda p: weights * (1.0 - np.cos(2.0 * math.pi * p)))
    return out if np.ndim(xi) else float(out[0])


def _grid_profile(K: int, n_modes: int) -> np.ndarray:
    """F(j/K) for j = 0..K-1 from one residue FFT.

    The reference is the FFT's own bin 0, so F(0) is exactly 0.  Bins j and
    K - j hold the same cosine sum but the FFT rounds them differently, so
    both are read from j <= K/2 and F is exactly reflection symmetric.  F is
    a sum of non-negative terms; where they all vanish (n = 2 alone, at
    4j = 0 mod K) rounding leaves -1e-16, which is cut to 0.
    """
    n = np.arange(2, n_modes + 1, dtype=np.int64)
    nsq = n * n
    weights = nsq.astype(float) / (1.0 - nsq.astype(float)) ** 2
    cos_sums = _residue_sums(weights, nsq, K).real
    j = np.arange(K)
    return np.maximum(cos_sums[0] - cos_sums[np.minimum(j, K - j)], 0.0)


def universal_tail_bound(n_modes: int) -> float:
    """Exact bound 2 sum_{n > N} n^2/(n^2-1)^2 on the truncation error (~2/N)."""
    N = n_modes
    tail = 0.25 * (polygamma(1, N) + polygamma(1, N + 2) + 1.0 / N + 1.0 / (N + 1))
    return 2.0 * float(tail)


def universal_curve(intervals: int, n_modes: int = DEFAULT_MODES,
                    extra_points: int = 1) -> UniversalCurve:
    """Limit profile sampled on the uniform grid j/intervals.

    Covers [0, 1] plus ``extra_points`` periodic continuation samples, so a
    curve built with the default extends through 1 + spacing as needed by the
    length measurements.  Because every phase is 2 pi n^2 j / K, the sums for
    all j collapse onto residues n^2 mod K and are evaluated with one FFT;
    this matches direct summation to roundoff.
    """
    if intervals < 2:
        raise ValueError("need at least 2 grid intervals")
    if n_modes < 2:
        raise ValueError("need at least the n = 2 mode")
    K = int(intervals)
    idx = np.arange(K + 1 + extra_points)
    values = _grid_profile(K, n_modes)[idx % K]
    xi = idx / float(K)
    return UniversalCurve(xi_grid=xi, values=values, truncation=n_modes,
                          tail_bound=universal_tail_bound(n_modes))


def scaled_escape_limit(delta: float, xi_grid, n_modes: int = 2 * 10**4) -> UniversalCurve:
    """Scaled escape probability over one period, for comparison with the profile.

    Returns P(xi T) / (8 delta^2) on the given grid, where P is the escape
    probability measured against the rotating ground-mode reference
    (escape_probability_aligned); in that convention the delta -> 0 limit is
    exactly the universal profile.
    """
    if delta <= 0.0:
        raise ValueError("scaling by 8 delta^2 needs delta > 0")
    config = WellConfig(delta)
    xs = np.asarray(xi_grid, dtype=float)
    escape = escape_probability_aligned(config, xs * config.period, n_modes)
    scaled = escape / (8.0 * delta * delta)
    return UniversalCurve(xi_grid=xs, values=scaled, truncation=n_modes,
                          tail_bound=float("nan"))


def valley_locations(p_max: int, q_max: int | None = None,
                     spacing: float = 1e-4,
                     n_modes: int = DEFAULT_MODES) -> ValleyList:
    """Dips of the limit profile at rational points q/p^2 in [0, 1].

    Enumerates q/p^2 for 2 <= p <= p_max (q up to p^2, or ``q_max``),
    deduplicates equal locations in reduced form, and keeps the points that
    are strict local minima against neighbors ``spacing`` away.
    """
    if p_max < 2:
        raise ValueError("p_max must be >= 2")
    candidates: dict[Fraction, tuple[int, int]] = {}
    for p in range(2, p_max + 1):
        top = p * p if q_max is None else min(q_max, p * p)
        for q in range(0, top + 1):
            frac = Fraction(q, p * p)
            if 0 <= frac <= 1 and frac not in candidates:
                candidates[frac] = (q, p)
    locations = np.array([float(f) for f in candidates], dtype=float)
    # the profile is periodic and reflection symmetric, so probes slightly
    # outside [0, 1] are still meaningful
    probes = np.concatenate([locations, locations - spacing,
                             locations + spacing])
    values = universal_function(probes, n_modes)
    m = locations.size
    centers, left, right = values[:m], values[m:2 * m], values[2 * m:]
    entries = []
    for frac, (q, p), c, lo, hi in zip(candidates, candidates.values(),
                                       centers, left, right):
        if c < lo and c < hi:
            entries.append(ValleyEntry(numerator=q, denominator_root=p,
                                       location=float(frac),
                                       depth=float(c)))
    entries.sort(key=lambda e: e.location)
    return ValleyList(entries=tuple(entries))


def require_uniform(curve: UniversalCurve, spacing: float, rtol: float = 1e-9):
    """Validate that the curve is uniformly sampled at ``spacing``."""
    steps = np.diff(curve.xi_grid)
    if not np.allclose(steps, spacing, rtol=rtol, atol=0.0):
        raise GridMismatchError(
            f"curve spacing {steps.min():.6g}..{steps.max():.6g} does not "
            f"match the requested ruler {spacing:.6g}")
