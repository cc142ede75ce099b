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
import numbers
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._special import trigamma
from .spectral import (WellConfig, _cis, _direct_sums, _lattice_read, _lattice_sums,
                       _shaped, _turns, _valid_times, _window_of, _window_sums)
from .survival import escape_probability_aligned

DEFAULT_MODES = 10**5

#: F never exceeds 2 sum_{n>=2} n^2/(n^2-1)^2 = 2 (pi^2/12 + 1/16)
MODE_WEIGHT_TOTAL = math.pi**2 / 12.0 + 1.0 / 16.0
UPPER_BOUND = 2.0 * MODE_WEIGHT_TOTAL


@dataclass(frozen=True, eq=False)
class UniversalCurve:
    """Samples of the limit profile on a uniform grid, with truncation record."""

    xi_grid: np.ndarray
    values: np.ndarray
    truncation: int
    tail_bound: float = math.nan  # no bound known

    def __post_init__(self):
        xi = np.asarray(self.xi_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if xi.shape != vals.shape or xi.ndim != 1 or xi.size < 2:
            raise ValueError("curve needs matching 1-d grids with >= 2 samples")
        object.__setattr__(self, "xi_grid", xi)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ValleyEntry:
    numerator: int         # q >= 0
    denominator_root: int  # smallest p >= 2 that presents the location
    depth: float
    location: float = field(init=False)  # q / p^2, correctly rounded

    def __post_init__(self):
        object.__setattr__(self, "location", self.numerator / self.denominator_root**2)


@dataclass(frozen=True)
class ValleyList:
    entries: tuple


def universal_function(xi, n_modes: int = DEFAULT_MODES):
    """Truncated evaluation of the limit profile at arbitrary xi.

    The function is periodic with period 1, so any finite xi is accepted.
    Terms fall off as 1/n^2; see universal_tail_bound for the cutoff error.
    The route follows the shape of ``xi`` (spectral._lattice_read, then
    spectral._window_of):

    - a lattice j/K is read off one residue FFT at the rational points, within
      1e-14 absolute of exact residues;
    - a window of P >= 8 evenly spaced points x0 + k h (a linspace) is one
      spectral._window_sums (binned on a zoom, N >= 32 P) plus a first-order
      correction for the offsets d of the inputs from x0 + k h (|d| <= 2 ulps
      of 1): against F at the inputs within (2e-14 + 2 pi P 5e-16) sum(w_n)
      from the transform and the turns' rounding, plus (2 pi^2 / 3) N^3 d^2
      from the correction, 1e-12 at P = 300 and N = 1e5, 2e-12 at N = 1e6;
    - anything else is summed directly over exact turns frac(n^2 xi), within
      1e-15 sum(w_n) absolute of F at the inputs; this route is the oracle
      the others are tested against.
    """
    xs = _valid_times(xi, "xi", signed=True)
    nsq, weights = _profile_modes(n_modes)
    b = _lattice_read(weights, nsq, xs)
    if b is not None:
        # F's terms are >= 0, but where all vanish (n = 2 alone, at 4j = 0 mod
        # K) rounding leaves -1e-16: the lattice and window reads cut F at 0
        return _shaped(np.maximum(b.real, 0.0), xi)
    window = _window_of(xs)
    if window is None:
        out = _direct_sums(
            xs, nsq, lambda t: (weights * (1.0 - np.cos(2.0 * math.pi * t))).sum(axis=-1))
    else:
        origin, step, offsets = window
        twisted = weights * _cis(_turns(nsq, origin))
        sums = _window_sums(_turns(nsq, step),
                            np.stack([twisted, 2.0 * math.pi * nsq * twisted]), xs.size)
        # F(x0 + k h + d) = F(x0 + k h) + d F'(x0 + k h) + O(d^2)
        out = np.maximum(weights.sum() - sums[0].real + offsets * sums[1].imag, 0.0)
    return _shaped(out, xi)


def _profile_modes(n_modes: int):
    """n^2 as integers and the weights n^2 / (1 - n^2)^2, for n = 2..n_modes;
    every profile reader takes its modes here, so this refuses n_modes < 2."""
    if not isinstance(n_modes, numbers.Integral) or n_modes < 2:
        raise ValueError(f"need at least the n = 2 mode, a whole number, got {n_modes!r}")
    nsq = np.arange(2, n_modes + 1, dtype=np.int64) ** 2
    weights = np.square(np.subtract(1.0, nsq))
    return nsq, np.divide(nsq, weights, out=weights)


def universal_tail_bound(n_modes: int) -> float:
    """Exact bound 2 sum_{n > N} n^2/(n^2-1)^2 on the truncation error (~2/N)."""
    if n_modes < 2:
        raise ValueError("need at least the n = 2 mode")
    N = n_modes
    tail = 0.25 * (trigamma(N) + trigamma(N + 2) + 1.0 / N + 1.0 / (N + 1))
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
    if not isinstance(intervals, numbers.Integral) or intervals < 2:
        raise ValueError(f"need at least 2 grid intervals, a whole number, got {intervals!r}")
    if not isinstance(extra_points, numbers.Integral) or extra_points < 0:
        raise ValueError(f"extra points must be a whole number >= 0, got {extra_points!r}")
    K = int(intervals)
    idx = np.arange(K + 1 + extra_points)
    nsq, weights = _profile_modes(n_modes)
    values = np.maximum(_lattice_sums(weights, nsq, K).real, 0.0)[idx % K]
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
    if 8.0 * delta * delta < sys.float_info.min:  # 0 or subnormal
        raise ValueError(f"wall shift {float(delta)!r} underflows the scaling by 8 delta^2")
    config = WellConfig(delta)
    xs = np.asarray(xi_grid, dtype=float)
    escape = escape_probability_aligned(config, xs * config.period, n_modes)
    scaled = escape / (8.0 * delta * delta)
    return UniversalCurve(xi_grid=xs, values=scaled, truncation=n_modes)


def valley_locations(p_max: int, spacing: float = 1e-4,
                     n_modes: int = DEFAULT_MODES) -> ValleyList:
    """Dips of the limit profile at rational points q/p^2 in [0, 1].

    Enumerates q/p^2 for 2 <= p <= p_max and 0 <= q <= p^2, deduplicates
    equal locations in reduced form, and keeps the points that are strict
    local minima against neighbors ``spacing`` (finite, > 0) away.  Each p
    costs one spectral._lattice_sums of length p^2 on the rows w_n and w_n
    cos, w_n sin of 2 pi n^2 s, s = ``spacing``: F(q/p^2) = Re B_w[q] and
    F(q/p^2 +- s) = F(s) + Re B_cos[q] +- Im B_sin[q], each within 1e-14
    absolute of exact residues.
    """
    if p_max < 2:
        raise ValueError("p_max must be >= 2")
    if not 0.0 < spacing < math.inf:
        raise ValueError(f"valley spacing must be finite and positive, got {spacing}")
    candidates: dict[Fraction, tuple[int, int]] = {}
    for p in range(2, p_max + 1):
        for q in range(0, p * p + 1):
            candidates.setdefault(Fraction(q, p * p), (q, p))
    # one mode table and one set of turns serve every p
    nsq, weights = _profile_modes(n_modes)
    angles = 2.0 * math.pi * _turns(nsq, spacing)
    rows = np.empty((3, nsq.size))
    rows[0] = weights
    np.cos(angles, out=rows[1])
    np.sin(angles, out=rows[2])
    rows[1:] *= weights
    f_s = weights.sum() - rows[1].sum()
    lattices = {p: _lattice_sums(rows, nsq, p * p) for p in range(2, p_max + 1)}
    # the profile is periodic, so q = p^2 reads the lattice at j = 0
    entries = []
    for q, p in candidates.values():
        c, u, v = lattices[p][:, q % (p * p)]
        depth = max(float(c.real), 0.0)
        # a valley lies below the lower of F(q/p^2 +- s)
        if depth < f_s + u.real - abs(v.imag):
            entries.append(ValleyEntry(numerator=q, denominator_root=p, depth=depth))
    entries.sort(key=lambda e: e.location)
    return ValleyList(entries=tuple(entries))
