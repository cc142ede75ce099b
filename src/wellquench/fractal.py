"""Curve-length fractal dimension of the limit profile and its phase sums.

The measured length of the profile's graph grows as l(eps) ~ eps^{-1/4} when
the ruler eps shrinks, i.e. the curve has length dimension D = 1 - slope =
1.25.  The scaling is driven by the quadratic phase sums
xi_m = sum_n sin(2 pi n^2 m eps), whose m-ensemble behaves like a nearly
normal deterministic "random" variable with standard deviation ~ eps^{-1/4}.
On a ruler lattice eps = 1/K, Parseval reads that deviation off the counts of
the residues n^2 mod K (phase_sum_spread), so ``fractal --sigma`` sums no phases.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSpanError
from .spectral import _lattice_sums, _ruler_period, _turns, _window_sums
from .survival import _power_law_fit
from .universal import _profile_modes, universal_curve


@dataclass(frozen=True)
class CurveLength:
    """Both length readings of a sampled curve at one ruler."""

    ruler: float
    chord: float       # sum sqrt(eps^2 + dF^2) / 4, two-sided differences
    variation: float   # sum |dF| / 2, the ruler-term-free simplification


@dataclass(frozen=True, eq=False)
class DimensionFit:
    """Log-log fit of length against ruler and the implied dimension."""

    slope: float
    residual: float     # RMS of the fit residuals in log space
    dimension: float = field(init=False)    # 1 - slope, from l(eps) ~ eps^{1 - D}

    def __post_init__(self):
        object.__setattr__(self, "dimension", 1.0 - self.slope)


@dataclass(frozen=True, eq=False)
class PhaseSumSample:
    """All quadratic phase sums for one ruler, with sample moments."""

    epsilon: float
    values: np.ndarray  # xi_m for m = 1..floor(1/eps), at least one
    cutoff: int = field(init=False)     # largest summed mode, floor(sqrt(1/(2 eps)))
    mean: float = field(init=False)
    std: float = field(init=False)      # population (ddof = 0)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.size == 0:
            raise ValueError("empty sample")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "cutoff", _cutoff(self.epsilon))
        object.__setattr__(self, "mean", float(values.mean()))
        object.__setattr__(self, "std", float(values.std(ddof=0)))


@dataclass(frozen=True, eq=False)
class NormalityReport:
    bin_edges: np.ndarray
    counts: np.ndarray
    skewness: float
    excess_kurtosis: float


def dimension_fit(epsilons, lengths) -> DimensionFit:
    """Least-squares slope of log l against log eps; dimension = 1 - slope.

    Fits by ``survival._power_law_fit``, then requires at least 5 rulers
    spanning at least two decades.
    """
    slope, residual = _power_law_fit(epsilons, lengths, ("rulers", "lengths"))
    eps = np.asarray(epsilons, dtype=float)
    if eps.size < 5:
        raise InsufficientSpanError(f"need >= 5 rulers, got {eps.size}")
    if eps.max() / eps.min() < 99.999:
        raise InsufficientSpanError(
            f"rulers span a factor {eps.max() / eps.min():.3g}; "
            "need at least two decades")
    return DimensionFit(slope=slope, residual=residual)


def profile_dimension(strides, base_intervals: int = 10**5,
                      n_modes: int = 10**5) -> tuple[DimensionFit, list[CurveLength]]:
    """Fit the limit profile's dimension to its chord lengths at a family of rulers.

    ``strides`` are integer multiples of the base spacing 1/base_intervals;
    the profile is sampled once on the base grid and every ruler eps reads
    its samples from it (exact for a periodic curve).  A ruler's lengths use
    the two-sided increments F(m eps + eps) - F(m eps - eps), m = 1..1/eps.
    """
    strides = sorted(strides)
    if not (strides and strides[0] >= 1
            and all(isinstance(s, numbers.Integral) for s in strides)):
        raise ValueError("strides must be positive integers")
    if base_intervals < strides[-1]:
        raise ValueError(f"base intervals {base_intervals} are fewer than the "
                         f"largest stride {strides[-1]}")
    base = universal_curve(base_intervals, n_modes,
                           extra_points=max(strides)).values
    lengths = []
    for stride in strides:
        eps = stride / float(base_intervals)
        samples = base[:(base_intervals // stride + 2) * stride:stride]
        diffs = samples[2:] - samples[:-2]
        lengths.append(CurveLength(
            ruler=eps, chord=float(np.sum(np.sqrt(eps * eps + diffs * diffs)) / 4.0),
            variation=float(0.5 * np.sum(np.abs(diffs)))))
    return dimension_fit([m.ruler for m in lengths], [m.chord for m in lengths]), lengths


def _cutoff(epsilon: float) -> int:
    """The largest mode n of the phase sums at ruler eps, floor(sqrt(1/(2 eps)))."""
    return int(math.floor(math.sqrt(1.0 / (2.0 * epsilon))))


def _ruler_modes(epsilon: float) -> tuple[np.ndarray, int]:
    """n^2 for n = 2..cutoff and the sample count floor(1/eps) of a ruler;
    refuses one that is not finite and positive or leaves no modes."""
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise ValueError(f"ruler must be finite and positive, got {epsilon}")
    cutoff = _cutoff(epsilon)
    if cutoff < 2:
        raise ValueError(f"ruler {epsilon:g} leaves no modes below the cutoff")
    return _profile_modes(cutoff)[0], int(math.floor(1.0 / epsilon))


def phase_sum_samples(epsilon: float) -> PhaseSumSample:
    """xi_m = sum_{n=2}^{cutoff} sin(2 pi n^2 m eps), m = 1..1/eps.

    Deterministic: the statistics are over the index m, never over a RNG.
    On a ruler lattice eps = 1/K (spectral._ruler_period) xi_m = Im B_m of
    one spectral._lattice_sums, a real-input FFT of K//2 + 1 bins whose
    conjugates give xi_{K-m} = -xi_m exactly (absolute error about 1e-16
    log2(K) cutoff).
    Any other ruler, one near 1/K too, makes m = 1..1/eps a window: with
    theta_n = frac(n^2 eps) in exact turns, xi_m = Im sum_n e^{2 pi i m
    theta_n} is one spectral._window_sums, a Gaussian spread (far fewer modes
    than samples), within cutoff (2e-14 + 2 pi m 5e-16) absolute of the sums
    over exact turns frac(n^2 m eps) (2e-8 at 1/eps = 8e4; 1e-10 measured).
    """
    nsq, count = _ruler_modes(epsilon)
    K = int(_ruler_period(epsilon))
    if K:
        sums = _lattice_sums(np.ones(nsq.size), nsq, K).imag
        values = np.concatenate([sums[1:], sums[:1]])[:count]  # m = 1..K
    else:
        values = _window_sums(_turns(nsq, epsilon), np.ones(nsq.size), count + 1)[1:].imag
    return PhaseSumSample(epsilon=epsilon, values=values)


def phase_sum_spread(epsilon: float) -> float:
    """phase_sum_samples(epsilon).std, without the samples on a ruler lattice.

    At eps = 1/K Parseval gives sum_{m<K} xi_m^2 = (K/2) sum_r h_r (h_r -
    h_{-r}) in integers, h_r the number of modes with n^2 = r mod K, and the
    mean is exactly 0 (xi_{K-m} = -xi_m, xi_K = 0): sigma, the root of it over
    floor(1/eps) samples, is rounded twice, within 4 ulps of the FFT route's
    std.  Other rulers read phase_sum_samples' window route.
    """
    nsq, count = _ruler_modes(epsilon)
    K = int(_ruler_period(epsilon))
    if not K:
        return phase_sum_samples(epsilon).std
    residues, h = np.unique(nsq % K, return_counts=True)
    _, r, minus_r = np.intersect1d(residues, -residues % K, assume_unique=True,
                                   return_indices=True)
    return math.sqrt(K * int(h @ h - h[r] @ h[minus_r]) / (2 * count))


def normality_diagnostics(sample: PhaseSumSample, bins: int = 61) -> NormalityReport:
    """Histogram plus standardized moments; reports, never judges.

    Standardises with the sample's own ``mean`` and ``std``; a sample of
    zero spread (one value, say) yields NaN moments.
    """
    values = sample.values
    counts, edges = np.histogram(values, bins=bins)
    if sample.std == 0.0:
        skew = kurt = float("nan")
    else:
        z = (values - sample.mean) / sample.std
        z2 = z * z
        skew = float(np.mean(z2 * z))
        kurt = float(np.mean(z2 * z2) - 3.0)
    return NormalityReport(bin_edges=edges, counts=counts,
                           skewness=skew, excess_kurtosis=kurt)


def phase_sum_scaling(epsilons) -> tuple[float, list[float]]:
    """Slope of log std against log eps (~ -1/4) by ``survival._power_law_fit``,
    which refuses one ruler or a repeated one, and each ``phase_sum_spread``."""
    rulers = [float(e) for e in epsilons]
    spreads = [phase_sum_spread(e) for e in rulers]
    return _power_law_fit(rulers, spreads, ("rulers", "deviations"))[0], spreads
