"""Curve-length fractal dimension of the limit profile and its phase sums.

The measured length of the profile's graph grows as l(eps) ~ eps^{-1/4} when
the ruler eps shrinks, i.e. the curve has length dimension D = 1 - slope =
1.25.  The scaling is driven by the quadratic phase sums
xi_m = sum_n sin(2 pi n^2 m eps), whose m-ensemble behaves like a nearly
normal deterministic "random" variable with standard deviation ~ eps^{-1/4}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InsufficientSpanError
from .spectral import _lattice_sums, _ruler_period, _turns, _window_sums
from .universal import UniversalCurve, _profile_modes, require_uniform, universal_curve


@dataclass(frozen=True)
class CurveLength:
    """Both length readings of a sampled curve at one ruler."""

    ruler: float
    chord: float       # sum sqrt(eps^2 + dF^2) / 4, two-sided differences
    variation: float   # sum |dF| / 2, the ruler-term-free simplification


@dataclass(frozen=True)
class DimensionFit:
    """Log-log fit of length against ruler and the implied dimension."""

    epsilons: np.ndarray
    lengths: np.ndarray
    slope: float
    dimension: float    # 1 - slope, from l(eps) ~ eps^{1 - D}
    residual: float     # RMS of the fit residuals in log space


@dataclass(frozen=True)
class PhaseSumSample:
    """All quadratic phase sums for one ruler, with sample moments."""

    epsilon: float
    cutoff: int         # largest summed mode index, floor(sqrt(1/(2 eps)))
    values: np.ndarray  # xi_m for m = 1..floor(1/eps)
    mean: float
    std: float


@dataclass(frozen=True)
class NormalityReport:
    bin_edges: np.ndarray
    counts: np.ndarray
    mean: float
    std: float
    skewness: float
    excess_kurtosis: float


def curve_length(curve: UniversalCurve, epsilon: float) -> CurveLength:
    """Length of the sampled curve measured with ruler ``epsilon``.

    The curve must be uniformly sampled at exactly ``epsilon`` and cover
    [0, 1 + epsilon] (one continuation sample past the period).  Uses the
    two-sided increments F(m eps + eps) - F(m eps - eps) for m = 1..1/eps.
    """
    require_uniform(curve, epsilon)
    steps = int(math.floor(1.0 / epsilon * (1.0 + 1e-12)))
    if curve.values.size < steps + 2:
        raise GridMismatchError(
            f"curve has {curve.values.size} samples but ruler {epsilon:g} "
            f"needs {steps + 2} covering [0, 1 + eps]")
    m = np.arange(1, steps + 1)
    diffs = curve.values[m + 1] - curve.values[m - 1]
    chord = float(np.sum(np.sqrt(epsilon * epsilon + diffs * diffs)) / 4.0)
    variation = float(0.5 * np.sum(np.abs(diffs)))
    return CurveLength(ruler=epsilon, chord=chord, variation=variation)


def dimension_fit(epsilons, lengths) -> DimensionFit:
    """Least-squares slope of log l against log eps; dimension = 1 - slope.

    Requires at least 5 rulers spanning at least two decades.
    """
    eps = np.asarray(epsilons, dtype=float)
    ls = np.asarray(lengths, dtype=float)
    if eps.shape != ls.shape or eps.ndim != 1:
        raise ValueError("epsilons and lengths must be matching 1-d arrays")
    for name, values in (("rulers", eps), ("lengths", ls)):
        if not (np.isfinite(values).all() and (values > 0.0).all()):
            raise ValueError(f"{name} must be finite and positive")
    if eps.size < 5:
        raise InsufficientSpanError(f"need >= 5 rulers, got {eps.size}")
    if eps.max() / eps.min() < 99.999:
        raise InsufficientSpanError(
            f"rulers span a factor {eps.max() / eps.min():.3g}; "
            "need at least two decades")
    log_e, log_l = np.log(eps), np.log(ls)
    slope, intercept = np.polyfit(log_e, log_l, 1)
    residual = float(np.sqrt(np.mean((log_l - slope * log_e - intercept) ** 2)))
    order = np.argsort(eps)[::-1]
    return DimensionFit(epsilons=eps[order], lengths=ls[order],
                        slope=float(slope), dimension=1.0 - float(slope),
                        residual=residual)


def profile_dimension(strides, base_intervals: int = 10**5,
                      n_modes: int = 10**5) -> tuple[DimensionFit, list[CurveLength]]:
    """Fit the limit profile's dimension to its chord lengths at a family of rulers.

    ``strides`` are integer multiples of the base spacing 1/base_intervals;
    the profile is sampled once on the base grid and subsampled per ruler
    (exact for a periodic curve).
    """
    strides = sorted(int(s) for s in strides)
    base_intervals = int(base_intervals)
    if not strides or strides[0] < 1:
        raise ValueError("strides must be positive integers")
    if base_intervals < strides[-1]:
        raise ValueError(f"base intervals {base_intervals} are fewer than the "
                         f"largest stride {strides[-1]}")
    base = universal_curve(base_intervals, n_modes,
                           extra_points=max(strides))
    lengths = []
    for stride in strides:
        eps = stride / float(base_intervals)
        steps = base_intervals // stride
        idx = np.arange(0, (steps + 2) * stride, stride)
        sub = UniversalCurve(xi_grid=idx / float(base_intervals),
                             values=base.values[idx],
                             truncation=n_modes,
                             tail_bound=base.tail_bound)
        lengths.append(curve_length(sub, eps))
    return dimension_fit([m.ruler for m in lengths], [m.chord for m in lengths]), lengths


def phase_sum_samples(epsilon: float) -> PhaseSumSample:
    """xi_m = sum_{n=2}^{cutoff} sin(2 pi n^2 m eps), m = 1..1/eps.

    Deterministic: the statistics are over the index m, never over a RNG.
    On a ruler lattice eps = 1/K (spectral._ruler_period) xi_m = Im B_m of
    one spectral._lattice_sums (absolute error about 1e-16 log2(K) cutoff).
    Any other ruler, one near 1/K too, makes m = 1..1/eps a window: with
    theta_n = frac(n^2 eps) in exact turns, xi_m = Im sum_n e^{2 pi i m
    theta_n} is one non-uniform FFT, within cutoff (2e-14 + 2 pi m 5e-16)
    absolute of the sums over exact turns frac(n^2 m eps) (2e-8 at
    1/eps = 8e4, where 1e-10 is measured).
    """
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise ValueError(f"ruler must be finite and positive, got {epsilon}")
    cutoff = int(math.floor(math.sqrt(1.0 / (2.0 * epsilon))))
    if cutoff < 2:
        raise ValueError(f"ruler {epsilon:g} leaves no modes below the cutoff")
    count = int(math.floor(1.0 / epsilon))
    nsq, _ = _profile_modes(cutoff)
    K = int(_ruler_period(epsilon))
    if K:
        sums = _lattice_sums(np.ones(nsq.size), nsq, K).imag
        values = np.concatenate([sums[1:], sums[:1]])[:count]  # m = 1..K
    else:
        values = _window_sums(_turns(nsq, epsilon), np.ones(nsq.size), count + 1)[1:].imag
    return PhaseSumSample(epsilon=epsilon, cutoff=cutoff, values=values,
                          mean=float(values.mean()),
                          std=float(values.std(ddof=0)))


def normality_diagnostics(sample: PhaseSumSample, bins: int = 61) -> NormalityReport:
    """Histogram plus standardized moments; reports, never judges.

    A single-point (or otherwise degenerate) sample yields NaN moments.
    """
    values = sample.values
    if values.size == 0:
        raise ValueError("empty sample")
    counts, edges = np.histogram(values, bins=bins)
    std = float(values.std(ddof=0))
    if values.size < 2 or std == 0.0:
        skew = kurt = float("nan")
    else:
        z = (values - values.mean()) / std
        skew = float(np.mean(z**3))
        kurt = float(np.mean(z**4) - 3.0)
    return NormalityReport(bin_edges=edges, counts=counts,
                           mean=float(values.mean()), std=std,
                           skewness=skew, excess_kurtosis=kurt)


def phase_sum_scaling(epsilons) -> tuple[float, list[PhaseSumSample]]:
    """Slope of log std against log eps over the given rulers (~ -1/4)."""
    samples = [phase_sum_samples(float(e)) for e in epsilons]
    eps = np.array([s.epsilon for s in samples])
    stds = np.array([s.std for s in samples])
    slope, _ = np.polyfit(np.log(eps), np.log(stds), 1)
    return float(slope), samples
