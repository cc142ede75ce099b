"""Spectral representation of an eigenstate released by a sudden wall shift.

A particle sits in the ground state of a unit-width box (units 2m = 1,
hbar = 1).  At t = 0 the right wall jumps outward by ``delta``, so the state
suddenly lives in a box of width L = 1 + delta and evolves as a superposition
of the expanded-well modes sqrt(2/L) sin(n pi x / L) with energies
(pi n / L)^2.  Everything downstream (survival dynamics, the universal limit
profile, the fractal analysis) is built from the expansion coefficients
computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TruncationCapError

# Width of the removable-singularity window around n/L = 1, and the local
# expansion used inside it: sin(pi u)/(1 - u^2) -> (pi/2)(1 - e/2 + c2 e^2)
# with e = u - 1.  Switching at 1e-6 keeps both branches within one part in
# 1e9 of each other.
_SINGULAR_WINDOW = 1e-6
_EXPANSION_C2 = 0.25 - math.pi**2 / 6.0

DEFAULT_MODE_CAP = 10**6

#: most phases one block of a direct mode sum holds (128 MB of doubles)
_CHUNK_BUDGET = 2**24

#: largest lattice denominator K summed by residue FFT
_FFT_LIMIT = 2**23
# xs * K must lie this many ulps (of its largest entry) from an integer; the
# largest entry stays below 2**40 so that many ulps still pin one integer
_LATTICE_ULPS = 8
_LATTICE_SPAN = 2.0**40


@dataclass(frozen=True)
class WellConfig:
    """Geometry of the quench: wall shift, expanded width, revival period.

    ``width`` and ``period`` are derived, never set independently:
    width = 1 + delta and period = 2 width^2 / pi.
    """

    delta: float
    width: float = field(init=False)
    period: float = field(init=False)

    def __post_init__(self):
        delta = float(self.delta)
        if not np.isfinite(delta) or delta < 0.0:
            raise ValueError(f"wall shift must be finite and >= 0, got {delta}")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "width", 1.0 + delta)
        object.__setattr__(self, "period", 2.0 * self.width**2 / math.pi)


@dataclass(frozen=True)
class ModeCoefficients:
    """Expansion coefficients of the pre-quench ground state in the expanded basis."""

    values: np.ndarray      # a_n for n = 1..truncation
    truncation: int
    config: WellConfig

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size != self.truncation:
            raise ValueError("coefficient array must be 1-d with one entry per mode")
        object.__setattr__(self, "values", values)

    @property
    def completeness_deficit(self) -> float:
        """1 - sum(a_n^2); tends to 0 as the truncation grows."""
        return 1.0 - math.fsum(self.values * self.values)


@dataclass(frozen=True)
class DensityField:
    """|psi(x, t)|^2 sampled on a rectangular (t, x) grid."""

    x_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray      # shape (len(t_grid), len(x_grid))

    def __post_init__(self):
        if self.values.shape != (len(self.t_grid), len(self.x_grid)):
            raise ValueError("density matrix shape does not match the grids")


def mode_coefficients(config: WellConfig, n_modes: int) -> ModeCoefficients:
    """Overlaps a_n, n = 1..n_modes, of the pre-quench ground state.

    a_n = (2 / (pi sqrt(L))) sin(pi n / L) / (1 - (n/L)^2); the 0/0 point at
    n/L = 1 is filled with the analytic limit 1/sqrt(L) via a local expansion.
    """
    if n_modes < 1:
        raise ValueError("need at least one mode")
    L = config.width
    n = np.arange(1, n_modes + 1, dtype=float)
    u = n / L
    e = u - 1.0
    singular = np.abs(e) < _SINGULAR_WINDOW
    safe = np.where(singular, 2.0, u)  # keep the regular branch finite everywhere
    a = (2.0 / (math.pi * math.sqrt(L))) * np.sin(math.pi * safe) / (1.0 - safe * safe)
    if singular.any():
        es = e[singular]
        a[singular] = (1.0 / math.sqrt(L)) * (1.0 - es / 2.0 + _EXPANSION_C2 * es * es)
    return ModeCoefficients(values=a, truncation=n_modes, config=config)


def _valid_times(t, name: str = "time", signed: bool = False) -> np.ndarray:
    """``t`` as an array of at least one dimension; ValueError if any entry is
    NaN or infinite, or negative unless ``signed``."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.isfinite(ts).all():
        raise ValueError(f"{name} must be finite")
    if not signed and ts.size and ts.min() < 0.0:
        raise ValueError(f"{name} must be >= 0")
    return ts


def _residue_sums(weights, nsq, K: int) -> np.ndarray:
    """S_j = sum_n w_n exp(-2 pi i n^2 j / K) for j = 0..K-1.

    ``nsq`` holds the integers n^2.  A phase depends on n^2 only through its
    residue mod K, so the weights are binned by residue and one FFT gives
    every j.  Absolute error is about 1e-16 log2(K) sum |w_n|.
    """
    return np.fft.fft(np.bincount(nsq % K, weights, minlength=K))


def _direct_sums(points: np.ndarray, rates: np.ndarray, terms) -> np.ndarray:
    """S_i = sum_n terms(points_i * rates_n)[n] for every point.

    ``terms`` maps a block of phases (points down, modes across) to the
    summands of the same shape.  Blocks hold whole rows of at most
    _CHUNK_BUDGET phases, so each S_i is one sum over every n and the budget
    sets the memory, never the bits.
    """
    chunk = max(1, _CHUNK_BUDGET // max(1, rates.size))
    # an empty input still makes one (empty) block, which sets the dtype
    return np.concatenate([terms(np.outer(points[i:i + chunk], rates)).sum(axis=1)
                           for i in range(0, max(1, points.size), chunk)])


def _grid_numerators(xs: np.ndarray, n_terms: int):
    """(K, j) with ``xs`` equal to j / K up to rounding, j reduced mod K.

    K is the inverse of the first step and must be an integer no larger than
    _FFT_LIMIT or than ``n_terms * xs.size`` (beyond that one FFT of length K
    costs more than summing ``n_terms`` modes at each point); every xs * K
    must then be within a few ulps of an integer.  Returns None otherwise,
    and the caller sums the modes directly.
    """
    if xs.size < 2:
        return None
    inverse = 1.0 / abs(xs[1] - xs[0]) if xs[1] != xs[0] else math.inf
    if not 0.5 <= inverse < min(_FFT_LIMIT, n_terms * xs.size) + 0.5:
        return None
    K = round(inverse)
    if abs(inverse - K) > 1e-6 * K:
        return None
    scaled = xs * K
    j = np.rint(scaled)
    span = float(np.abs(scaled).max())
    if (span >= _LATTICE_SPAN or np.abs(scaled - j).max()
            > _LATTICE_ULPS * np.finfo(float).eps * span):
        return None
    return K, np.mod(j, K).astype(np.int64)


def mode_energies(config: WellConfig, n_modes: int) -> np.ndarray:
    """Energies (pi n / L)^2 of the expanded-well modes, n = 1..n_modes."""
    n = np.arange(1, n_modes + 1, dtype=float)
    return (math.pi * n / config.width) ** 2


def wavefunction(config: WellConfig, coeffs: ModeCoefficients, x, t: float) -> np.ndarray:
    """Evolved state psi(x, t) = sqrt(2/L) sum_n a_n sin(n pi x/L) e^{-i E_n t}.

    ``x`` may be a scalar or an array inside [0, width]; returns complex
    amplitudes of the same shape.
    """
    if coeffs.config != config:
        raise ValueError("coefficients were computed for a different well")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if x_arr.min() < 0.0 or x_arr.max() > config.width * (1.0 + 1e-12):
        raise ValueError(f"position outside [0, {config.width}]")
    _valid_times(t)
    L = config.width
    a = coeffs.values
    energies = mode_energies(config, coeffs.truncation)
    phased = a * np.exp(-1j * energies * t)
    out = np.zeros(x_arr.shape, dtype=complex)
    # chunk over modes to bound the (modes x positions) workspace
    chunk = max(1, int(2**22 / max(1, x_arr.size)))
    n = np.arange(1, coeffs.truncation + 1, dtype=float)
    for i in range(0, coeffs.truncation, chunk):
        sl = slice(i, i + chunk)
        out += phased[sl] @ np.sin(np.outer(n[sl], math.pi * x_arr / L))
    out *= math.sqrt(2.0 / L)
    return out if np.ndim(x) else out[0]


def density_field(config: WellConfig, coeffs: ModeCoefficients,
                  x_grid, t_grid) -> DensityField:
    """|psi|^2 on the product of sorted grids; rows indexed by time."""
    x_grid = np.asarray(x_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    for g, name in ((x_grid, "x"), (t_grid, "t")):
        if g.ndim != 1 or g.size == 0 or np.any(np.diff(g) < 0):
            raise ValueError(f"{name} grid must be non-empty and sorted ascending")
    if x_grid[0] < 0.0 or x_grid[-1] > config.width * (1.0 + 1e-12):
        raise ValueError(f"positions outside [0, {config.width}]")
    _valid_times(t_grid)
    L = config.width
    a = coeffs.values
    energies = mode_energies(config, coeffs.truncation)
    n = np.arange(1, coeffs.truncation + 1, dtype=float)
    psi = np.zeros((t_grid.size, x_grid.size), dtype=complex)
    # accumulate (times x modes) @ (modes x positions) in mode blocks
    chunk = max(1, int(2**22 / max(1, max(t_grid.size, x_grid.size))))
    for i in range(0, coeffs.truncation, chunk):
        sl = slice(i, i + chunk)
        phased = a[sl] * np.exp(-1j * np.outer(t_grid, energies[sl]))
        psi += phased @ np.sin(np.outer(n[sl], math.pi * x_grid / L))
    rows = (2.0 / L) * np.abs(psi) ** 2
    return DensityField(x_grid=x_grid, t_grid=t_grid, values=rows)


def _tail_correction(config: WellConfig, n_modes: int) -> float:
    """Upper bound on 1/(1 - (L/n)^2)^2 over the tail n > n_modes."""
    ratio = config.width / (n_modes + 1)
    if ratio >= 1.0:
        raise ValueError("truncation must exceed the well width in mode units")
    return (1.0 / (1.0 - ratio * ratio)) ** 2


def coefficient_tail_bound(config: WellConfig, n_modes: int) -> float:
    """Bound on the completeness deficit sum_{n > N} a_n^2.

    Uses a_n^2 <= (4 L^3 / pi^2) corr / n^4 with sin^2 <= 1 and the integral
    comparison sum_{n > N} n^-4 < 1/(3 N^3).
    """
    L = config.width
    corr = _tail_correction(config, n_modes)
    return (4.0 * L**3 / math.pi**2) * corr / (3.0 * n_modes**3)


def survival_tail_bound(config: WellConfig, n_modes: int) -> float:
    """Bound on how much any further modes can move the escape probability.

    Adding modes beyond N changes the survival amplitude by at most
    tau = coefficient_tail_bound, hence 1 - |A|^2 by at most 2 tau + tau^2.
    """
    tau = coefficient_tail_bound(config, n_modes)
    return 2.0 * tau + tau * tau


_TAIL_BOUNDS = {
    "coefficients": coefficient_tail_bound,
    "survival": survival_tail_bound,
}


def truncation_for_tolerance(config: WellConfig, observable: str, tol: float,
                             hard_cap: int = DEFAULT_MODE_CAP) -> int:
    """Smallest mode count whose analytic tail bound falls below ``tol``.

    ``observable`` selects the bound: "coefficients" bounds the completeness
    deficit, "survival" bounds the reachable change in the escape
    probability.  Monotone nonincreasing in ``tol``.  Raises
    TruncationCapError when even ``hard_cap`` modes are not enough.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    try:
        bound = _TAIL_BOUNDS[observable]
    except KeyError:
        raise ValueError(f"unknown observable {observable!r}; "
                         f"expected one of {sorted(_TAIL_BOUNDS)}") from None
    n_min = max(2, math.ceil(config.width))
    if bound(config, n_min) <= tol:
        return n_min
    if bound(config, hard_cap) > tol:
        raise TruncationCapError(
            f"tolerance {tol:g} for {observable!r} needs more than "
            f"{hard_cap} modes")
    lo, hi = n_min, hard_cap
    while hi - lo > 1:  # bound is monotone decreasing in N
        mid = (lo + hi) // 2
        if bound(config, mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi
