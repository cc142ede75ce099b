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

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from ._special import veltkamp
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

#: longest FFT: of a lattice (its denominator K) or of one window segment
_FFT_LIMIT = 2**23
# xs * K must lie this many ulps (of its largest entry) from an integer; the
# largest entry stays below 2**40 so that many ulps still pin one integer
_LATTICE_ULPS = 8
_LATTICE_SPAN = 2.0**40

#: ulps of kP within which every t_j + t_{T-1-j} must lie for density_field
#: to copy row j of a time grid to row T-1-j
_MIRROR_ULPS = 4

#: largest prime factor of a length seen to keep numpy's FFT off Bluestein's
#: route (331 did; 881 did not)
_DIRECT_PRIME = 512

#: fewest points summed as a window; below, the direct route costs less
_WINDOW_MIN = 32
# a window point must lie this many ulps of 1 from its grid point, which keeps
# the second-order error of the offset correction, (2 pi^2 / 3) N^3 d^2,
# below 2e-12 for N <= 1e6 modes
_WINDOW_ULPS = 2
#: most modes or bins in one block of stacked lattice rows: small enough to
#: stay in cache and to reuse the allocator's pages from block to block
_ROW_BLOCK = 2**15
#: fewest sources per frequency that bin a window segment; spreading ties at 16-32
_BIN_MIN = 32


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
        delta = _valid_shift(self.delta)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "width", 1.0 + delta)
        try:
            period = 2.0 * self.width**2 / math.pi
        except OverflowError:
            raise ValueError(f"wall shift {delta!r} overflows the revival period") from None
        object.__setattr__(self, "period", period)


@dataclass(frozen=True, eq=False)
class ModeCoefficients:
    """Expansion coefficients of the pre-quench ground state in the expanded
    basis, and the mode table every mode sum reads (derived, never set)."""

    values: np.ndarray      # a_n for n = 1..truncation
    config: WellConfig
    truncation: int = field(init=False)         # len(values)
    weights: np.ndarray = field(init=False)     # a_n^2
    energies: np.ndarray = field(init=False)    # E_n = (pi n / L)^2

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("coefficient array must be 1-d")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "truncation", values.size)
        object.__setattr__(self, "weights", values * values)
        object.__setattr__(self, "energies", mode_energies(self.config, self.truncation))

    @property
    def completeness_deficit(self) -> float:
        """1 - sum(a_n^2); tends to 0 as the truncation grows."""
        return 1.0 - math.fsum(self.weights)


def mode_coefficients(config: WellConfig, n_modes: int) -> ModeCoefficients:
    """Overlaps a_n, n = 1..n_modes, of the pre-quench ground state.

    a_n = (2 / (pi sqrt(L))) sin(pi n / L) / (1 - (n/L)^2); the 0/0 point at
    n/L = 1 is filled with the analytic limit 1/sqrt(L) via a local expansion.
    """
    if n_modes < 1:
        raise ValueError("need at least one mode")
    L = config.width
    u = np.arange(1, n_modes + 1, dtype=float)
    u /= L
    singular = np.abs(u - 1.0) < _SINGULAR_WINDOW
    safe = np.where(singular, 2.0, u)  # keep the regular branch finite everywhere
    # (2 / (pi sqrt(L))) sin(pi safe) / (1 - safe^2), each step in place
    a = np.multiply(math.pi, safe)
    np.sin(a, out=a)
    a *= 2.0 / (math.pi * math.sqrt(L))
    a /= np.subtract(1.0, np.square(safe, out=safe), out=safe)
    if singular.any():
        es = u[singular] - 1.0
        a[singular] = (1.0 / math.sqrt(L)) * (1.0 - es / 2.0 + _EXPANSION_C2 * es * es)
    return ModeCoefficients(values=a, config=config)


def _valid_times(t, name: str = "time", signed: bool = False) -> np.ndarray:
    """The points of ``t`` as a flat array; ValueError if any entry is NaN or
    infinite, or negative unless ``signed``."""
    ts = np.asarray(t, dtype=float).ravel()
    if not np.isfinite(ts).all():
        raise ValueError(f"{name} must be finite")
    if not signed and ts.size and ts.min() < 0.0:
        raise ValueError(f"{name} must be >= 0")
    return ts


def _shaped(out: np.ndarray, t):
    """``out``, a value per point of ``t``, shaped as ``t``; one number for a scalar."""
    return out.reshape(np.shape(t)) if np.ndim(t) else out.item()


def _valid_shift(delta) -> float:
    """``delta`` as a float; ValueError unless it is one finite number >= 0."""
    if np.ndim(delta) != 0:
        raise ValueError("wall shift must be a scalar")
    delta = float(delta)
    if not math.isfinite(delta) or delta < 0.0:
        raise ValueError(f"wall shift must be finite and >= 0, got {delta}")
    return delta


def _turns(nsq, x) -> np.ndarray:
    """frac(nsq * x) in [0, 1], broadcast, for integers ``nsq`` and floats ``x``.

    ``x`` is cut into pieces of 53 - bitlen(max nsq) bits, so that every
    product nsq * piece is exact and its fraction is taken without rounding;
    the last piece leaves less than one turn.  Absolute error at most two
    ulps of 1 (4.4e-16 turns, typically 1e-16), where the plain product
    nsq * x loses bitlen(nsq * x) bits.
    """
    nsq = np.asarray(nsq)
    length = max(1, int(np.max(nsq, initial=1)).bit_length())
    bits = max(1, 53 - length)
    rest = np.modf(np.asarray(x, dtype=float))[0]
    shape = np.broadcast_shapes(nsq.shape, rest.shape)
    out, product, whole = np.zeros(shape), np.empty(shape), np.empty(shape)
    rates = nsq.astype(float)
    scale = 1.0
    for _ in range(-(-length // bits)):
        scale *= 2.0**bits
        piece = np.trunc(rest * scale) / scale
        rest = rest - piece
        np.multiply(rates, piece, out=product)
        out += np.modf(product, out=(product, whole))[0]
    out += np.multiply(rates, rest, out=product)
    np.modf(out, out=(out, whole))
    out += out < 0.0
    return out


def _expi(angle) -> np.ndarray:
    """e^{i angle}: np.exp(1j angle)'s bits, its cos and sin written in place."""
    out = np.empty(np.shape(angle), dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _cis(turns) -> np.ndarray:
    """e^{2 pi i t}, np.exp(2j pi t)'s bits."""
    return _expi(2.0 * math.pi * np.asarray(turns))


def _phased(values, energies, ts) -> np.ndarray:
    """c_n(t) = a_n e^{-i E_n t}, rows over ``ts``: the bits of
    values * np.exp(-1j * np.outer(ts, energies))."""
    c = _expi(np.outer(-ts, energies))
    c *= values
    return c


def _twist(weights, nsq, origin: float) -> np.ndarray:
    """The weights w_n e^{-2 pi i r_n origin}, their phases taken in exact turns."""
    return weights * _cis(-_turns(nsq, origin))


def _real_dft(x) -> np.ndarray:
    """np.fft.rfft(x) along the last axis of a real x of length K, each row of a
    stack to its bits alone, within 1e-16 log2(K) sum |x_n|.

    numpy takes Bluestein's route, at K ~ 1e5 ten times the time and six
    times the memory of a smooth K, when K's largest prime factor P is above
    _DIRECT_PRIME; if P < K, one Cooley-Tukey step K = a P is taken instead.
    """
    K, P, f = x.shape[-1], x.shape[-1], 2
    while f * f <= P:
        P, f = (P, f + 1) if P % f else (P // f, f)
    if P <= _DIRECT_PRIME or P == K:
        return np.fft.rfft(x)
    a, h = K // P, P // 2 + 1
    # X_{P k1 + k2} = sum_n1 e^{-2 pi i n1 (k1/a + k2/K)} sum_n2 x_{n1 + a n2} e^{-2 pi i n2 k2/P}
    rows = x.shape[:-1]
    inner = np.fft.rfft(x.reshape(rows + (P, a)).swapaxes(-1, -2), axis=-1)
    inner *= _cis(-(np.outer(np.arange(a), np.arange(h)) % K) / K)
    out = np.empty(rows + (a, P), dtype=complex)
    out[..., :h] = np.fft.fft(inner, axis=-2)
    np.conjugate(out[..., ::-1, P - h:0:-1], out=out[..., h:])  # X_{K-k} = conj X_k
    return out.reshape(rows + (K,))[..., :K // 2 + 1]


def _binned(residues, weights, K: int) -> np.ndarray:
    """np.bincount(residues, w, minlength=K) for each row w of ``weights``, a
    stack in one bincount whose rows' bins lie K apart: each row's bits alone."""
    rows = weights.shape[:-1]
    if rows:
        residues = residues + K * np.arange(math.prod(rows)).reshape(rows + (1,))
    return np.bincount(residues.ravel(), weights.ravel(),
                       minlength=math.prod(rows) * K).reshape(rows + (K,))


def _lattice_sums(weights, nsq, K: int, origin: float = 0.0,
                  twisted=None) -> np.ndarray:
    """B_j = sum_n w_n (1 - exp(-2 pi i r_n (origin + j/K))) for j = 0..K-1,
    along the last axis of a stack of weight rows that share the rates.

    The rates r_n = ``nsq`` are integers: n^2 for the phase sums, n for the
    wavefunction on a grid (whose sines are Im B).  A phase depends on r_n
    only through its residue mod K, so the real weights are binned by
    residue and one FFT gives every S_j = sum_n w_n e^{-2 pi i r_n j/K}.  At
    origin 0 the binned weights are real: one real-input FFT (Sorensen et
    al., IEEE TASSP 35 (1987) 849; ``_real_dft``) gives the K//2 + 1 bins
    j <= K/2, B_j = Re S_0 - S_j there, and B_{K-j} = conj B_j fills the
    rest, so B_0 is exactly 0 and B exactly Hermitian.  Elsewhere the
    weights are twisted by e^{-2 pi i r_n origin} in exact turns and B =
    sum w_n - S; a caller that reads one origin at several K passes those
    weights once, as ``twisted = _twist(weights, nsq, origin)``.  Absolute
    error about 1e-16 log2(K) sum |w_n|.
    """
    residues = nsq % K
    if origin:
        if twisted is None:
            twisted = _twist(weights, nsq, origin)
        sums = np.fft.fft(_binned(residues, twisted.real, K)
                          + 1j * _binned(residues, twisted.imag, K))
        return np.subtract(weights.sum(axis=-1, keepdims=True), sums, out=sums)
    half = _real_dft(_binned(residues, weights, K))
    np.subtract(half[..., :1].real, half, out=half)
    # j > K/2 reads conj B_{K-j}, K - j running from (K-1)//2 down to 1
    return np.concatenate((half, half[..., (K + 1) // 2 - 1:0:-1].conj()), axis=-1)


def _ruler_period(epsilon):
    """K = rint(1/eps) <= _FFT_LIMIT if the points m eps lie on j/K by
    _lattice_of's rule, |eps K - 1| <= _LATTICE_ULPS ulps of 1; else 0.  Not
    _lattice_of itself: on the K points that costs more than the phase sums."""
    K = np.rint(1.0 / epsilon)
    exact = np.abs(epsilon * K - 1.0) <= _LATTICE_ULPS * np.finfo(float).eps
    return np.where(exact & (K <= _FFT_LIMIT), K, 0).astype(np.int64)


def _window_sums(theta, c, P: int) -> np.ndarray:
    """S_k = sum_n c_n exp(2 pi i k theta_n) for k = 0..P-1.

    A type-1 non-uniform FFT of one row of weights ``c`` or a stack of rows
    sharing theta, in segments of at most _FFT_LIMIT / 32 frequencies centred
    on their middle k by twisting the weights with exact turns.  With _BIN_MIN
    or more sources per frequency, theta_n cells = j_n + e_n, j_n the nearest
    of cells >= 16 size, and the segment is sum_p (2 pi i kappa / cells)^p / p!
    FFT(bin(c e^p)) while (pi max|kappa| / cells)^p / p! >= 1e-17 (Anderson &
    Dahleh, SIAM J. Sci. Comput. 17 (1996) 913); with fewer, a Gaussian spreads
    each source on 2.5 size < cells <= 5 size (Greengard & Lee, SIAM Rev. 46
    (2004) 443).  For exact theta the absolute error is below 2e-15 sum |c_n|
    binned, 2e-14 spread; a rounding d_n of theta adds 2 pi k |d_n| |c_n|.
    """
    rows = np.atleast_2d(c)
    out = np.zeros((rows.shape[0], P), dtype=complex)
    for first in range(0, P, _FFT_LIMIT // 32):
        size = min(_FFT_LIMIT // 32, P - first)
        kappa = np.arange(size) - size // 2
        twisted = rows * _cis(_turns(first + size // 2, theta))
        binned = theta.size >= _BIN_MIN * size
        cells = 1 << (16 * size - 1 if binned else 5 * size // 2).bit_length()
        cell = np.rint(theta * cells)
        # cells is a power of two: the mask is the non-negative remainder
        offsets, index = theta * cells - cell, cell.astype(np.int64) & (cells - 1)
        grid = np.zeros((rows.shape[0], cells), dtype=complex)
        if binned:  # one pass over the sources per term
            x = math.pi * np.abs(kappa).max() / cells
            for p in range(next(p for p in range(1, 64) if x**p / math.factorial(p) < 1e-17)):
                grid[:] = 0.0
                for row, weights in zip(grid, twisted):
                    np.add.at(row, index, weights)
                out[:, first:first + size] += ((2j * math.pi / cells) * kappa) ** p / (
                    math.factorial(p)) * np.fft.ifft(grid, norm="forward")[:, kappa % cells]
                twisted *= offsets
            continue
        # S and the width a equalise the cut-off and aliasing errors (README)
        S = math.ceil(32.6 * (2 * cells - size) / (2 * math.pi * (cells - size)) - 0.5)
        a = 2 * math.pi * (S + 0.5) * cells / (2 * cells - size)
        for s in range(-S, S + 1):
            kernel = np.exp(-(math.pi**2 / a) * (offsets - s) ** 2)
            for row, weights in zip(grid, twisted):
                np.add.at(row, (index + s) & (cells - 1), weights * kernel)
        out[:, first:first + size] = np.fft.ifft(grid, norm="forward", out=grid)[
            :, kappa % cells] * (math.sqrt(math.pi / a) * np.exp(a * (kappa / cells) ** 2))
    return out if np.ndim(c) > 1 else out[0]


def _direct_sums(points: np.ndarray, rates: np.ndarray, terms) -> np.ndarray:
    """S_i = sum_n terms(points_i * rates_n)[..., n] for every point.

    ``terms`` maps a block of phases (points down, modes across) to the
    summands, modes along the last axis: one block of the same shape, or a
    stack of such blocks, whose sums come back stacked the same way.  Integer
    ``rates`` give the block the exact turns frac(points_i * rates_n)
    instead.  Blocks hold whole rows of at most _CHUNK_BUDGET phases, so each
    S_i is one sum over every n and the budget sets the memory, never the bits.
    """
    chunk = max(1, _CHUNK_BUDGET // max(1, rates.size))
    phases = (lambda x: _turns(rates, x[:, None])) if rates.dtype.kind in "iu" else (
        lambda x: np.outer(x, rates))
    # an empty input still makes one (empty) block, which sets the dtype
    return np.concatenate([terms(phases(points[i:i + chunk])).sum(axis=-1)
                           for i in range(0, max(1, points.size), chunk)], axis=-1)


def _lattice_of(xs: np.ndarray, n_terms: int) -> tuple[int, float, np.ndarray] | None:
    """(K, origin, index) with xs = origin + index / K up to rounding, the
    integers ``index`` reduced mod K, if ``xs`` lies on the lattice j / K or,
    tried next, on xs[0] + j / K; else None.  K is the inverse of the first
    step and must be an integer no larger than _FFT_LIMIT or than ``n_terms *
    xs.size`` (beyond that one FFT of length K costs more than summing
    ``n_terms`` modes at each point); every (xs - origin) * K must then be
    within a few ulps of an integer."""
    if xs.size < 2:
        return None
    # decide on the step before inverting it: 1 / a subnormal step overflows
    step = abs(xs[1] - xs[0])
    inverse = 1.0 / step if step > 0.5 / _FFT_LIMIT else math.inf
    limit = min(_FFT_LIMIT, n_terms * xs.size)
    K = round(inverse) if 0.5 <= inverse < limit + 0.5 else 0
    if not K or abs(inverse - K) > 1e-6 * K:
        return None
    span = float(np.abs(xs * K).max())
    for origin in (0.0, float(xs[0])):
        scaled = (xs - origin) * K
        j = np.rint(scaled)
        if (span < _LATTICE_SPAN and np.abs(scaled - j).max()
                <= _LATTICE_ULPS * np.finfo(float).eps * span):
            return K, origin, np.mod(j, K).astype(np.int64)
    return None


def _lattice_read(weights, rates, xs: np.ndarray) -> np.ndarray | None:
    """B of ``_lattice_sums`` at ``xs`` if they lie on a lattice (``_lattice_of``
    with one row's modes), one FFT of length K per weight row; else None."""
    lattice = _lattice_of(xs, weights.shape[-1])
    if lattice is None:
        return None
    K, origin, index = lattice
    return _lattice_sums(weights, rates, K, origin)[..., index]


def _window_of(xs: np.ndarray) -> tuple[float, float, np.ndarray] | None:
    """(origin, step, offsets) with xs[i] = origin + i * step + offsets[i],
    the offsets exact up to their own rounding, if ``xs`` lies on the window
    xs[0] + i h, h = (xs[-1] - xs[0]) / (size - 1): _WINDOW_MIN to _FFT_LIMIT
    points, each within _WINDOW_ULPS ulps of 1 of its grid point; else None."""
    if not (_WINDOW_MIN <= xs.size <= _FFT_LIMIT
            and np.abs(xs).max() < _LATTICE_SPAN):
        return None
    origin = float(xs[0])
    step = float(xs[-1] - xs[0]) / (xs.size - 1)
    offsets = _window_offsets(xs, origin, step)
    if np.abs(offsets).max() > _WINDOW_ULPS * np.finfo(float).eps:
        return None
    return origin, step, offsets


def _window_offsets(xs: np.ndarray, origin: float, step: float) -> np.ndarray:
    """xs[i] - (origin + i * step) without cancellation.

    xs - origin is kept with its rounding error (Knuth's two-sum), and
    i * step is formed exactly from Veltkamp's split of ``step`` into two
    26-bit halves (exact while i < 2**26).
    """
    i = np.arange(xs.size, dtype=float)
    diff = xs - origin
    back = diff - xs
    error = (xs - (diff - back)) - (origin + back)
    high, low = veltkamp(step)
    return ((diff - i * high) - i * low) + error


def mode_energies(config: WellConfig, n_modes: int) -> np.ndarray:
    """Energies (pi n / L)^2 of the expanded-well modes, n = 1..n_modes."""
    energies = np.arange(1, n_modes + 1, dtype=float)
    energies *= math.pi
    energies /= config.width
    return np.square(energies, out=energies)


def _valid_positions(config: WellConfig, coeffs: ModeCoefficients, x) -> np.ndarray:
    """The points of ``x`` as a flat array; ValueError if it is empty,
    if ``coeffs`` belong to another well, or if a position is NaN, infinite
    or outside [0, width]."""
    if coeffs.config != config:
        raise ValueError("coefficients were computed for a different well")
    xs = _valid_times(x, "position")
    if xs.size == 0:
        raise ValueError("need at least one position")
    if xs.max() > config.width * (1.0 + 1e-12):
        raise ValueError(f"position outside [0, {config.width}]")
    return xs


def _mode_sums(config: WellConfig, coeffs: ModeCoefficients, xs: np.ndarray,
               ts: np.ndarray) -> np.ndarray:
    """sum_n a_n sin(n pi x/L) e^{-i E_n t}, rows over ``ts``, columns over
    ``xs``, both validated by the caller: the direct reference of ``_psi_rows``.
    Within eps sum |a_n| (N + 1 + 5 pi n), eps = 2^-53, of the exact sum of
    the same c_n: a sine's argument rounds by at most 5 eps pi n, the sine by
    eps, and N terms add N eps sum |c_n|.  Mode blocks are added up, so unlike
    _direct_sums the budget can move the last bits (6.7e-16 at N = 5000)."""
    n = np.arange(1, coeffs.truncation + 1, dtype=float)
    parts = np.zeros((2 * ts.size, xs.size))
    # accumulate (times x modes) @ (modes x positions) in mode blocks: real and
    # imaginary phase rows stacked over one sine table, ~4 doubles an entry
    chunk = max(1, _CHUNK_BUDGET // 4 // max(1, ts.size, xs.size))
    for i in range(0, coeffs.truncation, chunk):
        sl = slice(i, i + chunk)
        phased = _phased(coeffs.values[sl], coeffs.energies[sl], ts)
        parts += (np.concatenate((phased.real, phased.imag))
                  @ np.sin(np.outer(n[sl], math.pi * xs / config.width)))
    return parts[:ts.size] + 1j * parts[ts.size:]


def _psi_rows(config: WellConfig, coeffs: ModeCoefficients, xs: np.ndarray,
              ts: np.ndarray) -> np.ndarray:
    """sum_n c_n(t) sin(n pi x/L), rows over ``ts``, columns over ``xs``.

    Where x / (2L) lies on a lattice, as linspace(0, L, M) does with K =
    2(M - 1), the sines are Im B of one ``_lattice_sums`` with the rates n
    over the real, then the imaginary rows of c_n(t) for each block of
    _ROW_BLOCK // max(N, K) times (the block sets the memory, never the
    bits): within 1e-16 log2(K) sum |a_n| of exact residues (n j mod K) / K.
    Every other ``x`` takes ``_mode_sums``."""
    lattice = _lattice_of(xs / (2.0 * config.width), coeffs.truncation)
    if lattice is None:
        return _mode_sums(config, coeffs, xs, ts)
    K, origin, index = lattice
    n = np.arange(1, coeffs.truncation + 1)
    psi = np.empty((ts.size, xs.size), dtype=complex)
    block = max(1, _ROW_BLOCK // max(n.size, K))
    for i in range(0, ts.size, block):
        c = _phased(coeffs.values, coeffs.energies, ts[i:i + block])
        sines = _lattice_sums(np.concatenate((c.real, c.imag)), n, K, origin)[:, index]
        psi[i:i + block] = sines[:len(c)].imag + 1j * sines[len(c):].imag
    return psi


def wavefunction(config: WellConfig, coeffs: ModeCoefficients, x, t: float) -> np.ndarray:
    """Evolved state psi(x, t) = sqrt(2/L) sum_n a_n sin(n pi x/L) e^{-i E_n t}.

    ``x`` is a scalar or a non-empty array of positions inside [0, width],
    ``t`` one time >= 0; returns complex amplitudes of the shape of ``x``.
    The sum is one row of ``_psi_rows``: on a lattice x / (2L), a residue FFT
    within 1e-14 absolute of the direct ``_mode_sums``, which the rest takes.
    """
    if np.ndim(t) != 0:
        raise ValueError("time must be a scalar")
    ts = _valid_times(t)
    xs = _valid_positions(config, coeffs, x)
    psi = _psi_rows(config, coeffs, xs, ts)[0]
    return _shaped(psi * math.sqrt(2.0 / config.width), x)


def density_field(config: WellConfig, coeffs: ModeCoefficients,
                  x_grid, t_grid) -> np.ndarray:
    """|psi|^2 on the product of sorted grids, shape (len(t_grid), len(x_grid)).

    psi(x, kP - t) = conj psi(x, t), as E_n P = 2 pi n^2 and a_n is real.  So
    a grid whose every t_j + t_{T-1-j} is within _MIRROR_ULPS ulps of one kP,
    as linspace(0, P, T) is, sums the rows j < ceil(T/2) and copies row j to
    row T-1-j.  A copy is within _MIRROR_ULPS ulp(kP) (4/L) sum |a_n| sum
    |a_n| E_n absolute of the sum at its own t: 6.3e-12 at evolve's defaults,
    measured 1.7e-13.  ``_psi_rows`` sums the rows: a stacked residue FFT
    where x / (2L) lies on a lattice, as in evolve, psi within 1e-16 log2(K)
    sum |a_n|; else the direct ``_mode_sums``, within eps sum |a_n| (N + 1 +
    5 pi n).  At evolve's defaults the two are 1.5e-14 apart in rho.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    for g, name in ((x_grid, "x"), (t_grid, "t")):
        if g.ndim != 1 or g.size == 0 or np.any(np.diff(g) < 0):
            raise ValueError(f"{name} grid must be non-empty and sorted ascending")
    xs = _valid_positions(config, coeffs, x_grid)
    ts = _valid_times(t_grid)
    sums = ts + ts[::-1]
    multiple = np.rint(sums[0] / config.period) * config.period
    mirrored = (np.abs(sums - multiple).max()
                <= _MIRROR_ULPS * np.spacing(multiple))
    half = (ts.size + 1) // 2 if mirrored else ts.size
    psi = _psi_rows(config, coeffs, xs, ts[:half])
    rows = np.empty((ts.size, xs.size))
    np.multiply(2.0 / config.width, psi.real**2 + psi.imag**2, out=rows[:half])
    rows[half:] = rows[:ts.size - half][::-1]
    return rows


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


def truncation_for_tolerance(config: WellConfig, observable: str, tol: float) -> int:
    """Smallest mode count whose analytic tail bound falls below ``tol``.

    ``observable`` selects the bound: "coefficients" bounds the completeness
    deficit, "survival" bounds the reachable change in the escape
    probability.  Monotone nonincreasing in ``tol``.  Raises
    TruncationCapError when even DEFAULT_MODE_CAP modes are not enough.
    """
    if not tol > 0.0:  # NaN too, which would select the mode cap
        raise ValueError("tolerance must be positive")
    try:
        bound = _TAIL_BOUNDS[observable]
    except KeyError:
        raise ValueError(f"unknown observable {observable!r}; "
                         f"expected one of {sorted(_TAIL_BOUNDS)}") from None
    n_min = max(2, math.ceil(config.width))
    if bound(config, n_min) <= tol:
        return n_min
    if bound(config, DEFAULT_MODE_CAP) > tol:
        raise TruncationCapError(
            f"tolerance {tol:g} for {observable!r} needs more than "
            f"{DEFAULT_MODE_CAP} modes")
    # the bound decreases with N: the first N past n_min that meets tol
    return bisect.bisect_left(range(DEFAULT_MODE_CAP), True, lo=n_min + 1,
                              key=lambda n: bound(config, n) <= tol)
