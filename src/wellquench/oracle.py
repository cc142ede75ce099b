"""Independent verification paths: grid propagator, overlap, quadrature.

Nothing here shares a formula with the routes it checks: the propagator solves
the Schrodinger equation on a real-space grid with the norm-preserving
Crank-Nicolson scheme, in closed form in the sine basis (DST-I) of the grid
Laplacian; overlaps are trapezoid sums of sampled states; and the two
escape-law kernel constants are computed by panel quadrature on [0, inf), the
oracle of their closed forms: ``kernel_integral``, the package's one
quadrature, to a fixed 1e-9, defined in ``_oscillatory`` and re-exported here.
The DST here and the spectral wavefunction on a grid both call numpy's FFT, on
independent inputs: the grid samples here, the expansion coefficients binned
by mode residue there; the direct mode sum ``spectral._mode_sums`` stays the
tested reference of the latter.  ``invariant_checks`` runs these routes
against each other and against the spectral route.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import survival
from ._oscillatory import kernel_integral
from .errors import GridMismatchError
from .spectral import WellConfig, mode_coefficients, wavefunction


@dataclass(frozen=True, eq=False)
class GridState:
    """Complex amplitudes on a uniform grid over [0, L] with pinned endpoints;
    ``dx`` is x[1] - x[0] > 0, and every step must be within 1e-9 dx of it."""

    x_grid: np.ndarray
    amplitudes: np.ndarray
    t: float
    dx: float = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.x_grid, dtype=float)
        amp = np.asarray(self.amplitudes, dtype=complex)
        if x.shape != amp.shape or x.ndim != 1 or x.size < 3:
            raise ValueError("state needs matching 1-d grids with >= 3 points")
        if amp[0] != 0.0 or amp[-1] != 0.0:
            raise ValueError("endpoint amplitudes must be exactly 0 (hard walls)")
        dx = float(x[1] - x[0])
        if not (dx > 0.0 and (np.abs(np.diff(x) - dx) <= 1e-9 * dx).all()):
            raise ValueError("state grid must be increasing and uniform")
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "dx", dx)

    @property
    def norm(self) -> float:
        """Discrete L2 norm, trapezoid rule (endpoints vanish)."""
        return float(np.sqrt(self.dx * np.sum(np.abs(self.amplitudes) ** 2)))


def uniform_grid(config: WellConfig, n_points: int) -> np.ndarray:
    """n_points positions spanning [0, width] inclusive."""
    if n_points < 3:
        raise ValueError("need at least 3 grid points")
    return np.linspace(0.0, config.width, n_points)


def initial_state(config: WellConfig, n_points: int) -> GridState:
    """The pre-quench ground state sampled on the expanded-well grid.

    sqrt(2) sin(pi x) for x <= 1 and 0 beyond; continuous, with a kink in the
    derivative at x = 1.
    """
    x = uniform_grid(config, n_points)
    return from_samples(x, np.where(x <= 1.0, math.sqrt(2.0) * np.sin(math.pi * x), 0.0))


def eigenmode_state(config: WellConfig, weights: dict[int, complex],
                    n_points: int, t: float = 0.0) -> GridState:
    """Superposition of expanded-well eigenmodes with exact time phases."""
    x = uniform_grid(config, n_points)
    L = config.width
    amp = np.zeros(n_points, dtype=complex)
    for mode, weight in weights.items():
        energy = (math.pi * mode / L) ** 2
        amp += (weight * math.sqrt(2.0 / L) * np.sin(mode * math.pi * x / L)
                * np.exp(-1j * energy * t))
    return from_samples(x, amp, t)


def from_samples(x_grid, amplitudes, t: float = 0.0) -> GridState:
    """Samples as a GridState, the endpoint amplitudes set to exactly 0."""
    amp = np.asarray(amplitudes, dtype=complex).copy()
    amp[0] = amp[-1] = 0.0
    return GridState(x_grid=x_grid, amplitudes=amp, t=t)


def propagate(state: GridState, dt: float, steps: int) -> GridState:
    """Advance by steps * dt with the implicit midpoint (Cayley) scheme.

    (1 + i dt H / 2) psi' = (1 - i dt H / 2) psi with H the standard
    three-point Laplacian (units 2m = 1) and hard-wall boundaries.  The sine
    transform (DST-I) of the n interior points diagonalises H with
    eigenvalues lambda_k = (4/dx^2) sin^2(pi k / (2(n+1))), so all steps are
    one transform, the factor g_k^steps = exp(-2i steps atan(dt lambda_k/2))
    of modulus 1, and the inverse transform.  The route uses the grid's own
    eigenvalues and the transform of the sampled state, never the spectral
    coefficients.  Accuracy is second order in dx and dt.  Against the
    stepped scheme, one sparse solve per step, the amplitudes agree within
    2e-15 absolute per step: that is the loop's roundoff (2.4e-11 at 4096
    points and 14557 steps), while the closed form moves by 1e-15 when its
    phases are taken in long double.  The norm moves by roundoff only (0.0
    over 1000 steps at 1025 points).  Zero steps return the amplitudes
    unchanged.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"time step must be finite and positive, got {dt}")
    if not isinstance(steps, numbers.Integral) or steps < 0:
        raise ValueError(f"step count must be an integer >= 0, got {steps!r}")
    amplitudes = state.amplitudes.copy()
    if steps:
        n = amplitudes.size - 2
        k = np.arange(1, n + 1)
        eigenvalues = (4.0 / state.dx**2) * np.sin(0.5 * math.pi * k / (n + 1)) ** 2
        modes = _cayley_power(eigenvalues, dt, steps) * _dst(amplitudes[1:-1])
        amplitudes[1:-1] = _dst(modes) * (2.0 / (n + 1))
    return GridState(x_grid=state.x_grid, amplitudes=amplitudes, t=state.t + steps * dt)


def _dst(values: np.ndarray) -> np.ndarray:
    """DST-I, y_k = sum_j v_j sin(pi j k / (n+1)) for j, k = 1..n, as the FFT
    of the odd extension of length 2(n+1); applied twice it is (n+1)/2 v."""
    n = values.size
    odd = np.zeros(2 * (n + 1), dtype=complex)
    odd[1:n + 1] = values
    odd[n + 2:] = -values[::-1]
    return 0.5j * np.fft.fft(odd)[1:n + 1]


def _cayley_power(eigenvalues: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """g^steps of the Cayley factor g = (1 - i dt lambda/2) / (1 + i dt lambda/2)
    = exp(-2i atan(dt lambda / 2)), whose modulus is 1 up to roundoff."""
    return np.exp(-2j * steps * np.arctan(0.5 * dt * eigenvalues))


def overlap(state_a: GridState, state_b: GridState) -> complex:
    """Trapezoid inner product int conj(a) b dx; grids must match exactly."""
    if (state_a.x_grid.size != state_b.x_grid.size
            or abs(state_a.dx - state_b.dx) > 1e-12 * state_a.dx
            or abs(state_a.x_grid[-1] - state_b.x_grid[-1]) > 1e-12):
        raise GridMismatchError("overlap requires identical grids")
    product = np.conj(state_a.amplitudes) * state_b.amplitudes
    return complex(state_a.dx * np.sum(product))  # endpoints are zero


def invariant_checks(coarse: bool = False) -> list[dict]:
    """The oracle suite as named checks: {name, value, threshold, ok}.

    ``coarse`` uses grids far too small to pass, to show that the checks can
    fail.
    """
    checks = []

    def check(name: str, value: float, threshold: float):
        checks.append({"name": name, "value": value, "threshold": threshold,
                       "ok": value < threshold})

    well = WellConfig(0.2)
    n_points = 1025 if not coarse else 65
    # stationary eigenmode: density must not move
    mode = eigenmode_state(well, {1: 1.0 + 0.0j}, n_points)
    dt = 4.0 * mode.dx**2
    evolved = propagate(mode, dt, 400)
    check("stationary_mode_density", float(np.abs(
        np.abs(evolved.amplitudes) ** 2 - np.abs(mode.amplitudes) ** 2).max()), 1e-8)
    # unitarity over many steps
    state = initial_state(well, n_points)
    walked = propagate(state, dt, 1000)
    check("norm_drift_1000_steps", abs(walked.norm - state.norm), 1e-10)
    # quadrature constants against their closed forms
    for kind, power, exact in (("free", 4, survival.FREE_KERNEL_CONSTANT),
                               ("confined", 2, survival.CONFINED_KERNEL_CONSTANT)):
        value = kernel_integral(power)
        check(f"{kind}_kernel_constant", abs(value - exact), 1e-6)
    # grid propagator against the spectral wavefunction
    t_target = 0.005
    steps = int(math.ceil(t_target / (8.0 * state.dx**2)))
    moved = propagate(state, t_target / steps, steps)
    coeffs = mode_coefficients(well, 2000)
    reference = wavefunction(well, coeffs, moved.x_grid, t_target)
    check("propagator_vs_spectral_l2", float(np.sqrt(
        moved.dx * np.sum(np.abs(moved.amplitudes - reference) ** 2))), 2e-3)
    # survival amplitude against the overlap quadrature
    amp = survival.survival_amplitude(well, t_target, 2000)
    quad = overlap(state, from_samples(moved.x_grid, reference, t_target))
    check("survival_vs_overlap", abs(amp - quad), 1e-6)
    return checks
