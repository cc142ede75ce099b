import math

import numpy as np
import pytest

from wellquench.errors import GridMismatchError, QuadratureConvergenceError
from wellquench.oracle import (GridState, adaptive_quadrature, eigenmode_state,
                               initial_state, overlap, propagate,
                               uniform_grid)
from wellquench.spectral import WellConfig, mode_coefficients, wavefunction


class TestGridState:
    def test_endpoint_pinning_enforced(self):
        x = np.linspace(0.0, 1.0, 8)
        amp = np.ones(8, dtype=complex)
        with pytest.raises(ValueError):
            GridState(x_grid=x, amplitudes=amp, dx=x[1] - x[0], t=0.0)

    def test_initial_state_shape(self):
        w = WellConfig(0.2)
        state = initial_state(w, 257)
        assert state.amplitudes[0] == 0.0 and state.amplitudes[-1] == 0.0
        beyond = state.x_grid > 1.0
        assert np.abs(state.amplitudes[beyond]).max() == 0.0
        assert state.norm == pytest.approx(1.0, abs=1e-6)


class TestPropagate:
    def test_stationary_eigenmode(self):
        w = WellConfig(0.2)
        state = eigenmode_state(w, {1: 1.0}, 513)
        evolved = propagate(state, 4.0 * state.dx**2, 500)
        drift = np.abs(np.abs(evolved.amplitudes) ** 2
                       - np.abs(state.amplitudes) ** 2).max()
        assert drift < 1e-10

    def test_zero_state_stays_zero(self):
        w = WellConfig(0.1)
        x = uniform_grid(w, 65)
        state = GridState(x_grid=x, amplitudes=np.zeros(65, dtype=complex),
                          dx=x[1] - x[0], t=0.0)
        evolved = propagate(state, 1e-5, 100)
        assert np.abs(evolved.amplitudes).max() == 0.0

    def test_unitarity_over_many_steps(self):
        w = WellConfig(0.2)
        state = initial_state(w, 257)
        evolved = propagate(state, 2.0 * state.dx**2, 10**4)
        assert abs(evolved.norm - state.norm) < 1e-6
        assert evolved.t == pytest.approx(2.0 * state.dx**2 * 10**4)

    def test_second_order_grid_convergence(self):
        # smooth three-mode state, halving dx (dt ~ dx^2) divides the error
        # against the exact spectral evolution by about 4
        w = WellConfig(0.2)
        weights = {1: 0.6, 2: 0.5, 3: 0.4 + 0.3j}
        t_target = 0.005
        errors = []
        for n_points in (257, 513, 1025):
            start = eigenmode_state(w, weights, n_points)
            dt = 4.0 * start.dx**2
            steps = int(math.ceil(t_target / dt))
            moved = propagate(start, t_target / steps, steps)
            exact = eigenmode_state(w, weights, n_points, t=t_target)
            err = math.sqrt(moved.dx * np.sum(
                np.abs(moved.amplitudes - exact.amplitudes) ** 2))
            errors.append(err)
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.0 < coarse / fine < 5.0

    def test_kinked_state_against_spectral(self):
        w = WellConfig(0.2)
        t_target = 0.005
        start = initial_state(w, 1025)
        dt = 8.0 * start.dx**2
        steps = int(math.ceil(t_target / dt))
        moved = propagate(start, t_target / steps, steps)
        coeffs = mode_coefficients(w, 2000)
        reference = wavefunction(w, coeffs, moved.x_grid, t_target)
        err = math.sqrt(moved.dx * np.sum(np.abs(moved.amplitudes - reference) ** 2))
        assert err < 2e-3
        # pointwise agreement at a probe position away from the boundaries
        probe = int(np.argmin(np.abs(moved.x_grid - 0.6)))
        assert abs(moved.amplitudes[probe] - reference[probe]) < 2e-3

    def test_bad_steps(self):
        w = WellConfig(0.1)
        state = initial_state(w, 65)
        with pytest.raises(ValueError):
            propagate(state, -1e-5, 10)
        with pytest.raises(ValueError):
            propagate(state, 1e-5, -1)


class TestOverlap:
    def test_self_overlap_of_normalized_mode(self):
        w = WellConfig(0.2)
        state = eigenmode_state(w, {1: 1.0}, 2049)
        value = overlap(state, state)
        assert value.imag == 0.0
        assert value.real == pytest.approx(1.0, abs=1e-5)

    def test_mode_orthogonality(self):
        w = WellConfig(0.2)
        one = eigenmode_state(w, {1: 1.0}, 2049)
        two = eigenmode_state(w, {2: 1.0}, 2049)
        assert abs(overlap(one, two)) < 1e-12

    def test_grid_mismatch(self):
        w = WellConfig(0.2)
        with pytest.raises(GridMismatchError):
            overlap(eigenmode_state(w, {1: 1.0}, 64),
                    eigenmode_state(w, {1: 1.0}, 65))


class TestAdaptiveQuadrature:
    def test_free_kernel_constant(self):
        value = adaptive_quadrature("free", tol=1e-9)
        assert abs(value - math.sqrt(math.pi) / (3.0 * math.sqrt(2.0))) < 1e-8

    def test_confined_kernel_constant(self):
        value = adaptive_quadrature("confined", tol=1e-9)
        assert abs(value - math.sqrt(math.pi) / (2.0 * math.sqrt(2.0))) < 1e-8

    def test_escape_kernel_saturates_to_half_free(self):
        value = adaptive_quadrature("escape", alpha=30.0)
        half_free = 0.5 * math.sqrt(math.pi) / (3.0 * math.sqrt(2.0))
        assert value == pytest.approx(half_free, rel=1e-5)

    def test_escape_kernel_small_rate(self):
        # sin^2(alpha y) ~ alpha^2 y^2 regime approaches alpha^2 * confined
        alpha = 0.01
        value = adaptive_quadrature("escape", alpha=alpha)
        confined = math.sqrt(math.pi) / (2.0 * math.sqrt(2.0))
        assert value == pytest.approx(alpha**2 * confined, rel=2e-2)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            adaptive_quadrature("escape")              # alpha required
        with pytest.raises(ValueError):
            adaptive_quadrature("free", alpha=1.0)     # alpha forbidden
        with pytest.raises(ValueError):
            adaptive_quadrature("nonsense")

    def test_nonconvergence_raises_with_diagnostics(self):
        # rounding alone leaves |fine - coarse| near 1e-16
        with pytest.raises(QuadratureConvergenceError,
                           match=r"power=4 alpha=None .* panels=\d+ "):
            adaptive_quadrature("free", tol=1e-18)
