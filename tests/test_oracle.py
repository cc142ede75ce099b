import math

import numpy as np
import pytest
from scipy.sparse import diags, identity
from scipy.sparse.linalg import splu

import wellquench
from wellquench import _oscillatory, oracle
from wellquench.errors import GridMismatchError, QuadratureConvergenceError
from wellquench.oracle import (GridState, eigenmode_state, initial_state,
                               invariant_checks, kernel_integral, overlap,
                               propagate, uniform_grid)
from wellquench.spectral import WellConfig, mode_coefficients, wavefunction
from wellquench.survival import escape_integral


class TestGridState:
    def test_endpoint_pinning_enforced(self):
        x = np.linspace(0.0, 1.0, 8)
        amp = np.ones(8, dtype=complex)
        with pytest.raises(ValueError):
            GridState(x_grid=x, amplitudes=amp, t=0.0)

    @pytest.mark.parametrize("x", [
        np.array([0.0, 0.1, 0.25, 0.3, 0.4]),
        np.linspace(1.0, 0.0, 5),
        np.array([0.0, 0.1, math.nan, 0.3, 0.4]),
    ], ids=["non-uniform", "decreasing", "nan"])
    def test_grid_must_be_increasing_and_uniform(self, x):
        # dx is the first step: on another grid the trapezoid norm is wrong
        with pytest.raises(ValueError, match="increasing and uniform"):
            GridState(x_grid=x, amplitudes=np.zeros(5, dtype=complex), t=0.0)

    def test_dx_is_the_grid_step(self):
        state = initial_state(WellConfig(0.2), 257)
        copy = GridState(x_grid=state.x_grid, amplitudes=state.amplitudes, t=0.0)
        assert copy.dx == float(state.x_grid[1] - state.x_grid[0])
        assert copy.norm == state.norm

    def test_initial_state_shape(self):
        w = WellConfig(0.2)
        state = initial_state(w, 257)
        assert state.amplitudes[0] == 0.0 and state.amplitudes[-1] == 0.0
        beyond = state.x_grid > 1.0
        assert np.abs(state.amplitudes[beyond]).max() == 0.0
        assert state.norm == pytest.approx(1.0, abs=1e-6)


def stepped_cayley(state, dt, steps):
    """The reference propagator: one sparse LU of (1 + i dt H/2), then the
    steps one solve at a time, H the three-point Dirichlet Laplacian."""
    interior = state.amplitudes[1:-1].copy()
    n = interior.size
    hamiltonian = -diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / state.dx**2
    forward = (identity(n, format="csc") + 0.5j * dt * hamiltonian).tocsc()
    backward = (identity(n, format="csc") - 0.5j * dt * hamiltonian).tocsr()
    solver = splu(forward)
    for _ in range(steps):
        interior = solver.solve(backward @ interior)
    amplitudes = np.zeros_like(state.amplitudes)
    amplitudes[1:-1] = interior
    return amplitudes


class TestPropagate:
    @pytest.mark.parametrize("n_points, t_target", [
        (4096, 0.01),   # criterion 08
        (1025, 0.005),  # oracle-check's propagator_vs_spectral_l2
        (257, 0.005),
    ])
    def test_closed_form_matches_the_stepped_scheme(self, n_points, t_target):
        # at dt = 8 dx^2 each step's solve has condition dt lambda_max / 2 =
        # 16, so the loop loses up to 16 ulps per step; the closed form's
        # phase s atan(dt lambda / 2) is within a few ulps, so the gap is the
        # loop's (2.4e-11 measured at 4096 points and 14557 steps)
        start = initial_state(WellConfig(0.2), n_points)
        steps = int(math.ceil(t_target / (8.0 * start.dx**2)))
        dt = t_target / steps
        gap = np.abs(propagate(start, dt, steps).amplitudes
                     - stepped_cayley(start, dt, steps)).max()
        assert gap <= 16.0 * np.finfo(float).eps * steps

    def test_zero_steps_return_the_input_bits(self):
        state = initial_state(WellConfig(0.2), 257)
        same = propagate(state, 1e-3, 0)
        assert same.amplitudes.tobytes() == state.amplitudes.tobytes()
        assert same.amplitudes is not state.amplitudes and same.t == state.t

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
        state = GridState(x_grid=x, amplitudes=np.zeros(65, dtype=complex), t=0.0)
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
        # 2.5 used to apply g^2.5 and advance t by 2.5 dt
        for steps in (2.5, 2.0, math.nan, "3"):
            with pytest.raises(ValueError, match="step count must be an integer"):
                propagate(state, 1e-5, steps)
        moved = propagate(state, 1e-5, np.int64(2))
        assert moved.t == 2e-5
        np.testing.assert_array_equal(moved.amplitudes,
                                      propagate(state, 1e-5, 2).amplitudes)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_step_rejected(self, dt):
        # NaN used to reach a singular factorisation, inf NaN amplitudes
        state = initial_state(WellConfig(0.1), 65)
        with pytest.raises(ValueError, match="time step must be finite"):
            propagate(state, dt, 10)


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
    """kernel_integral, the one quadrature, as the oracle re-exports it."""

    def test_one_function_behind_every_name(self):
        assert wellquench.kernel_integral is _oscillatory.kernel_integral
        assert oracle.kernel_integral is _oscillatory.kernel_integral

    def test_free_kernel_constant(self):
        value = kernel_integral(4, tol=1e-9)
        assert abs(value - math.sqrt(math.pi) / (3.0 * math.sqrt(2.0))) < 1e-8

    def test_confined_kernel_constant(self):
        value = kernel_integral(2, tol=1e-9)
        assert abs(value - math.sqrt(math.pi) / (2.0 * math.sqrt(2.0))) < 1e-8

    def test_escape_kernel_saturates_to_half_free(self):
        # I(alpha) of the continuum escape, escape_integral(alpha, 1) / (16 pi)
        value = escape_integral(30.0, 1.0) / (16.0 * math.pi)
        assert value == pytest.approx(0.5 * kernel_integral(4), rel=1e-5)

    def test_escape_kernel_small_rate(self):
        # sin^2(alpha y) ~ alpha^2 y^2 regime approaches alpha^2 * confined
        alpha = 0.01
        value = escape_integral(alpha, 1.0) / (16.0 * math.pi)
        assert value == pytest.approx(alpha**2 * kernel_integral(2), rel=2e-2)

    def test_argument_validation(self):
        with pytest.raises(TypeError):
            kernel_integral(4, alpha=1.0)     # the shifted kernel is gone
        with pytest.raises(ValueError):
            kernel_integral(3)

    @pytest.mark.parametrize("power, tol, match", [
        (3, 1e-9, "unsupported kernel power 3"),
        (4, 0.0, "tolerance must be positive"),
        (4, -1.0, "tolerance must be positive"),
        (4, math.nan, "tolerance must be positive"),
        (2, 0.0, "tolerance must be positive"),
        (2, -1.0, "tolerance must be positive"),
        (2, math.nan, "tolerance must be positive"),
    ])
    def test_bad_arguments_refused_before_any_panel(self, monkeypatch, power,
                                                    tol, match):
        # a NaN tol used to run three refinements and end in non-convergence
        def no_panels(*args):
            raise AssertionError("a panel layout was built")

        monkeypatch.setattr(_oscillatory, "_panel_edges", no_panels)
        with pytest.raises(ValueError, match=match):
            kernel_integral(power, tol=tol)

    def test_nonconvergence_raises_with_diagnostics(self):
        # rounding alone leaves |fine - coarse| near 1e-16
        with pytest.raises(QuadratureConvergenceError,
                           match=r"power=4 .* panels=\d+ "):
            kernel_integral(4, tol=1e-18)


class TestChecksCanFail:
    """Each invariant check reads near roundoff on the closed form, so each is
    shown to fail when the closed form is broken on purpose."""

    @staticmethod
    def failed(checks):
        return {c["name"] for c in checks if not c["ok"]}

    def test_dst_scale_error_fails_the_stationary_mode(self, monkeypatch):
        dst = oracle._dst
        monkeypatch.setattr(oracle, "_dst", lambda values: dst(values) * (1.0 + 1e-6))
        assert "stationary_mode_density" in self.failed(invariant_checks())

    def test_non_unit_cayley_factor_fails_the_norm_drift(self, monkeypatch):
        power = oracle._cayley_power
        monkeypatch.setattr(oracle, "_cayley_power", lambda eigenvalues, dt, steps:
                            power(eigenvalues, dt, steps) * (1.0 + 1e-12) ** steps)
        assert "norm_drift_1000_steps" in self.failed(invariant_checks())
