import math

import numpy as np
import pytest

from conftest import random_hermitian, random_qubit_dm
from qsl_lab import (
    LindbladModel,
    evolution_operator,
    ket_dm,
    landau_zener,
    lindbladian,
    propagate,
    propagate_const,
    propagate_lindblad,
    propagate_timedep,
    propagate_unitary_batch,
    purity,
    qubit_hamiltonian,
)
from qsl_lab.errors import InvalidStateError, NonHermitianError, StepSizeTooLargeError
from qsl_lab.states import SIGMA_X, SIGMA_Z, bloch_from_density

PLUS = ket_dm([1, 1])
MINUS = ket_dm([1, -1])
ZERO = ket_dm([1, 0])
ONE = ket_dm([0, 1])
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
H_ROT = qubit_hamiltonian(-1.0, (0, 0, 1))  # -sigma_z/2


class TestHamiltonians:
    def test_qubit_hamiltonian_matches_minus_half_sigma_z(self):
        assert np.allclose(H_ROT, -SIGMA_Z / 2, atol=1e-15)

    def test_zero_amplitude_leaves_only_offset(self):
        h = qubit_hamiltonian(0.0, (0, 0, 1), 0.7)
        assert np.allclose(h, 0.7 * np.eye(2), atol=1e-15)

    def test_x_axis(self):
        assert np.allclose(qubit_hamiltonian(2.0, (1, 0, 0)), SIGMA_X, atol=1e-15)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            qubit_hamiltonian(1.0, (1, 1, 0))

    def test_landau_zener_at_zero_is_the_gap_term(self):
        model = landau_zener(1.0, 1.0)
        assert np.allclose(model(0.0), SIGMA_X, atol=1e-15)

    def test_landau_zener_matrix(self):
        model = landau_zener(2.0, 0.5)
        t = 1.3
        expected = 2.0 * t * SIGMA_Z + 0.5 * SIGMA_X
        assert np.allclose(model(t), expected, atol=1e-15)

    def test_landau_zener_angular_speed(self):
        model = landau_zener(1.0, 1.0)
        for t in (0.0, 0.5, 2.0):
            assert model.angular_speed(t) == pytest.approx(
                2.0 * math.hypot(t, 1.0), abs=1e-15
            )

    def test_landau_zener_zero_sweep_is_constant(self):
        model = landau_zener(0.0, 0.8)
        assert np.allclose(model(0.0), model(5.0), atol=1e-15)


class TestPropagateConst:
    def test_half_turn_maps_plus_to_minus(self):
        traj = propagate_const(H_ROT, PLUS, math.pi, 64)
        assert np.max(np.abs(traj.states[-1] - MINUS)) <= 1e-12

    def test_identity_component_is_inert(self):
        traj = propagate_const(3.2 * np.eye(2), PLUS, 2.0, 50)
        assert np.max(np.abs(traj.states - PLUS)) <= 1e-12

    def test_state_on_axis_is_stationary(self):
        traj = propagate_const(H_ROT, ZERO, 4.0, 100)
        assert np.max(np.abs(traj.states - ZERO)) <= 1e-12

    def test_purity_preserved_on_every_sample(self):
        rng = np.random.default_rng(1)
        rho0 = random_qubit_dm(rng)
        traj = propagate_const(random_hermitian(rng), rho0, 3.0, 300)
        purities = np.einsum("kij,kji->k", traj.states, traj.states).real
        assert np.max(np.abs(purities - purity(rho0))) <= 1e-12

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(2)
        rho0 = random_qubit_dm(rng, min_purity=0.6)
        w0 = np.linalg.eigvalsh(rho0)
        traj = propagate_const(random_hermitian(rng), rho0, 2.0, 150)
        for state in traj.states[::25]:
            assert np.max(np.abs(np.linalg.eigvalsh(state) - w0)) <= 1e-10

    def test_composition_of_half_intervals(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng)
        rho0 = random_qubit_dm(rng)
        full = propagate_const(h, rho0, 2.0, 200)
        first = propagate_const(h, rho0, 1.0, 100)
        second = propagate_const(h, first.states[-1], 1.0, 100)
        assert np.max(np.abs(second.states[-1] - full.states[-1])) <= 1e-12

    def test_grid_is_uniform(self):
        traj = propagate_const(H_ROT, PLUS, 1.5, 30)
        assert np.allclose(np.diff(traj.times), traj.dt, atol=1e-15)
        assert traj.times[0] == 0.0
        assert traj.horizon == 1.5

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            propagate_const(np.array([[0, 1], [0, 0]], dtype=complex), PLUS, 1.0, 10)

    def test_default_step_rule(self):
        traj = propagate_const(H_ROT, PLUS, 2.0)
        assert traj.dt * 0.5 <= 1e-3  # ||H|| = 1/2


class TestPropagateTimedep:
    def test_constant_callable_matches_const_propagator(self):
        h = random_hermitian(np.random.default_rng(4))
        rho0 = random_qubit_dm(np.random.default_rng(5))
        # four levels take the batched-eigh steps instead of the qubit closed form
        h4 = random_hermitian(np.random.default_rng(4), 4)
        rho4 = ket_dm(np.arange(1, 5) + 1j * np.arange(4, 0, -1))
        for h, rho0 in ((h, rho0), (h4, rho4)):
            ref = propagate_const(h, rho0, math.pi, 10_000)
            driven = propagate_timedep(lambda t: h, rho0, math.pi, 10_000)
            assert np.max(np.abs(ref.states - driven.states)) <= 1e-8

    def test_unitarity_of_each_step(self):
        model = landau_zener(1.0, 1.0)
        traj = propagate_timedep(model, PLUS, 0.5, 500)
        purities = np.einsum("kij,kji->k", traj.states, traj.states).real
        assert np.max(np.abs(purities - 1.0)) <= 1e-12

    def test_second_order_convergence(self):
        model = landau_zener(1.0, 1.0)
        ref = propagate_timedep(model, PLUS, 1.0, 100_000).states[-1]
        err = []
        for steps in (500, 1000):
            final = propagate_timedep(model, PLUS, 1.0, steps).states[-1]
            err.append(np.max(np.abs(final - ref)))
        ratio = err[0] / err[1]
        assert 3.2 <= ratio <= 4.8

    def test_non_hermitian_midpoint_rejected(self):
        bad = lambda t: np.array([[0, 1], [2, 0]], dtype=complex)
        with pytest.raises(NonHermitianError, match="t ="):
            propagate_timedep(bad, PLUS, 1.0, 10)
        with pytest.raises(NonHermitianError, match="t ="):
            propagate_unitary_batch(bad, np.stack([PLUS, ZERO]), 1.0, 10)
        # Hermitian at early midpoints only: every sample is checked
        late = lambda t: np.diag([1.0, 2.0, 3.0]).astype(complex) + (t > 0.5) * np.triu(np.ones((3, 3)), 1)
        with pytest.raises(NonHermitianError, match="t = 0.55"):
            propagate_timedep(late, np.eye(3) / 3.0 + 0.0j, 1.0, 10)

    def test_rejects_plain_matrix(self):
        with pytest.raises(TypeError):
            propagate_timedep(H_ROT, PLUS, 1.0, 10)


class TestEvolutionOperator:
    def test_qubit_closed_form_matches_eigendecomposition(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            h = random_hermitian(rng)
            u = evolution_operator(h, 0.7)
            w, v = np.linalg.eigh(h)
            ref = (v * np.exp(-1j * w * 0.7)) @ v.conj().T
            assert np.max(np.abs(u - ref)) <= 1e-12

    def test_unitary(self):
        u = evolution_operator(random_hermitian(np.random.default_rng(7)), 1.3)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-14


class TestPropagateLindblad:
    def test_empty_jumps_reduce_to_unitary(self):
        rho0 = random_qubit_dm(np.random.default_rng(8))
        model = LindbladModel(H_ROT)
        ref = propagate_const(H_ROT, rho0, math.pi, 10_000)
        rk4 = propagate_lindblad(model, rho0, math.pi, 10_000)
        assert np.max(np.abs(ref.states - rk4.states)) <= 1e-8

    def test_amplitude_damping_closed_form(self):
        gamma = 0.7
        model = LindbladModel(np.zeros((2, 2)), (math.sqrt(gamma) * SIGMA_MINUS,))
        traj = propagate_lindblad(model, ONE, 2.0, 2000)
        excited = traj.states[:, 1, 1].real
        expected = np.exp(-gamma * traj.times)
        assert np.max(np.abs(excited - expected)) <= 1e-9

    def test_unital_model_fixes_the_center(self):
        model = LindbladModel(H_ROT, (math.sqrt(0.5) * SIGMA_Z,))
        traj = propagate_lindblad(model, np.eye(2) / 2, 2.0, 1000)
        assert np.max(np.abs(traj.states - np.eye(2) / 2)) <= 1e-12

    def test_trace_drift_stays_tiny(self):
        model = LindbladModel(H_ROT, (math.sqrt(0.3) * SIGMA_MINUS,))
        traj = propagate_lindblad(model, PLUS, 5.0, 5000)
        drift = np.abs(np.trace(traj.states, axis1=1, axis2=2) - 1.0)
        assert np.max(drift) <= 1e-9

    def test_blowup_raises_step_size_error(self):
        model = LindbladModel(np.zeros((2, 2)), (math.sqrt(1e4) * SIGMA_MINUS,))
        with pytest.raises(StepSizeTooLargeError):
            propagate_lindblad(model, ONE, 1.0, 2)

    def test_scaled_bloch_covariance_under_unital_dynamics(self):
        # parallel Bloch vectors stay parallel with the same scale factor
        model = LindbladModel(
            qubit_hamiltonian(0.8, (0, 1, 0)), (math.sqrt(0.4) * SIGMA_Z,)
        )
        r0 = np.array([0.9, 0.0, 0.3])
        from qsl_lab import density_from_bloch

        for eta in (1.0, 0.6):
            full = propagate_lindblad(model, density_from_bloch(r0), 2.0, 2000)
            scaled = propagate_lindblad(model, density_from_bloch(eta * r0), 2.0, 2000)
            for k in range(0, 2001, 250):
                rv = bloch_from_density(full.states[k])
                rs = bloch_from_density(scaled.states[k])
                assert np.max(np.abs(rs - eta * rv)) <= 1e-8

    def test_non_hermitian_constant_hamiltonian_rejected(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NonHermitianError):
            lindbladian(bad, PLUS)
        with pytest.raises(NonHermitianError):
            lindbladian(LindbladModel(bad, (SIGMA_MINUS,)), PLUS)
        with pytest.raises(NonHermitianError):
            propagate_lindblad(LindbladModel(bad), PLUS, 1.0, 10)

    def test_lindbladian_is_trace_free_and_hermitian(self):
        rng = np.random.default_rng(9)
        model = LindbladModel(
            random_hermitian(rng), (math.sqrt(0.2) * SIGMA_MINUS, math.sqrt(0.1) * SIGMA_Z)
        )
        rho = random_qubit_dm(rng)
        l_rho = lindbladian(model, rho)
        assert abs(np.trace(l_rho)) <= 1e-14
        assert np.max(np.abs(l_rho - l_rho.conj().T)) <= 1e-14


class TestDispatchAndBatch:
    def test_dispatch_matches_direct_calls(self):
        rho0 = PLUS
        a = propagate(H_ROT, rho0, 1.0, 100)
        b = propagate_const(H_ROT, rho0, 1.0, 100)
        assert np.array_equal(a.states, b.states)
        model = landau_zener(1.0, 1.0)
        c = propagate(model, rho0, 1.0, 100)
        d = propagate_timedep(model, rho0, 1.0, 100)
        assert np.array_equal(c.states, d.states)

    def test_batch_matches_single_state_runs(self):
        rng = np.random.default_rng(10)
        rho0s = np.stack([random_qubit_dm(rng) for _ in range(5)])
        h0, h1 = random_hermitian(rng, 4), random_hermitian(rng, 4)
        rho4s = np.stack([ket_dm(rng.normal(size=4) + 1j * rng.normal(size=4)) for _ in range(3)])
        cases = ((landau_zener(1.0, 1.0), rho0s), (lambda t: h0 + math.sin(t) * h1, rho4s))
        for model, stack in cases:
            times, states = propagate_unitary_batch(model, stack, 2.0, 400)
            for b in range(len(stack)):
                single = propagate_timedep(model, stack[b], 2.0, 400)
                assert np.max(np.abs(states[:, b] - single.states)) <= 1e-13

    def test_batch_constant_hamiltonian(self):
        rng = np.random.default_rng(11)
        rho0s = np.stack([random_qubit_dm(rng) for _ in range(3)])
        times, states = propagate_unitary_batch(H_ROT, rho0s, 1.0, 50)
        for b in range(3):
            single = propagate_const(H_ROT, rho0s[b], 1.0, 50)
            assert np.max(np.abs(states[:, b] - single.states)) <= 1e-13

    @pytest.mark.parametrize("model", [H_ROT, landau_zener(1.0, 1.0)], ids=["const", "driven"])
    def test_batch_validates_every_initial_state(self, model):
        non_psd = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
        for bad in (2.0 * PLUS, non_psd):
            with pytest.raises(InvalidStateError):
                propagate_unitary_batch(model, np.stack([PLUS, bad, ZERO]), 1.0, 10)

    @pytest.mark.parametrize("model", [H_ROT, landau_zener(1.0, 1.0)], ids=["const", "driven"])
    def test_batch_rows_independent_of_batch_size(self, model):
        rng = np.random.default_rng(12)
        rho0s = np.stack([random_qubit_dm(rng) for _ in range(5)])
        times, states = propagate_unitary_batch(model, rho0s, 2.0, 400)
        for b in range(5):
            one_times, one = propagate_unitary_batch(model, rho0s[b : b + 1], 2.0, 400)
            assert np.array_equal(one_times, times)
            assert np.array_equal(states[:, b], one[:, 0])
            if not callable(model):
                assert np.array_equal(propagate_const(model, rho0s[b], 2.0, 400).states, one[:, 0])
