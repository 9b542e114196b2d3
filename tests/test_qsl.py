import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_floats, random_density, random_hermitian, random_qubit_dm
from oracles import bisect_interpolated_crossing, lz_bloch_oracle
from qsl_lab import (
    LindbladModel,
    Trajectory,
    accumulate_path,
    angles_from_start,
    bloch_angle,
    bures_qsl,
    density_from_bloch,
    geodesic_defect,
    geodesic_ode_residual,
    ket_dm,
    landau_zener,
    propagate,
    propagate_const,
    propagate_lindblad,
    qsl_existing,
    qsl_new,
    qsl_report,
    qubit_hamiltonian,
    qubit_state_from_angles,
    velocity_general,
    velocity_terms,
    velocity_unitary,
)
from qsl_lab.errors import MaximallyMixedError, UndefinedBoundError
from qsl_lab.qsl import refine_angle_crossing, start_angles
from qsl_lab.states import SIGMA_Z

PLUS = ket_dm([1, 1])
ZERO = ket_dm([1, 0])
ONE = ket_dm([0, 1])
H_ROT = qubit_hamiltonian(-1.0, (0, 0, 1))
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)


class TestVelocityUnitary:
    def test_equator_speed_is_one(self):
        assert velocity_unitary(H_ROT, PLUS) == pytest.approx(1.0, abs=1e-12)

    def test_state_on_axis_is_still(self):
        assert velocity_unitary(H_ROT, ZERO) == pytest.approx(0.0, abs=1e-8)

    def test_landau_zener_starts_at_rest_from_plus(self):
        model = landau_zener(1.0, 1.0)
        assert velocity_unitary(model(0.0), PLUS) == pytest.approx(0.0, abs=1e-8)

    def test_maximally_mixed_rejected(self):
        with pytest.raises(MaximallyMixedError):
            velocity_unitary(H_ROT, np.eye(2) / 2)

    def test_geometric_formula_amplitude_times_sine(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            amp = rng.uniform(0.1, 3.0)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            h = qubit_hamiltonian(amp, axis, rng.uniform(-1, 1))
            rho = random_qubit_dm(rng)
            from qsl_lab import bloch_from_density

            r = bloch_from_density(rho)
            sin_theta = np.linalg.norm(np.cross(axis, r)) / np.linalg.norm(r)
            assert velocity_unitary(h, rho) == pytest.approx(amp * sin_theta, abs=1e-10)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(1)
        dt = 1e-5
        from qsl_lab import evolution_operator

        for _ in range(50):
            h = random_hermitian(rng)
            rho = random_qubit_dm(rng)
            u = evolution_operator(h, dt)
            fd = bloch_angle(rho, u @ rho @ u.conj().T) / dt
            assert fd == pytest.approx(velocity_unitary(h, rho), abs=1e-4)


class TestVelocityGeneral:
    def test_no_jumps_matches_unitary(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            h = random_hermitian(rng)
            rho = random_qubit_dm(rng)
            assert velocity_general(LindbladModel(h), rho) == pytest.approx(
                velocity_unitary(h, rho), abs=1e-10
            )

    def test_radial_terms_vanish_for_unitary_dynamics(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            f, g, h = velocity_terms(LindbladModel(random_hermitian(rng)), random_qubit_dm(rng))
            assert f > 0.0
            assert abs(g) <= 1e-10

    def test_pure_dephasing_on_its_own_axis_is_radial_only(self):
        # the Bloch vector of |+><+| shrinks along x without turning, so the
        # angular speed vanishes even though the state changes
        model = LindbladModel(np.zeros((2, 2)), (math.sqrt(0.5) * SIGMA_Z,))
        assert velocity_general(model, PLUS) == pytest.approx(0.0, abs=1e-12)
        traj = propagate_lindblad(model, PLUS, 1e-4, 10)
        # the angle sits at the arccos rounding floor (~sqrt(eps)), far below
        # the ~5e-5 a radial-blind velocity formula would predict here
        assert bloch_angle(traj.states[0], traj.states[-1]) <= 1e-7

    def test_dephasing_eigenstate_is_a_fixed_point(self):
        model = LindbladModel(np.zeros((2, 2)), (math.sqrt(0.5) * SIGMA_Z,))
        assert velocity_general(model, ZERO) == pytest.approx(0.0, abs=1e-12)

    def test_tilted_dephasing_turns_the_vector(self):
        model = LindbladModel(np.zeros((2, 2)), (math.sqrt(0.5) * SIGMA_Z,))
        rho = density_from_bloch([0.6, 0.0, 0.5])
        v = velocity_general(model, rho)
        assert v > 0.1
        dt = 1e-5
        traj = propagate_lindblad(model, rho, 2 * dt, 2)
        fd = bloch_angle(traj.states[0], traj.states[1]) / dt
        assert fd == pytest.approx(v, abs=1e-4)

    def test_lindblad_finite_difference_agreement(self):
        rng = np.random.default_rng(4)
        model = LindbladModel(
            qubit_hamiltonian(0.9, (0.6, 0.0, 0.8), 0.1),
            (math.sqrt(0.4) * SIGMA_MINUS, math.sqrt(0.2) * SIGMA_Z),
        )
        dt = 1e-5
        for _ in range(20):
            rho = random_qubit_dm(rng, min_purity=0.6)
            traj = propagate_lindblad(model, rho, 2 * dt, 2)
            fd = bloch_angle(traj.states[0], traj.states[1]) / dt
            assert fd == pytest.approx(velocity_general(model, rho), abs=1e-4)

    def test_cauchy_schwarz_keeps_radicand_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            model = LindbladModel(
                random_hermitian(rng),
                (rng.uniform(0, 1) * SIGMA_MINUS, rng.uniform(0, 1) * SIGMA_Z),
            )
            f, g, h = velocity_terms(model, random_qubit_dm(rng))
            assert h / f - (g / f) ** 2 >= -1e-12


class TestAccumulatePath:
    def test_geodesic_path_length(self):
        traj = accumulate_path(propagate_const(H_ROT, PLUS, 2.0, 2000))
        assert traj.cumulative_path[-1] == pytest.approx(2.0, abs=1e-6)

    def test_matches_pairwise_bloch_angles(self):
        traj = accumulate_path(propagate(landau_zener(1.0, 1.0), PLUS, 1.0, 200))
        explicit = 0.0
        for k in range(200):
            explicit += bloch_angle(traj.states[k], traj.states[k + 1])
            assert traj.cumulative_path[k + 1] == pytest.approx(explicit, abs=1e-12)

    def test_stationary_trajectory_has_zero_path(self):
        traj = accumulate_path(propagate_const(3.0 * np.eye(2), PLUS, 2.0, 100))
        assert np.max(traj.cumulative_path) == 0.0

    def test_grid_refinement_is_converged(self):
        coarse = accumulate_path(propagate_const(H_ROT, PLUS, 2.0, 2000))
        fine = accumulate_path(propagate_const(H_ROT, PLUS, 2.0, 20_000))
        assert abs(coarse.cumulative_path[-1] - fine.cumulative_path[-1]) <= 1e-6

    def test_nondecreasing(self):
        traj = accumulate_path(propagate(landau_zener(1.0, 1.0), PLUS, 3.0, 500))
        assert np.all(np.diff(traj.cumulative_path) >= 0.0)

    def test_maximally_mixed_sample_rejected(self):
        states = np.stack([ZERO, np.eye(2) / 2])
        traj = Trajectory(times=np.array([0.0, 1.0]), states=states)
        with pytest.raises(MaximallyMixedError):
            accumulate_path(traj)


class TestQslSolvers:
    def test_constant_h_equals_theta_over_initial_speed(self):
        theta0 = math.pi / 3
        rho0 = qubit_state_from_angles(1.0, theta0, 0.0)
        target = 0.9
        v0 = velocity_unitary(H_ROT, rho0)
        tau = qsl_new(H_ROT, rho0, target, 3.0, 2000)
        # discrete step angles carry an O(dt^2) bias relative to v(0) dt
        assert tau == pytest.approx(target / v0, abs=1e-6)

    def test_tiny_target_gives_tiny_tau(self):
        tau = qsl_new(H_ROT, PLUS, 1e-6, 1.0, 1000)
        assert tau == pytest.approx(1e-6, abs=1e-9)

    def test_unreachable_path_target_returns_none(self):
        assert qsl_new(H_ROT, PLUS, 3.0, 1.0, 500) is None

    def test_geodesic_bounds_equal_actual_time(self):
        target = math.pi / 2
        tau_tilde, actual = qsl_existing(H_ROT, PLUS, target, 2.0, 4000)
        assert actual == pytest.approx(target, abs=1e-6)
        assert tau_tilde == pytest.approx(target, abs=1e-6)

    def test_stationary_state_is_unreachable(self):
        tau_tilde, actual = qsl_existing(H_ROT, ZERO, 0.5, 5.0, 500)
        assert tau_tilde is None and actual is None

    def test_report_invariants_on_landau_zener(self):
        model = landau_zener(1.0, 1.0)
        rep = qsl_report(model, PLUS, 1.4, 2.0, 4000)
        assert rep.reachable
        dt = 2.0 / 4000
        assert rep.tau_new <= rep.actual_time + dt
        assert rep.tau_existing <= rep.actual_time + dt
        assert rep.tau_existing == pytest.approx(
            rep.theta_target * rep.actual_time / rep.path_length, abs=1e-12
        )

    def test_accelerating_dynamics_make_the_path_bound_tighter(self):
        # convex path: the chord from the origin crosses the target before
        # the curve does, so tau_existing <= tau_new
        model = landau_zener(1.0, 1.0)
        for theta in (0.7, 1.0, 1.4):
            rep = qsl_report(model, PLUS, theta, 2.0, 4000)
            assert rep.reachable
            assert rep.tau_existing <= rep.tau_new + 1e-9

    def test_matches_fine_grid_oracle(self):
        model = landau_zener(1.0, 1.0)
        rep = qsl_report(model, PLUS, 1.4, 2.0, 8000)
        tau_ref, tilde_ref, t_ref = lz_bloch_oracle(1.0, 1.0, (1.0, 0.0, 0.0), 1.4, 2.0, 200_000)
        assert rep.tau_new == pytest.approx(tau_ref, abs=1e-4)
        assert rep.tau_existing == pytest.approx(tilde_ref, abs=1e-4)
        assert rep.actual_time == pytest.approx(t_ref, abs=1e-4)

    def test_purity_independence_of_both_bounds(self):
        model = landau_zener(1.0, 1.0)
        results = []
        for radius in (1.0, 0.8, 0.6):
            rho0 = density_from_bloch([radius, 0.0, 0.0])
            rep = qsl_report(model, rho0, math.pi / 2, 10.0, 2000)
            results.append((rep.tau_new, rep.tau_existing))
        for tau, tilde in results[1:]:
            assert tau == pytest.approx(results[0][0], abs=1e-6)
            assert tilde == pytest.approx(results[0][1], abs=1e-6)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValueError):
            qsl_new(H_ROT, PLUS, 0.0, 1.0, 100)
        with pytest.raises(ValueError):
            qsl_existing(H_ROT, PLUS, 3.5, 1.0, 100)

    @settings(max_examples=20)
    @given(finite_floats(0.2, 2.8), st.integers(0, 10_000))
    def test_bounds_never_exceed_actual_time(self, theta, salt):
        rng = np.random.default_rng(salt)
        h = random_hermitian(rng)
        rho0 = random_qubit_dm(rng, min_purity=0.7)
        rep = qsl_report(h, rho0, theta, 3.0, 1500)
        if rep.reachable:
            dt = 3.0 / 1500
            assert rep.tau_new <= rep.actual_time + dt
            assert rep.tau_existing <= rep.actual_time + dt


class TestAngleCrossing:
    @staticmethod
    def _trajectories(dim):
        rng = np.random.default_rng(40 + dim)
        h0, h1 = random_hermitian(rng, dim), random_hermitian(rng, dim)
        rho0 = 0.8 * ket_dm(rng.normal(size=dim) + 1j * rng.normal(size=dim)) + 0.2 * random_density(rng, dim)
        dephasing = tuple(math.sqrt(0.3) * np.diag(np.eye(dim)[j]).astype(complex) for j in range(dim))
        models = {
            "const": h0,
            "driven": lambda t: h0 + math.cos(2.0 * t) * h1,
            "lindblad": LindbladModel(h0, dephasing),
        }
        return {name: propagate(model, rho0, 4.0, 800) for name, model in models.items()}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_interpolated_matrix_bisection(self, dim):
        for name, traj in self._trajectories(dim).items():
            angles = start_angles(traj.states)
            radii = np.einsum("kij,kji->k", traj.states, traj.states).real
            if name == "lindblad":
                assert np.ptp(radii) > 0.05
            for frac in (0.2, 0.45, 0.7, 0.95):
                theta = frac * float(np.max(angles))
                k = int(np.nonzero(angles >= theta)[0][0])
                got = refine_angle_crossing(traj.times, traj.states, theta, k)
                want = bisect_interpolated_crossing(traj.times, traj.states, theta, k)
                assert abs(got - want) <= 1e-12, (name, theta)
                assert traj.times[k - 1] <= got <= traj.times[k]

    def test_segment_through_the_maximally_mixed_state_raises(self):
        # qubit: |0><0| -> |1><1| passes through I/2 at x = 1/2
        states = np.stack([ZERO, ZERO, ONE])
        with pytest.raises(MaximallyMixedError):
            refine_angle_crossing(np.array([0.0, 1.0, 2.0]), states, 1.0, 2)
        # qutrit: |0><0| -> (|1><1| + |2><2|)/2 passes through I/3 at x = 2/3
        zero3 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        rest3 = np.diag([0.0, 0.5, 0.5]).astype(complex)
        states = np.stack([zero3, zero3, rest3])
        with pytest.raises(MaximallyMixedError):
            refine_angle_crossing(np.array([0.0, 1.0, 2.0]), states, 1.0, 2)


class TestBuresBound:
    def test_orthogonal_pure_states_reproduce_pi_over_two_spread(self):
        for amp in (0.5, 1.0, 2.0):
            h = qubit_hamiltonian(amp, (1, 0, 0))
            bound = bures_qsl(h, ZERO, ONE)
            spread = amp / 2.0
            assert bound == pytest.approx(math.pi / (2.0 * spread), rel=1e-9)

    def test_same_state_gives_zero(self):
        # fidelity of a pure state with itself computes to 1 - O(eps), so the
        # bound lands at the arccos floor rather than exactly zero
        assert bures_qsl(H_ROT, PLUS, PLUS) <= 1e-7

    def test_undefined_for_pure_identity_hamiltonian(self):
        with pytest.raises(UndefinedBoundError):
            bures_qsl(2.0 * np.eye(2), ZERO, ONE)

    def test_stationary_eigenstate_gives_infinite_bound(self):
        bound = bures_qsl(SIGMA_Z / 2, ZERO, ONE)
        assert math.isinf(bound)

    def test_mixed_states_make_the_bures_bound_loose(self):
        # shrink the initial state toward the center: the Bures bound decays
        # while the rotation time (captured by the path bound) stays put
        h = qubit_hamiltonian(1.0, (0, 0, 1))
        horizon = 2.5
        taus, bures = [], []
        for radius in (1.0, 0.8, 0.6, 0.4, 0.2):
            rho0 = density_from_bloch([radius, 0.0, 0.0])
            traj = propagate_const(h, rho0, 2.0, 2000)
            sigma = traj.states[-1]
            theta = bloch_angle(rho0, sigma)
            taus.append(qsl_new(h, rho0, theta, horizon, 2500))
            bures.append(bures_qsl(h, rho0, sigma))
        assert max(taus) - min(taus) <= 1e-6
        assert all(b1 > b2 for b1, b2 in zip(bures, bures[1:]))
        assert bures[-1] < 0.2 * taus[-1]


class TestGeodesicChecks:
    def test_great_circle_has_no_defect(self):
        traj = accumulate_path(propagate_const(H_ROT, PLUS, 0.99 * math.pi, 10_000))
        assert abs(geodesic_defect(traj)) <= 1e-6

    def test_small_circle_defect_matches_closed_form(self):
        theta0 = math.pi / 4
        rho0 = qubit_state_from_angles(1.0, theta0, 0.0)
        traj = accumulate_path(propagate_const(H_ROT, rho0, math.pi, 20_000))
        s_exact = math.pi * math.sin(theta0)
        cos_angle = math.cos(theta0) ** 2 + math.sin(theta0) ** 2 * math.cos(math.pi)
        expected = s_exact - math.acos(cos_angle)
        defect = geodesic_defect(traj)
        assert defect == pytest.approx(expected, abs=1e-4)
        assert defect > 0.6

    def test_stationary_trajectory_has_zero_defect(self):
        traj = accumulate_path(propagate_const(H_ROT, ZERO, 1.0, 100))
        # the propagated samples wobble at machine eps, so each pair angle
        # sits at the sqrt(eps) arccos floor
        assert abs(geodesic_defect(traj)) <= 1e-6

    def test_ode_residual_small_on_geodesic(self):
        traj = propagate_const(H_ROT, PLUS, 0.99 * math.pi, 10_000)
        assert geodesic_ode_residual(traj) <= 1e-4

    def test_ode_residual_large_off_geodesic(self):
        rho0 = qubit_state_from_angles(1.0, math.pi / 4, 0.0)
        traj = propagate_const(H_ROT, rho0, math.pi, 10_000)
        assert geodesic_ode_residual(traj) >= 0.1

    def test_ode_residual_zero_for_stationary_state(self):
        traj = propagate_const(H_ROT, ZERO, 1.0, 100)
        assert geodesic_ode_residual(traj) == pytest.approx(0.0, abs=1e-10)

    def test_ode_residual_needs_three_samples(self):
        traj = propagate_const(H_ROT, PLUS, 1.0, 1)
        with pytest.raises(ValueError):
            geodesic_ode_residual(traj)
