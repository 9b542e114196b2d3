import math
import warnings

import numpy as np
import pytest
from hypothesis import given

from conftest import finite_floats, qubit_states, random_density
from qsl_lab import (
    bloch_angle,
    bloch_from_density,
    bures_angle,
    density_from_bloch,
    fidelity,
    gell_mann_basis,
    ket_dm,
    overlap,
    purity,
    qubit_state_from_angles,
    random_bloch_direction,
    random_state_fixed_purity,
)
from qsl_lab.errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidStateError,
    MaximallyMixedError,
)
from qsl_lab.states import SIGMA_X, SIGMA_Y, SIGMA_Z, arccos_clamped

PLUS = ket_dm([1, 1])
ZERO = ket_dm([1, 0])
ONE = ket_dm([0, 1])
MIXED = np.eye(2) / 2


class TestGellMannBasis:
    def test_qubit_basis_is_exactly_the_paulis(self):
        basis = gell_mann_basis(2)
        assert np.array_equal(basis[0], SIGMA_X)
        assert np.array_equal(basis[1], SIGMA_Y)
        assert np.array_equal(basis[2], SIGMA_Z)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_orthonormality_all_pairs(self, dim):
        basis = gell_mann_basis(dim)
        assert basis.shape == (dim * dim - 1, dim, dim)
        gram = np.einsum("aij,bji->ab", basis, basis)
        assert np.max(np.abs(gram - 2.0 * np.eye(dim * dim - 1))) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_hermitian_and_traceless(self, dim):
        basis = gell_mann_basis(dim)
        assert np.max(np.abs(basis - basis.conj().transpose(0, 2, 1))) == 0
        assert np.max(np.abs(np.trace(basis, axis1=1, axis2=2))) <= 1e-15

    def test_rejects_dimension_below_two(self):
        with pytest.raises(InvalidDimensionError):
            gell_mann_basis(1)


class TestBlochConversions:
    def test_zero_state_points_north(self):
        assert np.allclose(bloch_from_density(ZERO), [0, 0, 1], atol=1e-15)

    def test_center_is_maximally_mixed(self):
        assert np.allclose(bloch_from_density(MIXED), [0, 0, 0], atol=1e-15)

    def test_linearity_along_x(self):
        rho = (np.eye(2) + 0.6 * SIGMA_X) / 2
        assert np.allclose(bloch_from_density(rho), [0.6, 0, 0], atol=1e-15)

    def test_origin_maps_to_center(self):
        assert np.allclose(density_from_bloch([0, 0, 0]), MIXED, atol=1e-15)

    def test_unit_x_is_plus(self):
        assert np.allclose(density_from_bloch([1, 0, 0]), PLUS, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_round_trip_1000_random_states(self, dim):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            rho = random_density(rng, dim)
            back = density_from_bloch(bloch_from_density(rho))
            assert np.max(np.abs(back - rho)) <= 1e-12

    def test_qubit_radius_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            rho = random_density(rng, 2)
            assert np.linalg.norm(bloch_from_density(rho)) <= 1.0 + 1e-10

    def test_nonpositive_vector_rejected_with_eigenvalue(self):
        # the flipped last diagonal direction leaves the qutrit state space
        r = np.zeros(8)
        r[-1] = 1.0
        with pytest.raises(InvalidStateError, match="eigenvalue"):
            density_from_bloch(r)

    def test_bad_length_rejected(self):
        with pytest.raises(InvalidDimensionError):
            density_from_bloch([1.0, 0.0])


class TestOverlap:
    def test_plus_zero(self):
        assert overlap(PLUS, ZERO) == pytest.approx(0.5, abs=1e-15)

    def test_self_overlap_is_purity(self):
        rho = qubit_state_from_angles(0.8, 1.0, 2.0)
        assert overlap(rho, rho) == pytest.approx(purity(rho), abs=1e-15)

    def test_orthogonal_pure_states(self):
        assert overlap(ZERO, ONE) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            overlap(ZERO, np.eye(3) / 3)


class TestBlochAngle:
    def test_antipodal(self):
        assert bloch_angle(ZERO, ONE) == pytest.approx(math.pi, abs=1e-12)

    def test_orthogonal_directions(self):
        assert bloch_angle(ZERO, PLUS) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_parallel_after_mixing_toward_center(self):
        rho = PLUS
        shrunk = 0.5 * rho + 0.5 * MIXED
        assert bloch_angle(rho, shrunk) == 0.0

    def test_identical_states_give_exact_zero(self):
        rho = qubit_state_from_angles(0.77, 0.3, 4.0)
        assert bloch_angle(rho, rho) == 0.0

    def test_maximally_mixed_rejected(self):
        with pytest.raises(MaximallyMixedError):
            bloch_angle(MIXED, ZERO)

    @given(qubit_states(), qubit_states())
    def test_symmetry(self, rho, sigma):
        assert bloch_angle(rho, sigma) == pytest.approx(bloch_angle(sigma, rho), abs=0.0)

    @given(qubit_states(min_purity=0.9), finite_floats(0.05, 1.0), finite_floats(0.05, 1.0))
    def test_purity_scaling_invariance(self, rho, eta1, eta2):
        sigma = qubit_state_from_angles(0.9, 0.4, 1.1)
        shrink1 = eta1 * rho + (1 - eta1) * MIXED
        shrink2 = eta2 * sigma + (1 - eta2) * MIXED
        assert bloch_angle(shrink1, shrink2) == pytest.approx(
            bloch_angle(rho, sigma), abs=1e-9
        )


class TestClamp:
    def test_small_excursion_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert arccos_clamped(1.0 + 1e-9) == 0.0
            assert arccos_clamped(-1.0 - 1e-9) == pytest.approx(math.pi)

    def test_large_excursion_warns(self):
        with pytest.warns(RuntimeWarning):
            arccos_clamped(1.0 + 1e-6)

    def test_array_is_clamped_elementwise(self):
        x = np.array([-1.0 - 1e-9, -0.5, 0.0, 0.5, 1.0 + 1e-9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = arccos_clamped(x)
        assert got.shape == x.shape
        assert np.array_equal(got, np.arccos(np.clip(x, -1.0, 1.0)))
        assert got[0] == pytest.approx(math.pi) and got[-1] == 0.0

    def test_array_warns_once_per_call(self):
        x = np.array([[1.0 + 1e-6, 0.3], [-1.0 - 1e-6, 1.0 + 1e-5]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = arccos_clamped(x)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert np.array_equal(got, np.arccos(np.clip(x, -1.0, 1.0)))

    def test_array_matches_scalar_path(self):
        x = np.linspace(-1.0 - 1e-9, 1.0 + 1e-9, 101)
        assert np.array_equal(arccos_clamped(x), [arccos_clamped(float(v)) for v in x])


class TestBuresAngle:
    def test_identical_states(self):
        rho = qubit_state_from_angles(0.8, 1.0, 0.0)
        assert bures_angle(rho, rho) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_pure(self):
        assert bures_angle(ZERO, ONE) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_center_against_itself_is_zero(self):
        assert bures_angle(MIXED, MIXED) == pytest.approx(0.0, abs=1e-7)

    def test_pure_pure_matches_inner_product(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            a = a / np.linalg.norm(a)
            b = b / np.linalg.norm(b)
            expected = math.acos(min(1.0, abs(np.vdot(a, b))))
            assert bures_angle(ket_dm(a), ket_dm(b)) == pytest.approx(expected, abs=1e-7)

    @given(qubit_states(min_purity=0.51), qubit_states(min_purity=0.51))
    def test_range(self, rho, sigma):
        assert 0.0 <= bures_angle(rho, sigma) <= math.pi / 2

    def test_qubit_closed_form_matches_general_route(self):
        # tensoring with a fixed pure ancilla preserves fidelity but sends the
        # computation through the eigendecomposition branch; that route loses
        # half precision on near-zero eigenvalues, hence the looser tolerance
        rng = np.random.default_rng(9)
        ancilla = np.array([[1.0, 0.0], [0.0, 0.0]])
        for _ in range(100):
            rho = random_density(rng, 2)
            sigma = random_density(rng, 2)
            closed = fidelity(rho, sigma)
            lifted = fidelity(np.kron(rho, ancilla), np.kron(sigma, ancilla))
            assert closed == pytest.approx(lifted, abs=1e-7)


class TestRandomStates:
    def test_pure_state_has_unit_radius(self):
        rng = np.random.default_rng(0)
        rho = random_state_fixed_purity(1.0, rng)
        assert np.linalg.norm(bloch_from_density(rho)) == pytest.approx(1.0, abs=1e-12)

    def test_radius_follows_purity(self):
        rng = np.random.default_rng(1)
        rho = random_state_fixed_purity(0.7, rng)
        r = np.linalg.norm(bloch_from_density(rho))
        assert r == pytest.approx(math.sqrt(0.4), abs=1e-12)
        assert r == pytest.approx(0.6324555, abs=1e-7)

    def test_deterministic_under_seed(self):
        a = random_state_fixed_purity(0.9, np.random.default_rng(42))
        b = random_state_fixed_purity(0.9, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_purity_out_of_range(self):
        rng = np.random.default_rng(2)
        with pytest.raises(InvalidStateError):
            random_state_fixed_purity(0.5, rng)
        with pytest.raises(InvalidStateError):
            random_state_fixed_purity(1.2, rng)

    def test_direction_is_unbiased(self):
        # 1e4 samples at purity 0.9: each Cartesian component has mean 0 with
        # per-component variance r^2/3
        rng = np.random.default_rng(7)
        n = 10_000
        comps = np.array(
            [bloch_from_density(random_state_fixed_purity(0.9, rng)) for _ in range(n)]
        )
        radius = math.sqrt(2 * 0.9 - 1)
        sigma_mean = radius / math.sqrt(3 * n)
        assert np.all(np.abs(comps.mean(axis=0)) <= 3 * sigma_mean)

    def test_direction_angles_in_range(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            phi, varphi = random_bloch_direction(rng)
            assert 0.0 <= phi <= math.pi
            assert 0.0 <= varphi <= 2 * math.pi
