"""Finite-dimensional quantum states in the generalized Bloch representation.

Density matrices are plain complex ndarrays.  The parametrization used
throughout is

    rho = (I + sqrt(N(N-1)/2) * r . lam) / N,

where ``lam`` is the generator basis returned by :func:`gell_mann_basis`
(normalized so Tr(lam_i lam_j) = 2 delta_ij) and ``r`` is a real vector of
length N**2 - 1.  For N=2 this is the familiar rho = (I + r . sigma) / 2.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidStateError,
    MaximallyMixedError,
)

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
# below this value of N*Tr(rho^2) - 1 the Bloch vector counts as zero length
MIXED_TOL = 1e-10
# warn when an arccos argument leaves [-1, 1] by more than this
CLAMP_WARN_TOL = 1e-8

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
for _m in PAULIS:
    _m.setflags(write=False)


def basis_ket(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> in dimension ``dim``."""
    if not 0 <= index < dim:
        raise InvalidDimensionError(f"index {index} outside dimension {dim}")
    ket = np.zeros(dim, dtype=complex)
    ket[index] = 1.0
    return ket


def ket_dm(psi) -> np.ndarray:
    """Density matrix |psi><psi| of a ket (normalized first)."""
    psi = np.asarray(psi, dtype=complex).ravel()
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise InvalidStateError("zero ket has no associated state")
    psi = psi / norm
    return np.outer(psi, psi.conj())


def check_density_matrix(rho: np.ndarray, *, psd: bool = True) -> np.ndarray:
    """Validate Hermiticity, unit trace and (optionally) positivity.

    Returns the input as a complex ndarray; raises InvalidStateError with the
    offending quantity otherwise.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"expected a square matrix, got shape {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > HERMITIAN_TOL:
        raise InvalidStateError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidStateError(f"trace is {tr:.15g}, expected 1")
    if psd:
        w = np.linalg.eigvalsh(rho)
        if w[0] < -PSD_TOL:
            raise InvalidStateError(f"not positive semidefinite: min eigenvalue {w[0]:.3e}")
    return rho


@lru_cache(maxsize=None)
def gell_mann_basis(dim: int) -> np.ndarray:
    """Generators of SU(dim) with Tr(lam_i lam_j) = 2 delta_ij.

    Ordering is fixed so Bloch components are reproducible: symmetric
    off-diagonal pairs (j<k, lexicographic), then antisymmetric pairs,
    then the diagonal generators.  For dim=2 this is exactly
    (sigma_x, sigma_y, sigma_z).
    """
    if dim < 2:
        raise InvalidDimensionError(f"need dimension >= 2, got {dim}")
    mats = []
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    for level in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        coeff = math.sqrt(2.0 / (level * (level + 1)))
        for j in range(level):
            m[j, j] = coeff
        m[level, level] = -level * coeff
        mats.append(m)
    basis = np.stack(mats)
    basis.setflags(write=False)
    return basis


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Bloch vector r_j = sqrt(N/(2(N-1))) Tr(rho lam_j)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"expected a square matrix, got shape {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > HERMITIAN_TOL:
        raise InvalidStateError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    dim = rho.shape[0]
    basis = gell_mann_basis(dim)
    coef = math.sqrt(dim / (2.0 * (dim - 1)))
    return coef * np.einsum("aij,ji->a", basis, rho).real


def density_from_bloch(r) -> np.ndarray:
    """Inverse of :func:`bloch_from_density`; validates positivity.

    The dimension is inferred from len(r) = N**2 - 1.  Not every vector in
    the unit ball is a state for N > 2, so the resulting matrix is checked
    for positive semidefiniteness.
    """
    r = np.asarray(r, dtype=float).ravel()
    dim = int(round(math.sqrt(len(r) + 1)))
    if dim < 2 or dim * dim - 1 != len(r):
        raise InvalidDimensionError(f"length {len(r)} is not N^2-1 for any N >= 2")
    basis = gell_mann_basis(dim)
    coef = math.sqrt(dim * (dim - 1) / 2.0)
    rho = (np.eye(dim) + coef * np.tensordot(r, basis, axes=1)) / dim
    w = np.linalg.eigvalsh(rho)
    if w[0] < -PSD_TOL:
        raise InvalidStateError(f"Bloch vector leaves the state space: min eigenvalue {w[0]:.3e}")
    return rho


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2)."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.einsum("ij,ji->", rho, rho).real)


def overlap(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr(rho sigma), clamped to [0, 1].

    The imaginary part is rounding residue for Hermitian inputs and is
    discarded.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise DimensionMismatchError(f"shapes {rho.shape} and {sigma.shape} differ")
    val = float(np.einsum("ij,ji->", rho, sigma).real)
    return min(1.0, max(0.0, val))


def arccos_clamped(x):
    """arccos with the argument clamped to [-1, 1], for a scalar or an array.

    Floating-point drift routinely pushes cosine values a few ulp past the
    boundary; excursions beyond CLAMP_WARN_TOL are reported as one warning
    per call instead of crashing the metric evaluation.  Scalars stay on
    Python min/max, which the crossing bisection calls thousands of times.
    """
    if isinstance(x, np.ndarray):
        worst = float(np.max(np.abs(x), initial=0.0))
        if worst > 1.0 + CLAMP_WARN_TOL:
            warnings.warn(f"arccos argument {worst!r} outside [-1, 1]; clamping", RuntimeWarning)
        return np.arccos(np.clip(x, -1.0, 1.0))
    if x > 1.0 + CLAMP_WARN_TOL or x < -1.0 - CLAMP_WARN_TOL:
        warnings.warn(f"arccos argument {x!r} outside [-1, 1]; clamping", RuntimeWarning)
    return float(np.arccos(min(1.0, max(-1.0, x))))


def bloch_angle(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Angle between the Bloch vectors of two states, in [0, pi].

    Computed from overlaps and purities alone:

        Theta = arccos[(N Tr(rho sigma) - 1) / sqrt((N Tr rho^2 - 1)(N Tr sigma^2 - 1))]

    Undefined when either state is maximally mixed (zero Bloch radius).
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise DimensionMismatchError(f"shapes {rho.shape} and {sigma.shape} differ")
    dim = rho.shape[0]
    f1 = dim * float(np.einsum("ij,ji->", rho, rho).real) - 1.0
    f2 = dim * float(np.einsum("ij,ji->", sigma, sigma).real) - 1.0
    if f1 <= MIXED_TOL or f2 <= MIXED_TOL:
        raise MaximallyMixedError("Bloch angle undefined: a state has zero-length Bloch vector")
    t12 = float(np.einsum("ij,ji->", rho, sigma).real)
    arg = (dim * t12 - 1.0) / math.sqrt(f1 * f2)
    return arccos_clamped(arg)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Qubits use the closed form Tr(rho sigma) + 2 sqrt(det rho det sigma);
    larger dimensions go through an eigendecomposition of the matrix root.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise DimensionMismatchError(f"shapes {rho.shape} and {sigma.shape} differ")
    if rho.shape[0] == 2:
        dets = np.linalg.det(rho).real * np.linalg.det(sigma).real
        val = float(np.einsum("ij,ji->", rho, sigma).real) + 2.0 * math.sqrt(max(dets, 0.0))
    else:
        w, v = np.linalg.eigh(rho)
        sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        inner = sqrt_rho @ sigma @ sqrt_rho
        ev = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
        val = float(np.sum(np.sqrt(np.clip(ev, 0.0, None)))) ** 2
    return min(1.0, max(0.0, val))


def bures_angle(rho: np.ndarray, sigma: np.ndarray) -> float:
    """arccos sqrt(F(rho, sigma)), in [0, pi/2]."""
    return float(np.arccos(min(1.0, math.sqrt(fidelity(rho, sigma)))))


def random_bloch_direction(rng) -> tuple[float, float]:
    """Uniform direction on the sphere as polar angles (phi, varphi).

    Convention: x = r sin(phi) cos(varphi), y = r sin(phi) sin(varphi),
    z = r cos(phi).  Draw order (cos phi first, then varphi) is part of the
    determinism contract.
    """
    rng = np.random.default_rng(rng)
    cos_phi = rng.uniform(-1.0, 1.0)
    varphi = rng.uniform(0.0, 2.0 * math.pi)
    return math.acos(cos_phi), varphi


def qubit_state_from_angles(purity_value: float, phi: float, varphi: float) -> np.ndarray:
    """Qubit state with given purity and Bloch direction (phi, varphi)."""
    if not 0.5 < purity_value <= 1.0 + 1e-12:
        raise InvalidStateError(f"purity {purity_value} outside (0.5, 1]")
    radius = math.sqrt(2.0 * min(purity_value, 1.0) - 1.0)
    r = radius * np.array(
        [math.sin(phi) * math.cos(varphi), math.sin(phi) * math.sin(varphi), math.cos(phi)]
    )
    return density_from_bloch(r)


def random_state_fixed_purity(purity_value: float, rng) -> np.ndarray:
    """Random qubit state of fixed purity, direction uniform on the sphere.

    The Bloch radius is sqrt(2 * purity - 1); deterministic for a fixed
    generator state.
    """
    phi, varphi = random_bloch_direction(rng)
    return qubit_state_from_angles(purity_value, phi, varphi)
