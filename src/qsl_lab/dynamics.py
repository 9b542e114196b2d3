"""Time evolution on uniform grids.

Unitary dynamics has one core, :func:`propagate_unitary_batch`, which
evolves a stack of initial states; a single state is a batch of one.

* constant Hamiltonians evolve through the exact eigendecomposition
  U(t) = V exp(-i E t) V^dag, so every sample is unitary to machine
  precision regardless of the grid;
* driven (time-dependent) Hamiltonians use midpoint-exponential stepping,
  U_k = exp(-i H(t_k + dt/2) dt), which keeps each step exactly unitary and
  has O(dt^2) global error.

Lindblad models are integrated with classical fixed-step RK4 on the
generator of :func:`lindbladian`.  Trace drift is monitored, never silently
corrected.

hbar = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .errors import NonHermitianError, StepSizeTooLargeError
from .states import HERMITIAN_TOL, PAULIS, check_density_matrix

HamiltonianFn = Callable[[float], np.ndarray]
Hamiltonian = Union[np.ndarray, HamiltonianFn]

# default grids keep dt * max_t ||H(t)|| at this level
STEP_NORM_TARGET = 1e-3
DEFAULT_MIN_STEPS = 100
TRACE_DRIFT_LIMIT = 1e-6


@dataclass(frozen=True)
class LindbladModel:
    """Master-equation model: Hamiltonian part plus jump operators.

    Jump operators carry their rates, i.e. pass sqrt(gamma) * A as the jump
    for a channel A at rate gamma.  An empty jump tuple is plain unitary
    dynamics.
    """

    hamiltonian: Hamiltonian
    jumps: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "jumps", tuple(np.asarray(j, dtype=complex) for j in self.jumps)
        )


DynamicsModel = Union[np.ndarray, HamiltonianFn, LindbladModel]


@dataclass(frozen=True)
class Trajectory:
    """States sampled on the uniform grid t_0 = 0 ... t_M = T.

    ``cumulative_path`` holds the discrete path length s(t_k) once
    :func:`qsl_lab.qsl.accumulate_path` has run; it is None right after
    propagation.
    """

    times: np.ndarray
    states: np.ndarray
    cumulative_path: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.times, self.states, self.cumulative_path):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class LandauZener:
    """Avoided-crossing Hamiltonian H(t) = V t sigma_z + gap sigma_x."""

    sweep_rate: float
    gap: float

    def __call__(self, t: float) -> np.ndarray:
        vt = self.sweep_rate * t
        return np.array([[vt, self.gap], [self.gap, -vt]], dtype=complex)

    def angular_speed(self, t: float) -> float:
        """Rotation speed A(t) = 2 sqrt((Vt)^2 + gap^2) of the Bloch axis form."""
        return 2.0 * math.hypot(self.sweep_rate * t, self.gap)

    def axis(self, t: float) -> np.ndarray:
        """Unit rotation axis, (gap, 0, Vt) normalized."""
        n = np.array([self.gap, 0.0, self.sweep_rate * t])
        return n / np.linalg.norm(n)


def landau_zener(sweep_rate: float, gap: float) -> LandauZener:
    return LandauZener(float(sweep_rate), float(gap))


def qubit_hamiltonian(amplitude: float, axis, offset: float = 0.0) -> np.ndarray:
    """Constant qubit Hamiltonian amplitude * n.sigma / 2 + offset * I."""
    n = np.asarray(axis, dtype=float).ravel()
    if n.shape != (3,):
        raise ValueError(f"axis must be a 3-vector, got shape {n.shape}")
    if abs(np.linalg.norm(n) - 1.0) > 1e-10:
        raise ValueError(f"axis must be a unit vector, |n| = {np.linalg.norm(n):.12f}")
    h = offset * np.eye(2, dtype=complex)
    for comp, pauli in zip(n, PAULIS):
        h = h + 0.5 * amplitude * comp * pauli
    return h


def require_hermitian(h: np.ndarray, *, what: str = "Hamiltonian") -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    err = np.max(np.abs(h - h.conj().T))
    if err > HERMITIAN_TOL:
        raise NonHermitianError(f"{what} is not Hermitian: max |H - H^dag| = {err:.3e}")
    return h


def evolution_operator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian ``h`` (closed form for qubits, eigh otherwise)."""
    h = require_hermitian(h)
    return _step_unitaries(lambda _: h, np.array([0.0, t]))[0]


def _step_unitaries(h: HamiltonianFn, times: np.ndarray) -> np.ndarray:
    """Midpoint steps exp(-i H(t_k + dt/2) dt) of a uniform grid.

    Every midpoint sample of H is checked for Hermiticity.  Qubits use the
    closed form of :func:`_qubit_steps`; larger dimensions one batched
    eigendecomposition of the whole stack.
    """
    dt = times[1] - times[0]
    mids = times[:-1] + dt / 2.0
    hs = np.stack([np.asarray(h(t), dtype=complex) for t in mids])
    herm_err = np.max(np.abs(hs - hs.conj().transpose(0, 2, 1)), axis=(1, 2))
    worst = int(np.argmax(herm_err))
    if herm_err[worst] > HERMITIAN_TOL:
        raise NonHermitianError(
            f"H(t) not Hermitian at t = {mids[worst]:.6g}: max |H - H^dag| = {herm_err[worst]:.3e}"
        )
    if hs.shape[1] == 2:
        return _qubit_steps(hs, dt)
    w, v = np.linalg.eigh(hs)
    return (v * np.exp(-1j * w * dt)[:, np.newaxis, :]) @ v.conj().transpose(0, 2, 1)


def _qubit_steps(hs: np.ndarray, dt: float) -> np.ndarray:
    """Vectorized exp(-i H dt) for a stack of Hermitian 2x2 matrices.

    Uses H = a0 I + a . sigma and the closed form
    exp(-i H dt) = e^{-i a0 dt} (cos(|a| dt) I - i sin(|a| dt) a_hat . sigma).
    """
    a0 = (hs[:, 0, 0] + hs[:, 1, 1]).real / 2.0
    ax = hs[:, 1, 0].real
    ay = hs[:, 1, 0].imag
    az = (hs[:, 0, 0] - hs[:, 1, 1]).real / 2.0
    norm = np.sqrt(ax * ax + ay * ay + az * az)
    cos = np.cos(norm * dt)
    # sin(|a| dt)/|a|, with the dt limit at |a| = 0
    sinc = np.where(norm > 0.0, np.sin(norm * dt) / np.where(norm > 0.0, norm, 1.0), dt)
    phase = np.exp(-1j * a0 * dt)
    u = np.empty_like(hs)
    u[:, 0, 0] = phase * (cos - 1j * sinc * az)
    u[:, 0, 1] = phase * (-1j * sinc * (ax - 1j * ay))
    u[:, 1, 0] = phase * (-1j * sinc * (ax + 1j * ay))
    u[:, 1, 1] = phase * (cos + 1j * sinc * az)
    return u


def _operator_norm(h: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(h, dtype=complex), 2))


def default_step_count(h: Hamiltonian, t_final: float, extra_scale: float = 0.0) -> int:
    """Grid size keeping dt * (max_t ||H(t)|| + extra_scale) <= STEP_NORM_TARGET."""
    if callable(h):
        ts = np.linspace(0.0, t_final, 257)
        scale = max(_operator_norm(h(t)) for t in ts)
    else:
        scale = _operator_norm(h)
    scale += extra_scale
    return max(DEFAULT_MIN_STEPS, int(math.ceil(t_final * scale / STEP_NORM_TARGET)))


def _grid(t_final: float, steps: int) -> np.ndarray:
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    if not t_final > 0.0:
        raise ValueError(f"final time must be positive, got {t_final}")
    return np.linspace(0.0, t_final, steps + 1)


def propagate_const(h: np.ndarray, rho0: np.ndarray, t_final: float, steps: int | None = None) -> Trajectory:
    """Evolve under a constant Hamiltonian, rho_k = U(t_k) rho0 U(t_k)^dag.

    Each U(t_k) comes straight from the eigendecomposition of H, not from
    repeated multiplication, so unitarity does not degrade with the grid.
    """
    if steps is None:
        steps = default_step_count(h, t_final)
    times, states = propagate_unitary_batch(h, np.asarray(rho0)[np.newaxis], t_final, steps)
    return Trajectory(times=times, states=states[:, 0])


def propagate_timedep(h: HamiltonianFn, rho0: np.ndarray, t_final: float, steps: int | None = None) -> Trajectory:
    """Evolve under a time-dependent Hamiltonian by midpoint-exponential steps.

    rho_{k+1} = U_k rho_k U_k^dag with U_k = exp(-i H(t_k + dt/2) dt).  Every
    sample is an exactly unitary image of rho0; the global error is O(dt^2).
    """
    if not callable(h):
        raise TypeError("propagate_timedep expects a callable t -> Hamiltonian")
    rho0 = check_density_matrix(rho0)
    if steps is None:
        steps = default_step_count(h, t_final)
    times = _grid(t_final, steps)
    us = _step_unitaries(h, times)
    # kept apart from the batch loop: uk @ cur @ uk^dag and the batch einsum
    # round differently (6e-15 apart after fig5's 8,000 steps, which moves
    # 7,232 of its 8,001 theta cells after the arccos)
    states = np.empty((steps + 1,) + rho0.shape, dtype=complex)
    states[0] = rho0
    cur = rho0
    for k in range(steps):
        uk = us[k]
        cur = uk @ cur @ uk.conj().T
        states[k + 1] = cur
    return Trajectory(times=times, states=states)


def propagate_unitary_batch(h: Hamiltonian, rho0s: np.ndarray, t_final: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Propagate a batch of initial states under one Hamiltonian.

    Returns (times, states) with states of shape (steps+1, batch, N, N).
    Every initial state is validated, and so is H (every midpoint sample of
    a driven H).  The step unitaries are computed once and shared, so each
    batch row is bitwise independent of the batch size.
    """
    rho0s = np.asarray(rho0s, dtype=complex)
    if rho0s.ndim != 3:
        raise ValueError(f"expected a (batch, N, N) stack, got shape {rho0s.shape}")
    for rho0 in rho0s:
        check_density_matrix(rho0)
    times = _grid(t_final, steps)
    if not callable(h):
        w, v = np.linalg.eigh(require_hermitian(h))
        phases = np.exp(-1j * np.outer(times, w))
        us = np.einsum("ab,kb,cb->kac", v, phases, v.conj())
        return times, np.einsum("kab,Bbc,kdc->kBad", us, rho0s, us.conj())
    us = _step_unitaries(h, times)
    states = np.empty((steps + 1,) + rho0s.shape, dtype=complex)
    states[0] = rho0s
    cur = rho0s
    for k in range(steps):
        cur = np.einsum("ij,bjk,lk->bil", us[k], cur, us[k].conj())
        states[k + 1] = cur
    return times, states


def _generator(model: DynamicsModel) -> Callable[[float, np.ndarray], np.ndarray]:
    """The map (t, rho) -> L(rho) of the master equation.

    A constant H is checked for Hermiticity once, and sum_a L_a^dag L_a is
    formed once, when the generator is built.
    """
    if not isinstance(model, LindbladModel):
        model = LindbladModel(model)
    h = model.hamiltonian
    const_h = None if callable(h) else require_hermitian(h)
    ls = np.stack(model.jumps) if model.jumps else None
    ldl = None if ls is None else np.einsum("aji,ajk->ik", ls.conj(), ls)

    def rhs(t, rho):
        hmat = np.asarray(h(t), dtype=complex) if const_h is None else const_h
        out = -1j * (hmat @ rho - rho @ hmat)
        if ls is not None:
            out = out + np.einsum("aij,jk,alk->il", ls, rho, ls.conj())
            out = out - 0.5 * (ldl @ rho + rho @ ldl)
        return out

    return rhs


def lindbladian(model: DynamicsModel, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Right-hand side L(rho) of the master equation at time t."""
    return _generator(model)(t, rho)


def propagate_lindblad(model: LindbladModel, rho0: np.ndarray, t_final: float, steps: int | None = None) -> Trajectory:
    """Integrate the Lindblad master equation with classical RK4.

    Trace drift beyond TRACE_DRIFT_LIMIT raises StepSizeTooLargeError; no
    renormalization is applied, so integrator trouble stays visible.
    """
    if not isinstance(model, LindbladModel):
        model = LindbladModel(model)
    rho0 = check_density_matrix(rho0)
    if steps is None:
        jump_scale = sum(_operator_norm(j) ** 2 for j in model.jumps)
        steps = default_step_count(model.hamiltonian, t_final, extra_scale=jump_scale)
    times = _grid(t_final, steps)
    dt = times[1] - times[0]
    rhs = _generator(model)
    states = np.empty((steps + 1,) + rho0.shape, dtype=complex)
    states[0] = rho0
    cur = rho0
    for k in range(steps):
        t = times[k]
        k1 = rhs(t, cur)
        k2 = rhs(t + dt / 2.0, cur + dt / 2.0 * k1)
        k3 = rhs(t + dt / 2.0, cur + dt / 2.0 * k2)
        k4 = rhs(t + dt, cur + dt * k3)
        cur = cur + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        drift = abs(np.trace(cur) - 1.0)
        if drift > TRACE_DRIFT_LIMIT:
            raise StepSizeTooLargeError(
                f"trace drift {drift:.3e} at t = {times[k + 1]:.6g}; increase the step count"
            )
        states[k + 1] = cur
    return Trajectory(times=times, states=states)


def propagate(model: DynamicsModel, rho0: np.ndarray, t_final: float, steps: int | None = None) -> Trajectory:
    """Dispatch on the model kind: matrix, callable, or LindbladModel."""
    if isinstance(model, LindbladModel):
        return propagate_lindblad(model, rho0, t_final, steps)
    if callable(model):
        return propagate_timedep(model, rho0, t_final, steps)
    return propagate_const(np.asarray(model), rho0, t_final, steps)


def with_path(traj: Trajectory, cumulative_path: np.ndarray) -> Trajectory:
    """Trajectory copy with the cumulative path filled in."""
    return replace(traj, cumulative_path=np.asarray(cumulative_path, dtype=float))
