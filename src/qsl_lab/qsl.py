"""Bloch-angle velocities, path lengths, and the two speed limits.

The instantaneous velocity is the rate at which the Bloch angle between
rho_t and rho_{t+dt} grows.  For unitary dynamics

    v = sqrt( 2 N Tr[H^2 rho^2 - (H rho)^2] / (N Tr rho^2 - 1) ),

and for a general Lindblad generator, with

    f = N Tr(rho^2) - 1,   g = N Tr(rho L(rho)),   h = N Tr(L(rho)^2),

the second-order expansion of the angle gives v = sqrt(h/f - (g/f)^2).
The g^2 term subtracts the purity-change rate, which moves the Bloch
vector radially without turning it; with g = 0 the unitary formula is
recovered.

Two speed limits are built on the discrete path length
s(t_k) = sum_j Theta(rho_j, rho_{j+1}):

* ``tau_new``: first time the accumulated path reaches the target angle;
* ``tau_existing``: Theta * T / s(T), where T is the first time the angle
  from the initial state reaches the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DynamicsModel,
    Trajectory,
    lindbladian,
    propagate,
    require_hermitian,
    with_path,
)
from .errors import MaximallyMixedError, UndefinedBoundError
from .states import MIXED_TOL, arccos_clamped, bloch_angle, bures_angle


@dataclass(frozen=True)
class QslReport:
    """Both bounds plus the actual crossing time for one target angle.

    ``reachable`` refers to the angle target: it is False when the Bloch
    angle from the initial state never reaches theta_target on the grid, in
    which case ``tau_existing`` and ``actual_time`` are None.  ``tau_new``
    is None only when the accumulated path also stays below the target
    (the path dominates the angle, so a reachable report always carries it).
    ``path_length`` is s(actual_time) when reachable, else s at the horizon.
    """

    theta_target: float
    tau_new: float | None
    tau_existing: float | None
    actual_time: float | None
    reachable: bool
    path_length: float


def _pair_overlaps(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tr(x_k y_k) along the leading axis; supports (..., N, N) stacks."""
    return np.einsum("k...ij,k...ji->k...", x, y).real


def _radial_terms(states: np.ndarray) -> np.ndarray:
    """f_k = N Tr(rho_k^2) - 1 along a trajectory; errors on zero radius."""
    dim = states.shape[-1]
    f = dim * _pair_overlaps(states, states) - 1.0
    if np.min(f) <= MIXED_TOL:
        k = int(np.argmin(f))
        raise MaximallyMixedError(f"sample {k} has zero-length Bloch vector")
    return f


def path_angles(states: np.ndarray) -> np.ndarray:
    """Bloch angles between adjacent samples, Theta(rho_k, rho_{k+1})."""
    dim = states.shape[-1]
    f = _radial_terms(states)
    t12 = _pair_overlaps(states[:-1], states[1:])
    args = (dim * t12 - 1.0) / np.sqrt(f[:-1] * f[1:])
    return arccos_clamped(args)


def start_angles(states: np.ndarray) -> np.ndarray:
    """Bloch angle Theta(rho_0, rho_k) for every sample of a state stack."""
    dim = states.shape[-1]
    f = _radial_terms(states)
    ref = np.einsum("...ij,k...ji->k...", states[0], states).real
    args = (dim * ref - 1.0) / np.sqrt(f[0] * f)
    return arccos_clamped(args)


def angles_from_start(traj: Trajectory) -> np.ndarray:
    """Bloch angle Theta(rho_0, rho_k) for every grid sample."""
    return start_angles(traj.states)


def accumulate_path(traj: Trajectory) -> Trajectory:
    """Fill in s(t_k) = sum_{j<k} Theta(rho_j, rho_{j+1}), with s(0) = 0."""
    if len(traj) < 2:
        raise ValueError("need at least two samples to accumulate a path")
    angles = path_angles(traj.states)
    s = np.concatenate([[0.0], np.cumsum(angles)])
    return with_path(traj, s)


def velocity_unitary(h: np.ndarray, rho: np.ndarray) -> float:
    """Instantaneous Bloch-angle speed under a Hamiltonian, >= 0."""
    h = require_hermitian(h)
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    f = dim * float(np.einsum("ij,ji->", rho, rho).real) - 1.0
    if f <= MIXED_TOL:
        raise MaximallyMixedError("velocity undefined for the maximally mixed state")
    hrho = h @ rho
    num = 2.0 * dim * float((np.einsum("ij,ji->", h @ hrho, rho) - np.einsum("ij,ji->", hrho, hrho)).real)
    radicand = num / f
    if radicand < -1e-12:
        raise ValueError(f"velocity radicand {radicand:.3e} is negative beyond tolerance")
    return math.sqrt(max(radicand, 0.0))


def velocity_terms(model: DynamicsModel, rho: np.ndarray, t: float = 0.0) -> tuple[float, float, float]:
    """Auxiliary scalars (f, g, h) built from the generator at one state.

    f = N Tr(rho^2) - 1, g = N Tr(rho L(rho)), h = N Tr(L(rho)^2).
    g is the radial (purity-changing) part and vanishes for unitary dynamics.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    lrho = lindbladian(model, rho, t)
    f = dim * float(np.einsum("ij,ji->", rho, rho).real) - 1.0
    g = dim * float(np.einsum("ij,ji->", rho, lrho).real)
    h = dim * float(np.einsum("ij,ji->", lrho, lrho).real)
    return f, g, h


def velocity_general(model: DynamicsModel, rho: np.ndarray, t: float = 0.0) -> float:
    """Bloch-angle speed for arbitrary Lindblad dynamics.

    v = sqrt(h/f - (g/f)^2).  Cauchy-Schwarz gives g^2 <= f h, so the
    radicand is nonnegative up to rounding; tiny negatives are clamped.
    Purely radial motion (e.g. dephasing of a state on the dephasing axis'
    equator) has h/f = (g/f)^2 and therefore zero angular speed.
    """
    f, g, h = velocity_terms(model, rho, t)
    if f <= MIXED_TOL:
        raise MaximallyMixedError("velocity undefined for the maximally mixed state")
    radicand = h / f - (g / f) ** 2
    return math.sqrt(max(radicand, 0.0))


def first_path_crossing(times: np.ndarray, path: np.ndarray, theta: float) -> float | None:
    """Smallest t with s(t) = theta, linear interpolation inside the step."""
    if theta <= 0.0:
        raise ValueError(f"target angle must be positive, got {theta}")
    if path[-1] < theta:
        return None
    k = int(np.searchsorted(path, theta, side="left"))
    if k == 0:
        return float(times[0])
    span = path[k] - path[k - 1]
    frac = (theta - path[k - 1]) / span
    return float(times[k - 1] + frac * (times[k] - times[k - 1]))


def refine_angle_crossing(times: np.ndarray, states: np.ndarray, theta: float, k: int) -> float:
    """Bisect Theta(rho_0, .) = theta inside grid step [t_{k-1}, t_k].

    The state inside the step is interpolated linearly between the bracketing
    samples, consistent with the O(dt^2) grid accuracy.
    """
    ref = states[0]
    lo, hi = 0.0, 1.0
    s0, s1 = states[k - 1], states[k]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bloch_angle(ref, s0 + mid * (s1 - s0)) >= theta:
            hi = mid
        else:
            lo = mid
    return float(times[k - 1] + hi * (times[k] - times[k - 1]))


def report_from_series(
    times: np.ndarray,
    states: np.ndarray,
    path: np.ndarray,
    angles: np.ndarray,
    theta_target: float,
) -> QslReport:
    """Solve both bounds from precomputed path and angle series.

    This is the shared core of qsl_new / qsl_existing / qsl_report; sweeps
    that batch their propagation call it per sample.
    """
    if theta_target <= 0.0:
        raise ValueError(f"target angle must be positive, got {theta_target}")
    tau_new = first_path_crossing(times, path, theta_target)
    hit = np.nonzero(angles >= theta_target)[0]
    if hit.size == 0:
        return QslReport(
            theta_target=theta_target,
            tau_new=tau_new,
            tau_existing=None,
            actual_time=None,
            reachable=False,
            path_length=float(path[-1]),
        )
    k = int(hit[0])
    actual = refine_angle_crossing(times, states, theta_target, k)
    s_at = float(np.interp(actual, times, path))
    tau_existing = theta_target * actual / s_at
    if tau_new is None:
        # the angle reached the target but the path total sits a few ulp
        # below it (exactly-geodesic edge); the crossings coincide
        tau_new = actual
    return QslReport(
        theta_target=theta_target,
        tau_new=tau_new,
        tau_existing=tau_existing,
        actual_time=actual,
        reachable=True,
        path_length=s_at,
    )


def qsl_report(
    model: DynamicsModel,
    rho0: np.ndarray | None,
    theta_target: float,
    t_max: float | None = None,
    steps: int | None = None,
    *,
    trajectory: Trajectory | None = None,
) -> QslReport:
    """Propagate up to t_max and solve both bounds for one target angle.

    Pass a precomputed ``trajectory`` to reuse an existing propagation; the
    model and rho0 arguments are then ignored.
    """
    if trajectory is None:
        if t_max is None:
            raise ValueError("t_max is required when no trajectory is supplied")
        trajectory = propagate(model, rho0, t_max, steps)
    if trajectory.cumulative_path is None:
        trajectory = accumulate_path(trajectory)
    angles = angles_from_start(trajectory)
    return report_from_series(
        trajectory.times, trajectory.states, trajectory.cumulative_path, angles, theta_target
    )


def qsl_new(
    model: DynamicsModel,
    rho0: np.ndarray,
    theta_target: float,
    t_max: float,
    steps: int | None = None,
) -> float | None:
    """First time the accumulated path length reaches theta_target.

    None when s(t_max) < theta_target (target unreachable on this horizon).
    """
    traj = accumulate_path(propagate(model, rho0, t_max, steps))
    return first_path_crossing(traj.times, traj.cumulative_path, theta_target)


def qsl_existing(
    model: DynamicsModel,
    rho0: np.ndarray,
    theta_target: float,
    t_max: float,
    steps: int | None = None,
) -> tuple[float | None, float | None]:
    """Average-velocity bound: (theta * T / s(T), T) at the first angle crossing.

    T is the earliest time the Bloch angle from rho0 reaches the target
    (bracketed on the grid, refined by bisection on interpolated states).
    Returns (None, None) when the angle never gets there before t_max.
    """
    if not 0.0 < theta_target <= math.pi:
        raise ValueError(f"target angle must lie in (0, pi], got {theta_target}")
    rep = qsl_report(model, rho0, theta_target, t_max, steps)
    return rep.tau_existing, rep.actual_time


def bures_qsl(h: np.ndarray, rho0: np.ndarray, sigma_target: np.ndarray) -> float:
    """Bures-angle bound max{L/dH, 2 L^2 / (pi <H>)} for a constant Hamiltonian.

    Moments are taken in rho0; the mean-energy branch uses H shifted so its
    ground-state energy is zero.  A branch with vanishing denominator and
    L > 0 contributes +inf (the state cannot move); when both denominators
    vanish the bound is undefined.
    """
    h = require_hermitian(h)
    rho0 = np.asarray(rho0, dtype=complex)
    angle = bures_angle(rho0, sigma_target)
    if angle <= 0.0:
        return 0.0
    mean = float(np.einsum("ij,ji->", h, rho0).real)
    mean_sq = float(np.einsum("ij,jk,ki->", h, h, rho0).real)
    spread = math.sqrt(max(mean_sq - mean * mean, 0.0))
    shifted_mean = mean - float(np.linalg.eigvalsh(h)[0])
    tol = 1e-12
    if spread <= tol and shifted_mean <= tol:
        raise UndefinedBoundError("both dH and the shifted <H> vanish; bound undefined")
    first = angle / spread if spread > tol else math.inf
    second = 2.0 * angle * angle / (math.pi * shifted_mean) if shifted_mean > tol else math.inf
    return max(first, second)


def geodesic_defect(traj: Trajectory) -> float:
    """s(T) - Theta(rho_0, rho_T); zero exactly on geodesics.

    Nonnegative up to discretization noise (the triangle inequality for the
    discrete path).
    """
    if traj.cumulative_path is None:
        traj = accumulate_path(traj)
    return float(traj.cumulative_path[-1]) - bloch_angle(traj.states[0], traj.states[-1])


def geodesic_ode_residual(traj: Trajectory) -> float:
    """Worst-sample violation of the qubit geodesic equation r'' = -alpha^2 r.

    r'' is estimated by central differences on the Bloch samples and alpha
    by the mean of |r'|/|r| over interior samples (the instantaneous speed
    of a geodesic).  Stationary trajectories give alpha = 0 and residual 0.
    """
    states = traj.states
    if states.shape[-1] != 2:
        raise ValueError("geodesic residual is defined for qubit trajectories")
    if len(traj) < 3:
        raise ValueError("need at least three samples for central differences")
    r = np.empty((len(traj), 3))
    r[:, 0] = 2.0 * states[:, 0, 1].real
    r[:, 1] = -2.0 * states[:, 0, 1].imag
    r[:, 2] = (states[:, 0, 0] - states[:, 1, 1]).real
    dt = traj.dt
    mid = r[1:-1]
    norms = np.linalg.norm(mid, axis=1)
    if np.min(norms) <= 1e-12:
        raise MaximallyMixedError("trajectory passes through the Bloch-sphere center")
    accel = (r[2:] - 2.0 * r[1:-1] + r[:-2]) / dt**2
    vel = (r[2:] - r[:-2]) / (2.0 * dt)
    alpha = float(np.mean(np.linalg.norm(vel, axis=1) / norms))
    resid = np.linalg.norm(accel + alpha * alpha * mid, axis=1) / norms
    return float(np.max(resid))
