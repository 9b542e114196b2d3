"""Independent reference integrators used by the tests.

The Landau-Zener oracle works on the Bloch 3-vector with plain-float RK4,
a representation and method disjoint from the library's density-matrix
midpoint-exponential propagation.  The Bloch equation for
H = V t sigma_z + gap sigma_x is

    dr/dt = omega(t) x r,   omega(t) = (2 gap, 0, 2 V t),

and the path-length rate is ds/dt = |omega x r| / |r|.
"""

from __future__ import annotations

import math


def lz_bloch_oracle(sweep_rate, gap, r0, theta, t_max, steps):
    """(tau_new, tau_existing, actual_time) for one target angle.

    Crossing times are linearly interpolated on the fine grid; returns None
    entries for targets not reached by t_max.
    """
    rx, ry, rz = (float(c) for c in r0)
    r0x, r0y, r0z = rx, ry, rz
    rnorm2 = rx * rx + ry * ry + rz * rz
    rn = math.sqrt(rnorm2)
    cos_target = math.cos(theta) * rnorm2
    dt = t_max / steps
    ox = 2.0 * gap
    two_v = 2.0 * sweep_rate
    s = 0.0
    tau_new = None
    t_actual = None
    s_at = None
    prev_dot = rnorm2
    for k in range(steps):
        t = k * dt
        oz = two_v * t
        ax = -oz * ry
        ay = oz * rx - ox * rz
        az = ox * ry
        ads = math.sqrt(ax * ax + ay * ay + az * az) / rn
        ozm = two_v * (t + 0.5 * dt)
        bx_ = rx + 0.5 * dt * ax
        by_ = ry + 0.5 * dt * ay
        bz_ = rz + 0.5 * dt * az
        bx = -ozm * by_
        by = ozm * bx_ - ox * bz_
        bz = ox * by_
        bds = math.sqrt(bx * bx + by * by + bz * bz) / rn
        cx_ = rx + 0.5 * dt * bx
        cy_ = ry + 0.5 * dt * by
        cz_ = rz + 0.5 * dt * bz
        cx = -ozm * cy_
        cy = ozm * cx_ - ox * cz_
        cz = ox * cy_
        cds = math.sqrt(cx * cx + cy * cy + cz * cz) / rn
        oze = two_v * (t + dt)
        dx_ = rx + dt * cx
        dy_ = ry + dt * cy
        dz_ = rz + dt * cz
        dx = -oze * dy_
        dy = oze * dx_ - ox * dz_
        dz = ox * dy_
        dds = math.sqrt(dx * dx + dy * dy + dz * dz) / rn
        rx += dt / 6.0 * (ax + 2.0 * bx + 2.0 * cx + dx)
        ry += dt / 6.0 * (ay + 2.0 * by + 2.0 * cy + dy)
        rz += dt / 6.0 * (az + 2.0 * bz + 2.0 * cz + dz)
        s_new = s + dt / 6.0 * (ads + 2.0 * bds + 2.0 * cds + dds)
        if tau_new is None and s_new >= theta:
            frac = (theta - s) / (s_new - s)
            tau_new = t + frac * dt
        dot = r0x * rx + r0y * ry + r0z * rz
        if t_actual is None and dot <= cos_target:
            a0 = math.acos(max(-1.0, min(1.0, prev_dot / rnorm2)))
            a1 = math.acos(max(-1.0, min(1.0, dot / rnorm2)))
            frac = (theta - a0) / (a1 - a0)
            t_actual = t + frac * dt
            s_at = s + frac * (s_new - s)
            break
        prev_dot = dot
        s = s_new
    tau_existing = theta * t_actual / s_at if t_actual is not None else None
    return tau_new, tau_existing, t_actual


def bisect_interpolated_crossing(times, states, theta, k):
    """Reference crossing solve: 60 bisection steps on interpolated matrices.

    Forms the interpolated density matrix s0 + x (s1 - s0) at every step and
    measures its Bloch angle from states[0] with ``bloch_angle``.
    """
    from qsl_lab import bloch_angle

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
