"""Fermi-Walker transport of gyroscopic vectors along world lines.

A spacelike vector carried by an accelerated point keeps its direction,
in the only boost-consistent sense, when it evolves by
zdot = velocity (acceleration . z) - acceleration (velocity . z).
Transport preserves orthogonality to the velocity, magnitudes and mutual
angles.  Two independent routes are provided and cross-validate each
other: a fixed-step RK4 propagator for any world line, and an exact
operator for circular lines built from two commuting-plane rotation
exponentials.  Restricting a closed-loop transport operator to the space
vectors of the (equal) endpoint velocity yields the Thomas rotation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .boosts import SpatialRotation
from .config import TOL
from .errors import ConstraintViolation, DriftViolation, VelocityMismatch
from .minkowski import (
    METRIC,
    FourVector,
    LorentzMap,
    _elliptic_exp,
    _form_error,
    _mdot,
    wedge,
)
from .worldlines import CircularWorldLine, WorldLine, _finite_time


@dataclass(frozen=True)
class GyroState:
    """Gyroscopic vector ``z`` at proper time ``s`` of its world line."""

    s: float
    z: FourVector


#: Most RK4 steps one integration call may take; asking for more is an input error.
MAX_STEPS = 10**8

#: RK4 steps of the operator path whose kinematics and generators are built in one pass
_BLOCK = 512


def fermi_walker_derivative(line: WorldLine, s: float, z: FourVector) -> FourVector:
    """Right-hand side of the transport equation at proper time ``s``."""
    v, a = line._kinematics_arrays(_finite_time(s))
    return FourVector(_fw(v, a, *z.components.tolist()))


def _resolve_step(line: WorldLine, span: float, step: float | None) -> float:
    if step is None:
        step = line.default_step
    elif not (math.isfinite(step) and step > 0.0):
        raise ConstraintViolation(f"integration step must be positive and finite, got {step}")
    steps = span / step
    if not steps <= MAX_STEPS:
        raise ConstraintViolation(
            f"transport over a proper-time span of {span} at step {step} needs {steps} "
            f"RK4 steps, more than the limit {MAX_STEPS}"
        )
    return float(step)


def _fw(v, a, z0: float, z1: float, z2: float, z3: float) -> tuple[float, float, float, float]:
    # v (a . z) - a (v . z) for 4-float velocity and acceleration
    v0, v1, v2, v3 = v
    a0, a1, a2, a3 = a
    p = -a0 * z0 + a1 * z1 + a2 * z2 + a3 * z3
    q = -v0 * z0 + v1 * z1 + v2 * z2 + v3 * z3
    return v0 * p - a0 * q, v1 * p - a1 * q, v2 * p - a2 * q, v3 * p - a3 * q


def _generators(k: np.ndarray) -> np.ndarray:
    """outer(rdot, G rddot) - outer(rddot, G rdot) for each row of a kinematics block.

    ``k`` is [n, (rdot, rddot), component], as ``WorldLine._kinematics_block``
    returns it.  One stack of numpy calls serves every row; each entry is the
    same product and difference that ``np.outer`` of the single pair computes.
    """
    g = k @ METRIC  # G rdot, G rddot (G is symmetric)
    w = k[:, :, :, None] * g[:, ::-1, None, :]
    return w[:, 0] - w[:, 1]


def _steps(s1: float, s2: float, step: float):
    """(s, h) of each fixed step from s1 to s2; the final partial step is shortened."""
    total = s2 - s1
    h_full = math.copysign(step, total)
    s = s1
    for _ in range(int(abs(total) // step)):
        yield s, h_full
        s += h_full
    h = s2 - s
    if abs(h) > 1e-15 * max(1.0, abs(s2)):
        yield s, h


def _rk4_vector(line: WorldLine, z: tuple, s1: float, s2: float, step: float,
                norm0: float, tol: float) -> tuple:
    """Classical fixed-step RK4 for a gyroscopic vector held as four floats.

    The arithmetic is the numpy form y + (h/6) (k1 + 2 (k2 + k3) + k4)
    written out per component in the same order, so the result is the
    same to the last bit.  DriftViolation is raised as soon as the
    vector's orthogonality to the velocity or its magnitude drifts beyond
    ``tol`` (drift is monitored, never silently corrected).
    """
    kin = line._kinematics_arrays
    y0, y1, y2, y3 = z
    v_lo, a_lo = kin(s1)
    for s, h in _steps(s1, s2, step):
        v_mid, a_mid = kin(s + 0.5 * h)
        v_hi, a_hi = kin(s + h)
        hh = 0.5 * h
        k10, k11, k12, k13 = _fw(v_lo, a_lo, y0, y1, y2, y3)
        k20, k21, k22, k23 = _fw(v_mid, a_mid,
                                 y0 + hh * k10, y1 + hh * k11, y2 + hh * k12, y3 + hh * k13)
        k30, k31, k32, k33 = _fw(v_mid, a_mid,
                                 y0 + hh * k20, y1 + hh * k21, y2 + hh * k22, y3 + hh * k23)
        k40, k41, k42, k43 = _fw(v_hi, a_hi,
                                 y0 + h * k30, y1 + h * k31, y2 + h * k32, y3 + h * k33)
        h6 = h / 6.0
        y0 = y0 + h6 * (k10 + 2.0 * (k20 + k30) + k40)
        y1 = y1 + h6 * (k11 + 2.0 * (k21 + k31) + k41)
        y2 = y2 + h6 * (k12 + 2.0 * (k22 + k32) + k42)
        y3 = y3 + h6 * (k13 + 2.0 * (k23 + k33) + k43)
        v_lo, a_lo = v_hi, a_hi
        w0, w1, w2, w3 = v_hi
        ortho = abs(-w0 * y0 + w1 * y1 + w2 * y2 + w3 * y3)
        mag = abs(math.sqrt(-y0 * y0 + y1 * y1 + y2 * y2 + y3 * y3) - norm0)
        if not (ortho <= tol and mag <= tol):
            raise DriftViolation(
                f"transport drift at s = {s + h}: velocity.z = {ortho}, |z| drift = {mag} "
                f"(step {step} too large)"
            )
    return y0, y1, y2, y3


def _rk4_operator(line: WorldLine, m: np.ndarray, s1: float, s2: float, step: float) -> np.ndarray:
    """Classical fixed-step RK4 for a transport operator, dm/ds = w(s) m.

    The schedule is read ``_BLOCK`` steps at a time: one kinematics block
    and one generator pass cover the mid and end points of those steps.
    The stages are the numpy expressions m + (0.5 h) k1, ... and
    m + (h/6) (k1 + 2 (k2 + k3) + k4), evaluated into preallocated buffers;
    they stay on numpy's 4x4 ``@``, whose bits the ``circular-thomas``
    golden records.
    """
    m = np.array(m, dtype=float)  # updated in place
    k1, k2, k3, k4, y, acc = np.empty((6, 4, 4))
    matmul, add, multiply = np.matmul, np.add, np.multiply
    (w_lo,) = _generators(line._kinematics_block([s1]))
    schedule = _steps(s1, s2, step)
    two, h_last = np.array(2.0), None
    while block := list(islice(schedule, _BLOCK)):
        w = _generators(line._kinematics_block(
            [p for s, h in block for p in (s + 0.5 * h, s + h)]))
        for (_, h), w_mid, w_hi in zip(block, w[0::2], w[1::2]):
            if h != h_last:  # the step's scalars as 0-d arrays: same doubles, cheaper calls
                h_last, hh, hs, h6 = h, np.array(0.5 * h), np.array(h), np.array(h / 6.0)
            matmul(w_lo, m, k1)
            matmul(w_mid, add(m, multiply(hh, k1, y), y), k2)
            matmul(w_mid, add(m, multiply(hh, k2, y), y), k3)
            matmul(w_hi, add(m, multiply(hs, k3, y), y), k4)
            multiply(two, add(k2, k3, acc), acc)
            add(add(k1, acc, acc), k4, acc)
            add(m, multiply(h6, acc, acc), m)
            w_lo = w_hi
    return m


def _require_gyroscopic(rdot, z0: FourVector, where: str) -> None:
    ortho = _mdot(rdot, z0.components)
    if not abs(ortho) <= TOL.constraint * max(1.0, float(np.max(np.abs(z0.components)))):
        raise ConstraintViolation(
            f"initial vector must be orthogonal to the velocity {where}, got {ortho}"
        )


def transport_numeric(
    line: WorldLine,
    z0: FourVector,
    s1: float,
    s2: float,
    step: float | None = None,
    tol_drift: float | None = None,
) -> GyroState:
    """Transport ``z0`` from proper time ``s1`` to ``s2`` by fixed-step RK4.

    ``z0`` must be orthogonal to the velocity at ``s1``.  The default step
    is the line's ``default_step`` (period / 10 000 on circular lines, one
    exact step on inertial ones); global error is fourth order in the step.
    """
    return transport_path(line, z0, [s2], s_start=s1, step=step, tol_drift=tol_drift)[0]


def transport_path(
    line: WorldLine,
    z0: FourVector,
    s_points,
    s_start: float = 0.0,
    step: float | None = None,
    tol_drift: float | None = None,
) -> list[GyroState]:
    """Transport ``z0`` (gyroscopic at ``s_start``) to each of ``s_points``.

    The points must be ascending.  One sequential integration pass runs
    forward from ``s_start`` through the later points and one backward
    through the earlier ones.  The step is resolved once for the call, and
    both passes together may take at most ``MAX_STEPS`` steps.
    """
    ss = [_finite_time(s) for s in s_points]
    s_start = _finite_time(s_start)
    if any(b < a for a, b in zip(ss, ss[1:])):
        raise ConstraintViolation("proper-time points must be ascending")
    tol_drift = TOL.drift if tol_drift is None else tol_drift
    _require_gyroscopic(line._kinematics_arrays(s_start)[0], z0, f"at s = {s_start}")
    span = max(ss[-1], s_start) - min(ss[0], s_start) if ss else 0.0
    step = _resolve_step(line, span, step)
    norm0 = z0.norm()
    out: list[GyroState | None] = [None] * len(ss)
    first_fwd = next((i for i, s in enumerate(ss) if s >= s_start), len(ss))
    for order in (range(first_fwd, len(ss)), range(first_fwd - 1, -1, -1)):
        z, cur = tuple(z0.components.tolist()), s_start
        for i in order:
            z = _rk4_vector(line, z, cur, ss[i], step, norm0, tol_drift)
            cur = ss[i]
            out[i] = GyroState(cur, FourVector(z))
    return out  # type: ignore[return-value]


def transport_operator_numeric(
    line: WorldLine,
    s1: float,
    s2: float,
    step: float | None = None,
    tol: float | None = None,
) -> LorentzMap:
    """Transport map s1 -> s2 as a ``LorentzMap``, by integrating basis vectors.

    A form error, or an error carrying the velocity at ``s1`` to that at
    ``s2``, above ``tol`` (default ``TOL.numeric``) is a ``DriftViolation``.
    """
    s1, s2 = float(s1), float(s2)
    tol = TOL.numeric if tol is None else tol
    step = _resolve_step(line, abs(s2 - s1), step)
    m = _rk4_operator(line, np.eye(4), s1, s2, step)
    form = _form_error(m)
    if not form <= tol:
        raise DriftViolation(
            f"transport operator form error {form} exceeds {tol} (step too large)"
        )
    rdot1, _ = line._kinematics_arrays(s1)
    rdot2, _ = line._kinematics_arrays(s2)
    endpoint = float(np.max(np.abs(m @ rdot1 - rdot2)))
    if not endpoint <= tol:
        raise DriftViolation(
            f"transport operator endpoint error {endpoint} exceeds {tol} (step too large)"
        )
    return LorentzMap(m)


def circular_transport_generator(line: CircularWorldLine) -> LorentzMap:
    """Antisymmetric generator of the co-rotating factor of circular transport.

    With this map A, the exact transport over center time t factors as
    (orbital rotation over t) composed with exp(-t A).  A kills the
    line's initial velocity and rotates the orthogonal plane at rate
    lorentz_factor * angular_rate.
    """
    if not isinstance(line, CircularWorldLine):
        raise ConstraintViolation("transport generator is defined for circular world lines")
    lam2 = line.lorentz_factor ** 2
    rate2 = line.angular_rate ** 2
    boost_part = wedge(line.center_velocity, line.radius_vector)
    return lam2 * line.angular_velocity + (lam2 * rate2) * boost_part


def transport_circular_exact(
    line: CircularWorldLine, z0: FourVector, t: float
) -> FourVector:
    """Exact transport of ``z0`` over center time ``t`` on a circular line.

    ``z0`` must be orthogonal to the initial velocity.  Center time runs a
    factor lorentz_factor faster than proper time; numeric transport APIs
    take proper time instead.
    """
    _require_gyroscopic(line.initial_velocity.components, z0, "at s = 0")
    t = _finite_time(t, "center time")
    gen = circular_transport_generator(line)
    spin_rate = line.lorentz_factor * line.angular_rate
    orbital = _elliptic_exp(line.angular_velocity.matrix, line.angular_rate, t)
    corotating = _elliptic_exp(gen.matrix, spin_rate, -t)
    return FourVector(orbital @ (corotating @ z0.components))


class ThomasAngle(NamedTuple):
    """Rotation per revolution of a circular-line gyroscope.

    ``unreduced`` is the accumulated angle 2 pi (1 - lorentz_factor),
    ``reduced`` its representative in (-pi, pi], and ``winding`` the
    revolution fraction (1 - lorentz_factor).
    """

    reduced: float
    unreduced: float
    winding: float


def _reduce_angle(angle: float) -> float:
    reduced = math.remainder(angle, 2.0 * math.pi)
    if reduced <= -math.pi:
        reduced += 2.0 * math.pi
    return reduced


def circular_thomas_angle(line: CircularWorldLine) -> ThomasAngle:
    """Closed-form Thomas angle of one full revolution."""
    winding = 1.0 - line.lorentz_factor
    unreduced = 2.0 * math.pi * winding
    return ThomasAngle(_reduce_angle(unreduced), unreduced, winding)


def thomas_rotation_circular(line: CircularWorldLine) -> SpatialRotation:
    """Exact rotation a gyroscope acquires per revolution of a circular line.

    The orbital factor of the transport closes after one revolution, so
    the full-period transport operator is the co-rotating exponential
    alone, a rotation of the space vectors of the initial velocity.
    """
    gen = circular_transport_generator(line)
    spin_rate = line.lorentz_factor * line.angular_rate
    m = _elliptic_exp(gen.matrix, spin_rate, -line.center_period)
    return SpatialRotation(m, line.initial_velocity)


def thomas_rotation_general(
    line: WorldLine,
    s1: float,
    s2: float,
    step: float | None = None,
) -> SpatialRotation:
    """Closed-loop rotation between proper times with equal velocities.

    Defined only when the velocities at ``s1`` and ``s2`` agree (within
    ``TOL.velocity_match``); the numeric transport operator then restricts
    to a rotation of the shared space vectors.
    """
    v1 = line.velocity(s1)
    v2 = line.velocity(s2)
    mismatch = float(np.max(np.abs(v1.components - v2.components)))
    if not mismatch <= TOL.velocity_match:
        raise VelocityMismatch(
            f"velocities at s1 and s2 differ by {mismatch}; "
            "a closed-loop rotation needs equal endpoint velocities"
        )
    op = transport_operator_numeric(line, s1, s2, step=step)
    return SpatialRotation(op.matrix, v1, tol=10.0 * TOL.velocity_match)
