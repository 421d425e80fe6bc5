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
from typing import NamedTuple

import numpy as np

from .boosts import SpatialRotation
from .config import TOL
from .errors import ConstraintViolation, DriftViolation, VelocityMismatch
from .minkowski import (
    METRIC,
    FourVector,
    LorentzMap,
    _mdot,
    wedge,
)
from .worldlines import CircularWorldLine, WorldLine


@dataclass(frozen=True)
class GyroState:
    """Gyroscopic vector ``z`` at proper time ``s`` of its world line."""

    s: float
    z: FourVector


class TransportOperator(LorentzMap):
    """Lorentz map carrying gyroscopic vectors from proper time s1 to s2."""

    def __init__(self, matrix, s1: float, s2: float, tol: float | None = None):
        super().__init__(matrix)
        tol = TOL.numeric if tol is None else tol
        if not self.is_lorentz(tol):
            raise ConstraintViolation("transport operator must preserve the Lorentz form")
        self.s1 = float(s1)
        self.s2 = float(s2)


def fermi_walker_derivative(line: WorldLine, s: float, z: FourVector) -> FourVector:
    """Right-hand side of the transport equation at proper time ``s``."""
    return FourVector(_rhs(line._kinematics_arrays(float(s)), z.components))


def _resolve_step(line: WorldLine, s1: float, s2: float, step: float | None) -> float:
    if step is not None:
        if not (math.isfinite(step) and step > 0.0):
            raise ConstraintViolation(f"integration step must be positive and finite, got {step}")
        return float(step)
    if isinstance(line, CircularWorldLine):
        return line.proper_period / 10_000
    span = abs(s2 - s1)
    return span / 10_000 if span > 0.0 else 1.0


def _rhs(kin: tuple[np.ndarray, np.ndarray], z: np.ndarray) -> np.ndarray:
    rdot, rddot = kin
    return rdot * _mdot(rddot, z) - rddot * _mdot(rdot, z)


def _generator(kin: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    rdot, rddot = kin
    return np.outer(rdot, METRIC @ rddot) - np.outer(rddot, METRIC @ rdot)


def _rk4(line: WorldLine, y, s1: float, s2: float, step: float, rhs, field=None, drift=None):
    """Classical RK4 with fixed step; the final partial step is shortened.

    ``field`` maps each kinematics pair (velocity, acceleration) to the
    first argument of ``rhs(field, y)``; without it ``rhs`` takes the pair.
    With ``drift = (norm0, tol)`` the state is a gyroscopic vector and
    DriftViolation is raised as soon as its orthogonality to the velocity
    or its magnitude drifts beyond ``tol`` (drift is monitored, never
    silently corrected).
    """
    total = s2 - s1
    if total == 0.0:
        return y
    n_full = int(abs(total) // step)
    h_full = math.copysign(step, total)
    kin = line._kinematics_arrays
    at = kin if field is None else (lambda s: field(kin(s)))
    if drift is not None:
        norm0, tol = drift
    f_lo = at(s1)
    s = s1
    for i in range(n_full + 1):
        if i == n_full:
            h = s2 - s
            if abs(h) <= 1e-15 * max(1.0, abs(s2)):
                break
        else:
            h = h_full
        f_mid = at(s + 0.5 * h)
        f_hi = at(s + h)
        k1 = rhs(f_lo, y)
        k2 = rhs(f_mid, y + (0.5 * h) * k1)
        k3 = rhs(f_mid, y + (0.5 * h) * k2)
        k4 = rhs(f_hi, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        s += h
        f_lo = f_hi
        if drift is not None:
            ortho = abs(_mdot(f_hi[0], y))
            mag = abs(math.sqrt(_mdot(y, y)) - norm0)
            if not (ortho <= tol and mag <= tol):
                raise DriftViolation(
                    f"transport drift at s = {s}: velocity.z = {ortho}, |z| drift = {mag} "
                    f"(step {step} too large)"
                )
    return y


def _require_gyroscopic(rdot: np.ndarray, z0: FourVector, where: str) -> None:
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
    is one ten-thousandth of the orbital period (or of the span for
    non-periodic lines); global error is fourth order in the step.
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
    through the earlier ones.
    """
    ss = [float(s) for s in s_points]
    if any(b < a for a, b in zip(ss, ss[1:])):
        raise ConstraintViolation("proper-time points must be ascending")
    s_start = float(s_start)
    tol_drift = TOL.drift if tol_drift is None else tol_drift
    _require_gyroscopic(line._kinematics_arrays(s_start)[0], z0, f"at s = {s_start}")
    drift = (z0.norm(), tol_drift)
    out: list[GyroState | None] = [None] * len(ss)
    first_fwd = next((i for i, s in enumerate(ss) if s >= s_start), len(ss))
    for order in (range(first_fwd, len(ss)), range(first_fwd - 1, -1, -1)):
        z, cur = z0.components.copy(), s_start
        for i in order:
            h = _resolve_step(line, cur, ss[i], step)
            z = _rk4(line, z, cur, ss[i], h, _rhs, drift=drift)
            cur = ss[i]
            out[i] = GyroState(cur, FourVector(z))
    return out  # type: ignore[return-value]


def transport_operator_numeric(
    line: WorldLine,
    s1: float,
    s2: float,
    step: float | None = None,
    tol: float | None = None,
) -> TransportOperator:
    """Assemble the transport map s1 -> s2 by integrating basis vectors.

    The result preserves the Lorentz form and carries the velocity at
    ``s1`` to the velocity at ``s2``, both within ``tol``.
    """
    s1, s2 = float(s1), float(s2)
    tol = TOL.numeric if tol is None else tol
    step = _resolve_step(line, s1, s2, step)
    m = _rk4(line, np.eye(4), s1, s2, step, np.matmul, field=_generator)
    form = float(np.max(np.abs(m.T @ METRIC @ m - METRIC)))
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
    return TransportOperator(m, s1, s2, tol=tol)


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


def _elliptic_exp(m: np.ndarray, rate: float, t: float) -> np.ndarray:
    # exact exponential for antisymmetric maps with m^3 = -rate^2 m
    if rate == 0.0:
        return np.eye(4)
    ph = rate * t
    return np.eye(4) + (math.sin(ph) / rate) * m + ((1.0 - math.cos(ph)) / rate ** 2) * (m @ m)


def transport_circular_exact(
    line: CircularWorldLine, z0: FourVector, t: float
) -> FourVector:
    """Exact transport of ``z0`` over center time ``t`` on a circular line.

    ``z0`` must be orthogonal to the initial velocity.  Center time runs a
    factor lorentz_factor faster than proper time; numeric transport APIs
    take proper time instead.
    """
    _require_gyroscopic(line.initial_velocity.components, z0, "at s = 0")
    t = float(t)
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
    if mismatch > TOL.velocity_match:
        raise VelocityMismatch(
            f"velocities at s1 and s2 differ by {mismatch}; "
            "a closed-loop rotation needs equal endpoint velocities"
        )
    op = transport_operator_numeric(line, s1, s2, step=step)
    return SpatialRotation(op.matrix, v1, tol=10.0 * TOL.velocity_match)
