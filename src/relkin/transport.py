"""Fermi-Walker transport of gyroscopic vectors along world lines.

A spacelike vector carried by an accelerated point keeps its direction,
in the only boost-consistent sense, when it evolves by
zdot = velocity (acceleration . z) - acceleration (velocity . z).
Transport preserves orthogonality to the velocity, magnitudes and mutual
angles.  Two independent routes are provided and cross-validate each
other: a fixed-step RK4 propagator for any world line, and the exact
transport a line owns where it has a closed form: the identity on inertial
lines, two commuting-plane rotation exponentials on circular ones.  Path
transport with no step given returns the exact states; RK4 runs wherever
a step is given and on every other line, and is the exact route's check.
RK4 is one engine, ``_rk4``, applying the same step maps to an operator
(m + D m) or a vector (z + D z); one drift test checks either route.
Restricting a closed-loop transport operator to the space vectors of the
(equal) endpoint velocity yields the Thomas rotation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from typing import NamedTuple

import numpy as np

from .boosts import SpatialRotation
from .config import TOL
from .errors import ConstraintViolation, DriftViolation, VelocityMismatch
from .minkowski import (
    FourVector,
    LorentzMap,
    _carry_error,
    _form_error,
    _mdot,
    _orthogonal,
    _rows,
    _vector,
    _wedge,
)
from .worldlines import CircularWorldLine, WorldLine, _finite_time


@dataclass(frozen=True)
class GyroState:
    """Gyroscopic vector ``z`` at proper time ``s`` of its world line."""

    s: float
    z: FourVector


#: Most RK4 steps one integration call may take; asking for more is an input error.
MAX_STEPS = 10**8

#: RK4 steps whose kinematics, generators and step maps are built in one pass
_BLOCK = 512


def fermi_walker_derivative(line: WorldLine, s: float, z: FourVector) -> FourVector:
    """Right-hand side of the transport equation at proper time ``s``."""
    v, a = line._kinematics_arrays(_finite_time(s))
    z = z.components.tolist()
    p, q = _mdot(a, z), _mdot(v, z)  # v (a . z) - a (v . z)
    return FourVector([vi * p - ai * q for vi, ai in zip(v, a)])


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


def _generators(k: np.ndarray) -> np.ndarray:
    """outer(rdot, G rddot) - outer(rddot, G rdot) for each row of a kinematics block.

    ``k`` is [n, (rdot, rddot), component], as ``WorldLine._kinematics_block``
    returns it; the result is [n, 4, 4].  ``_wedge`` runs once on the block's
    two columns, so each entry is the product and difference that ``np.outer``
    of the single pair computes.
    """
    return _rows(_wedge(k[:, 0].T, k[:, 1].T))


def _schedule(s: float, points, step: float):
    """The fixed steps from ``s`` through each of ``points`` in turn, ``_BLOCK`` at a time.

    Each leg runs from the previous point (``s`` for the first) to its own
    in full steps of ``step``, then one partial step that ends on the point
    unless it is shorter than 1e-15 max(1, |point|).  A block is (starts,
    sizes, marks): two float arrays, and (row, k) for each leg k whose first
    step falls in the block.  A leg's starts are the running sums s, s + h,
    (s + h) + h, ... of ``accumulate``, read in C, so no Python runs per
    step; the last of them starts the partial step, and the next leg starts
    on the point itself.  A block is handed out as soon as it is full.
    """
    starts, sizes, marks = [], [], []
    for k, p in enumerate(points):
        n = int(abs(p - s) // step)
        h = math.copysign(step, p - s)
        run = accumulate(repeat(h, n), initial=s)  # n + 1 starts
        marks.append((len(starts), k))
        while n >= _BLOCK - len(starts):  # full steps fill the block
            take = _BLOCK - len(starts)
            starts.extend(islice(run, take))
            sizes.extend(repeat(h, take))
            n -= take
            yield np.array(starts), np.array(sizes), marks
            starts, sizes, marks = [], [], []
        starts.extend(run)  # the remaining full steps' starts, then the partial step's
        sizes.extend(repeat(h, n))
        last = p - starts[-1]
        if abs(last) > 1e-15 * max(1.0, abs(p)):
            sizes.append(last)
            if len(starts) == _BLOCK:
                yield np.array(starts), np.array(sizes), marks
                starts, sizes, marks = [], [], []
        else:
            del starts[-1]
            if marks and marks[-1][0] == len(starts):
                del marks[-1]  # a leg without steps
        s = p
    if starts:
        yield np.array(starts), np.array(sizes), marks


def _rk4(line: WorldLine, y0: np.ndarray, s: float, points, step: float, check=None):
    """Classical fixed-step RK4 of ``y0``, a [4] vector or a [4, 4] operator, from ``s``
    through the ascending ``points``: the states there, and the number of steps taken.

    dy/ds = w(s) y is linear, so a step is y + D y with D = (h/6) (K1 + 2 (K2 +
    K3) + K4), K1 = w_lo, K2 = w_mid + (0.5 h) w_mid K1, K3 = w_mid + (0.5 h)
    w_mid K2 and K4 = w_hi + h w_hi K3.  One pass runs forward from ``s``
    through the later points and one backward through the earlier ones.  For
    each block of ``_schedule``, one kinematics block and one generator pass
    cover the mid and end points, and one stacked numpy pass builds the maps.
    K1, the generator at the step's start, is the previous step's end
    generator, bit for bit, but a leg's first step evaluates its start, in one
    block of the leg starts.  Stacked and single 4x4 ``@`` give each slice the
    same bits, which the ``circular-thomas`` golden records.  After each
    block, ``check`` (if given) gets its steps' end times, the [n, 4]
    velocities there and the state after each step.
    """
    fwd = next((i for i, p in enumerate(points) if p >= s), len(points))
    passes, taken = [], 0
    for pts in (points[fwd:], points[:fwd][::-1]):
        y, at = y0, []  # at: the state at each point passed
        w_end = np.zeros((1, 4, 4))  # the generator at the previous step's end point
        for starts, h, marks in _schedule(s, pts, step):
            first = [j for j, _ in marks]
            kin_first = (line._kinematics_block(starts[first]) if first
                         else np.empty((0, 2, 4)))
            times = np.empty(2 * len(h))  # mid and end points
            times[0::2] = starts + 0.5 * h
            times[1::2] = starts + h
            kin = line._kinematics_block(times)
            w = _generators(np.concatenate((kin_first, kin)))
            n = len(first)
            w_mid, w_hi = w[n::2], w[n + 1::2]
            k1 = np.concatenate((w_end, w_hi[:-1]))
            k1[first] = w[:n]
            w_end, taken = w_hi[-1:], taken + len(h)
            h = h[:, None, None]
            k2 = w_mid + (0.5 * h) * (w_mid @ k1)
            k3 = w_mid + (0.5 * h) * (w_mid @ k2)
            k4 = w_hi + h * (w_hi @ k3)
            # one map's view at a time: a list of the block's views made the operator 3 % slower
            maps = iter((h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
            done, ys = 0, []
            for row, k in [*marks, (len(h), None)]:
                for d in islice(maps, row - done):  # the steps before row, all of one leg
                    y = y + d @ y
                    if check:
                        ys.append(y)
                if k is not None:  # leg k starts: the points before it are passed
                    at += [y] * (k - len(at))
                done = row
            if check:
                check(times[1::2], np.array(ys), kin[1::2, 0])
        passes.append(at + [y] * (len(pts) - len(at)))
    return passes[1][::-1] + passes[0], taken


def _require_drift(ss, z, v, norm0: float, tol: float, route: str) -> None:
    """DriftViolation at the first row of states ``z`` that leaves orthogonality to
    its velocity row of ``v``, or the magnitude ``norm0``, by more than ``tol``.

    Drift is monitored, never corrected; a timelike or NaN state fails.  Row k
    is at proper time ``ss[k]``.  Run under ``np.errstate(all="ignore")``."""
    ortho = np.abs(_mdot(v.T, z.T))
    mag = np.abs(np.sqrt(_mdot(z.T, z.T)) - norm0)
    bad = ~((ortho <= tol) & (mag <= tol))
    if bad.any():
        k = int(np.argmax(bad))
        raise DriftViolation(f"transport drift at s = {ss[k]}: velocity.z = {ortho[k]}, "
                             f"|z| drift = {mag[k]} ({route})")


def _require_gyroscopic(rdot, z0: FourVector, where: str) -> None:
    z = z0.components.tolist()  # floats overflow to inf without a numpy warning
    if not _orthogonal(rdot, z, TOL.constraint):
        raise ConstraintViolation(f"initial vector must be orthogonal to the velocity {where}, "
                                  f"got {_mdot(rdot, z)}")


def transport_numeric(
    line: WorldLine,
    z0: FourVector,
    s1: float,
    s2: float,
    step: float | None = None,
) -> GyroState:
    """Transport ``z0`` from proper time ``s1`` to ``s2``.

    ``z0`` must be orthogonal to the velocity at ``s1``.  The route is that
    of :func:`transport_path`: with no step, an inertial or circular line
    gets the exact transport; otherwise fixed-step RK4 runs at ``step``, or
    at the line's ``default_step``, and its global error is fourth order in
    the step.
    """
    return transport_path(line, z0, [s2], s_start=s1, step=step)[0]


def transport_path(
    line: WorldLine,
    z0: FourVector,
    s_points,
    s_start: float = 0.0,
    step: float | None = None,
    tol_drift: float | None = None,
) -> list[GyroState]:
    """Transport ``z0`` (gyroscopic at ``s_start``) to each of ``s_points``.

    The points must be ascending.  With no step given, the line's own
    exact states are returned where it has them (``WorldLine._exact_rows``):
    z0 on an inertial line, the closed form in one numpy pass on a circular
    one.  Otherwise ``_rk4`` runs one pass forward from ``s_start`` through
    the later points and one backward through the earlier ones, at ``step``
    or the line's ``default_step``.  Either way the step is resolved once for
    the call, the span may hold at most ``MAX_STEPS`` steps of it, and every
    state, each RK4 step's or each point's, must keep its orthogonality to
    the velocity and its magnitude within ``tol_drift`` (a ``DriftViolation``
    naming the route).
    """
    ss = [_finite_time(s) for s in s_points]
    z, _ = _path_rows(line, z0, ss, _finite_time(s_start), step, tol_drift)
    z.setflags(write=False)
    return [GyroState(s, _vector(zk)) for s, zk in zip(ss, z)]


def _path_rows(line: WorldLine, z0: FourVector, ss: list, s_start: float,
               step: float | None, tol_drift: float | None):
    """:func:`transport_path`'s states at the finite times ``ss`` as [n, 4] rows, with the
    [n, 2, 4] kinematics at ``ss`` where the route evaluated them (the exact one), else None.
    """
    if any(b < a for a, b in zip(ss, ss[1:])):
        raise ConstraintViolation("proper-time points must be ascending")
    tol_drift = TOL.drift if tol_drift is None else tol_drift
    _require_gyroscopic(line._kinematics_arrays(s_start)[0], z0, f"at s = {s_start}")
    span = max(ss[-1], s_start) - min(ss[0], s_start) if ss else 0.0
    exact = step is None
    step = _resolve_step(line, span, step)
    norm0 = z0.norm()
    # an overflow becomes the inf or NaN that the drift test rejects
    with np.errstate(all="ignore"):
        z = line._exact_rows(z0.components, s_start, ss) if exact else None
        if z is not None:
            kin = line._kinematics_block(ss)
            _require_drift(ss, z, kin[:, 0], norm0, tol_drift, line._exact_route)
            return z, kin
        route = f"step {step} too large"
        z, _ = _rk4(line, z0.components, s_start, ss, step,
                    lambda ends, zs, v: _require_drift(ends, zs, v, norm0, tol_drift, route))
        return np.array(z).reshape(-1, 4), None


def transport_operator_numeric(
    line: WorldLine,
    s1: float,
    s2: float,
    step: float | None = None,
) -> LorentzMap:
    """Transport map s1 -> s2 as a ``LorentzMap``, by integrating basis vectors.

    A form error, or an error carrying the velocity at ``s1`` to that at
    ``s2``, above ``TOL.numeric`` is a ``DriftViolation`` that names the step
    and the step count: rounding grows with the count, so a smaller step
    does not always lower the error.
    """
    s1, s2 = _finite_time(s1), _finite_time(s2)
    step = _resolve_step(line, abs(s2 - s1), step)
    with np.errstate(all="ignore"):  # an overflow becomes the inf or NaN the checks reject
        (m,), n = _rk4(line, np.eye(4), s1, [s2], step)
        _require_operator("form", _form_error(m), n, step)
    rdot1, _ = line._kinematics_arrays(s1)
    rdot2, _ = line._kinematics_arrays(s2)
    _require_operator("endpoint", _carry_error(m, rdot1, rdot2), n, step)
    return LorentzMap(m)


def _require_operator(kind: str, err, n: int, step: float) -> None:
    # err within TOL.numeric, or a DriftViolation naming the step and the step count n
    if not err <= TOL.numeric:
        raise DriftViolation(f"transport operator {kind} error {err} exceeds {TOL.numeric} after "
                             f"{n} RK4 steps of {step}: the step is too large, or rounding, "
                             "which a smaller step does not lower, dominates")


def _require_circular(line: WorldLine) -> None:
    if not isinstance(line, CircularWorldLine):
        raise ConstraintViolation("exact circular transport needs a circular world line")


def circular_transport_generator(line: CircularWorldLine) -> LorentzMap:
    """Antisymmetric generator of the co-rotating factor of circular transport.

    With this map A, the exact transport over center time t factors as
    (orbital rotation over t) composed with exp(-t A).  A kills the
    line's initial velocity and rotates the orthogonal plane at rate
    lorentz_factor * angular_rate.
    """
    _require_circular(line)
    return LorentzMap(line._corotating)


def transport_circular_exact(
    line: CircularWorldLine, z0: FourVector, t: float
) -> FourVector:
    """Exact transport of ``z0`` over center time ``t`` on a circular line.

    ``z0`` must be orthogonal to the initial velocity.  Center time runs a
    factor lorentz_factor faster than proper time; numeric transport APIs
    take proper time instead.
    """
    _require_circular(line)
    _require_gyroscopic(line.initial_velocity.components.tolist(), z0, "at s = 0")
    return FourVector(line._transport(z0.components, _finite_time(t, "center time")))


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
    _require_circular(line)
    return SpatialRotation(line._exp(-line.center_period, corotating=True), line.initial_velocity)


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
