"""World lines parameterized by proper time, and the exact circular orbit.

A world line exposes exact position, velocity and acceleration functions
of proper time (positions are displacements from a scenario origin).  The
circular line is constructed from a center frame, an antisymmetric angular
velocity and an initial radius vector, with all derived quantities (orbital
rate, radius, time-dilation factor, initial velocity) validated eagerly.
"""
from __future__ import annotations

import abc
import math

import numpy as np

from .boosts import boost
from .config import TOL
from .errors import ConstraintViolation
from .minkowski import (
    E1,
    E2,
    ZERO,
    AbsoluteVelocity,
    FourVector,
    LorentzMap,
    _carry_error,
    _mdot,
    _orthogonal,
    _rows,
    antisymmetric_magnitude,
    lorentz_dot,
    wedge,
)


#: Discretisation-error target of the circular line's default RK4 step, relative to
#: |u0|^2 (see ``CircularWorldLine``)
_STEP_TARGET = 1e-13
#: Fitted bound of that relative error times N^4, over v^2 gamma^6: the largest
#: measured ratio is 34, at orbital speeds 0.01-0.9999 with the centre at rest or moving
_STEP_FIT = 40.0
#: Fewest default RK4 steps per proper period; it sets the step below speed 3e-3
_MIN_STEPS = 256


def _finite_time(s, name: str = "proper time") -> float:
    # the time as a float; an infinity or NaN is a ConstraintViolation that names it
    s = float(s)
    if not math.isfinite(s):
        raise ConstraintViolation(f"{name} must be finite, got {s}")
    return s


class WorldLine(abc.ABC):
    """History of a material point as exact functions of proper time."""

    #: RK4 step of transport along the line when the caller gives none; every line sets it
    default_step: float

    @abc.abstractmethod
    def position(self, s: float) -> FourVector:
        """Displacement of the world point at proper time ``s`` from the origin."""

    @abc.abstractmethod
    def velocity(self, s: float) -> AbsoluteVelocity:
        """Four-velocity at proper time ``s``."""

    @abc.abstractmethod
    def acceleration(self, s: float) -> FourVector:
        """Proper acceleration at proper time ``s``; orthogonal to the velocity."""

    def _kinematics_arrays(self, s: float) -> tuple[tuple, tuple]:
        # (velocity, acceleration) as two 4-float tuples; the integrators'
        # only kinematics call
        return (
            tuple(self.velocity(s).components.tolist()),
            tuple(self.acceleration(s).components.tolist()),
        )

    def _kinematics_block(self, ss) -> np.ndarray:
        # [n, (velocity, acceleration), component] at the proper times ss, a sequence or
        # an array; each row equals _kinematics_arrays at its point, bit for bit
        return np.array([self._kinematics_arrays(s) for s in np.asarray(ss, dtype=float).tolist()],
                        dtype=float).reshape(-1, 2, 4)

    def _frame_clock(self, u: AbsoluteVelocity):
        """(forward, slope) in floats: the time frame ``u`` assigns to the point at
        proper time s (zero at s = 0) and its rate -u.velocity(s).  Generic:
        forward is built on ``position``, the slope reads the unchecked
        ``_kinematics_arrays``, so a Newton guess that overshoots does not
        raise; closed-form lines override it."""
        x0 = self.position(0.0)
        w, kin = u.components.tolist(), self._kinematics_arrays
        return (
            lambda s: -lorentz_dot(u, self.position(s) - x0),
            lambda s: -_mdot(w, kin(s)[0]),
        )


class InertialWorldLine(WorldLine):
    """Straight world line of an unaccelerated point."""

    #: zero acceleration makes every RK4 stage zero, so one step per segment is exact
    default_step = math.inf

    def __init__(self, velocity: AbsoluteVelocity, origin: FourVector = ZERO):
        self._velocity = velocity
        self._origin = origin
        self._kinematics = (tuple(velocity.components.tolist()), (0.0, 0.0, 0.0, 0.0))

    def position(self, s: float) -> FourVector:
        return FourVector(self._origin.components + _finite_time(s) * self._velocity.components)

    def velocity(self, s: float) -> AbsoluteVelocity:
        _finite_time(s)
        return self._velocity

    def acceleration(self, s: float) -> FourVector:
        _finite_time(s)
        return ZERO

    def _kinematics_arrays(self, s: float):
        return self._kinematics

    def _frame_clock(self, u: AbsoluteVelocity):
        # t = (-u.v) s
        k = -_mdot(u.components.tolist(), self._kinematics[0])
        return (lambda s: k * s, lambda s: k)


class CircularWorldLine(WorldLine):
    """Uniform circular motion in the space of a center frame.

    Parameters
    ----------
    center_velocity:
        Four-velocity of the orbit center.
    angular_velocity:
        Antisymmetric map generating the orbital rotation; must kill the
        center velocity and be nonzero.
    radius_vector:
        Initial position relative to the center, a space vector of the
        center frame lying in the rotation plane.
    origin:
        World point of the center at proper time 0.

    The orbital speed (rate times radius) must stay below 1; construction
    rejects anything invalid instead of repairing it.

    ``default_step`` is the proper period over N = max(256, ceil((40 v^2
    gamma^6 / 1e-13)^(1/4))) steps at orbital speed v.  RK4's error over one
    period, the largest entry of the operator against the exact one, is at
    most 40 v^2 gamma^6 |u0|^2 / N^4 (a fit), so it stays within 1e-13 |u0|^2,
    with |u0| the initial velocity's largest component.  Rounding adds about
    0.2 N eps |u0|^2, which no step lowers; from speed 0.6 on it is larger.
    """

    def __init__(
        self,
        center_velocity: AbsoluteVelocity,
        angular_velocity: LorentzMap,
        radius_vector: FourVector,
        origin: FourVector = ZERO,
    ):
        tol = TOL.constraint
        uc = center_velocity.components
        om = angular_velocity.matrix
        q = radius_vector.components

        if not angular_velocity.is_antisymmetric(tol):
            raise ConstraintViolation("angular velocity must be antisymmetric")
        # each check reads `not (x <= bound)`, so a NaN fails it; an overflow is
        # left to become the inf or NaN that the check rejects
        with np.errstate(over="ignore", invalid="ignore"):
            if not _carry_error(om, uc, 0.0) <= tol:
                raise ConstraintViolation("angular velocity must kill the center velocity")
            rate = antisymmetric_magnitude(angular_velocity)
            if not rate > tol:
                raise ConstraintViolation("angular velocity must be nonzero")
            if not _orthogonal(uc, q, tol):
                raise ConstraintViolation(
                    "radius vector must be a space vector of the center frame")
            radius = radius_vector.norm()
            if not radius > tol:
                raise ConstraintViolation("radius vector must be nonzero")
            # q in the rotation plane is equivalent to Om^2 q = -rate^2 q
            plane_residual = om @ (om @ q) + rate * rate * q
            if not float(np.max(np.abs(plane_residual))) <= tol * max(1.0, rate * rate * radius):
                raise ConstraintViolation(
                    "radius vector must lie in the rotation plane (orthogonal to the kernel)"
                )
            speed = rate * radius
            if not speed < 1.0 - 1e-9:
                raise ConstraintViolation(f"orbital speed must stay below 1, got {speed}")

        self.center_velocity = center_velocity
        self.angular_velocity = angular_velocity
        self.radius_vector = radius_vector
        self.origin = origin
        self.angular_rate = rate
        self.radius = radius
        self.orbital_speed = speed
        self.lorentz_factor = 1.0 / math.sqrt(1.0 - speed * speed)
        self.initial_velocity = AbsoluteVelocity(self.lorentz_factor * (uc + om @ q))
        self.proper_period = 2.0 * math.pi / (rate * self.lorentz_factor)
        self.center_period = 2.0 * math.pi / rate
        # N = (C(v) / target)^(1/4) steps per period: RK4's error is C(v) / N^4
        lam = self.lorentz_factor
        n = math.ceil((_STEP_FIT * speed * speed * lam ** 6 / _STEP_TARGET) ** 0.25)
        self.default_step = self.proper_period / max(_MIN_STEPS, n)

        # cached coefficients of the closed-form position and kinematics
        omq = om @ q
        self._q = q
        self._omq_over_rate = omq / rate
        self._spin = rate * lam  # proper-time rate of the orbital phase
        self._vel_terms = tuple(zip((lam * uc).tolist(), (lam * omq).tolist(),
                                    (-lam * rate * q).tolist()))
        self._acc_terms = tuple(zip((-(lam * rate) ** 2 * q).tolist(),
                                    (-(lam ** 2) * rate * omq).tolist()))

    @classmethod
    def from_plane(
        cls,
        angular_rate: float,
        radius: float,
        plane: tuple[FourVector, FourVector] | None = None,
        center_velocity: AbsoluteVelocity | None = None,
        origin: FourVector = ZERO,
    ) -> "CircularWorldLine":
        """Circular line from scalar rate and radius plus a rotation plane.

        ``plane`` is a pair of orthonormal space vectors of the center
        frame; the motion starts on the first axis and turns toward the
        second.  Defaults to the (e1, e2) plane carried into the center
        frame by the boost from the base frame.
        """
        uc = AbsoluteVelocity.rest() if center_velocity is None else center_velocity
        if plane is None:
            carry = boost(uc, AbsoluteVelocity.rest())
            p1, p2 = carry(E1), carry(E2)
        else:
            p1, p2 = plane
        for p in (p1, p2):
            if abs(p.norm() - 1.0) > 1e-9 or abs(lorentz_dot(uc, p)) > 1e-9:
                raise ConstraintViolation(
                    "plane axes must be unit space vectors of the center frame"
                )
        if abs(lorentz_dot(p1, p2)) > 1e-9:
            raise ConstraintViolation("plane axes must be orthogonal")
        generator = float(angular_rate) * wedge(p2, p1)
        return cls(uc, generator, float(radius) * p1, origin)

    def _phase(self, s: float) -> float:
        return self._spin * s

    def position(self, s: float) -> FourVector:
        s = _finite_time(s)
        ph = self._phase(s)
        turn = self._q * math.cos(ph) + self._omq_over_rate * math.sin(ph)
        return FourVector(
            self.origin.components + (s * self.lorentz_factor) * self.center_velocity.components + turn
        )

    def velocity(self, s: float) -> AbsoluteVelocity:
        return AbsoluteVelocity(self._kinematics_arrays(_finite_time(s))[0])

    def acceleration(self, s: float) -> FourVector:
        return FourVector(self._kinematics_arrays(_finite_time(s))[1])

    def _kinematics_arrays(self, s: float):
        ph = self._phase(s)
        return self._kinematics_of(math.cos(ph), math.sin(ph))

    def _kinematics_of(self, c, si):
        # v = k + c x + si y and a = c p + si r per component, for c = cos(phase) and
        # si = sin(phase) as floats or per-row arrays
        (k0, x0, y0), (k1, x1, y1), (k2, x2, y2), (k3, x3, y3) = self._vel_terms
        (p0, r0), (p1, r1), (p2, r2), (p3, r3) = self._acc_terms
        return (
            (k0 + c * x0 + si * y0, k1 + c * x1 + si * y1,
             k2 + c * x2 + si * y2, k3 + c * x3 + si * y3),
            (c * p0 + si * r0, c * p1 + si * r1, c * p2 + si * r2, c * p3 + si * r3),
        )

    def _kinematics_block(self, ss) -> np.ndarray:
        # _kinematics_of on numpy's cos and sin of the phases, which equal libm's math.cos
        # and math.sin bit for bit (a test guards it)
        if type(self)._kinematics_arrays is not CircularWorldLine._kinematics_arrays:
            return super()._kinematics_block(ss)  # a subclass's own scalar kinematics
        phases = self._spin * np.asarray(ss, dtype=float)
        return _rows(self._kinematics_of(np.cos(phases), np.sin(phases)))

    def _frame_clock(self, u: AbsoluteVelocity):
        # t(s) = -u.(x(s) - x(0)) = A s + B (cos(phase) - 1) + C sin(phase), with A = lam (-u.u_c),
        # B = -u.q, C = -u.(Om q)/rate; the slope is -u.v(s) with v(s) from _kinematics_arrays
        w = u.components.tolist()
        a = self.lorentz_factor * -_mdot(w, self.center_velocity.components.tolist())
        b, c = -_mdot(w, self._q.tolist()), -_mdot(w, self._omq_over_rate.tolist())
        spin, kin = self._spin, self._kinematics_arrays

        def forward(s: float) -> float:
            ph = spin * s
            return a * s + b * (math.cos(ph) - 1.0) + c * math.sin(ph)

        return forward, lambda s: -_mdot(w, kin(s)[0])

    def center_time_of_proper_time(self, s: float) -> float:
        """Center-frame time elapsed at proper time ``s`` (linear dilation)."""
        return self.lorentz_factor * _finite_time(s)

    def proper_time_of_center_time(self, t: float) -> float:
        return _finite_time(t, "center time") / self.lorentz_factor

    def initial_time_of_proper_time(self, s: float) -> float:
        """Time of the frame comoving with the orbit at s = 0: the frame clock of
        :func:`frame_time_of_proper_time` for the initial velocity."""
        return frame_time_of_proper_time(self.initial_velocity, self, s)

    def proper_time_of_initial_time(self, t: float) -> float:
        """Invert :meth:`initial_time_of_proper_time`: the frame-time inversion
        of :func:`proper_time_of_frame_time` for the initial velocity."""
        return proper_time_of_frame_time(self.initial_velocity, self, t)


def _invert_increasing(clock, t: float) -> float:
    """Solve forward(s) = t on a clock (forward, slope) from ``WorldLine._frame_clock``.

    Newton iteration from the guess s = t with a bisection fallback;
    forward increases with slope at least 1, so |forward(s) - t| bounds
    the error in s.  Both stop once that residual is below 1e-12 or 8 ulp
    of t, whichever is larger: a large t cannot be resolved more finely,
    and below |t| = 1024 the ulp floor lies under 1e-12.  Newton gets 50
    iterations before bisection takes over.
    """
    t = _finite_time(t, "frame time")
    if t == 0.0:
        return 0.0
    forward, slope = clock
    residual = max(1e-12, 8.0 * math.ulp(t))
    s = t
    for _ in range(50):
        f = forward(s) - t
        if abs(f) < residual:
            return s
        s -= f / slope(s)
    f = forward(s) - t
    lo, hi = s - abs(f), s + abs(f)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = forward(mid) - t
        if abs(fm) < residual:
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    raise ConstraintViolation(f"frame-time inversion failed to converge for t = {t}")


def frame_time_of_proper_time(u: AbsoluteVelocity, line: WorldLine, s: float) -> float:
    """Time frame ``u`` assigns to the world point at proper time ``s``.

    Zeroed at the world point of proper time 0; always increases with
    ``s`` because the dilation factor is at least 1.
    """
    return line._frame_clock(u)[0](_finite_time(s))


def proper_time_of_frame_time(u: AbsoluteVelocity, line: WorldLine, t: float) -> float:
    """Invert :func:`frame_time_of_proper_time` for any world line.

    Newton iteration with a bisection fallback; the map is strictly
    increasing with slope -u.velocity(s) >= 1, so the residual bounds the
    error in s directly.
    """
    return _invert_increasing(line._frame_clock(u), t)
