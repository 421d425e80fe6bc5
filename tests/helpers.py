"""Shared helpers for the test suite."""
import math

import numpy as np

from relkin import (
    E1,
    E2,
    E3,
    AbsoluteVelocity,
    FourVector,
    WorldLine,
    lorentz_dot,
    project_spatial,
)
from relkin.worldlines import _finite_time


def _steps(s1: float, s2: float, step: float):
    """(s, h) of each fixed step from s1 to s2; the final partial step is shortened.

    The scalar schedule, s += h per step: the oracle of ``transport._schedule``.
    """
    total = s2 - s1
    h_full = math.copysign(step, total)
    s = s1
    for _ in range(int(abs(total) // step)):
        yield s, h_full
        s += h_full
    h = s2 - s
    if abs(h) > 1e-15 * max(1.0, abs(s2)):
        yield s, h


def max_abs(arr) -> float:
    return float(np.max(np.abs(np.asarray(arr))))


def parse_report(path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


def random_velocity(rng, vmax=0.95) -> AbsoluteVelocity:
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    return AbsoluteVelocity.from_3velocity(d * rng.uniform(0.0, vmax))


def random_vector(rng, scale=1.0) -> FourVector:
    return FourVector(rng.normal(size=4) * scale)


def random_unit_vector(rng) -> FourVector:
    x = rng.normal(size=4)
    return FourVector(x / np.linalg.norm(x))


def random_spacelike_unit(rng, u: AbsoluteVelocity) -> FourVector:
    """Random unit vector in the space of frame u."""
    while True:
        x = project_spatial(u, FourVector(rng.normal(size=4)))
        n = x.norm()
        if n > 1e-6:
            return x / n


def object_gram_schmidt(u: AbsoluteVelocity) -> list[FourVector]:
    """orthonormal_spatial_frame as FourVector arithmetic: the oracle of its float kernel."""
    frame = []
    for e in (E1, E2, E3):
        f = project_spatial(u, e)
        for g in frame:
            f = f - g * lorentz_dot(g, f)
        frame.append(f / f.norm())
    return frame


def assert_orthogonal(u, x, tol=1e-12):
    assert abs(lorentz_dot(u, x)) <= tol


class DelegatingLine(WorldLine):
    """A minimal user-defined line: kinematics only through the public methods."""

    def __init__(self, line):
        self.line = line
        self.default_step = line.default_step

    def position(self, s):
        return self.line.position(s)

    def velocity(self, s):
        return self.line.velocity(s)

    def acceleration(self, s):
        return self.line.acceleration(s)


class HyperbolicLine(WorldLine):
    """Uniform proper acceleration ``a`` along e1: u(s) = cosh(a s) e0 + sinh(a s) e1.

    Its velocity stays in the (e0, e1) plane, so Fermi-Walker transport from
    s1 to s2 is the boost from u(s1) to u(s2): an exact oracle for the
    numeric transport.  Kinematics are closed form, on floats.  Keep
    |a s| <= 3: from about a s = 4.5 (gamma about 47) the velocity's square
    misses -1 by more than ``TOL.constraint``.
    """

    default_step = 1e-3

    def __init__(self, a: float = 1.0):
        self.a = a

    def _hyperbolic(self, s):
        s = _finite_time(s)
        return math.cosh(self.a * s), math.sinh(self.a * s)

    def position(self, s):
        ch, sh = self._hyperbolic(s)
        return FourVector([sh / self.a, (ch - 1.0) / self.a, 0.0, 0.0])

    def velocity(self, s):
        return AbsoluteVelocity(self._kinematics_arrays(s)[0])

    def acceleration(self, s):
        return FourVector(self._kinematics_arrays(s)[1])

    def _kinematics_arrays(self, s):
        ch, sh = self._hyperbolic(s)
        return (ch, sh, 0.0, 0.0), (self.a * sh, self.a * ch, 0.0, 0.0)


class LoopLine(WorldLine):
    """Planar loop of varying rapidity: eta(s) = eta0 + eps sin s and phi(s) = s.

    u = cosh eta e0 + sinh eta (cos phi e1 + sin phi e2) returns to its start
    after each 2 pi of proper time.  Thomas rotation is the holonomy of
    velocity space, so over one loop the gyroscope turns about e3 by minus the
    hyperbolic area the hodograph encloses, -int_0^{2 pi} (cosh eta - 1) dphi
    (Aravind, Am. J. Phys. 65, 634 (1997)): an exact oracle on a closed loop
    along which gamma varies.  Velocity and acceleration are closed form, on
    floats; the line has no position.
    """

    default_step = 2.0 * math.pi / 20_000

    def __init__(self, eta0: float, eps: float):
        self.eta0, self.eps = eta0, eps

    def position(self, s):
        raise NotImplementedError("the loop line has no closed-form position")

    def velocity(self, s):
        return AbsoluteVelocity(self._kinematics_arrays(s)[0])

    def acceleration(self, s):
        return FourVector(self._kinematics_arrays(s)[1])

    def _kinematics_arrays(self, s):
        s = _finite_time(s)
        eta, deta = self.eta0 + self.eps * math.sin(s), self.eps * math.cos(s)
        ch, sh, c, si = math.cosh(eta), math.sinh(eta), math.cos(s), math.sin(s)
        return ((ch, sh * c, sh * si, 0.0),
                (deta * sh, deta * ch * c - sh * si, deta * ch * si + sh * c, 0.0))

    def plane_frame(self, s):
        """(n, t): the unit space vectors of u(s) in the plane of motion, n outward."""
        eta, c, si = self.eta0 + self.eps * math.sin(s), math.cos(s), math.sin(s)
        ch, sh = math.cosh(eta), math.sinh(eta)
        return FourVector([sh, ch * c, ch * si, 0.0]), FourVector([0.0, -si, c, 0.0])
