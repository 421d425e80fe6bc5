"""Shared helpers for the test suite."""
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


def max_abs(arr) -> float:
    return float(np.max(np.abs(np.asarray(arr))))


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
