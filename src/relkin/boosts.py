"""Lorentz boosts between four-velocities and the kinematics they induce.

A boost is the canonical form-preserving map identifying the space vectors
of one inertial frame with those of another.  Boosts are symmetric but not
transitive: chaining three of them around a velocity triangle leaves a
residual spatial rotation, extracted here together with the relative
velocity, acceleration and time-dilation factor any inertial frame
attributes to a moving point.
"""
from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .config import TOL
from .errors import ConstraintViolation
from .minkowski import (
    AbsoluteVelocity,
    FourVector,
    LorentzMap,
    _carry_error,
    _form_error,
    _lowered,
    _mdot,
    _orthogonal,
    _rows,
    lorentz_dot,
    orthonormal_spatial_frame,
)


class Boost(LorentzMap):
    """Lorentz boost carrying frame ``u_from`` onto frame ``u_to``."""

    def __init__(self, matrix, u_to: AbsoluteVelocity, u_from: AbsoluteVelocity):
        super().__init__(matrix)
        _require_boost(self.matrix, u_to.components, u_from.components)
        self.u_to = u_to
        self.u_from = u_from


def _require_boost(m: np.ndarray, u_to, u_from) -> None:
    # the checks every boost matrix passes: the Lorentz form, and u_from carried onto u_to
    if not _form_error(m) <= TOL.constraint:
        raise ConstraintViolation("boost matrix does not preserve the Lorentz form")
    if not _carry_error(m, u_from, u_to) <= TOL.constraint:
        raise ConstraintViolation("boost does not map u_from to u_to")


class SpatialRotation(LorentzMap):
    """Lorentz map fixing a velocity ``u`` and rotating its space vectors.

    Keeps the canonical frame of ``u`` as ``frame`` and checks the map's
    restriction to it once, at construction; a NaN fails every check.
    """

    def __init__(self, matrix, u: AbsoluteVelocity, tol: float | None = None):
        super().__init__(matrix)
        tol = TOL.constraint if tol is None else tol
        # an overflow becomes the inf or NaN that the checks reject
        with np.errstate(over="ignore", invalid="ignore"):
            if not _carry_error(self.matrix, u.components, u.components) <= tol:
                raise ConstraintViolation("rotation does not fix its velocity")
            self.u = u
            self.frame = orthonormal_spatial_frame(u)
            rows = [f.components.tolist() for f in self.frame]
            cols = [(self.matrix @ f.components).tolist() for f in self.frame]
            self._restriction = r = np.array([[_mdot(fi, c) for c in cols] for fi in rows])
            r.setflags(write=False)
            if not float(np.max(np.abs(r.T @ r - np.eye(3)))) <= tol:
                raise ConstraintViolation("restriction to the spatial subspace is not orthogonal")
            if not abs(float(np.linalg.det(r)) - 1.0) <= tol:
                raise ConstraintViolation("restriction must have determinant +1")

    def restriction(self) -> np.ndarray:
        """Read-only 3x3 matrix of the map on the space vectors of ``u``, in ``frame``."""
        return self._restriction


def boost(u_to: AbsoluteVelocity, u_from: AbsoluteVelocity) -> Boost:
    """Boost mapping ``u_from`` to ``u_to``.

    boost(u, u) is the identity and boost(u, u') inverts boost(u', u).
    """
    m = _boost_matrix(u_to.components.tolist(), u_from.components.tolist())
    out = Boost.__new__(Boost)  # _boost_matrix has made Boost's checks
    out.matrix, out.u_to, out.u_from = m, u_to, u_from
    return out


def _boost_matrix(t, f) -> np.ndarray:
    # checked read-only matrix of the boost carrying 4-float velocity f onto t, entry by entry
    # as numpy forms eye + outer(s, G s) / (1 - t.f) - 2 outer(t, G f) with s = t + f
    d = _mdot(t, f)
    # future-directed velocities always satisfy u_to.u_from <= -1
    if not d < 0.0:
        raise ConstraintViolation(f"velocities must be future directed, got u_to.u_from = {d}")
    rows = _boost_entries(t, f, d)
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise ConstraintViolation("map entries must be finite")
    m = np.array(rows)
    _require_boost(m, t, f)
    m.setflags(write=False)
    return m


def _boost_rows(t, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_boost_matrix of the velocity t with each row of f, all in one pass.

    Returns the [n, 4, 4] matrices and a mask of the rows that pass every
    check of _boost_matrix.  The entries are _boost_entries on the columns
    of f, and the residuals are _require_boost's, on the stack.  So an
    accepted row is the scalar kernel's matrix bit for bit, and the mask is
    its verdict.
    """
    d = _mdot(t, f.T)
    m = _rows(_boost_entries(t, f.T, d))
    ok = (d < 0.0) & np.isfinite(m).all(axis=(1, 2)) & (_form_error(m) <= TOL.constraint)
    return m, ok & (_carry_error(m, f, t) <= TOL.constraint)


def _boost_entries(t, f, d) -> list[list]:
    # rows of eye + outer(s, G s) / (1 - d) - 2 outer(t, G f) with s = t + f and d = t.f, entry
    # by entry as numpy forms them; t is four floats, f and d are floats or per-row arrays
    s = [ti + fi for ti, fi in zip(t, f)]
    gs, gf = _lowered(s), _lowered(f)
    k = 1.0 - d
    return [[((1.0 if i == j else 0.0) + si * gsj / k) - 2.0 * (ti * gfj)
             for j, (gsj, gfj) in enumerate(zip(gs, gf))]
            for i, (si, ti) in enumerate(zip(s, t))]


def gamma_factor(u: AbsoluteVelocity, rdot: AbsoluteVelocity) -> float:
    """Relativistic factor -u.rdot = 1/sqrt(1 - |relative velocity|^2)."""
    return -lorentz_dot(u, rdot)


def relative_velocity(u: AbsoluteVelocity, rdot: AbsoluteVelocity) -> FourVector:
    """Velocity of a point with four-velocity ``rdot`` as seen by frame ``u``.

    Lies in the space vectors of ``u`` and has magnitude below 1.
    """
    return FourVector(_relative_velocity(u.components.tolist(), rdot.components.tolist()))


def _relative_velocity(u, r) -> list:
    # rdot / g - u with g = -u.rdot, for a 4-float velocity u and four floats or [4, n] columns r
    g = -_mdot(u, r)
    return [ri / g - ui for ri, ui in zip(r, u)]


def relative_acceleration(
    u: AbsoluteVelocity,
    rdot: AbsoluteVelocity,
    rddot: FourVector,
) -> FourVector:
    """Acceleration of a point as seen by frame ``u``.

    ``rddot`` is the proper acceleration, required to be orthogonal to
    ``rdot``; the result lies in the space vectors of ``u``.
    """
    return FourVector(_relative_acceleration(
        u.components.tolist(), rdot.components.tolist(), rddot.components.tolist()))


def _relative_acceleration(u, r, a) -> list[float]:
    # _acceleration_seen_by on 4-float vectors, once rdot.rddot passes its check
    if not _orthogonal(r, a, TOL.constraint):
        raise ConstraintViolation(
            f"acceleration must be orthogonal to velocity, got rdot.rddot = {_mdot(r, a)}"
        )
    return _acceleration_seen_by(u, r, a)


def _acceleration_seen_by(u, r, a) -> list:
    # (rddot + rdot (u.rddot / g)) / g^2 with g = -u.rdot, for a 4-float velocity u and
    # four floats or [4, n] columns r and a
    g = -_mdot(u, r)
    k = _mdot(u, a) / g
    gg = g * g
    return [(ai + ri * k) / gg for ai, ri in zip(a, r)]


def thomas_rotation_discrete(
    u: AbsoluteVelocity,
    u1: AbsoluteVelocity,
    u2: AbsoluteVelocity,
) -> SpatialRotation:
    """Residual rotation of the boost chain u -> u1 -> u2 -> u.

    The identity exactly when u, u1, u2 are coplanar; otherwise a genuine
    rotation of the space vectors of ``u``.
    """
    m = boost(u, u2).matrix @ boost(u2, u1).matrix @ boost(u1, u).matrix
    return SpatialRotation(m, u, tol=1e-10)


def rotation_angle_axis(
    rotation: SpatialRotation,
) -> tuple[float, FourVector | None]:
    """Angle in (-pi, pi] and unit axis of a spatial rotation.

    The axis sign is canonicalized so that its first non-negligible
    component in the canonical frame is positive; a positive angle is a
    right-handed rotation about that axis.  Below ``TOL.degenerate_angle``
    the axis is ill-conditioned and ``None`` is returned instead.  The
    reported axis is not continuous in the rotation: it flips direction
    as the angle crosses zero.  Reads the frame and restriction that the
    rotation kept when it was checked, so nothing is rebuilt.
    """
    frame, m = rotation.frame, rotation.restriction()
    cos_t = min(1.0, max(-1.0, 0.5 * (float(np.trace(m)) - 1.0)))
    # the axial part has magnitude 2|sin(angle)|
    w = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    wnorm = float(np.linalg.norm(w))
    if 0.5 * wnorm < TOL.degenerate_angle and cos_t > 0.0:
        return math.asin(min(0.5 * wnorm, 1.0)), None
    if cos_t < -0.999:
        # near pi the axial part vanishes; use the eigenvector route on the
        # symmetric part, which is (1 - cos) a a^T once cos I is removed
        b = 0.5 * (m + m.T) - cos_t * np.eye(3)
        col = int(np.argmax(np.sum(b * b, axis=0)))
        a = b[:, col]
        a = a / np.linalg.norm(a)
    else:
        a = w / wnorm
    # sign convention: the first non-negligible component is positive
    a = -a if a[int(np.nonzero(np.abs(a) > 1e-9)[0][0])] < 0.0 else a
    angle = math.atan2(0.5 * float(w @ a), cos_t)
    if angle <= -math.pi:
        angle = math.pi
    f0, f1, f2 = (f.components for f in frame)
    return angle, FourVector(f0 * a[0] + f1 * a[1] + f2 * a[2])


def coplanar(
    u: AbsoluteVelocity,
    u1: AbsoluteVelocity,
    u2: AbsoluteVelocity,
) -> bool:
    """True when the three velocities span at most a 2-plane.

    Decided by the smallest singular value of the 4x3 component matrix
    relative to the largest; scale-invariant and robust for fast
    velocities.
    """
    cols = np.column_stack([u.components, u1.components, u2.components])
    sv = np.linalg.svd(cols, compute_uv=False)
    return bool(sv[-1] < TOL.rank * sv[0])

