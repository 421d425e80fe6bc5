"""Gyroscope precession as seen by an arbitrary inertial frame.

A transported gyroscopic vector keeps its direction in itself, yet any
fixed inertial frame that observes it, by boosting it continuously into
its own space, sees it precess.  The instantaneous angular velocity of
that precession depends only on the relative velocity and acceleration of
the carrier as seen by the frame, and genuinely differs from frame to
frame.  The circular-line special cases have closed forms implemented
here alongside the generic observation pipeline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .boosts import (
    _acceleration_seen_by,
    _boost_matrix,
    _boost_rows,
    _relative_acceleration,
    _relative_velocity,
    boost,
)
from .config import TOL
from .errors import ConstraintViolation
from .minkowski import (
    AbsoluteVelocity,
    FourVector,
    LorentzMap,
    _map,
    _mdot,
    _orthogonal,
    _rows,
    _vector,
    _wedge,
    orthonormal_spatial_frame,
    wedge,
)
from .transport import _path_rows
from .worldlines import (CircularWorldLine, WorldLine, _invert_increasing,
                         proper_time_of_frame_time)


@dataclass
class PrecessionSample:
    """One observation of a gyroscope from a fixed inertial frame.

    ``z`` is the gyroscopic vector boosted into the observer's space,
    ``rate`` the instantaneous angular-velocity map of its precession
    (kills the observer velocity), and ``z_dot`` the centered finite
    difference of ``z`` over the sample grid (None at the endpoints).
    """

    t: float
    z: FourVector
    rate: LorentzMap
    z_dot: FourVector | None = None


def precession_rate(v: FourVector, a: FourVector) -> LorentzMap:
    """Angular velocity (gamma^2 / (1 + gamma)) v ^ a of the observed precession.

    ``v`` and ``a`` are the relative velocity and acceleration in the
    observer's space; |v| must stay below 1.  Equals ((gamma - 1)/|v|^2) v ^ a
    for nonzero v.
    """
    return LorentzMap(_rate_matrix(v.components.tolist(), a.components.tolist()))


def _rate_matrix(v, a) -> list[list[float]]:
    # precession_rate on 4-float relative velocity and acceleration
    v_sq = _mdot(v, v)
    if not v_sq >= -TOL.constraint:
        raise ConstraintViolation("relative velocity must be spacelike")
    v_sq = max(v_sq, 0.0)
    if not v_sq < 1.0:
        raise ConstraintViolation(f"relative speed must be below 1, got squared {v_sq}")
    gamma = 1.0 / math.sqrt(1.0 - v_sq)
    return _wedge(v, a, gamma * gamma / (1.0 + gamma))


def _rate_rows(v, a) -> tuple[np.ndarray, np.ndarray]:
    # _rate_matrix of each column pair of [4, n] columns v and a as an [n, 4, 4] array, and a
    # mask of the rows it accepts with finite entries; the sign of a clamped zero cannot
    # change 1.0 - v_sq
    v_sq = _mdot(v, v)
    clamped = np.maximum(v_sq, 0.0)
    gamma = 1.0 / np.sqrt(1.0 - clamped)
    rate = _rows(_wedge(v, a, gamma * gamma / (1.0 + gamma)))
    return rate, (v_sq >= -TOL.constraint) & (clamped < 1.0) & np.isfinite(rate).all(axis=(1, 2))


def observe_gyroscope(
    u: AbsoluteVelocity,
    line: WorldLine,
    z_of_s,
    t: float,
) -> FourVector:
    """Gyroscopic vector at frame time ``t``, boosted into the space of ``u``.

    ``z_of_s`` supplies the transported vector as a function of proper
    time.  Boosting preserves the magnitude, so the observed needle never
    changes length, only direction.
    """
    s = proper_time_of_frame_time(u, line, t)
    z = z_of_s(s)
    rdot = line.velocity(s)
    if not _orthogonal(rdot.components.tolist(), z.components.tolist(), TOL.drift):
        raise ConstraintViolation("supplied trajectory is not gyroscopic at the requested time")
    return boost(u, rdot)(z)


def precession_series(
    u: AbsoluteVelocity,
    line: WorldLine,
    z0: FourVector,
    t_grid,
    step: float | None = None,
    tol_drift: float | None = None,
) -> list[PrecessionSample]:
    """Observe a transported gyroscope on a grid of frame times.

    ``z0`` must be gyroscopic at proper time 0.  One :func:`transport_path`
    pass, read as rows, covers the grid and takes its route (``step`` and
    ``tol_drift`` as there): with no step an inertial or circular line's
    states are exact, otherwise RK4 integrates them.  Each sample then gets
    the boosted vector and the rate built from the relative velocity and
    acceleration at that instant.  Interior samples also carry the centered difference of the
    observed vector, so the precession law can be checked against the
    series itself.  One numpy pass observes every sample: the public calls'
    float kernels run once, on arrays with one value per sample, so each
    sample equals their composition bit for bit; where a check fails, the
    kernels rerun on that sample's floats and raise.
    """
    ts = [float(t) for t in t_grid]
    if len(ts) < 2:
        raise ConstraintViolation("a precession series needs at least two grid points")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ConstraintViolation("frame-time grid must be strictly increasing")
    clock = line._frame_clock(u)
    ss = [_invert_increasing(clock, t) for t in ts]
    zs, kin = _path_rows(line, z0, ss, 0.0, step, tol_drift)
    w = u.components.tolist()
    # an overflow becomes the inf or NaN that a check rejects
    with np.errstate(all="ignore"):
        if kin is None:  # RK4 ends its steps elsewhere
            kin = line._kinematics_block(ss)
        rdot, rddot = kin[:, 0].T, kin[:, 1].T
        m, ok = _boost_rows(w, rdot.T)
        z = (m @ zs[:, :, None])[:, :, 0]
        a = _acceleration_seen_by(w, rdot, rddot)
        rate, ok_rate = _rate_rows(_relative_velocity(w, rdot), a)
        ok &= np.isfinite(z).all(axis=1) & _orthogonal(rdot, rddot, TOL.constraint) & ok_rate
        inv_dt = 1.0 / np.subtract(ts[2:], ts[:-2])
        z_dot = (z[2:] - z[:-2]) * inv_dt[:, None]
        ok_dot = np.isfinite(inv_dt) & np.isfinite(z_dot).all(axis=1)
    if not (ok.all() and ok_dot.all()):
        _raise_first_failure(w, line, ss, zs, ts, z, ok, ok_dot)
    for block in (z, rate, z_dot):
        block.setflags(write=False)
    samples = [PrecessionSample(t, _vector(zk), _map(rk)) for t, zk, rk in zip(ts, z, rate)]
    for sample, zd in zip(samples[1:-1], z_dot):
        sample.z_dot = _vector(zd)
    return samples


def _raise_first_failure(w, line, ss, zs, ts, z, ok, ok_dot) -> NoReturn:
    """Replay the per-sample kernels where a block check failed.

    The first sample that fails any check is rerun through the scalar
    kernels in their order (boost, observed vector, relative velocity and
    acceleration, rate); if every sample passed, the first difference that
    failed is recomputed as the scalar loop forms it.  Either raises the
    scalar path's exception with its message; an overflow on the way is
    left to become the inf or NaN that the check rejects, without a warning.
    """
    with np.errstate(all="ignore"):
        if not ok.all():
            k = int(np.argmin(ok))
            rdot, rddot = line._kinematics_arrays(ss[k])
            FourVector(_boost_matrix(w, rdot) @ zs[k])
            v = _relative_velocity(w, rdot)
            LorentzMap(_rate_matrix(v, _relative_acceleration(w, rdot, rddot)))
        else:
            k = int(np.argmin(ok_dot)) + 1
            dt = ts[k + 1] - ts[k - 1]
            inv_dt = 1.0 / dt
            if not math.isfinite(inv_dt):
                raise ConstraintViolation(f"frame-time grid spacing {dt} is too small to difference")
            FourVector([(p - q) * inv_dt for p, q in zip(z[k + 1].tolist(), z[k - 1].tolist())])
    raise AssertionError("a block check failed where the scalar kernels pass")


def central_frame_precession(line: CircularWorldLine) -> LorentzMap:
    """Precession rate seen by the center frame of a circular orbit.

    Constant in center time: (1 - lorentz_factor) times the orbital
    angular velocity, retrograde for any nonzero orbital speed.
    """
    return (1.0 - line.lorentz_factor) * line.angular_velocity


@dataclass(frozen=True)
class FrameInstant:
    """Observed kinematics at one instant of the observing frame."""

    proper_time: float
    frame_time: float
    velocity: FourVector
    rate: LorentzMap
    acceleration: FourVector | None = None


@dataclass(frozen=True)
class SpecialInstantPair:
    """Closed-form instants of the initial rest frame of a circular orbit."""

    even: FrameInstant
    odd: FrameInstant


def initial_frame_special_instants(line: CircularWorldLine, n: int = 1) -> SpecialInstantPair:
    """Observed kinematics at the n-th aligned and opposed orbit instants.

    The observer is the frame comoving with the orbit at proper time 0.
    At phases that are even multiples of pi the carrier is momentarily at
    rest in that frame, so both the relative velocity and the precession
    rate vanish.  At odd multiples everything is closed form; the rate
    follows from pushing the closed-form velocity and acceleration through
    the precession law.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ConstraintViolation(f"instant index must be a positive integer, got {n!r}")
    lam = line.lorentz_factor
    rate = line.angular_rate
    try:
        k_even = 2.0 * int(n)  # the even phase over pi
    except OverflowError:
        k_even = math.inf
    k_odd = k_even - 1.0
    s_even, t_even = k_even * np.pi / (rate * lam), k_even * np.pi * lam / rate
    s_odd, t_odd = k_odd * np.pi / (rate * lam), k_odd * np.pi * lam / rate
    if not all(map(math.isfinite, (s_even, t_even, s_odd, t_odd))):
        raise ConstraintViolation("instant index is too large: its instants overflow a float")
    if not (s_odd < s_even and t_odd < t_even):  # from n = 2**52 the two round together
        raise ConstraintViolation(
            f"instant index {n} is too large: its aligned and opposed instants coincide")
    uc = line.center_velocity
    q = line.radius_vector
    omq = line.angular_velocity(q)
    x = line.orbital_speed ** 2

    even = FrameInstant(
        proper_time=s_even,
        frame_time=t_even,
        velocity=FourVector(np.zeros(4)),
        rate=LorentzMap(np.zeros((4, 4))),
    )

    v_odd = (-2.0 * lam / (1.0 + x)) * (x * uc + omq)
    a_odd = ((1.0 - x) * rate ** 2 / (1.0 + x) ** 2) * q
    rate_odd = (-lam * rate ** 2 / (1.0 + x)) * wedge(x * uc + omq, q)
    odd = FrameInstant(
        proper_time=s_odd,
        frame_time=t_odd,
        velocity=v_odd,
        rate=rate_odd,
        acceleration=a_odd,
    )
    return SpecialInstantPair(even=even, odd=odd)


def rate_components(rate: LorentzMap, u: AbsoluteVelocity, frame=None) -> np.ndarray:
    """Angular-velocity pseudo-vector of ``rate`` in the spatial frame of ``u``.

    Components (r1, r2, r3) such that the restriction of ``rate`` rotates
    f1 toward f2 at rate r3, and cyclically; their Euclidean norm is the
    precession speed.
    """
    f0, f1, f2 = (f.components for f in (orthonormal_spatial_frame(u) if frame is None else frame))
    m = rate.matrix
    # entries (2, 1), (0, 2), (1, 0) of the matrix fi . rate(fj), as lorentz_dot forms them
    return np.array([_mdot(fi.tolist(), (m @ fj).tolist())
                     for fi, fj in ((f2, f1), (f0, f2), (f1, f0))])
