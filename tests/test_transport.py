import math
import time
import types

import numpy as np
import pytest

import relkin
from relkin import (
    E1,
    E2,
    E3,
    AbsoluteVelocity,
    CircularWorldLine,
    ConstraintViolation,
    DriftViolation,
    FourVector,
    InertialWorldLine,
    LorentzMap,
    VelocityMismatch,
    boost,
    circular_thomas_angle,
    circular_transport_generator,
    exp_map,
    fermi_walker_derivative,
    lorentz_dot,
    antisymmetric_magnitude,
    precession_series,
    project_spatial,
    rotation_angle_axis,
    thomas_rotation_circular,
    thomas_rotation_general,
    transport_circular_exact,
    transport_numeric,
    transport_operator_numeric,
    transport_path,
    wedge,
)

from relkin.transport import _BLOCK, MAX_STEPS, _generators, _reduce_angle, _rk4, _schedule
from relkin.worldlines import _STEP_FIT, _STEP_TARGET

from helpers import (DelegatingLine, HyperbolicLine, LoopLine, TimedCircular, _steps, max_abs,
                     random_spacelike_unit, random_velocity)


def standard_line(omega=0.6, rho=1.0) -> CircularWorldLine:
    return CircularWorldLine.from_plane(omega, rho)


def exact_z_of_s(line, z0):
    lam = line.lorentz_factor
    return lambda s: transport_circular_exact(line, z0, lam * s)


class NanAccelerationLine(CircularWorldLine):
    """Circular line whose acceleration turns NaN from proper time 1 on."""

    def _kinematics_arrays(self, s):
        rdot, rddot = CircularWorldLine._kinematics_arrays(self, s)
        return rdot, (rddot if s < 1.0 else np.full(4, np.nan))


class TestDerivative:
    def test_inertial_line_gives_zero(self):
        line = InertialWorldLine(AbsoluteVelocity.from_3velocity([0.4, 0.2, 0.0]))
        z = FourVector([0.3, 1.0, -2.0, 0.7])
        assert max_abs(fermi_walker_derivative(line, 1.7, z).components) == 0.0

    def test_velocity_maps_to_acceleration(self):
        line = standard_line()
        for s in (0.0, 1.1):
            out = fermi_walker_derivative(line, s, line.velocity(s))
            assert max_abs(out.components - line.acceleration(s).components) < 1e-12

    def test_matches_closed_form_derivative(self):
        line = standard_line()
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])  # radius direction, gyroscopic at s = 0
        rhs = fermi_walker_derivative(line, 0.0, z0)
        # the transported vector starts out pointing along the carrier's
        # acceleration history: zdot = (rddot . z) rdot at s = 0
        expected = -(1.25 ** 2) * 0.36 * line.initial_velocity
        assert max_abs(rhs.components - expected.components) < 1e-12
        z = exact_z_of_s(line, z0)
        h = 1e-6
        fd = (z(h) - z(-h)) / (2 * h)
        assert max_abs(fd.components - rhs.components) < 1e-8


class TestTransportNumeric:
    def test_inertial_transport_is_exact(self):
        line = InertialWorldLine(AbsoluteVelocity.from_3velocity([0.0, 0.5, 0.0]))
        z0 = project_spatial(line.velocity(0.0), FourVector([0.0, 1.0, 0.3, -0.2]))
        state = transport_numeric(line, z0, 0.0, 7.0, step=0.1)
        assert np.array_equal(state.z.components, z0.components)

    def test_requires_gyroscopic_start(self):
        line = standard_line()
        with pytest.raises(ConstraintViolation):
            transport_numeric(line, E2, 0.0, 1.0, step=0.01)  # u0 . e2 != 0

    def test_path_points_must_ascend(self):
        with pytest.raises(ConstraintViolation, match="^proper-time points must be ascending$"):
            transport_path(standard_line(), E3, [1.0, 0.5])

    def test_matches_exact_over_one_period(self):
        line = standard_line()
        period = line.proper_period
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        state = transport_numeric(line, z0, 0.0, period, step=period / 10_000)
        exact = transport_circular_exact(line, z0, line.lorentz_factor * period)
        assert max_abs(state.z.components - exact.components) <= 1e-8

    def test_backward_transport_returns(self):
        line = standard_line(0.9, 1.0)
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        period = line.proper_period
        fwd = transport_numeric(line, z0, 0.0, period / 3, step=period / 4000)
        back = transport_numeric(line, fwd.z, period / 3, 0.0, step=period / 4000)
        assert max_abs(back.z.components - z0.components) < 1e-10

    def test_mutual_dot_conserved(self):
        line = standard_line(0.9, 1.0)
        rng = np.random.default_rng(41)
        u0 = line.initial_velocity
        z1 = random_spacelike_unit(rng, u0)
        z2 = random_spacelike_unit(rng, u0)
        before = lorentz_dot(z1, z2)
        period = line.proper_period
        s_out = 2.4 * period
        step = period / 4000
        za = transport_numeric(line, z1, 0.0, s_out, step=step).z
        zb = transport_numeric(line, z2, 0.0, s_out, step=step).z
        assert abs(lorentz_dot(za, zb) - before) < 1e-8

    def test_drift_violation_on_coarse_step(self):
        line = standard_line(0.9, 1.0)
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(DriftViolation):
            transport_numeric(line, z0, 0.0, 40.0 * line.proper_period,
                              step=line.proper_period / 3)

    @pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_bad_step(self, step):
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ConstraintViolation, match="positive and finite"):
            transport_numeric(standard_line(), z0, 0.0, 1.0, step=step)

    def test_nan_state_raises_drift_at_its_step(self):
        line = NanAccelerationLine.from_plane(0.6, 1.0)
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        # the step ending at s = 1 is the first to evaluate a NaN
        with pytest.raises(DriftViolation, match=r"at s = 1\.0:"):
            transport_numeric(line, z0, 0.0, 3.0, step=0.03125)

    def test_tol_drift_is_the_monitor_bound(self):
        line = standard_line()
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        period = line.proper_period
        # drift per step at P/200 lies between 1e-10 and the 1e-8 default,
        # at P/100 between the default and 1e-6
        transport_path(line, z0, [period / 2], step=period / 200)
        with pytest.raises(DriftViolation):
            transport_path(line, z0, [period / 2], step=period / 200, tol_drift=1e-10)
        with pytest.raises(DriftViolation):
            transport_path(line, z0, [period / 2], step=period / 100)
        transport_path(line, z0, [period / 2], step=period / 100, tol_drift=1e-6)

    def test_gyro_state_invariants_along_path(self):
        line = standard_line()
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        points = np.linspace(0.0, 2.0 * line.proper_period, 17)
        for state in transport_path(line, z0, points):
            rdot = line.velocity(state.s)
            assert abs(lorentz_dot(rdot, state.z)) < 1e-8
            assert abs(state.z.norm() - 1.0) < 1e-8


def _mdot(a, b):
    return -a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _reference_drift(s, v, z, norm0, tol, h_step):
    # the per-step drift test of the references, on floats, in the order of transport_path's
    ortho = abs(_mdot(v, z))
    sq = _mdot(z, z)
    mag = abs(math.sqrt(sq) - norm0) if sq >= 0.0 else math.nan
    if not (ortho <= tol and mag <= tol):
        raise DriftViolation(f"transport drift at s = {s}: velocity.z = {ortho}, "
                             f"|z| drift = {mag} (step {h_step} too large)")


def _reference_passes(ss, s_start):
    # the point indices of the forward pass from s_start, then those of the backward pass
    first_fwd = next((i for i, s in enumerate(ss) if s >= s_start), len(ss))
    return range(first_fwd, len(ss)), range(first_fwd - 1, -1, -1)


def map_reference_path(line, z0, s_points, s_start=0.0, step=None, tol=1e-8):
    """transport_path's RK4 route one step map at a time: its bit oracle.

    Each leg between consecutive points of a pass runs ``per_step_maps``
    from its own start, z + D z per step, and tests the drift of every
    step's state on floats, so states and drift messages must agree with
    the block route bit for bit.
    """
    h_step = line.default_step if step is None else float(step)
    ss = [float(s) for s in s_points]
    norm0 = z0.norm()
    out = [None] * len(ss)
    for order in _reference_passes(ss, s_start):
        z, cur = z0.components, s_start
        for i in order:
            for s, d in per_step_maps(line, cur, ss[i], h_step):
                z = z + d @ z
                _reference_drift(s, line._kinematics_arrays(s)[0], z, norm0, tol, h_step)
            cur = ss[i]
            out[i] = (cur, z.tobytes())
    return out


def numpy_reference_path(line, z0, s_points, s_start=0.0, step=None, tol=1e-8):
    """transport_path's RK4 route in the classical stage form: its tolerance oracle.

    Kinematics come from the public velocity()/acceleration() arrays and
    the state is a 4-element array stepped by the stages k1..k4.  The route
    applies the step maps instead, which regroup this arithmetic, so the two
    differ by rounding alone (``TestStagesBoundThePath``).
    """

    def kin(s):
        return line.velocity(s).components, line.acceleration(s).components

    def rhs(k, z):
        rdot, rddot = k
        return rdot * _mdot(rddot, z) - rddot * _mdot(rdot, z)

    def rk4(y, s1, s2, h_step, norm0):
        total = s2 - s1
        if total == 0.0:
            return y
        n_full = int(abs(total) // h_step)
        h_full = math.copysign(h_step, total)
        f_lo = kin(s1)
        s = s1
        for i in range(n_full + 1):
            if i == n_full:
                h = s2 - s
                if abs(h) <= 1e-15 * max(1.0, abs(s2)):
                    break
            else:
                h = h_full
            f_mid = kin(s + 0.5 * h)
            f_hi = kin(s + h)
            k1 = rhs(f_lo, y)
            k2 = rhs(f_mid, y + (0.5 * h) * k1)
            k3 = rhs(f_mid, y + (0.5 * h) * k2)
            k4 = rhs(f_hi, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            s += h
            f_lo = f_hi
            _reference_drift(s, f_hi[0], y, norm0, tol, h_step)
        return y

    h_step = line.default_step if step is None else float(step)
    ss = [float(s) for s in s_points]
    norm0 = z0.norm()
    out = [None] * len(ss)
    for order in _reference_passes(ss, s_start):
        z, cur = z0.components.copy(), s_start
        for i in order:
            z = rk4(z, cur, ss[i], h_step, norm0)
            cur = ss[i]
            out[i] = (cur, z.tobytes())
    return out


def _seeded_orbit(rng, boosted):
    speed = rng.uniform(0.1, 0.95)
    rho = rng.uniform(0.5, 2.0)
    center = None
    if boosted:
        d = rng.normal(size=3)
        center = AbsoluteVelocity.from_3velocity(d / np.linalg.norm(d) * rng.uniform(0.1, 0.6))
    line = CircularWorldLine.from_plane(speed / rho, rho, center_velocity=center)
    s_start = rng.uniform(-1.0, 1.0) * line.proper_period
    z0 = random_spacelike_unit(rng, line.velocity(s_start)) * rng.uniform(0.5, 2.0)
    return line, z0, s_start


def _seeded_path(seed, step_kind):
    # a seeded orbit with points on both sides of s_start, so one forward and one backward
    # pass; the line's default step given explicitly: with no step a circular line is exact
    rng = np.random.default_rng(3100 + seed)
    line, z0, s_start = _seeded_orbit(rng, boosted=seed % 2 == 1)
    period = line.proper_period
    offsets = np.concatenate([[-0.1, 0.12], rng.uniform(-0.15, 0.2, size=3)])
    points = np.sort(s_start + period * offsets)
    step = period / rng.uniform(600.0, 1200.0) if step_kind == "explicit" else line.default_step
    return line, z0, s_start, points, step


class TestPathBitIdentity:
    """transport_path's RK4 route equals the per-step map reference with exact ==,
    drift messages included."""

    def test_timelike_needle_is_a_drift(self):
        # at speed 0.82 one step over about two orbits turns the needle timelike: a
        # DriftViolation, where the square root of its negative square raised ValueError
        line = CircularWorldLine.from_plane(0.824245022861334, 1.0)
        g = FourVector([0.0, 0.017693429288338655, -0.9954456797894932, -0.0936741220853041])
        z0 = boost(line.velocity(0.0), AbsoluteVelocity.rest())(g)
        with pytest.raises(DriftViolation, match=r"\|z\| drift = nan") as got:
            transport_numeric(line, z0, 0.0, 12.94911807546774, step=9.10453044118172)
        with pytest.raises(DriftViolation) as expected:
            map_reference_path(line, z0, [12.94911807546774], step=9.10453044118172)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("step_kind", ["explicit", "default"])
    def test_matches_the_map_reference(self, seed, step_kind):
        line, z0, s_start, points, step = _seeded_path(seed, step_kind)
        got = [(st.s, st.z.components.tobytes())
               for st in transport_path(line, z0, points, s_start=s_start, step=step)]
        assert got == map_reference_path(line, z0, points, s_start=s_start, step=step)

    def test_inertial_line_matches_the_map_reference(self):
        line = InertialWorldLine(AbsoluteVelocity.from_3velocity([0.3, -0.2, 0.5]))
        z0 = random_spacelike_unit(np.random.default_rng(3110), line.velocity(0.0))
        points = [-2.0, -0.5, 0.7, 3.0]
        for step in (0.3, None):  # None: the exact route; the reference takes one step per leg
            got = [(st.s, st.z.components.tobytes())
                   for st in transport_path(line, z0, points, s_start=0.2, step=step)]
            assert got == map_reference_path(line, z0, points, s_start=0.2, step=step)
            # the step maps of an inertial line are zero, so every state is z0
            assert {z for _, z in got} == {z0.components.tobytes()}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_drift_message_matches_the_map_reference(self, seed, direction):
        rng = np.random.default_rng(3120 + seed)
        line, z0, s_start = _seeded_orbit(rng, boosted=seed % 2 == 0)
        period = line.proper_period
        points = [s_start + direction * 3.0 * period]
        step = period / rng.uniform(6.0, 20.0)
        with pytest.raises(DriftViolation) as got:
            transport_path(line, z0, points, s_start=s_start, step=step)
        with pytest.raises(DriftViolation) as expected:
            map_reference_path(line, z0, points, s_start=s_start, step=step)
        assert str(got.value) == str(expected.value)


class TestStagesBoundThePath:
    """The step maps regroup the stage arithmetic of ``numpy_reference_path``, so
    the two differ by rounding alone: at most n eps |u0|^2 |z0| over a pass of n
    steps (measured: 0.008 of it on these paths; 6.5e-14, 0.004 of it, over one
    period at speed 0.9)."""

    @staticmethod
    def assert_within_rounding(line, z0, points, s_start, step):
        got = np.array([st.z.components
                        for st in transport_path(line, z0, points, s_start=s_start, step=step)])
        ref = numpy_reference_path(line, z0, points, s_start=s_start, step=step)
        n = sum(1 for _ in _steps(min(points[0], s_start), max(points[-1], s_start), step))
        scale = max_abs(line.initial_velocity.components) ** 2 * max_abs(z0.components)
        assert max_abs(got - [np.frombuffer(z) for _, z in ref]) <= n * np.finfo(float).eps * scale

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("step_kind", ["explicit", "default"])
    def test_seeded_paths(self, seed, step_kind):
        line, z0, s_start, points, step = _seeded_path(seed, step_kind)
        self.assert_within_rounding(line, z0, points, s_start, step)

    @pytest.mark.parametrize("speed", [0.3, 0.6, 0.9])
    def test_one_period_at_the_default_step(self, speed):
        line = CircularWorldLine.from_plane(speed, 1.0)
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        self.assert_within_rounding(line, z0, [line.proper_period], 0.0, line.default_step)


class TestLineDefaultStep:
    """The default step is the line's own default_step, resolved once per call."""

    @pytest.mark.parametrize("speed, steps", [
        (1e-4, 256), (1e-3, 256), (3e-3, 256), (0.1, 1425), (0.6, 4842), (0.9, 14743),
        (0.99, 83984), (0.999, 472812),
    ])
    def test_circular_default_steps_follow_the_error_target(self, speed, steps):
        # N = max(256, ceil((40 v^2 gamma^6 / 1e-13)^(1/4))) steps per proper period,
        # whatever the radius and the centre's motion
        for line in (standard_line(speed, 1.0),
                     CircularWorldLine.from_plane(speed / 2.5, 2.5, center_velocity=(
                         AbsoluteVelocity.from_3velocity([0.3, 0.0, 0.4])))):
            assert line.proper_period / line.default_step == pytest.approx(steps, abs=1e-6)
        gamma = 1.0 / math.sqrt(1.0 - speed * speed)
        assert steps == max(256, math.ceil((40.0 * speed**2 * gamma**6 / 1e-13) ** 0.25))

    def test_circular_default_equals_explicit_step(self):
        # step=line.default_step is RK4 at P / 14743; no step is the exact route
        line = standard_line(0.9, 1.0)
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        points = np.linspace(0.0, 0.3 * line.proper_period, 7)
        default = transport_path(line, z0, points, step=line.default_step)
        explicit = transport_path(line, z0, points, step=line.proper_period / 14743)
        assert [s.z.components.tobytes() for s in default] == \
            [s.z.components.tobytes() for s in explicit]
        lam = line.lorentz_factor
        exact = line._transport(z0.components, lam * points[:, None, None])
        assert [s.z.components.tobytes() for s in transport_path(line, z0, points)] == \
            [z.tobytes() for z in exact]

    def test_inertial_default_equals_explicit_step(self):
        line = InertialWorldLine(AbsoluteVelocity.from_3velocity([0.3, -0.2, 0.5]))
        assert line.default_step == math.inf
        z0 = random_spacelike_unit(np.random.default_rng(3130), line.velocity(0.0)) * 1.7
        points = [-40.0, -2.5, 0.0, 0.7, 3.0, 1e3]
        default = transport_path(line, z0, points, s_start=0.2)
        explicit = transport_path(line, z0, points, s_start=0.2, step=0.3)
        assert [s.z.components.tolist() for s in default] == \
            [s.z.components.tolist() for s in explicit]
        assert all(s.z.components.tolist() == z0.components.tolist() for s in default)

    def test_inertial_default_is_exact_with_one_kinematics_call_per_point(self, monkeypatch):
        calls = []
        kinematics = InertialWorldLine._kinematics_arrays

        def spy(self, s):
            calls.append(s)
            return kinematics(self, s)

        monkeypatch.setattr(InertialWorldLine, "_kinematics_arrays", spy)
        line = InertialWorldLine(AbsoluteVelocity.from_3velocity([0.1, 0.0, 0.0]))
        z0 = project_spatial(line.velocity(0.0), E2)
        n = 500
        transport_path(line, z0, np.linspace(0.0, 1e6, n))
        # the gyroscopic check, then the velocity of each point for the exact rows' drift test
        assert len(calls) <= n + 1

    def test_transport_reads_the_step_from_the_line(self):
        # a line without a closed form: its class step of 1e-3 passes, an instance's 0.5 drifts
        line = HyperbolicLine(1.0)
        transport_numeric(line, E1, 0.0, 3.0)
        line.default_step = 0.5
        with pytest.raises(DriftViolation, match=f"step {line.default_step} too large"):
            transport_numeric(line, E1, 0.0, 3.0)


EXACT_CENTRES = {"rest": None, "moving": AbsoluteVelocity.from_3velocity([0.3, 0.0, 0.4])}


class NanVelocityLine(CircularWorldLine):
    """Circular line whose velocity turns NaN from proper time 1 on."""

    def _kinematics_arrays(self, s):
        rdot, rddot = CircularWorldLine._kinematics_arrays(self, s)
        return (rdot if s < 1.0 else (math.nan,) * 4), rddot


class TestExactRoute:
    """With no step a circular line's path is the exact transport; RK4 is its check."""

    @staticmethod
    def orbit(speed, centre, start=0.0):
        # the line, and a needle gyroscopic at s_start = start * proper period
        line = CircularWorldLine.from_plane(speed / 1.3, 1.3,
                                            center_velocity=EXACT_CENTRES[centre])
        s_start = start * line.proper_period
        z0 = random_spacelike_unit(np.random.default_rng(3300), line.velocity(s_start)) * 1.5
        return line, z0, s_start

    @pytest.mark.parametrize("centre", sorted(EXACT_CENTRES))
    @pytest.mark.parametrize("speed", [0.1, 0.6, 0.9, 0.99])
    def test_matches_transport_circular_exact_from_zero(self, speed, centre):
        # both passes, each state within 4 eps of its size (equal bits measured): the stacked
        # rows and transport_circular_exact's one-point body are pinned to each other here
        line, z0, _ = self.orbit(speed, centre)
        period, lam = line.proper_period, line.lorentz_factor
        points = period * np.array([-2.0, -0.3, -0.1, 0.0, 0.05, 0.4, 0.75, 1.2, 5.0])
        states = transport_path(line, z0, points)
        assert [st.s for st in states] == points.tolist()
        for st in states:
            exact = transport_circular_exact(line, z0, lam * st.s).components
            assert max_abs(st.z.components - exact) <= 4.0 * np.finfo(float).eps * max_abs(exact)
        assert transport_path(line, z0, []) == []

    @pytest.mark.parametrize("centre", sorted(EXACT_CENTRES))
    @pytest.mark.parametrize("speed", [0.3, 0.6, 0.9, 0.99])
    def test_is_the_limit_of_the_numpy_reference_from_a_later_start(self, speed, centre):
        # from s_start = 0.37 P to points on both sides, 1.5 periods in all: RK4 at P / n is
        # within 1.5 (c h^4 + n eps) |u0|^2 |z0| of the exact states, with h = 1 / n and
        # c = _STEP_FIT v^2 gamma^6 the default step's fit (at most 0.2 of it measured); where
        # discretisation dominates, halving the step divides the distance by about 2^4
        line, z0, s_start = self.orbit(speed, centre, start=0.37)
        period, lam = line.proper_period, line.lorentz_factor
        points = period * np.array([-0.3, -0.05, 0.37, 0.6, 1.2])
        exact = np.array([st.z.components for st in transport_path(line, z0, points, s_start)])
        scale = max_abs(line.initial_velocity.components) ** 2 * max_abs(z0.components)
        eps = np.finfo(float).eps
        errors = []
        for n in (2000, 4000):
            ref = numpy_reference_path(line, z0, points, s_start=s_start, step=period / n)
            err = max_abs(np.array([np.frombuffer(z) for _, z in ref]) - exact)
            assert err <= 1.5 * (_STEP_FIT * speed**2 * lam**6 / n**4 + n * eps) * scale
            errors.append(err)
        if speed >= 0.9:
            assert errors[0] >= 12.0 * errors[1]

    def test_takes_the_gyroscopic_check(self):
        # the default step's budget: TestStepBudget.test_default_step_over_a_long_span_is_refused
        line, _, _ = self.orbit(0.6, "rest")
        with pytest.raises(ConstraintViolation, match="orthogonal to the velocity at s = 0.0"):
            transport_path(line, E2, [1.0])  # along the initial velocity's space part

    def test_every_state_passes_the_drift_test(self):
        line, z0, _ = self.orbit(0.6, "moving")
        points = np.linspace(0.0, 2.0 * line.proper_period, 9)
        with pytest.raises(DriftViolation, match=r"transport drift at s = 0\.0: .*exact circular"):
            transport_path(line, z0, points, tol_drift=0.0)
        # a NaN velocity fails the test at the first state that reads it
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(DriftViolation, match=r"at s = 1\.25: velocity\.z = nan"):
            transport_path(NanVelocityLine.from_plane(0.6, 1.0), z0, [0.5, 1.25, 2.0])

    def test_route_is_chosen_by_the_line(self):
        # a CircularWorldLine subclass with its own scalar kinematics takes the exact route,
        # a line that only delegates to one runs RK4 at the default step
        line, z0, _ = self.orbit(0.9, "moving")
        points = np.linspace(-0.2, 0.3, 6) * line.proper_period
        exact = [st.z.components.tobytes() for st in transport_path(line, z0, points)]
        sub = TimedCircular(line.center_velocity, line.angular_velocity, line.radius_vector)
        assert [st.z.components.tobytes() for st in transport_path(sub, z0, points)] == exact
        rk4 = transport_path(line, z0, points, step=line.default_step)
        delegated = transport_path(DelegatingLine(line), z0, points)
        assert [st.z.components.tobytes() for st in delegated] == \
            [st.z.components.tobytes() for st in rk4]
        assert exact != [st.z.components.tobytes() for st in rk4]

    def test_rk4_routes_of_a_timed_subclass_keep_the_bytes(self):
        # the subclass's kinematics blocks are stacked from the scalar kinematics, one point
        # at a time: the operator, an explicit-step path and an explicit-step series read the
        # same bits through them as through the base line's vectorised block
        line, z0, _ = self.orbit(0.9, "moving")
        sub = TimedCircular(line.center_velocity, line.angular_velocity, line.radius_vector)
        period, h = line.proper_period, line.proper_period / 2000
        assert thomas_rotation_general(sub, 0.0, period).matrix.tobytes() == \
            thomas_rotation_general(line, 0.0, period).matrix.tobytes()
        points = np.linspace(-0.2, 0.3, 61) * period
        assert [st.z.components.tobytes() for st in transport_path(sub, z0, points, step=h)] == \
            [st.z.components.tobytes() for st in transport_path(line, z0, points, step=h)]
        u = line.center_velocity
        grid = np.linspace(0.0, line.center_period / 8, 40)

        def series(wl):
            return [(s.t, s.z.components.tobytes(), s.rate.matrix.tobytes(),
                     None if s.z_dot is None else s.z_dot.components.tobytes())
                    for s in precession_series(u, wl, z0, grid, step=h)]

        assert series(sub) == series(line)


class TestExactRowsHook:
    """``WorldLine._exact_rows`` is the route of ``transport_path`` with no step: its
    states are the limit of RK4, and the inertial line's are ``z0`` itself."""

    @staticmethod
    def case(kind):
        # the line, the span that scales its points, and the RK4 error coefficient c of
        # one span (TestExactRoute's: _STEP_FIT v^2 gamma^6 on a circular line, 0 inertial)
        if kind == "inertial":
            return InertialWorldLine(AbsoluteVelocity.from_3velocity([0.5, 0.3, 0.1])), 10.0, 0.0
        line = CircularWorldLine.from_plane(0.6 / 1.3, 1.3, center_velocity=EXACT_CENTRES[kind])
        return line, line.proper_period, _STEP_FIT * 0.6**2 * line.lorentz_factor**6

    @pytest.mark.parametrize("kind", ["inertial", "rest", "moving"])
    def test_rows_are_the_limit_of_rk4(self, kind):
        # from 0.37 of the span to points on both sides, 1.5 spans in all: RK4 at step
        # h = span / n is within 1.5 (c / n^4 + n eps) |u0|^2 |z0| of the rows
        line, span, c = self.case(kind)
        s_start = 0.37 * span
        z0 = random_spacelike_unit(np.random.default_rng(3310), line.velocity(s_start)) * 1.5
        points = span * np.array([-0.3, -0.05, 0.37, 0.6, 1.2])
        rows = line._exact_rows(z0.components, s_start, points.tolist())
        assert [st.z.components.tobytes() for st in transport_path(line, z0, points, s_start)] == \
            [row.tobytes() for row in rows]
        n = 2000
        rk4 = transport_path(line, z0, points, s_start, step=span / n)
        scale = max_abs(line.velocity(0.0).components) ** 2 * max_abs(z0.components)
        err = max_abs(np.array([st.z.components for st in rk4]) - rows)
        assert err <= 1.5 * (c / n**4 + n * np.finfo(float).eps) * scale
        if kind == "inertial":
            assert {row.tobytes() for row in rows} == {z0.components.tobytes()}


class TestDefaultStepCalibration:
    """The circular default step meets its error target, centre at rest or moving.

    The target bounds RK4's discretisation error of one period's operator,
    largest entry against ``thomas_rotation_circular``, relative to |u0|^2.
    At 4x the default step that error is 4^4 times larger and rounding is
    small beside it, so the fourth-order law reads the default step's
    discretisation error from there.  Rounding at the default step itself
    grows with the step count: below speed 0.3 it stays under the target,
    above it adds up to N eps |u0|^2.
    """

    CENTRES = {"rest": None, "moving": AbsoluteVelocity.from_3velocity([0.3, 0.0, 0.4])}

    @staticmethod
    def error_and_scale(speed, centre, step_factor):
        line = CircularWorldLine.from_plane(
            speed, 1.0, center_velocity=TestDefaultStepCalibration.CENTRES[centre])
        period = line.proper_period
        m = _rk4(line, np.eye(4), 0.0, [period], step_factor * line.default_step)[0][0]
        err = max_abs(m - thomas_rotation_circular(line).matrix)
        return err, max_abs(line.initial_velocity.components) ** 2, period / line.default_step

    @pytest.mark.parametrize("centre", sorted(CENTRES))
    @pytest.mark.parametrize("speed", [0.05, 0.3, 0.6, 0.8, 0.9, 0.95, 0.99])
    def test_discretisation_error_meets_the_target(self, speed, centre):
        err, scale, _ = self.error_and_scale(speed, centre, 4.0)
        assert err / 4.0**4 <= _STEP_TARGET * scale

    @pytest.mark.parametrize("centre", sorted(CENTRES))
    @pytest.mark.parametrize("speed", [1e-5, 1e-3, 0.05, 0.3])  # 256 steps up to 3e-3
    def test_error_at_the_default_step_meets_the_target(self, speed, centre):
        err, scale, _ = self.error_and_scale(speed, centre, 1.0)
        assert err <= _STEP_TARGET * scale

    @pytest.mark.parametrize("centre", sorted(CENTRES))
    @pytest.mark.parametrize("speed", [0.6, 0.9])
    def test_rounding_at_the_default_step_stays_under_a_unit_per_step(self, speed, centre):
        err, scale, steps = self.error_and_scale(speed, centre, 1.0)
        assert err <= (_STEP_TARGET + steps * np.finfo(float).eps) * scale


class TestStepBudget:
    def test_tiny_explicit_step_is_refused_at_once(self):
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        start = time.perf_counter()
        with pytest.raises(ConstraintViolation, match="more than the limit"):
            transport_numeric(standard_line(), z0, 0.0, 1.0, step=1e-300)
        assert time.perf_counter() - start < 1.0

    def test_default_step_over_a_long_span_is_refused(self):
        line = standard_line()
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        # twice the budget at whatever default step the line sets
        start = time.perf_counter()
        with pytest.raises(ConstraintViolation, match="more than the limit"):
            transport_numeric(line, z0, 0.0, 2 * MAX_STEPS * line.default_step)
        assert time.perf_counter() - start < 1.0

    @staticmethod
    def refusing_line():
        # an inertial line whose kinematics fail once integration starts, so a
        # call the budget lets through fails at once instead of running for ages
        line = InertialWorldLine(AbsoluteVelocity.rest())
        calls = []

        def kinematics(s):
            calls.append(s)
            if len(calls) > 1:  # the first call is the gyroscopic check
                raise AssertionError("integration started")
            return InertialWorldLine._kinematics_arrays(line, s)

        line._kinematics_arrays = kinematics
        return line

    def test_budget_covers_every_segment_of_a_call(self):
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        # 99 segments of about 1e7 steps each: every one is under the limit, the call is not
        with pytest.raises(ConstraintViolation, match="more than the limit"):
            transport_path(self.refusing_line(), z0, np.linspace(0.0, 1e9, 100), step=1.0)

    def test_budget_adds_the_backward_pass(self):
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        half = 0.6 * MAX_STEPS  # each pass alone is under the limit, both are over it
        with pytest.raises(ConstraintViolation, match="more than the limit"):
            transport_path(self.refusing_line(), z0, [-half, half], s_start=0.0, step=1.0)

    def test_many_segments_equal_chained_single_calls(self):
        line = standard_line(0.9, 1.0)
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        period = line.proper_period
        points = np.linspace(0.0, 2.0 * period, 400)
        step = line.default_step  # RK4: with no step the circular line is exact
        states = transport_path(line, z0, points, step=step)
        z, cur = z0, 0.0
        for state, s in zip(states, points):
            z = transport_numeric(line, z, cur, s, step=step).z
            cur = s
            assert state.z.components.tobytes() == z.components.tobytes()

    def test_limit_is_the_module_constant(self):
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        line = InertialWorldLine(AbsoluteVelocity.rest())
        span = 2.0 * MAX_STEPS
        with pytest.raises(ConstraintViolation, match=f"limit {MAX_STEPS}"):
            transport_numeric(line, z0, 0.0, span, step=1.0)
        with pytest.raises(ConstraintViolation, match="more than the limit"):
            transport_operator_numeric(line, 0.0, span, step=1.0)


def _per_step_generators(*kins):
    # the generators of one step, built from its kinematics tuples
    k = np.array(kins)
    g = k @ np.diag([-1.0, 1.0, 1.0, 1.0])
    w = k[:, :, :, None] * g[:, ::-1, None, :]
    return w[:, 0] - w[:, 1]


def per_step_rk4_operator(line, m, s1, s2, step):
    """The classical RK4 stages on m, one step at a time: the step maps' tolerance oracle."""
    kin = line._kinematics_arrays
    (w_lo,) = _per_step_generators(kin(s1))
    for s, h in _steps(s1, s2, step):
        w_mid, w_hi = _per_step_generators(kin(s + 0.5 * h), kin(s + h))
        k1 = w_lo @ m
        k2 = w_mid @ (m + (0.5 * h) * k1)
        k3 = w_mid @ (m + (0.5 * h) * k2)
        k4 = w_hi @ (m + h * k3)
        m = m + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        w_lo = w_hi
    return m


def per_step_maps(line, s1, s2, step):
    """(end time, map D) of each RK4 step from s1 to s2, built one step at a time."""
    kin = line._kinematics_arrays
    (w_lo,) = _per_step_generators(kin(s1))
    for s, h in _steps(s1, s2, step):
        w_mid, w_hi = _per_step_generators(kin(s + 0.5 * h), kin(s + h))
        k1 = w_lo
        k2 = w_mid + (0.5 * h) * (w_mid @ k1)
        k3 = w_mid + (0.5 * h) * (w_mid @ k2)
        k4 = w_hi + h * (w_hi @ k3)
        yield s + h, (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        w_lo = w_hi


def per_step_map_operator(line, m, s1, s2, step):
    """The operator RK4 as one step map D at a time, m + D m: the block loop's bit oracle."""
    for _, d in per_step_maps(line, s1, s2, step):
        m = m + d @ m
    return m


def _boosted_plane_line():
    uc = AbsoluteVelocity.from_3velocity([0.3, -0.2, 0.4])
    carry = boost(uc, AbsoluteVelocity.rest())
    return CircularWorldLine.from_plane(0.8 / 1.3, 1.3, plane=(carry(E3), carry(E1)),
                                        center_velocity=uc)


BLOCK_LINES = {
    "circular": lambda: standard_line(0.9, 1.0),
    "boosted-plane": _boosted_plane_line,
    "inertial": lambda: InertialWorldLine(AbsoluteVelocity.from_3velocity([0.3, -0.2, 0.5])),
    "user-defined": lambda: DelegatingLine(standard_line(0.6, 1.0)),
}


class TestBlockOperator:
    """The block loop returns the per-step map loop's bytes; its kinematics blocks stay bounded.

    Stacked ``np.matmul`` computes each slice as the single 4x4 product does,
    so building a block's step maps at once leaves every bit in place.
    """

    STEP = 2.0 ** -10  # s1 +- n STEP is exact, so the schedule has exactly n full steps

    @pytest.mark.parametrize("kind", sorted(BLOCK_LINES))
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_matches_the_per_step_loop(self, kind, direction):
        line = BLOCK_LINES[kind]()
        s1 = 0.75
        for n_full in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK):
            for partial in (0.0, 0.375):
                s2 = s1 + direction * (n_full + partial) * self.STEP
                assert len(list(_steps(s1, s2, self.STEP))) == n_full + (partial > 0.0)
                expected = per_step_map_operator(line, np.eye(4), s1, s2, self.STEP).tobytes()
                assert _rk4(line, np.eye(4), s1, [s2], self.STEP)[0][0].tobytes() == expected
                got = transport_operator_numeric(line, s1, s2, step=self.STEP)
                assert got.matrix.tobytes() == expected

    @pytest.mark.parametrize("kind", ["circular", "boosted-plane"])
    def test_thomas_rotation_is_the_per_step_operator(self, kind):
        line = BLOCK_LINES[kind]()
        period = line.proper_period
        expected = per_step_map_operator(line, np.eye(4), 0.0, period, line.default_step)
        got = thomas_rotation_general(line, 0.0, period)
        assert got.matrix.tobytes() == expected.tobytes()

    def test_caller_matrix_is_left_alone(self):
        m = np.eye(4)
        out = _rk4(standard_line(), m, 0.0, [0.5], 0.01)[0][0]
        assert out is not m
        assert np.array_equal(m, np.eye(4))

    @pytest.mark.parametrize("kind", sorted(BLOCK_LINES) + ["nan-acceleration"])
    def test_kinematics_block_stacks_the_scalar_kinematics(self, kind):
        line = (NanAccelerationLine.from_plane(0.6, 1.0) if kind == "nan-acceleration"
                else BLOCK_LINES[kind]())
        rng = np.random.default_rng(3200)
        quarter = math.pi / (2.0 * line._spin) if hasattr(line, "_spin") else 1.0
        # zero phases of both signs, quarter turns (exact zeros in cos or sin
        # products) and random points, so signed zeros are compared too
        ss = [0.0, -0.0, quarter, -quarter, 2.0 * quarter, 1e-300, -7.5, 1e6,
              *rng.uniform(-50.0, 50.0, size=40)]
        expected = np.array([line._kinematics_arrays(s) for s in ss], dtype=float)
        got = line._kinematics_block(ss)
        assert got.shape == (len(ss), 2, 4)
        assert got.tobytes() == expected.tobytes()
        assert line._kinematics_block([]).shape == (0, 2, 4)

    def test_overflowing_phase_is_a_drift(self):
        # spin * s overflows to inf: numpy's cos and sin turn it into the NaN the checks
        # reject, without a warning, where math.cos raised an untyped ValueError
        line = CircularWorldLine.from_plane(1e10, 0.5e-10)
        with pytest.raises(DriftViolation, match="form error nan"):
            transport_operator_numeric(line, 0.0, 1e300, step=1e299)
        with pytest.raises(DriftViolation, match="velocity.z = nan"):
            transport_path(line, E3, [1e300], step=1e299)

    @pytest.mark.parametrize("route", ["operator", "vector path"])
    def test_no_block_asks_for_more_than_two_points_per_step(self, monkeypatch, route):
        # each kinematics block, with the steps the schedule has handed out when it is asked
        sizes, pulled, taken = [], [], []
        block, schedule = CircularWorldLine._kinematics_block, relkin.transport._schedule

        def spy(self, ss):
            sizes.append(len(ss))
            pulled.append(len(taken))
            return block(self, ss)

        def counted(*args):
            for item in schedule(*args):
                taken.extend(item[1])  # the block's step sizes
                yield item

        monkeypatch.setattr(CircularWorldLine, "_kinematics_block", spy)
        monkeypatch.setattr(relkin.transport, "_schedule", counted)
        n_steps = 3 * _BLOCK + 5
        if route == "operator":
            transport_operator_numeric(standard_line(), 0.0, n_steps * self.STEP, step=self.STEP)
        else:
            transport_path(standard_line(), E1, [n_steps * self.STEP], step=self.STEP)
        assert max(sizes) <= 2 * _BLOCK
        assert sizes == [1, 2 * _BLOCK, 2 * _BLOCK, 2 * _BLOCK, 10]
        # lazy: no block reads the schedule further than its own steps
        assert pulled == [_BLOCK, _BLOCK, 2 * _BLOCK, 3 * _BLOCK, n_steps]


class NanBeyondOneLine(CircularWorldLine):
    """Circular line whose acceleration turns NaN where |s| >= 1."""

    def _kinematics_arrays(self, s):
        rdot, rddot = CircularWorldLine._kinematics_arrays(self, s)
        return rdot, (rddot if abs(s) < 1.0 else np.full(4, np.nan))


class TestChainedSchedule:
    """One schedule per direction runs through all of a pass's legs, a block of steps
    at a time; every state and drift message is the per-leg map reference's."""

    STEP = 2.0 ** -10  # s_start +- n STEP is exact, so each leg has exactly its steps
    START = 0.25

    def path(self, direction, counts, line=None):
        # points after (direction 1) or before (-1) START, the n-th at counts[n] steps
        # (a fraction makes a partial step), ascending, as transport_path takes them
        line = line or standard_line(0.9, 1.0)
        z0 = random_spacelike_unit(np.random.default_rng(3400), line.velocity(self.START))
        points = sorted(self.START + direction * c * self.STEP for c in counts)
        return line, z0, points

    def assert_matches(self, line, z0, points):
        got = [(st.s, st.z.components.tobytes())
               for st in transport_path(line, z0, points, s_start=self.START, step=self.STEP)]
        assert got == map_reference_path(line, z0, points, s_start=self.START, step=self.STEP)

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_many_legs_inside_one_block(self, direction, monkeypatch):
        counts = _many_legs()
        assert counts[-1] < _BLOCK
        line, z0, points = self.path(direction, counts)
        sizes = []
        block = CircularWorldLine._kinematics_block
        monkeypatch.setattr(CircularWorldLine, "_kinematics_block",
                            lambda self, ss: sizes.append(len(ss)) or block(self, ss))
        self.assert_matches(line, z0, points)
        legs = points if direction > 0 else points[::-1]  # in the order the pass takes them
        n_steps = sum(1 for a, b in zip([self.START, *legs], legs) for _ in _steps(a, b, self.STEP))
        # one block: the 60 legs' starts, then the mid and end points of all the steps
        assert sizes == [60, 2 * n_steps]

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_legs_end_at_the_block_boundary(self, direction):
        counts = [3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 0.25, 2 * _BLOCK + 2]
        self.assert_matches(*self.path(direction, counts))

    def test_legs_on_both_sides_of_the_start(self):
        counts = [-_BLOCK - 1, -_BLOCK, -7.5, 0, 2, _BLOCK - 1, _BLOCK + 3]
        self.assert_matches(*self.path(1.0, counts))

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_repeated_points_are_zero_length_legs(self, direction):
        counts = [0, 0, 5, 5, 5, 9.5, _BLOCK, _BLOCK, _BLOCK + 2, _BLOCK + 2]
        line, z0, points = self.path(direction, counts)
        self.assert_matches(line, z0, points)
        states = transport_path(line, z0, points, s_start=self.START, step=self.STEP)
        at_start = [st.z.components.tobytes() for st in states if st.s == self.START]
        assert at_start == 2 * [z0.components.tobytes()]
        for a, b in zip(states, states[1:]):
            if a.s == b.s:
                assert a.z.components.tobytes() == b.z.components.tobytes()

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_drift_raises_at_its_first_step_mid_block(self, direction):
        # the acceleration turns NaN at |s| = 1, 768 steps forward of START (the 256th step
        # of the second block) and 1 280 back (the 256th of the third); earlier legs passed
        line = NanBeyondOneLine.from_plane(0.9, 1.0)
        _, z0, points = self.path(direction, [5, 300, 2 * _BLOCK + 400, 3 * _BLOCK], line)
        end = 1.0 if direction > 0 else -1.0
        with pytest.raises(DriftViolation, match=rf"at s = {end}: velocity\.z = nan") as got:
            transport_path(line, z0, points, s_start=self.START, step=self.STEP)
        with pytest.raises(DriftViolation) as expected:
            map_reference_path(line, z0, points, s_start=self.START, step=self.STEP)
        assert str(got.value) == str(expected.value)

    def test_drift_beyond_tolerance_raises_where_the_reference_does(self):
        # a real drift, not a NaN: at P/200 and speed 0.9 the needle first leaves 1e-6 at
        # step 2 843, the 284th of the sixth block, in the fourth leg
        line = standard_line(0.9, 1.0)
        step = line.proper_period / 200
        z0 = random_spacelike_unit(np.random.default_rng(3420), line.velocity(0.0))
        points = [k * line.proper_period for k in (0.1, 0.2, 3.0, 40.0)]
        with pytest.raises(DriftViolation) as got:
            transport_path(line, z0, points, step=step, tol_drift=1e-6)
        with pytest.raises(DriftViolation) as expected:
            map_reference_path(line, z0, points, step=step, tol=1e-6)
        assert str(got.value) == str(expected.value)
        s = float(str(got.value).split("at s = ")[1].split(":")[0])
        assert round(s / step) == 2843


def _many_legs():
    # TestChainedSchedule's 60 legs, 1 to 7.5 steps each, inside one block
    rng = np.random.default_rng(3410)
    return np.cumsum(rng.integers(1, 8, size=60) + rng.choice([0.0, 0.5], size=60))


def scalar_schedule(s, points, step):
    """``_schedule``'s blocks built from the scalar ``_steps``, leg by leg: its bit oracle."""
    steps, marks = [], []
    for k, (a, b) in enumerate(zip([s, *points], points)):
        leg = list(_steps(a, b, step))
        if leg:
            marks.append((len(steps), k))
        steps += leg
    return [(np.array([s for s, _ in steps[i:i + _BLOCK]]).tobytes(),
             np.array([h for _, h in steps[i:i + _BLOCK]]).tobytes(),
             [(j - i, k) for j, k in marks if i <= j < i + _BLOCK])
            for i in range(0, len(steps), _BLOCK)]


class TestBlockSchedule:
    """``_schedule`` hands out the scalar schedule's starts, sizes and leg marks, bit for bit."""

    @staticmethod
    def assert_matches(s, points, step):
        got = [(starts.tobytes(), sizes.tobytes(), marks)
               for starts, sizes, marks in _schedule(s, points, step)]
        assert got == scalar_schedule(s, points, step)

    @staticmethod
    def passes(start, counts, step):
        # transport_path's two passes over points at counts[n] steps from start
        ss = sorted(start + c * step for c in counts)
        first_fwd = next((i for i, s in enumerate(ss) if s >= start), len(ss))
        return ss[first_fwd:], ss[:first_fwd][::-1]

    CHAINED = {
        "many-legs-inside-one-block": _many_legs(),
        "legs-end-at-the-block-boundary": [3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 0.25,
                                           2 * _BLOCK + 2],
        "legs-on-both-sides-of-the-start": [-_BLOCK - 1, -_BLOCK, -7.5, 0, 2, _BLOCK - 1,
                                            _BLOCK + 3],
        "repeated-points": [0, 0, 5, 5, 5, 9.5, _BLOCK, _BLOCK, _BLOCK + 2, _BLOCK + 2],
    }

    # a dyadic step sums exactly; at 0.1 / 3 from 0.7 the running sums round, so only
    # s += h in order, step by step, gives the oracle's starts
    STEPS = [(TestChainedSchedule.START, TestChainedSchedule.STEP), (0.7, 0.1 / 3.0)]

    @pytest.mark.parametrize("start, step", STEPS)
    @pytest.mark.parametrize("case", sorted(CHAINED))
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_chained_legs(self, case, direction, start, step):
        counts = [direction * c for c in self.CHAINED[case]]
        for points in self.passes(start, counts, step):
            self.assert_matches(start, points, step)

    @pytest.mark.parametrize("start, step", STEPS)
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_single_legs(self, direction, start, step):
        for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5):
            for partial in (0.0, 0.375):
                self.assert_matches(start, [start + direction * (n + partial) * step], step)

    def test_zero_length_legs(self):
        step, s = 0.1 / 3.0, 0.7
        far = s + 2.5 * step
        # a first leg of no length, repeated points, and a leg below the 1e-15 threshold
        for points in ([s], [s, s], [s, far, far, far], [s, s + 1e-17, far, far + 1e-16],
                       [far, far + 1e-16, far + 1e-16]):
            self.assert_matches(s, points, step)
        assert list(_schedule(s, [s, s], step)) == []
        assert list(_schedule(s, [], step)) == []


class TestTransportOperator:
    def test_batched_generators_match_np_outer(self):
        # every sign pattern of zero components: the batched metric product
        # must give the bytes of METRIC @ x, signed zeros included
        metric = np.diag([-1.0, 1.0, 1.0, 1.0])
        values = (0.0, -0.0, 1.5, -2.5)
        patterns = [tuple(values[(i >> (2 * j)) & 3] for j in range(4)) for i in range(256)]
        pairs = [pair for rdot, rddot in zip(patterns, patterns[::-1])
                 for pair in ((rdot, rddot), (rddot, rdot))]
        expected = [np.outer(r, metric @ np.array(a)) - np.outer(a, metric @ np.array(r))
                    for r, a in pairs]
        got = _generators(np.array(pairs))  # one block of 512 kinematics rows
        assert [w.tobytes() for w in got] == [w.tobytes() for w in expected]

    def test_degenerate_interval_is_identity(self):
        line = standard_line()
        op = transport_operator_numeric(line, 1.2, 1.2, step=0.01)
        assert max_abs(op.matrix - np.eye(4)) == 0.0

    def test_returns_a_plain_lorentz_map(self):
        op = transport_operator_numeric(standard_line(), 0.0, 0.5, step=0.01)
        assert type(op) is LorentzMap
        assert "TransportOperator" not in relkin.__all__

    def test_nan_operator_raises_drift(self):
        line = NanAccelerationLine.from_plane(0.6, 1.0)
        with pytest.raises(DriftViolation):
            transport_operator_numeric(line, 0.0, 3.0, step=0.03125)

    def test_composition(self):
        line = standard_line()
        period = line.proper_period
        step = period / 4000
        f21 = transport_operator_numeric(line, 0.0, 0.4 * period, step=step)
        f32 = transport_operator_numeric(line, 0.4 * period, period, step=step)
        f31 = transport_operator_numeric(line, 0.0, period, step=step)
        assert max_abs((f32 @ f21).matrix - f31.matrix) < 1e-7

    def test_carries_velocity(self):
        line = standard_line(0.9, 1.0)
        s1, s2 = 0.3, 2.9
        op = transport_operator_numeric(line, s1, s2)
        moved = op.matrix @ line.velocity(s1).components
        assert max_abs(moved - line.velocity(s2).components) < 1e-10

    def test_form_error_is_a_drift_violation(self):
        line = standard_line()
        with pytest.raises(DriftViolation, match="transport operator form error 0.0125"):
            transport_operator_numeric(line, 0.0, line.proper_period, step=1.0)

    def test_drift_names_the_step_count_and_rounding(self, monkeypatch):
        # the operator's error may be rounding, which grows with the count, so the message
        # gives the step and the count and does not only blame the step's size
        line = standard_line()
        with pytest.raises(DriftViolation) as form:
            transport_operator_numeric(line, 0.0, line.proper_period, step=1.0)
        kin = line._kinematics_arrays  # the endpoint check's only kinematics call
        monkeypatch.setattr(line, "_kinematics_arrays", lambda s: (
            tuple(v + 1e-6 * (s != 0.0) for v in kin(s)[0]), kin(s)[1]))
        with pytest.raises(DriftViolation) as endpoint:
            transport_operator_numeric(line, 0.0, line.proper_period)
        for err, kind, step in ((form, "form", 1.0), (endpoint, "endpoint", line.default_step)):
            count = sum(1 for _ in _steps(0.0, line.proper_period, step))
            message = str(err.value)
            assert message.startswith(f"transport operator {kind} error ")
            assert f" exceeds 1e-10 after {count} RK4 steps of {step}: " in message
            assert "rounding, which a smaller step does not lower" in message

    def test_one_period_matches_corotating_exponential(self):
        line = standard_line()
        period = line.proper_period
        op = transport_operator_numeric(line, 0.0, period, step=period / 10_000)
        gen = circular_transport_generator(line)
        expected = exp_map(gen, -line.center_period)
        assert max_abs(op.matrix - expected.matrix) < 1e-7


class TestHyperbolicOracle:
    """Along uniform acceleration in one plane, transport is the boost between the
    endpoint velocities: an exact oracle beside the circular one."""

    SPANS = [(0.0, 0.5), (0.0, 1.5), (0.0, 3.0), (0.7, 3.0), (3.0, 0.5)]

    @pytest.mark.parametrize("s1, s2", SPANS)
    def test_vector_is_the_boost(self, s1, s2):
        line = HyperbolicLine(1.0)
        carry = boost(line.velocity(s2), line.velocity(s1))
        for z in (FourVector([0.0, 1.0, 0.3, -0.4]), FourVector([0.0, 0.0, 0.6, 0.8])):
            z1 = project_spatial(line.velocity(s1), z)
            got = transport_numeric(line, z1, s1, s2).z.components
            expected = carry(z1).components
            # at step 1e-3 the error is 5e-15 of the scale at s = 0.5 and 2e-13 at s = 3
            assert max_abs(got - expected) <= 1e-12 * max_abs(expected)

    @pytest.mark.parametrize("s1, s2", SPANS)
    def test_operator_is_the_boost(self, s1, s2):
        line = HyperbolicLine(1.0)
        expected = boost(line.velocity(s2), line.velocity(s1)).matrix
        got = transport_operator_numeric(line, s1, s2).matrix
        assert max_abs(got - expected) <= 1e-12 * max_abs(expected)


class TestStepMapsMatchTheStages:
    """The step maps regroup the classical stage arithmetic, so the two loops differ
    by rounding alone: at most a unit of eps per step, relative to |u|^2 over the
    span (measured: 0.013 of it at speed 0.9, 5e-4 or less below and on the
    hyperbolic line)."""

    @staticmethod
    def assert_within_rounding(line, s1, s2, scale):
        step = line.default_step
        n = sum(1 for _ in _steps(s1, s2, step))
        got = _rk4(line, np.eye(4), s1, [s2], step)[0][0]
        stages = per_step_rk4_operator(line, np.eye(4), s1, s2, step)
        assert max_abs(got - stages) <= n * np.finfo(float).eps * scale

    @pytest.mark.parametrize("centre", sorted(TestDefaultStepCalibration.CENTRES))
    @pytest.mark.parametrize("speed", [0.05, 0.3, 0.6, 0.9])
    def test_one_period_of_a_circular_line(self, speed, centre):
        line = CircularWorldLine.from_plane(
            speed, 1.0, center_velocity=TestDefaultStepCalibration.CENTRES[centre])
        scale = max_abs(line.initial_velocity.components) ** 2
        self.assert_within_rounding(line, 0.0, line.proper_period, scale)

    @pytest.mark.parametrize("s1, s2", TestHyperbolicOracle.SPANS)
    def test_hyperbolic_line(self, s1, s2):
        line = HyperbolicLine(1.0)
        scale = max(max_abs(line.velocity(s).components) for s in (s1, s2)) ** 2
        self.assert_within_rounding(line, s1, s2, scale)


class TestLoopAreaOracle:
    """Over one loop of ``LoopLine`` the Thomas rotation is minus the area its
    hodograph encloses in velocity space, with gamma varying along the loop.
    The bound is RK4's error, 1e-2 h^4 gamma^6 (measured: at most 4.8e-3 from
    1 000 to 20 000 steps), plus rounding, N eps gamma^2, with gamma the
    largest along the loop."""

    CASES = [(0.2, 0.15, 1_000), (0.5, 0.0, 2_000), (0.5, 0.3, 2_000), (1.0, 0.6, 4_000),
             (2.0, 0.5, 20_000)]

    @staticmethod
    def area_angle(eta0, eps):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            area = mpmath.quad(lambda s: mpmath.cosh(eta0 + eps * mpmath.sin(s)) - 1,
                               [0, 2 * mpmath.pi])
        return _reduce_angle(-float(area))

    @staticmethod
    def angle_about_e3(line, s, m):
        # the loop's operator restricted to u(s)'s space turns n toward t about e3
        n, t = line.plane_frame(s)
        moved = FourVector(m @ n.components)
        return math.atan2(lorentz_dot(t, moved), lorentz_dot(n, moved))

    @pytest.mark.parametrize("eta0, eps, steps", CASES)
    def test_rotation_is_minus_the_enclosed_area(self, eta0, eps, steps):
        line = LoopLine(eta0, eps)
        expected = self.area_angle(eta0, eps)
        h, gamma = 2.0 * math.pi / steps, math.cosh(eta0 + eps)
        for s1, m in (
            (0.0, thomas_rotation_general(line, 0.0, 2.0 * math.pi, step=h).matrix),
            (1.0, transport_operator_numeric(line, 1.0, 1.0 + 2.0 * math.pi, step=h).matrix),
        ):
            n = sum(1 for _ in _steps(s1, s1 + 2.0 * math.pi, h))
            bound = 1e-2 * h**4 * gamma**6 + n * np.finfo(float).eps * gamma**2
            assert abs(_reduce_angle(self.angle_about_e3(line, s1, m) - expected)) <= bound


class TestCircularGenerator:
    def test_printed_forms_agree(self):
        line = standard_line()
        lam2 = line.lorentz_factor ** 2
        rate2 = line.angular_rate ** 2
        omq = line.angular_velocity(line.radius_vector)
        alt = line.angular_velocity + (lam2 * rate2) * wedge(
            line.center_velocity + omq, line.radius_vector
        )
        gen = circular_transport_generator(line)
        assert max_abs(gen.matrix - alt.matrix) < 1e-12

    def test_kills_initial_velocity(self):
        line = standard_line()
        gen = circular_transport_generator(line)
        assert max_abs(gen(line.initial_velocity).components) < 1e-12

    def test_magnitude(self):
        line = standard_line()
        gen = circular_transport_generator(line)
        assert abs(antisymmetric_magnitude(gen) - 0.75) < 1e-12
        assert gen.is_antisymmetric()


    def test_is_the_map_operations_form(self):
        # lam2 Om + (lam2 rate2) (u_c ^ q) as LorentzMap operations, each one checked: the
        # array form keeps their bits, and so the operator_angle_rad golden
        rng = np.random.default_rng(92)
        for _ in range(40):
            rho = rng.uniform(0.3, 3.0)
            center = random_velocity(rng, 0.6)
            carry = boost(center, AbsoluteVelocity.rest())
            i, j = rng.choice(3, size=2, replace=False)
            plane = (carry((E1, E2, E3)[i]), carry((E1, E2, E3)[j]))
            line = CircularWorldLine.from_plane(rng.uniform(0.01, 0.99) / rho, rho, plane=plane,
                                                center_velocity=center)
            lam2, rate2 = line.lorentz_factor ** 2, line.angular_rate ** 2
            expected = lam2 * line.angular_velocity + (lam2 * rate2) * wedge(
                line.center_velocity, line.radius_vector)
            got = circular_transport_generator(line).matrix
            assert got.tobytes() == expected.matrix.tobytes()
            assert not got.flags.writeable


class TestExactCircularTransport:
    def test_zero_time(self):
        line = standard_line()
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        assert max_abs(transport_circular_exact(line, z0, 0.0).components - z0.components) == 0.0

    def test_kernel_axis_is_invariant(self):
        line = standard_line()
        for t in (0.7, 5.0, line.center_period, -13.0):
            out = transport_circular_exact(line, E3, t)
            assert max_abs(out.components - E3.components) < 1e-12

    def test_full_period_rotates_by_thomas_angle(self):
        line = standard_line()
        _, f2, _ = _initial_frame(line)
        out = transport_circular_exact(line, f2, line.center_period)
        theta = circular_thomas_angle(line).reduced
        f1 = FourVector([0.0, 1.0, 0.0, 0.0])
        expected = -math.sin(theta) * f1 + math.cos(theta) * f2
        assert max_abs(out.components - expected.components) < 1e-12

    def test_agrees_with_generic_exponential(self):
        line = standard_line(0.9, 0.5)
        gen = circular_transport_generator(line)
        t = 3.7
        lhs = exp_map(line.angular_velocity, t) @ exp_map(gen, -t)
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        assert max_abs(transport_circular_exact(line, z0, t).components - lhs(z0).components) < 1e-12

    def test_requires_gyroscopic_start(self):
        line = standard_line()
        with pytest.raises(ConstraintViolation):
            transport_circular_exact(line, E2, 1.0)

    def test_overflowing_start_is_a_constraint_violation(self):
        # u0.z overflows to -inf, on floats and so without a numpy warning
        line = standard_line()
        z0 = FourVector([1.7e308, 0.0, 0.0, 0.0])
        for run in (lambda: transport_circular_exact(line, z0, 1.0),
                    lambda: transport_path(line, z0, [1.0])):
            with pytest.raises(ConstraintViolation, match="orthogonal to the velocity.*-inf"):
                run()

    def test_is_the_two_term_formula(self):
        # both commuting-plane factors are I + sin(ph)/w m + (1 - cos(ph))/w^2 m^2,
        # evaluated in this order; the operator_angle_rad golden rests on these bits
        def two_term(m, rate, t):
            ph = rate * t
            return (np.eye(4) + (math.sin(ph) / rate) * m
                    + ((1.0 - math.cos(ph)) / rate ** 2) * (m @ m))

        rng = np.random.default_rng(91)
        for _ in range(20):
            rho = rng.uniform(0.3, 3.0)
            line = CircularWorldLine.from_plane(rng.uniform(0.05, 0.98) / rho, rho,
                                                center_velocity=random_velocity(rng, 0.6))
            gen = circular_transport_generator(line).matrix
            spin = line.lorentz_factor * line.angular_rate
            z0 = random_spacelike_unit(rng, line.initial_velocity)
            t = rng.uniform(-20.0, 20.0)
            expected = two_term(line.angular_velocity.matrix, line.angular_rate, t) @ (
                two_term(gen, spin, -t) @ z0.components)
            assert transport_circular_exact(line, z0, t).components.tobytes() == expected.tobytes()
            rot = thomas_rotation_circular(line)
            assert rot.matrix.tobytes() == two_term(gen, spin, -line.center_period).tobytes()


def _initial_frame(line):
    from relkin import orthonormal_spatial_frame

    return orthonormal_spatial_frame(line.initial_velocity)


class TestThomasRotationCircular:
    def test_small_speed_limit(self):
        line = standard_line(1e-3, 1.0)
        angle, _ = rotation_angle_axis(thomas_rotation_circular(line))
        assert abs(angle) < 1e-5

    def test_quarter_turn_at_standard_speed(self):
        line = standard_line()
        rot = thomas_rotation_circular(line)
        angle, axis = rotation_angle_axis(rot)
        assert abs(angle + math.pi / 2) < 1e-12
        assert max_abs(axis.components - E3.components) < 1e-12

    def test_fixes_initial_velocity(self):
        line = standard_line(0.9, 1.0)
        rot = thomas_rotation_circular(line)
        moved = rot(line.initial_velocity)
        assert max_abs(moved.components - line.initial_velocity.components) < 1e-12

    @pytest.mark.parametrize("speed", [0.1, 0.3, 0.6, 0.9])
    def test_angle_formula(self, speed):
        line = standard_line(speed, 1.0)
        got, _ = rotation_angle_axis(thomas_rotation_circular(line))
        assert abs(got - circular_thomas_angle(line).reduced) < 1e-9

    @pytest.mark.parametrize("call", [
        lambda line: transport_circular_exact(line, E3, 1.0),
        thomas_rotation_circular,
        circular_transport_generator,
    ])
    def test_exact_circular_routes_need_a_circular_line(self, call):
        line = InertialWorldLine(AbsoluteVelocity.from_3velocity([0.3, 0.0, 0.0]))
        with pytest.raises(ConstraintViolation,
                           match="^exact circular transport needs a circular world line$"):
            call(line)

    def test_reduced_angle_of_minus_pi_is_pi(self):
        # the reduced angle lies in (-pi, pi]: remainder's -pi is moved to +pi
        assert _reduce_angle(-math.pi) == math.pi

    def test_angle_bookkeeping(self):
        line = standard_line()
        angle = circular_thomas_angle(line)
        assert abs(angle.winding + 0.25) < 1e-14
        assert abs(angle.unreduced + math.pi / 2) < 1e-14
        assert abs(angle.reduced - angle.unreduced) < 1e-14
        fast = circular_thomas_angle(standard_line(0.9, 1.0))
        assert fast.unreduced < -2 * math.pi  # more than a full turn accumulated
        assert -math.pi < fast.reduced <= math.pi
        two_pi = 2 * math.pi
        assert abs(math.remainder(fast.unreduced - fast.reduced, two_pi)) < 1e-12


class TestThomasRotationGeneral:
    def test_inertial_line_gives_identity(self):
        line = InertialWorldLine(AbsoluteVelocity.from_3velocity([0.2, 0.0, 0.1]))
        rot = thomas_rotation_general(line, -1.0, 3.0, step=0.5)
        assert max_abs(rot.matrix - np.eye(4)) < 1e-12

    def test_matches_exact_circular_rotation(self):
        line = standard_line()
        rot = thomas_rotation_general(line, 0.0, line.proper_period)
        exact = thomas_rotation_circular(line)
        assert max_abs(rot.matrix - exact.matrix) < 1e-7

    def test_rejects_unequal_velocities(self):
        line = standard_line()
        with pytest.raises(VelocityMismatch):
            thomas_rotation_general(line, 0.0, 0.5 * line.proper_period)

    def test_nan_mismatch_is_a_velocity_mismatch(self):
        # a user line whose velocity is NaN at s2: before, the NaN mismatch
        # passed and the failure surfaced later as a transport DriftViolation
        class NanEndLine(CircularWorldLine):
            def velocity(self, s):
                if s > 0.0:
                    return types.SimpleNamespace(components=np.full(4, np.nan))
                return CircularWorldLine.velocity(self, s)

        line = NanEndLine.from_plane(0.6, 1.0)
        with pytest.raises(VelocityMismatch, match="differ by nan"):
            thomas_rotation_general(line, 0.0, line.proper_period, step=0.01)


class TestBoostConsistencyLimit:
    def test_residual_decays_linearly(self):
        # transporting and boosting between neighbouring local rest frames
        # must agree to first order in the step; the actual agreement is one
        # order better, so the absolute difference reaches the double
        # precision floor (~1e-13) inside the h range and stays there
        line = standard_line()
        z = exact_z_of_s(line, FourVector([0.0, 1.0, 0.0, 0.0]))
        s = 0.4

        def abs_residual(h):
            carried = boost(line.velocity(s + h), line.velocity(s))(z(s))
            return max_abs(z(s + h).components - carried.components)

        h = 1e-3
        prev = abs_residual(h) / h
        while h > 1e-6:
            h *= 0.5
            res = abs_residual(h)
            assert res / h <= 0.75 * prev or res <= 1e-13
            prev = res / h
