import math
import warnings

import numpy as np
import pytest

from relkin import worldlines
from relkin import (
    E1,
    E2,
    E3,
    AbsoluteVelocity,
    CircularWorldLine,
    ConstraintViolation,
    FourVector,
    InertialWorldLine,
    LorentzMap,
    WorldLine,
    boost,
    fermi_walker_derivative,
    frame_time_of_proper_time,
    lorentz_dot,
    precession_series,
    project_spatial,
    proper_time_of_frame_time,
    thomas_rotation_general,
    transport_circular_exact,
    transport_numeric,
    transport_path,
    wedge,
)

from helpers import max_abs, random_spacelike_unit, random_velocity


def standard_line(omega=0.6, rho=1.0) -> CircularWorldLine:
    return CircularWorldLine.from_plane(omega, rho)


class TestConstruction:
    def test_derived_quantities(self):
        line = standard_line()
        assert abs(line.angular_rate - 0.6) < 1e-14
        assert abs(line.radius - 1.0) < 1e-14
        assert abs(line.lorentz_factor - 1.25) < 1e-14
        assert max_abs(line.initial_velocity.components - [1.25, 0.0, 0.75, 0.0]) < 1e-14

    def test_from_plane_matches_manual(self):
        manual = CircularWorldLine(
            AbsoluteVelocity.rest(), 0.6 * wedge(E2, E1), FourVector([0.0, 1.0, 0.0, 0.0])
        )
        auto = standard_line()
        assert max_abs(manual.initial_velocity.components - auto.initial_velocity.components) == 0.0

    def test_rejects_non_antisymmetric_generator(self):
        with pytest.raises(ConstraintViolation):
            CircularWorldLine(AbsoluteVelocity.rest(), LorentzMap(np.diag([0, 1, 1, 0.0])), E1)

    def test_rejects_generator_moving_center(self):
        gen = 0.6 * wedge(E2, E1) + 0.1 * wedge(FourVector([1, 0, 0, 0]), E3)
        with pytest.raises(ConstraintViolation):
            CircularWorldLine(AbsoluteVelocity.rest(), gen, E1)

    def test_rejects_zero_generator_and_zero_radius(self):
        with pytest.raises(ConstraintViolation):
            CircularWorldLine(AbsoluteVelocity.rest(), LorentzMap(np.zeros((4, 4))), E1)
        with pytest.raises(ConstraintViolation):
            CircularWorldLine(AbsoluteVelocity.rest(), 0.6 * wedge(E2, E1), FourVector(np.zeros(4)))

    def test_rejects_radius_outside_rotation_plane(self):
        with pytest.raises(ConstraintViolation):
            CircularWorldLine(AbsoluteVelocity.rest(), 0.6 * wedge(E2, E1), E3)
        tilted = FourVector([0.0, 1.0, 0.0, 0.5])
        with pytest.raises(ConstraintViolation):
            CircularWorldLine(AbsoluteVelocity.rest(), 0.6 * wedge(E2, E1), tilted)

    def test_rejects_luminal_orbit(self):
        with pytest.raises(ConstraintViolation):
            CircularWorldLine.from_plane(1.0, 1.0)
        with pytest.raises(ConstraintViolation):
            CircularWorldLine.from_plane(0.5, 2.0 - 1e-12)

    def test_rejects_timelike_radius(self):
        with pytest.raises(ConstraintViolation):
            CircularWorldLine(AbsoluteVelocity.rest(), 0.6 * wedge(E2, E1),
                              FourVector([0.5, 1.0, 0.0, 0.0]))


class _NanProduct(float):
    """A radius whose products with a float are NaN (reflected before float's own)."""

    def __rmul__(self, other):
        return math.nan


class TestNanFailsEveryConstructionCheck:
    """Each check of CircularWorldLine rejects a NaN where it arises, with no warning."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_generator_image_of_the_center_velocity(self):
        # om @ uc is inf - inf in row 1
        om = np.zeros((4, 4))
        om[1, 2], om[2, 1], om[1, 3], om[3, 1] = 1e308, -1e308, 1e308, -1e308
        uc = AbsoluteVelocity.from_3velocity([0.0, 0.7, -0.7])
        with pytest.raises(ConstraintViolation, match="must kill the center velocity"):
            CircularWorldLine(uc, LorentzMap(om), E1)

    def test_rate(self, monkeypatch):
        monkeypatch.setattr(worldlines, "antisymmetric_magnitude", lambda gen, tol: math.nan)
        with pytest.raises(ConstraintViolation, match="angular velocity must be nonzero"):
            CircularWorldLine(AbsoluteVelocity.rest(), 0.6 * wedge(E2, E1), E1)

    def test_radius_against_the_center_velocity(self):
        # uc.q is -inf + inf
        with pytest.raises(ConstraintViolation, match="space vector of the center frame"):
            CircularWorldLine(AbsoluteVelocity.from_3velocity([0.9, 0.0, 0.0]), wedge(E2, E3),
                              FourVector([1e308, 1e308, 0.0, 0.0]))

    def test_radius(self, monkeypatch):
        monkeypatch.setattr(FourVector, "norm", lambda self: math.nan)
        with pytest.raises(ConstraintViolation, match="radius vector must be nonzero"):
            CircularWorldLine(AbsoluteVelocity.rest(), 0.6 * wedge(E2, E1), E1)

    def test_plane_residual(self):
        # om @ (om @ q) is -inf and rate^2 q is +inf
        with pytest.raises(ConstraintViolation, match="must lie in the rotation plane"):
            CircularWorldLine(AbsoluteVelocity.rest(), 1e100 * wedge(E2, E1),
                              FourVector([0.0, 1e150, 0.0, 0.0]))

    def test_speed(self, monkeypatch):
        monkeypatch.setattr(FourVector, "norm", lambda self: _NanProduct(1.0))
        with pytest.raises(ConstraintViolation, match="orbital speed must stay below 1, got nan"):
            CircularWorldLine(AbsoluteVelocity.rest(), 0.6 * wedge(E2, E1), E1)


class TestKinematics:
    def test_position_at_start(self):
        line = standard_line()
        assert max_abs(line.position(0.0).components - [0.0, 1.0, 0.0, 0.0]) < 1e-15

    def test_position_after_full_revolution(self):
        line = standard_line()
        s = line.proper_period
        expected = (s * line.lorentz_factor) * AbsoluteVelocity.rest() + FourVector([0, 1, 0, 0])
        assert max_abs(line.position(s).components - expected.components) < 1e-12

    def test_position_at_half_turn(self):
        line = standard_line()
        s = math.pi / (0.6 * 1.25)
        expected = FourVector([1.25 * s, -1.0, 0.0, 0.0])
        assert max_abs(line.position(s).components - expected.components) < 1e-12

    def test_initial_velocity_and_acceleration(self):
        line = standard_line()
        assert max_abs(line.velocity(0.0).components - line.initial_velocity.components) == 0.0
        assert max_abs(line.acceleration(0.0).components - [0.0, -0.5625, 0.0, 0.0]) < 1e-15

    def test_velocity_acceleration_constraints_sampled(self):
        line = standard_line(0.9, 1.0)
        for s in np.linspace(-7.0, 7.0, 29):
            v = line.velocity(s)
            a = line.acceleration(s)
            assert abs(lorentz_dot(v, v) + 1.0) < 1e-12
            assert abs(lorentz_dot(v, a)) < 1e-12

    def test_velocity_periodicity(self):
        line = standard_line()
        for s in (0.0, 1.3, 4.7):
            dv = line.velocity(s + line.proper_period).components - line.velocity(s).components
            assert max_abs(dv) < 1e-10

    @pytest.mark.parametrize("speed", [0.1, 0.3, 0.6, 0.9])
    def test_finite_difference_consistency(self, speed):
        line = standard_line(speed, 1.0)
        h = 1e-6
        for s in (0.0, 0.7, 2.9):
            fd_vel = (line.position(s + h) - line.position(s)) / h
            err = max_abs(fd_vel.components - line.velocity(s).components)
            assert err <= 1e-6 * max(1.0, max_abs(line.velocity(s).components))
            fd_acc = (line.velocity(s + h) - line.velocity(s - h)) / (2 * h)
            assert max_abs(fd_acc.components - line.acceleration(s).components) < 1e-6

    def test_radius_wedge_identity(self):
        # (Om q) ^ q reproduces rho^2 Om entrywise
        line = standard_line()
        lhs = wedge(line.angular_velocity(line.radius_vector), line.radius_vector)
        rhs = line.radius ** 2 * line.angular_velocity
        assert max_abs(lhs.matrix - rhs.matrix) < 1e-12

    def test_inertial_line(self):
        u = AbsoluteVelocity.from_3velocity([0.3, 0.0, 0.0])
        line = InertialWorldLine(u)
        assert max_abs(line.position(2.0).components - 2.0 * u.components) < 1e-15
        assert max_abs(line.acceleration(5.0).components) == 0.0


class TestTimeConversions:
    def test_center_time_is_linear(self):
        line = standard_line()
        assert line.center_time_of_proper_time(0.0) == 0.0
        assert abs(line.center_time_of_proper_time(4.0) - 5.0) < 1e-14
        assert abs(line.proper_time_of_center_time(5.0) - 4.0) < 1e-14

    def test_center_time_matches_generic_relation(self):
        line = standard_line()
        for s in (0.3, 2.1, 9.8):
            generic = frame_time_of_proper_time(line.center_velocity, line, s)
            assert abs(generic - line.center_time_of_proper_time(s)) < 1e-10

    def test_initial_time_forward_values(self):
        line = standard_line()
        assert line.initial_time_of_proper_time(0.0) == 0.0
        s_period = line.proper_period
        assert abs(line.initial_time_of_proper_time(s_period) - 1.25 * 2 * math.pi / 0.6) < 1e-10

    def test_initial_time_matches_generic_relation(self):
        # independent oracle: the frame-time relation applied to the
        # initial velocity, evaluated from positions alone
        line = standard_line()
        u0 = line.initial_velocity
        for s in np.linspace(0.0, 3.0 * line.proper_period, 17):
            generic = frame_time_of_proper_time(u0, line, s)
            assert abs(generic - line.initial_time_of_proper_time(s)) < 1e-10

    def test_initial_frame_dilation_factor(self):
        line = standard_line()
        lam = line.lorentz_factor
        speed2 = line.orbital_speed ** 2
        for s in np.linspace(0.0, 2.0 * line.proper_period, 13):
            expected = lam * lam * (1.0 - speed2 * math.cos(0.6 * lam * s))
            got = -lorentz_dot(line.initial_velocity, line.velocity(s))
            assert abs(got - expected) < 1e-10

    def test_initial_time_round_trip(self):
        line = standard_line()
        rng = np.random.default_rng(31)
        for _ in range(100):
            s = rng.uniform(0.0, 10.0 * line.proper_period)
            t = line.initial_time_of_proper_time(s)
            s_back = line.proper_time_of_initial_time(t)
            assert abs(s_back - s) < 1e-10
            assert abs(line.initial_time_of_proper_time(s_back) - t) < 1e-12

    def test_inversion_converges_at_large_frame_times(self):
        # the stopping residual is floored at 8 ulp of t: an absolute 1e-12
        # is finer than the spacing of doubles above |t| = 1024
        line = standard_line()
        u = AbsoluteVelocity.from_3velocity([0.3, 0.1, 0.0])
        rng = np.random.default_rng(41)
        for decade in range(3, 7):
            for t in rng.uniform(10.0 ** decade, 10.0 ** (decade + 1), size=200):
                s = proper_time_of_frame_time(u, line, t)
                assert abs(frame_time_of_proper_time(u, line, s) - t) <= 8.0 * math.ulp(t)

    def test_inversion_keeps_the_absolute_residual_below_1024(self):
        line = standard_line()
        u = AbsoluteVelocity.from_3velocity([0.3, 0.1, 0.0])
        for t in np.random.default_rng(42).uniform(-1023.0, 1023.0, size=200):
            s = proper_time_of_frame_time(u, line, t)
            assert abs(frame_time_of_proper_time(u, line, s) - t) < 1e-12

    def test_generic_inversion_random_frames(self):
        line = standard_line(0.9, 1.0)
        rng = np.random.default_rng(32)
        for _ in range(25):
            u = random_velocity(rng, 0.9)
            s = rng.uniform(-2.0, 8.0)
            t = frame_time_of_proper_time(u, line, s)
            assert abs(proper_time_of_frame_time(u, line, t) - s) < 1e-10


def _finite_time_calls():
    line = standard_line()
    inertial = InertialWorldLine(AbsoluteVelocity.from_3velocity([0.5, 0.0, 0.0]))
    u = AbsoluteVelocity.from_3velocity([0.0, 0.3, 0.0])
    z0 = FourVector([0.0, 0.0, 0.0, 1.0])
    return {
        "circular.velocity": lambda x: line.velocity(x),
        "circular.acceleration": lambda x: line.acceleration(x),
        "circular.position": lambda x: line.position(x),
        "circular.initial_time_of_proper_time": lambda x: line.initial_time_of_proper_time(x),
        "circular.proper_time_of_initial_time": lambda x: line.proper_time_of_initial_time(x),
        "circular.center_time_of_proper_time": lambda x: line.center_time_of_proper_time(x),
        "circular.proper_time_of_center_time": lambda x: line.proper_time_of_center_time(x),
        "inertial.velocity": lambda x: inertial.velocity(x),
        "inertial.acceleration": lambda x: inertial.acceleration(x),
        "inertial.position": lambda x: inertial.position(x),
        "frame_time_of_proper_time": lambda x: frame_time_of_proper_time(u, line, x),
        "frame_time_of_proper_time.inertial": lambda x: frame_time_of_proper_time(u, inertial, x),
        "proper_time_of_frame_time": lambda x: proper_time_of_frame_time(u, line, x),
        "thomas_rotation_general": lambda x: thomas_rotation_general(line, 0.0, x),
        "precession_series": lambda x: precession_series(
            u, line, z0, [x, 0.0] if x < 0.0 else [0.0, x]),
        "transport_path": lambda x: transport_path(line, z0, [0.0, x, 1.0]),
        "transport_path.s_start": lambda x: transport_path(line, z0, [1.0], s_start=x),
        "transport_numeric": lambda x: transport_numeric(line, z0, 0.0, x),
        "transport_circular_exact": lambda x: transport_circular_exact(line, z0, x),
        "fermi_walker_derivative": lambda x: fermi_walker_derivative(line, x, z0),
    }


class TestNonFiniteTimes:
    """An infinite or NaN time is a ConstraintViolation naming it, never a numpy
    warning, a math domain error or a result."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("call", sorted(_finite_time_calls()))
    def test_is_a_constraint_violation(self, call, value):
        with pytest.raises(ConstraintViolation, match=r"time must be finite, got -?(inf|nan)"):
            _finite_time_calls()[call](value)

    @pytest.mark.filterwarnings("error")
    def test_nan_inside_a_precession_grid_is_named(self):
        # NaN passes the ordering check, then the inversion names it
        line = standard_line()
        z0 = FourVector([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(ConstraintViolation, match="frame time must be finite, got nan"):
            precession_series(line.center_velocity, line, z0, [0.0, math.nan, 1.0])


class GenericLine(WorldLine):
    """A line known only through position, velocity and acceleration.

    It delegates them to another line and keeps the base class's generic
    frame clock, so it is the reference for the closed-form clocks.
    """

    def __init__(self, line):
        self.line = line
        self.default_step = line.default_step

    def position(self, s):
        return self.line.position(s)

    def velocity(self, s):
        return self.line.velocity(s)

    def acceleration(self, s):
        return self.line.acceleration(s)


def random_orbit(rng) -> CircularWorldLine:
    uc = random_velocity(rng, 0.6)
    carry = boost(uc, AbsoluteVelocity.rest())
    p1 = carry(random_spacelike_unit(rng, AbsoluteVelocity.rest()))
    p2 = project_spatial(uc, carry(random_spacelike_unit(rng, AbsoluteVelocity.rest())))
    p2 = p2 - p1 * lorentz_dot(p1, p2)
    rho = rng.uniform(0.3, 3.0)
    return CircularWorldLine.from_plane(rng.uniform(0.05, 0.98) / rho, rho,
                                        plane=(p1, p2 / p2.norm()), center_velocity=uc)


class TestFrameClock:
    def test_closed_form_clocks_match_the_generic_clock(self):
        rng = np.random.default_rng(71)
        for k in range(60):
            line = random_orbit(rng) if k % 4 else InertialWorldLine(random_velocity(rng, 0.9))
            u = random_velocity(rng, 0.9)
            forward, slope = line._frame_clock(u)
            ref_forward, ref_slope = GenericLine(line)._frame_clock(u)
            for s in rng.uniform(-3.0, 30.0, size=10):
                t = ref_forward(s)
                assert abs(forward(s) - t) <= 1e-13 * max(1.0, abs(t))
                assert abs(slope(s) - ref_slope(s)) <= 1e-13 * abs(ref_slope(s))

    def test_generic_line_still_inverts(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            line = random_orbit(rng)
            generic = GenericLine(line)
            u = random_velocity(rng, 0.9)
            for s in rng.uniform(-2.0, 20.0, size=5):
                t = frame_time_of_proper_time(u, generic, s)
                assert abs(proper_time_of_frame_time(u, generic, t) - s) < 1e-10
                assert abs(proper_time_of_frame_time(u, line, t) - s) < 1e-10

    def test_forward_and_inverse_read_one_clock(self):
        rng = np.random.default_rng(73)
        line = random_orbit(rng)
        u = random_velocity(rng, 0.9)
        for t in rng.uniform(-5.0, 50.0, size=50):
            s = proper_time_of_frame_time(u, line, t)
            assert abs(frame_time_of_proper_time(u, line, s) - t) < 1e-12

    def test_center_frame_of_a_rest_center_is_exact_dilation(self):
        line = standard_line(0.9, 1.0)
        for s in np.linspace(0.0, 3.0 * line.proper_period, 97):
            t = frame_time_of_proper_time(line.center_velocity, line, s)
            assert t == line.center_time_of_proper_time(s)
