import math

import numpy as np
import pytest

from relkin import (
    E0,
    E3,
    METRIC,
    AbsoluteVelocity,
    Boost,
    ConstraintViolation,
    FourVector,
    SpatialRotation,
    boost,
    coplanar,
    gamma_factor,
    lorentz_dot,
    relative_acceleration,
    relative_velocity,
    rotation_angle_axis,
    thomas_rotation_discrete,
)

from helpers import max_abs, random_spacelike_unit, random_unit_vector, random_velocity

U_REST = AbsoluteVelocity.rest()
U_06X = AbsoluteVelocity([1.25, 0.75, 0.0, 0.0])
U_06Y = AbsoluteVelocity([1.25, 0.0, 0.75, 0.0])

# brute-force triple product of the perpendicular 0.6/0.6 boosts, frozen;
# equals -arctan(gamma^2 b^2 / (gamma + gamma)) for this symmetric case
PERP_THOMAS_ANGLE = -0.2213144423477913


def explicit_x_boost(beta: float) -> np.ndarray:
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    m = np.eye(4)
    m[0, 0] = m[1, 1] = gamma
    m[0, 1] = m[1, 0] = gamma * beta
    return m


class TestBoost:
    def test_identity(self):
        assert max_abs(boost(U_REST, U_REST).matrix - np.eye(4)) < 1e-15

    def test_maps_velocity(self):
        mapped = boost(U_06X, U_REST)(E0)
        assert max_abs(mapped.components - U_06X.components) < 1e-15

    def test_against_textbook_array(self):
        got = boost(U_06X, U_REST).matrix
        assert max_abs(got - explicit_x_boost(0.6)) < 1e-15

    def test_inverse_composition(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            a, b = random_velocity(rng), random_velocity(rng)
            assert max_abs((boost(a, b) @ boost(b, a)).matrix - np.eye(4)) < 1e-12

    def test_form_preservation_random_pairs(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            bmap = boost(random_velocity(rng), random_velocity(rng))
            x, y = random_unit_vector(rng), random_unit_vector(rng)
            assert abs(lorentz_dot(bmap(x), bmap(y)) - lorentz_dot(x, y)) < 1e-12

    def test_rejects_past_directed_velocity(self):
        # AbsoluteVelocity refuses a past-directed velocity, so build one around it
        past = AbsoluteVelocity.__new__(AbsoluteVelocity)
        past.components = -U_06X.components
        with pytest.raises(ConstraintViolation, match="future directed"):
            boost(past, U_REST)

    def test_constructor_validates(self):
        with pytest.raises(ConstraintViolation):
            Boost(np.diag([2.0, 1.0, 1.0, 1.0]), U_06X, U_REST)
        with pytest.raises(ConstraintViolation):
            Boost(np.eye(4), U_06X, U_REST)  # Lorentz but wrong endpoints


    def test_equals_the_numpy_formula(self):
        # the float kernel forms every entry as the array formula does
        rng = np.random.default_rng(23)
        axis = [U_REST, U_06X, U_06Y, AbsoluteVelocity.from_3velocity([0.0, 0.0, -0.3])]
        for k in range(300):
            a = axis[k % 4] if k % 3 == 0 else random_velocity(rng)
            b = axis[k % 5 % 4] if k % 2 == 0 else random_velocity(rng)
            s = a.components + b.components
            d = lorentz_dot(a, b)
            expected = (np.eye(4) + np.outer(s, METRIC @ s) / (1.0 - d)
                        - 2.0 * np.outer(a.components, METRIC @ b.components))
            assert np.array_equal(boost(a, b).matrix, expected)

    def test_returns_a_checked_read_only_boost(self):
        b = boost(U_06X, U_06Y)
        assert isinstance(b, Boost)
        assert b.u_to is U_06X and b.u_from is U_06Y
        assert not b.matrix.flags.writeable
        assert np.array_equal(Boost(b.matrix, U_06X, U_06Y).matrix, b.matrix)


class TestRelativeKinematics:
    def test_comoving_velocity_is_zero(self):
        assert max_abs(relative_velocity(U_REST, U_REST).components) == 0.0

    def test_velocity_example(self):
        v = relative_velocity(U_REST, U_06X)
        assert max_abs(v.components - [0.0, 0.6, 0.0, 0.0]) < 1e-15

    def test_velocity_in_frame_and_subluminal(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            u, rdot = random_velocity(rng), random_velocity(rng, 0.99)
            v = relative_velocity(u, rdot)
            assert abs(lorentz_dot(u, v)) < 1e-12
            assert v.norm() < 1.0

    def test_kernels_equal_the_numpy_formulas(self):
        # the float kernels form every component as the array formulas do
        from relkin import CircularWorldLine

        rng = np.random.default_rng(24)
        for k in range(100):
            line = CircularWorldLine.from_plane(rng.uniform(0.05, 0.95), 1.0,
                                                center_velocity=random_velocity(rng, 0.5))
            s = rng.uniform(0.0, 20.0)
            u = U_REST if k % 4 == 0 else random_velocity(rng)
            rdot, rddot = line.velocity(s), line.acceleration(s)
            g = -lorentz_dot(u, rdot)
            v = rdot.components / g - u.components
            a = (rddot.components + rdot.components * (lorentz_dot(u, rddot) / g)) / (g * g)
            assert np.array_equal(relative_velocity(u, rdot).components, v)
            assert np.array_equal(relative_acceleration(u, rdot, rddot).components, a)

    def test_acceleration_zero_case(self):
        out = relative_acceleration(U_REST, U_06X, FourVector([0, 0, 0, 0]))
        assert max_abs(out.components) == 0.0

    def test_acceleration_comoving(self):
        out = relative_acceleration(U_REST, U_REST, FourVector([0.0, 0.45, 0.0, 0.0]))
        assert max_abs(out.components - [0.0, 0.45, 0.0, 0.0]) < 1e-15

    def test_acceleration_circular_cross_check(self):
        # center-frame acceleration of the 0.6-speed circular orbit at s = 0
        # must come out as -omega^2 q
        from relkin import CircularWorldLine

        line = CircularWorldLine.from_plane(0.6, 1.0)
        out = relative_acceleration(U_REST, line.velocity(0.0), line.acceleration(0.0))
        assert max_abs(out.components - [0.0, -0.36, 0.0, 0.0]) < 1e-14

    def test_acceleration_precondition(self):
        with pytest.raises(ConstraintViolation):
            relative_acceleration(U_REST, U_06X, FourVector([0.0, 1.0, 0.0, 0.0]))

    def test_gamma(self):
        assert gamma_factor(U_06X, U_06X) == 1.0
        assert abs(gamma_factor(U_REST, U_06X) - 1.25) < 1e-15

    def test_gamma_consistency(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            u, rdot = random_velocity(rng), random_velocity(rng, 0.99)
            g = gamma_factor(u, rdot)
            v = relative_velocity(u, rdot)
            assert abs(g * g * (1.0 - lorentz_dot(v, v)) - 1.0) < 1e-10


class TestDiscreteThomasRotation:
    def test_degenerate_chain_is_identity(self):
        rot = thomas_rotation_discrete(U_REST, U_06X, U_06X)
        assert max_abs(rot.matrix - np.eye(4)) < 1e-14

    def test_collinear_chain_is_identity(self):
        u2 = AbsoluteVelocity.from_3velocity([0.9, 0.0, 0.0])
        rot = thomas_rotation_discrete(U_REST, U_06X, u2)
        assert max_abs(rot.matrix - np.eye(4)) < 1e-10

    def test_perpendicular_golden_value(self):
        # oracle: multiply the three explicit boost arrays directly
        def vel_boost(u_to, u_from):
            s = u_to.components + u_from.components
            return (
                np.eye(4)
                + np.outer(s, METRIC @ s) / (1.0 - lorentz_dot(u_to, u_from))
                - 2.0 * np.outer(u_to.components, METRIC @ u_from.components)
            )

        brute = vel_boost(U_REST, U_06Y) @ vel_boost(U_06Y, U_06X) @ vel_boost(U_06X, U_REST)
        cos_t = 0.5 * (np.trace(brute[1:, 1:]) - 1.0)
        sin_t = 0.5 * (brute[2, 1] - brute[1, 2])  # about +e3
        brute_angle = math.atan2(sin_t, cos_t)
        assert abs(brute_angle - PERP_THOMAS_ANGLE) < 1e-9

        rot = thomas_rotation_discrete(U_REST, U_06X, U_06Y)
        angle, axis = rotation_angle_axis(rot)
        assert abs(angle - PERP_THOMAS_ANGLE) < 1e-9
        assert min(max_abs(axis.components - E3.components),
                   max_abs(axis.components + E3.components)) < 1e-9

    def test_fixes_velocity_and_det(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            u, u1, u2 = (random_velocity(rng) for _ in range(3))
            rot = thomas_rotation_discrete(u, u1, u2)
            assert max_abs(rot(u).components - u.components) < 1e-12
            r = rot.restriction()
            assert abs(np.linalg.det(r) - 1.0) < 1e-12


class TestRotationAngleAxis:
    def test_identity(self):
        rot = SpatialRotation(np.eye(4), U_REST)
        angle, axis = rotation_angle_axis(rot)
        assert angle == 0.0 and axis is None

    def _rotation_about_e3(self, theta: float) -> SpatialRotation:
        m = np.eye(4)
        m[1, 1] = m[2, 2] = math.cos(theta)
        m[2, 1] = math.sin(theta)
        m[1, 2] = -math.sin(theta)
        return SpatialRotation(m, U_REST)

    def test_quarter_turn(self):
        angle, axis = rotation_angle_axis(self._rotation_about_e3(math.pi / 2))
        assert abs(angle - math.pi / 2) < 1e-15
        assert max_abs(axis.components - E3.components) < 1e-15

    def test_negative_angle_keeps_canonical_axis(self):
        angle, axis = rotation_angle_axis(self._rotation_about_e3(-math.pi / 2))
        assert abs(angle + math.pi / 2) < 1e-15
        assert max_abs(axis.components - E3.components) < 1e-15

    def test_half_turn(self):
        angle, axis = rotation_angle_axis(self._rotation_about_e3(math.pi))
        assert abs(angle - math.pi) < 1e-12
        assert max_abs(axis.components - E3.components) < 1e-12

    def test_nearly_half_turn_both_signs(self):
        for theta in (math.pi - 1e-4, -(math.pi - 1e-4)):
            angle, axis = rotation_angle_axis(self._rotation_about_e3(theta))
            assert abs(angle - theta) < 1e-10
            assert max_abs(axis.components - E3.components) < 1e-6

    def test_nearly_half_turn_random_axes(self):
        # off the coordinate axes the symmetric part of the matrix must give
        # the axis; the full matrix carries an O(sin) antisymmetric tilt
        rng = np.random.default_rng(28)
        for _ in range(200):
            a = random_spacelike_unit(rng, U_REST).components[1:]
            theta = rng.uniform(math.pi - 0.05, math.pi) * rng.choice((-1.0, 1.0))
            if a[np.nonzero(np.abs(a) > 1e-9)[0][0]] < 0.0:
                a, theta = -a, -theta  # the reported axis has the canonical sign
            k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
            m = np.eye(4)
            m[1:, 1:] = (math.cos(theta) * np.eye(3) + math.sin(theta) * k
                         + (1.0 - math.cos(theta)) * np.outer(a, a))
            angle, axis = rotation_angle_axis(SpatialRotation(m, U_REST))
            assert abs(angle - theta) < 1e-10
            assert max_abs(axis.components - np.array([0.0, *a])) < 1e-10

    def test_validates_input(self):
        with pytest.raises(ConstraintViolation):
            SpatialRotation(explicit_x_boost(0.6), U_REST)


class TestCoplanar:
    def test_trivial(self):
        assert coplanar(U_REST, U_REST, U_REST)

    def test_collinear_boosts(self):
        u2 = AbsoluteVelocity.from_3velocity([0.9, 0.0, 0.0])
        assert coplanar(U_REST, U_06X, u2)

    def test_spanning_three_directions(self):
        assert not coplanar(U_REST, U_06X, U_06Y)

    def test_coplanar_implies_no_rotation(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            u = random_velocity(rng)
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            u1 = AbsoluteVelocity.from_3velocity(d * rng.uniform(0, 0.9))
            u2 = AbsoluteVelocity.from_3velocity(d * rng.uniform(0, 0.9))
            # u, u1, u2 need not be coplanar yet; build u1, u2 in a plane with u
            b = boost(u, U_REST)
            u1 = AbsoluteVelocity(b(u1).components)
            u2 = AbsoluteVelocity(b(u2).components)
            assert coplanar(u, u1, u2)
            angle, _ = rotation_angle_axis(thomas_rotation_discrete(u, u1, u2))
            assert abs(angle) < 1e-8
