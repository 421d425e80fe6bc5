import math
import warnings

import numpy as np
import pytest

from relkin import boosts
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

from relkin.minkowski import _form_error

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

    def test_rejects_a_matrix_off_the_lorentz_form(self):
        with pytest.raises(ConstraintViolation, match="does not preserve the Lorentz form"):
            Boost(np.diag([1.0, 1.0, 1.0, 1.0 + 1e-11]), U_REST, U_REST)
        with pytest.raises(ConstraintViolation, match="does not map u_from to u_to"):
            Boost(np.eye(4), U_06X, U_REST)


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


def scalar_verdict(kernel, *args):
    # (accepted, result as an array): what a scalar kernel returns, or that it raised
    try:
        return True, np.asarray(kernel(*args), dtype=float)
    except ConstraintViolation:
        return False, None


class TestRowKernels:
    """The block twins of the boost kernels give their bytes and their verdicts."""

    def velocity_rows(self, rng, n):
        # checked velocities up to speed 0.999, then rows that fail one check each
        rows = [random_velocity(rng, 0.999).components for _ in range(n)]
        return np.array(rows + [[-1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0],
                                [np.nan, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0],
                                [1.0, 1e308, 1e308, 0.0]])

    @pytest.mark.parametrize("tol", [1e-12, 1e-6])
    def test_boost_rows_are_the_scalar_matrices(self, tol):
        rng = np.random.default_rng(27)
        for _ in range(10):
            t = random_velocity(rng, 0.999).components
            f = self.velocity_rows(rng, 400)
            with np.errstate(all="ignore"):
                m, ok = boosts._boost_rows(t, f, tol)
            for k, row in enumerate(f.tolist()):
                accepted, expected = scalar_verdict(boosts._boost_matrix, t.tolist(), row, tol)
                assert ok[k] == accepted
                if accepted:
                    assert m[k].tobytes() == expected.tobytes()

    def test_batched_residuals_are_the_scalar_residuals(self):
        # stacked np.matmul makes the per-matrix BLAS calls, so the residuals
        # the block compares are the scalar checks' own numbers
        rng = np.random.default_rng(28)
        for k in range(10):
            t = random_velocity(rng, 0.999).components
            f = np.array([random_velocity(rng, 0.999).components for _ in range(400)])
            if k % 2:  # rows strided as in a kinematics block [n, (rdot, rddot), 4]
                f = np.stack([f, np.zeros_like(f)], axis=1)[:, 0]
            m, _ = boosts._boost_rows(t, f, 1.0)
            form, carry = boosts._boost_residuals(m, t, f)
            scalar = [boosts._boost_matrix(t.tolist(), row, 1.0) for row in f.tolist()]
            expected_form = [_form_error(mk) for mk in scalar]
            expected_carry = [float(abs(mk @ tuple(row) - t.tolist()).max())
                              for mk, row in zip(scalar, f.tolist())]
            assert form.tobytes() == np.array(expected_form).tobytes()
            assert carry.tobytes() == np.array(expected_carry).tobytes()

    def test_relative_kinematics_rows(self):
        rng = np.random.default_rng(29)
        moving = [1.25, 0.75, 0.0, 0.0]
        for _ in range(10):
            u = random_velocity(rng, 0.9).components
            r, a = [], []
            for _ in range(200):
                rdot = random_velocity(rng, 0.99)
                r.append(rdot.components)
                a.append((random_spacelike_unit(rng, rdot) * rng.uniform(0.0, 5.0)).components)
            # not orthogonal, NaN, an infinity that passes the orthogonality bound, and
            # a tiny acceleration whose residual only the bound's floor of 1 admits
            r += [moving, moving, moving, moving]
            a += [[1.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0], [0.0, np.inf, 0.0, 0.0],
                  [0.0, 1e-12, 0.0, 0.0]]
            r, a = np.array(r), np.array(a)
            with np.errstate(all="ignore"):
                v = boosts._relative_velocity_rows(u, r)
                acc, ok = boosts._relative_acceleration_rows(u, r, a, 1e-12)
            expected_v = [boosts._relative_velocity(u.tolist(), row) for row in r.tolist()]
            assert v.tobytes() == np.array(expected_v).tobytes()
            for k in range(len(r)):
                accepted, expected = scalar_verdict(
                    boosts._relative_acceleration, u.tolist(), r[k].tolist(), a[k].tolist(), 1e-12)
                assert ok[k] == accepted
                if accepted and np.isfinite(expected).all():
                    assert acc[k].tobytes() == expected.tobytes()


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

    def test_finite_matrix_with_nan_image_of_u_is_rejected(self):
        # m @ u overflows to inf - inf = NaN; before, the NaN restriction was
        # accepted and rotation_angle_axis raised an untyped IndexError
        m = np.zeros((4, 4))
        m[:, 0], m[:, 1] = 1.7e308, -1.7e308
        u = AbsoluteVelocity.from_3velocity([0.98, 0.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConstraintViolation, match="does not fix its velocity"):
                SpatialRotation(m, u)

    def test_overflow_is_the_typed_error_not_a_warning(self):
        m = np.zeros((4, 4))
        m[:, 0], m[:, 1] = 1.7e308, -1.7e308
        u = AbsoluteVelocity.from_3velocity([0.98, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstraintViolation, match="does not fix its velocity"):
                SpatialRotation(m, u)

    def test_overflowing_restriction_is_the_typed_error_not_a_warning(self):
        # fixes the rest velocity exactly, but r.T @ r overflows
        m = np.eye(4)
        m[1, 2] = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstraintViolation, match="is not orthogonal"):
                SpatialRotation(m, U_REST)


class TestRotationKeepsItsFrame:
    def test_one_frame_per_rotation_and_none_per_read(self, monkeypatch):
        calls = []
        build = boosts.orthonormal_spatial_frame

        def spy(u):
            calls.append(u)
            return build(u)

        monkeypatch.setattr(boosts, "orthonormal_spatial_frame", spy)
        u = AbsoluteVelocity.from_3velocity([0.1, -0.2, 0.3])
        rot = thomas_rotation_discrete(u, U_06X, U_06Y)
        assert calls == [u]
        rotation_angle_axis(rot)
        assert calls == [u]
        assert [f.components.tobytes() for f in rot.frame] == [
            f.components.tobytes() for f in build(u)]

    def test_restriction_is_kept_and_read_only(self):
        rot = thomas_rotation_discrete(U_REST, U_06X, U_06Y)
        r = rot.restriction()
        assert r is rot.restriction()
        with pytest.raises(ValueError):
            r[0, 0] = 2.0
        expected = [[lorentz_dot(fi, rot(fj)) for fj in rot.frame] for fi in rot.frame]
        assert r.tobytes() == np.array(expected).tobytes()


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
