import itertools
import math

import numpy as np
import pytest

from relkin import (
    E0,
    E1,
    E2,
    E3,
    METRIC,
    AbsoluteVelocity,
    ConstraintViolation,
    FourVector,
    LorentzMap,
    antisymmetric_magnitude,
    exp_map,
    lorentz_dot,
    orthonormal_spatial_frame,
    project_spatial,
    wedge,
)
from relkin.minkowski import _form_error, _lowered, _lowered_rows, _wedge, _wedge_rows

from helpers import max_abs, random_vector, random_velocity


class TestLorentzDot:
    def test_metric_signature(self):
        assert lorentz_dot(E0, E0) == -1.0
        assert lorentz_dot(E1, E1) == 1.0
        assert lorentz_dot(E2, E2) == 1.0
        assert lorentz_dot(E3, E3) == 1.0

    def test_mixed_example(self):
        x = FourVector([2.0, 1.0, 0.0, 0.0])
        y = FourVector([1.0, 1.0, 0.0, 0.0])
        assert lorentz_dot(x, y) == -1.0

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x, y = random_vector(rng, 3.0), random_vector(rng, 3.0)
            assert lorentz_dot(x, y) == lorentz_dot(y, x)

    def test_bilinear(self):
        rng = np.random.default_rng(8)
        x, y, z = (random_vector(rng) for _ in range(3))
        a, b = 1.7, -0.3
        lhs = lorentz_dot(a * x + b * y, z)
        rhs = a * lorentz_dot(x, z) + b * lorentz_dot(y, z)
        assert abs(lhs - rhs) < 1e-12


class TestProjectSpatial:
    def test_kills_velocity(self):
        u = AbsoluteVelocity.rest()
        assert max_abs(project_spatial(u, E0).components) == 0.0

    def test_leaves_spatial(self):
        u = AbsoluteVelocity.rest()
        assert np.array_equal(project_spatial(u, E1).components, E1.components)

    def test_strips_time_component(self):
        u = AbsoluteVelocity.rest()
        out = project_spatial(u, FourVector([3.0, 1.0, 2.0, 0.0]))
        assert np.array_equal(out.components, [0.0, 1.0, 2.0, 0.0])

    def test_result_orthogonal_and_idempotent(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            u = random_velocity(rng)
            x = random_vector(rng, 2.0)
            p = project_spatial(u, x)
            assert abs(lorentz_dot(u, p)) < 1e-12
            assert max_abs(project_spatial(u, p).components - p.components) < 1e-12


class TestWedge:
    def test_basis_actions(self):
        assert max_abs(wedge(E1, E2)(E2).components - E1.components) < 1e-15
        assert max_abs(wedge(E1, E1)(random_vector(np.random.default_rng(1))).components) == 0.0
        # (e0 ^ e1) e0 = e0 (e1.e0) - e1 (e0.e0) = e1
        assert max_abs(wedge(E0, E1)(E0).components - E1.components) < 1e-15

    def test_antisymmetric_as_map(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            x, y = random_vector(rng), random_vector(rng)
            m = wedge(x, y)
            assert m.is_antisymmetric(1e-12 * max(1.0, max_abs(m.matrix)))
            a, b = random_vector(rng), random_vector(rng)
            assert abs(lorentz_dot(m(a), b) + lorentz_dot(a, m(b))) < 1e-11

    def test_antisymmetric_in_arguments(self):
        rng = np.random.default_rng(11)
        x, y = random_vector(rng), random_vector(rng)
        assert max_abs(wedge(x, y).matrix + wedge(y, x).matrix) == 0.0

    def test_equals_the_numpy_formula(self):
        # the float kernel forms every entry as outer(x, G y) - outer(y, G x) does
        rng = np.random.default_rng(13)
        basis = [E0, E1, E2, E3]
        for k in range(200):
            x = basis[k % 4] if k % 3 == 0 else random_vector(rng)
            y = basis[k % 5 % 4] if k % 2 == 0 else random_vector(rng)
            a, b = x.components, y.components
            expected = np.outer(a, METRIC @ b) - np.outer(b, METRIC @ a)
            assert np.array_equal(wedge(x, y).matrix, expected)

    def test_bilinear_entrywise(self):
        rng = np.random.default_rng(12)
        x, y, z = (random_vector(rng) for _ in range(3))
        a, b = 0.8, -2.5
        lhs = wedge(a * x + b * y, z).matrix
        rhs = a * wedge(x, z).matrix + b * wedge(y, z).matrix
        assert max_abs(lhs - rhs) < 1e-12


class TestRowKernels:
    """The [n, 4] twins of _lowered and _wedge give the scalar kernels' bytes."""

    VALUES = (0.0, -0.0, 1.5, -2.5)

    def test_lowered_rows_on_every_sign_of_zero(self):
        # all 256 patterns, so signed zeros are compared too
        rows = np.array(list(itertools.product(self.VALUES, repeat=4)))
        expected = np.array([_lowered(tuple(r)) for r in rows.tolist()])
        assert _lowered_rows(rows).tobytes() == expected.tobytes()

    def test_wedge_rows(self):
        rng = np.random.default_rng(14)
        patterns = list(itertools.product(self.VALUES, repeat=4))
        a = np.array([patterns[i] for i in rng.integers(0, 256, size=300)] + [*rng.normal(size=(50, 4))])
        b = np.array([patterns[i] for i in rng.integers(0, 256, size=300)] + [*rng.normal(size=(50, 4))])
        k = np.concatenate([np.ones(150), rng.uniform(0.1, 3.0, size=200)])
        expected = np.array([_wedge(x, y, c) for x, y, c in zip(a.tolist(), b.tolist(), k.tolist())])
        assert _wedge_rows(a, b, k).tobytes() == expected.tobytes()


class TestExpMap:
    def test_zero_time_is_identity(self):
        gen = wedge(E1, E2)
        assert max_abs(exp_map(gen, 0.0).matrix - np.eye(4)) < 1e-15

    def test_full_turn_is_identity(self):
        gen = 0.6 * wedge(E2, E1)  # rotates e1 toward e2 at rate 0.6
        assert max_abs(exp_map(gen, 2.0 * math.pi / 0.6).matrix - np.eye(4)) < 1e-13

    def test_pure_boost_against_explicit_array(self):
        # oracle: the x-direction boost array with rapidity arctanh(0.6)
        chi = math.atanh(0.6)
        expected = np.eye(4)
        expected[0, 0] = expected[1, 1] = math.cosh(chi)
        expected[0, 1] = expected[1, 0] = math.sinh(chi)
        got = exp_map(wedge(E0, E1), chi)
        assert max_abs(got.matrix - expected) < 1e-14
        mapped = got(E0)
        assert max_abs(mapped.components - [1.25, 0.75, 0.0, 0.0]) < 1e-14

    def test_preserves_form_over_wide_range(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            gen = wedge(random_vector(rng), random_vector(rng))
            t = rng.uniform(-10.0, 10.0)
            ex = exp_map(gen, t)
            scale = max(1.0, max_abs(ex.matrix) ** 2)
            assert ex.is_lorentz(1e-10 * scale)
            x, y = random_vector(rng), random_vector(rng)
            assert abs(lorentz_dot(ex(x), ex(y)) - lorentz_dot(x, y)) < 1e-10 * scale

    def test_one_parameter_group(self):
        rng = np.random.default_rng(14)
        gen = wedge(random_vector(rng), random_vector(rng))
        s, t = 0.7, -1.9
        combined = exp_map(gen, s + t)
        composed = exp_map(gen, s) @ exp_map(gen, t)
        assert max_abs(combined.matrix - composed.matrix) < 1e-10

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ConstraintViolation):
            exp_map(LorentzMap(np.diag([1.0, 2.0, 3.0, 4.0])))

    def test_form_is_kept_to_rounding(self):
        # one- and two-wedge generators; the closed form keeps the Lorentz
        # form to a few hundred ulp of the result's squared scale
        rng = np.random.default_rng(15)
        for k in range(500):
            gen = wedge(random_vector(rng), random_vector(rng))
            if k % 2:
                gen = gen + wedge(random_vector(rng), random_vector(rng))
            ex = exp_map(gen, rng.uniform(-10.0, 10.0)).matrix
            assert _form_error(ex) <= 1e-12 * max(1.0, max_abs(ex) ** 2)

    def test_overflow_and_non_finite_time_are_constraint_violations(self):
        for t in (1.0e3, math.inf, -math.inf, math.nan):
            with pytest.raises(ConstraintViolation):
                exp_map(wedge(E0, E1), t)
        with pytest.raises(ConstraintViolation):
            exp_map(wedge(E1, E2), math.inf)


def generator_families(rng):
    """Makers of antisymmetric generators in five families, by name."""
    def frame():
        u = random_velocity(rng, 0.9)
        return (u, *orthonormal_spatial_frame(u))

    def rotation():
        _, f1, f2, _ = frame()
        return rng.uniform(0.05, 2.0) * wedge(f1, f2)

    def boost():
        u, f1, _, _ = frame()
        return rng.uniform(0.05, 2.0) * wedge(u, f1)

    def two_wedge():
        return (wedge(random_vector(rng), random_vector(rng))
                + wedge(random_vector(rng), random_vector(rng)))

    def null_rotation():
        # u + f1 is null and f2 is orthogonal to it, so the generator cubes to zero
        u, f1, f2, _ = frame()
        return rng.uniform(0.1, 2.0) * wedge(u + f1, f2)

    def perturbed_null_rotation():
        eps = 10.0 ** rng.uniform(-12.0, -2.0)
        return null_rotation() + eps * wedge(random_vector(rng), random_vector(rng))

    return {f.__name__: f for f in (rotation, boost, two_wedge, null_rotation,
                                    perturbed_null_rotation)}


class TestExpMapOracle:
    def test_matches_a_50_digit_exponential(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(81)
        worst = {}
        with mpmath.workdps(50):
            for name, make in generator_families(rng).items():
                for _ in range(60):
                    gen, t = make(), rng.uniform(-3.0, 3.0)
                    exact = mpmath.expm(mpmath.matrix(gen.matrix.tolist()) * mpmath.mpf(t))
                    ref = np.array(exact.tolist(), dtype=float)
                    err = max_abs(exp_map(gen, t).matrix - ref) / max(1.0, max_abs(ref))
                    worst[name] = max(worst.get(name, 0.0), err)
        assert len(worst) == 5
        assert max(worst.values()) <= 1e-13, worst


class TestFormError:
    def test_largest_entry_of_the_form_residual(self):
        assert _form_error(np.eye(4)) == 0.0
        assert _form_error(np.diag([2.0, 1.0, 1.0, 1.0])) == 3.0
        assert math.isnan(_form_error(np.diag([math.nan, 1.0, 1.0, 1.0])))

    def test_is_lorentz_compares_at_most_tol(self):
        m = LorentzMap(np.diag([1.0, 1.0, 1.0, 1.0 + 1e-11]))
        err = _form_error(m.matrix)
        assert m.is_lorentz(err)
        assert not m.is_lorentz(math.nextafter(err, 0.0))
        assert not m.is_lorentz()


class TestOrthonormalSpatialFrame:
    def test_rest_frame(self):
        f1, f2, f3 = orthonormal_spatial_frame(AbsoluteVelocity.rest())
        assert np.array_equal(f1.components, E1.components)
        assert np.array_equal(f2.components, E2.components)
        assert np.array_equal(f3.components, E3.components)

    def test_boosted_frame_matches_hand_gram_schmidt(self):
        u = AbsoluteVelocity([1.25, 0.75, 0.0, 0.0])
        f1, f2, f3 = orthonormal_spatial_frame(u)
        assert max_abs(f1.components - [0.75, 1.25, 0.0, 0.0]) < 1e-12
        assert np.array_equal(f2.components, E2.components)
        assert np.array_equal(f3.components, E3.components)

    def test_gram_matrix_and_orientation(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            u = random_velocity(rng)
            frame = orthonormal_spatial_frame(u)
            gram = np.array([[lorentz_dot(a, b) for b in frame] for a in frame])
            assert max_abs(gram - np.eye(3)) < 1e-12
            for f in frame:
                assert abs(lorentz_dot(u, f)) < 1e-12
            det = np.linalg.det(
                np.column_stack([u.components] + [f.components for f in frame])
            )
            assert det > 0.0


class TestTypes:
    def test_four_vector_rejects_non_finite(self):
        with pytest.raises(ConstraintViolation):
            FourVector([np.nan, 0, 0, 0])
        with pytest.raises(ConstraintViolation):
            FourVector([np.inf, 0, 0, 0])
        with pytest.raises(ConstraintViolation):
            FourVector([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 3])
    def test_non_finite_entries_are_rejected(self, bad, index):
        c = np.zeros(4)
        c[index] = bad
        with pytest.raises(ConstraintViolation, match="finite"):
            FourVector(c)
        m = np.eye(4)
        m[index, 3 - index] = bad
        with pytest.raises(ConstraintViolation, match="finite"):
            LorentzMap(m)

    def test_velocity_invariants(self):
        with pytest.raises(ConstraintViolation):
            AbsoluteVelocity([1.0, 0.5, 0.0, 0.0])  # does not square to -1
        with pytest.raises(ConstraintViolation):
            AbsoluteVelocity([-1.0, 0.0, 0.0, 0.0])  # past directed
        with pytest.raises(ConstraintViolation):
            AbsoluteVelocity.from_3velocity([1.0, 0.0, 0.0])

    def test_velocity_whose_square_is_nan_is_rejected(self):
        # -1e400 + 1e400 overflows to -inf + inf = NaN, which must not pass as -1
        with pytest.raises(ConstraintViolation, match="square to -1, got nan"):
            AbsoluteVelocity([1e200, 1e200, 0.0, 0.0])

    def test_immutability(self):
        x = FourVector([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            x.components[0] = 0.0
        m = LorentzMap(np.eye(4))
        with pytest.raises(ValueError):
            m.matrix[0, 0] = 2.0

    def test_lorentz_map_predicates(self):
        assert LorentzMap(np.eye(4)).is_lorentz()
        assert not LorentzMap(np.diag([2.0, 1.0, 1.0, 1.0])).is_lorentz()
        assert wedge(E1, E2).is_antisymmetric()

    def test_antisymmetric_magnitude(self):
        gen = 0.6 * wedge(E2, E1)
        assert abs(antisymmetric_magnitude(gen) - 0.6) < 1e-14
        with pytest.raises(ConstraintViolation):
            antisymmetric_magnitude(wedge(E0, E1))  # boost-like
