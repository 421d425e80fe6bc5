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

from relkin.transport import _BLOCK, MAX_STEPS, _generators, _rk4_operator, _steps

from helpers import DelegatingLine, max_abs, random_spacelike_unit, random_velocity


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


def numpy_reference_path(line, z0, s_points, s_start=0.0, step=None, tol=1e-8):
    """transport_path on numpy arrays: the reference the float loop must match.

    Kinematics come from the public velocity()/acceleration() arrays, the
    state is a 4-element array, and every expression is the array form
    that the float loop writes out per component, so the two must agree
    bit for bit.
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
            ortho = abs(_mdot(f_hi[0], y))
            mag = abs(math.sqrt(_mdot(y, y)) - norm0)
            if not (ortho <= tol and mag <= tol):
                raise DriftViolation(
                    f"transport drift at s = {s}: velocity.z = {ortho}, |z| drift = {mag} "
                    f"(step {h_step} too large)"
                )
        return y

    h_step = line.default_step if step is None else float(step)
    ss = [float(s) for s in s_points]
    norm0 = z0.norm()
    out = [None] * len(ss)
    first_fwd = next((i for i, s in enumerate(ss) if s >= s_start), len(ss))
    for order in (range(first_fwd, len(ss)), range(first_fwd - 1, -1, -1)):
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


class TestFloatLoopBitIdentity:
    """transport_path equals the numpy vector RK4 with exact ==, drift messages included."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("step_kind", ["explicit", "default"])
    def test_matches_numpy_reference(self, seed, step_kind):
        rng = np.random.default_rng(3100 + seed)
        line, z0, s_start = _seeded_orbit(rng, boosted=seed % 2 == 1)
        period = line.proper_period
        # points on both sides of s_start: one forward and one backward pass
        offsets = np.concatenate([[-0.1, 0.12], rng.uniform(-0.15, 0.2, size=3)])
        points = np.sort(s_start + period * offsets)
        step = period / rng.uniform(600.0, 1200.0) if step_kind == "explicit" else None
        got = [(st.s, st.z.components.tobytes())
               for st in transport_path(line, z0, points, s_start=s_start, step=step)]
        assert got == numpy_reference_path(line, z0, points, s_start=s_start, step=step)

    def test_inertial_line_matches_numpy_reference(self):
        line = InertialWorldLine(AbsoluteVelocity.from_3velocity([0.3, -0.2, 0.5]))
        z0 = random_spacelike_unit(np.random.default_rng(3110), line.velocity(0.0))
        points = [-2.0, -0.5, 0.7, 3.0]
        got = [(st.s, st.z.components.tobytes())
               for st in transport_path(line, z0, points, s_start=0.2, step=0.3)]
        assert got == numpy_reference_path(line, z0, points, s_start=0.2, step=0.3)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_drift_message_matches_numpy_reference(self, seed, direction):
        rng = np.random.default_rng(3120 + seed)
        line, z0, s_start = _seeded_orbit(rng, boosted=seed % 2 == 0)
        period = line.proper_period
        points = [s_start + direction * 3.0 * period]
        step = period / rng.uniform(6.0, 20.0)
        with pytest.raises(DriftViolation) as got:
            transport_path(line, z0, points, s_start=s_start, step=step)
        with pytest.raises(DriftViolation) as expected:
            numpy_reference_path(line, z0, points, s_start=s_start, step=step)
        assert str(got.value) == str(expected.value)


class TestLineDefaultStep:
    """The default step is the line's own default_step, resolved once per call."""

    def test_circular_default_is_a_ten_thousandth_of_the_period(self):
        line = standard_line(0.9, 1.0)
        assert line.default_step == line.proper_period / 10_000
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        points = np.linspace(0.0, 0.3 * line.proper_period, 7)
        default = transport_path(line, z0, points)
        explicit = transport_path(line, z0, points, step=line.proper_period / 10_000)
        assert [s.z.components.tobytes() for s in default] == \
            [s.z.components.tobytes() for s in explicit]

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

    def test_inertial_default_takes_one_step_per_segment(self, monkeypatch):
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
        # the gyroscopic check, then one RK4 step per segment: start, mid and end
        assert len(calls) <= 3 * n + 1

    def test_transport_reads_the_step_from_the_line(self):
        line = standard_line(0.9, 1.0)
        line.default_step = line.proper_period / 8
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(DriftViolation, match=f"step {line.default_step} too large"):
            transport_numeric(line, z0, 0.0, 3.0 * line.proper_period)


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
        # the default P/10 000 over 20 000 periods is 2e8 steps
        with pytest.raises(ConstraintViolation, match="more than the limit"):
            transport_numeric(line, z0, 0.0, 20_000 * line.proper_period)

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
        states = transport_path(line, z0, points)
        z, cur = z0, 0.0
        for state, s in zip(states, points):
            z = transport_numeric(line, z, cur, s).z
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
    """The operator RK4 one step at a time: the oracle of the block loop's bits."""
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
    """The block loop returns the per-step loop's bytes; its kinematics blocks stay bounded."""

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
                expected = per_step_rk4_operator(line, np.eye(4), s1, s2, self.STEP).tobytes()
                assert _rk4_operator(line, np.eye(4), s1, s2, self.STEP).tobytes() == expected
                got = transport_operator_numeric(line, s1, s2, step=self.STEP)
                assert got.matrix.tobytes() == expected

    @pytest.mark.parametrize("kind", ["circular", "boosted-plane"])
    def test_thomas_rotation_is_the_per_step_operator(self, kind):
        line = BLOCK_LINES[kind]()
        period = line.proper_period
        expected = per_step_rk4_operator(line, np.eye(4), 0.0, period, line.default_step)
        got = thomas_rotation_general(line, 0.0, period)
        assert got.matrix.tobytes() == expected.tobytes()

    def test_caller_matrix_is_left_alone(self):
        m = np.eye(4)
        out = _rk4_operator(standard_line(), m, 0.0, 0.5, 0.01)
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

    def test_no_block_asks_for_more_than_two_points_per_step(self, monkeypatch):
        sizes = []
        block = CircularWorldLine._kinematics_block

        def spy(self, ss):
            sizes.append(len(ss))
            return block(self, ss)

        monkeypatch.setattr(CircularWorldLine, "_kinematics_block", spy)
        n_steps = 3 * _BLOCK + 5
        transport_operator_numeric(standard_line(), 0.0, n_steps * self.STEP, step=self.STEP)
        assert max(sizes) <= 2 * _BLOCK
        assert sizes == [1, 2 * _BLOCK, 2 * _BLOCK, 2 * _BLOCK, 10]


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

    def test_one_period_matches_corotating_exponential(self):
        line = standard_line()
        period = line.proper_period
        op = transport_operator_numeric(line, 0.0, period, step=period / 10_000)
        gen = circular_transport_generator(line)
        expected = exp_map(gen, -line.center_period)
        assert max_abs(op.matrix - expected.matrix) < 1e-7


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
