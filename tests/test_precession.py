import math

import numpy as np
import pytest

import warnings

from relkin import (
    E2,
    E3,
    TOL,
    AbsoluteVelocity,
    CircularWorldLine,
    ConstraintViolation,
    DriftViolation,
    FourVector,
    InertialWorldLine,
    boost,
    central_frame_precession,
    exp_map,
    frame_time_of_proper_time,
    initial_frame_special_instants,
    lorentz_dot,
    observe_gyroscope,
    orthonormal_spatial_frame,
    precession_rate,
    precession_series,
    project_spatial,
    proper_time_of_frame_time,
    rate_components,
    relative_acceleration,
    relative_velocity,
    transport_circular_exact,
    transport_path,
    wedge,
)

import relkin.precession as precession_module
from helpers import max_abs, random_spacelike_unit, random_velocity


def standard_line(omega=0.6, rho=1.0) -> CircularWorldLine:
    return CircularWorldLine.from_plane(omega, rho)


def exact_z_of_s(line, z0):
    lam = line.lorentz_factor
    return lambda s: transport_circular_exact(line, z0, lam * s)


class TestObserveGyroscope:
    def test_momentarily_comoving_frame_sees_the_vector_itself(self):
        line = standard_line()
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        z_of_s = exact_z_of_s(line, z0)
        s_star = 1.1
        u = line.velocity(s_star)
        t_star = frame_time_of_proper_time(u, line, s_star)
        observed = observe_gyroscope(u, line, z_of_s, t_star)
        assert max_abs(observed.components - z_of_s(s_star).components) < 1e-11

    def test_kernel_direction_unaffected_by_the_boost(self):
        line = standard_line()
        observed = observe_gyroscope(line.center_velocity, line, exact_z_of_s(line, E3), 0.0)
        assert max_abs(observed.components - E3.components) < 1e-14

    def test_magnitude_preserved(self):
        line = standard_line(0.9, 1.0)
        rng = np.random.default_rng(51)
        z0 = 1.7 * random_spacelike_unit(rng, line.initial_velocity)
        z_of_s = exact_z_of_s(line, z0)
        for _ in range(20):
            u = random_velocity(rng, 0.8)
            t = rng.uniform(-5.0, 15.0)
            observed = observe_gyroscope(u, line, z_of_s, t)
            assert abs(observed.norm() - 1.7) < 1e-10
            assert abs(lorentz_dot(u, observed)) < 1e-10

    def test_rejects_non_gyroscopic_trajectory(self):
        line = standard_line()
        with pytest.raises(ConstraintViolation):
            observe_gyroscope(line.center_velocity, line, lambda s: E2, 0.0)


class TestPrecessionRate:
    def test_zero_velocity(self):
        rate = precession_rate(FourVector(np.zeros(4)), FourVector([0.0, 0.5, 0.0, 0.0]))
        assert max_abs(rate.matrix) == 0.0

    def test_parallel_vectors(self):
        v = FourVector([0.0, 0.6, 0.0, 0.0])
        rate = precession_rate(v, -0.6 * v)
        assert max_abs(rate.matrix) == 0.0

    def test_hand_evaluated_prefactor(self):
        v = FourVector([0.0, 0.6, 0.0, 0.0])
        a = FourVector([0.0, 0.0, -0.36, 0.0])
        rate = precession_rate(v, a)
        expected = (1.5625 / 2.25) * wedge(v, a).matrix
        assert max_abs(rate.matrix - expected) < 1e-14

    def test_equals_the_numpy_formula(self):
        # the float kernel forms every entry as (gamma^2 / (1 + gamma)) * wedge(v, a) does
        rng = np.random.default_rng(51)
        for _ in range(200):
            u = random_velocity(rng, 0.9)
            v = random_spacelike_unit(rng, u) * rng.uniform(0.0, 0.99)
            a = random_spacelike_unit(rng, u) * rng.uniform(0.0, 5.0)
            gamma = 1.0 / np.sqrt(1.0 - max(lorentz_dot(v, v), 0.0))
            expected = (gamma * gamma / (1.0 + gamma)) * wedge(v, a).matrix
            assert np.array_equal(precession_rate(v, a).matrix, expected)

    def test_both_prefactor_forms_agree(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            u = AbsoluteVelocity.rest()
            v = random_spacelike_unit(rng, u) * rng.uniform(1e-6, 0.99)
            a = random_spacelike_unit(rng, u)
            speed_sq = lorentz_dot(v, v)
            gamma = 1.0 / math.sqrt(1.0 - speed_sq)
            alt = ((gamma - 1.0) / speed_sq) * wedge(v, a).matrix
            rate = precession_rate(v, a)
            scale = max_abs(alt)
            assert max_abs(rate.matrix - alt) <= 1e-12 * max(1.0, scale)

    def test_rejects_superluminal(self):
        with pytest.raises(ConstraintViolation):
            precession_rate(FourVector([0.0, 1.0, 0.0, 0.0]), E2)


class TestCentralFrame:
    def test_constant_rate_map(self):
        line = standard_line()
        rate = central_frame_precession(line)
        expected = -0.25 * line.angular_velocity.matrix
        assert max_abs(rate.matrix - expected) < 1e-14

    def test_matches_generic_rate_along_the_orbit(self):
        line = standard_line()
        q = line.radius_vector
        central = central_frame_precession(line)
        for t in np.linspace(0.0, line.center_period, 9):
            turn = exp_map(line.angular_velocity, t)
            v = turn(line.angular_velocity(q))
            a = -line.angular_rate ** 2 * turn(q)
            rate = precession_rate(v, a)
            assert max_abs(rate.matrix - central.matrix) < 1e-10

    def test_observed_series_is_constant(self):
        line = standard_line()
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        grid = np.linspace(0.0, line.center_period, 101)
        samples = precession_series(line.center_velocity, line, z0, grid)
        rates = np.array([rate_components(s.rate, line.center_velocity) for s in samples])
        assert max_abs(rates - rates[0]) < 1e-8
        assert abs(rates[0][2] - (-0.15)) < 1e-10
        for s in samples:
            assert abs(lorentz_dot(line.center_velocity, s.z)) < 1e-10
            assert max_abs(s.rate(line.center_velocity).components) < 1e-10
            assert abs(s.z.norm() - 1.0) < 1e-10


class TestPrecessionSeries:
    def test_inertial_carrier_shows_no_precession(self):
        carrier = InertialWorldLine(AbsoluteVelocity.from_3velocity([0.5, 0.0, 0.0]))
        u = AbsoluteVelocity.from_3velocity([0.0, 0.3, 0.0])
        z0 = project_spatial(carrier.velocity(0.0), FourVector([0.0, 0.0, 1.0, 0.4]))
        samples = precession_series(u, carrier, z0, np.linspace(0.0, 5.0, 21))
        for s in samples:
            assert max_abs(s.z.components - samples[0].z.components) < 1e-12
            assert max_abs(s.rate.matrix) < 1e-12

    def test_derivative_matches_rate(self):
        # coarse version of the precession-law check: the centered
        # difference of the observed vector tracks rate(z)
        line = standard_line()
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        u = line.center_velocity
        grid = np.linspace(0.0, line.center_period, 2001)
        samples = precession_series(u, line, z0, grid)
        scale = max(
            max_abs(s.rate(s.z).components) for s in samples[1:-1]
        )
        worst = max(
            max_abs(s.z_dot.components - s.rate(s.z).components)
            for s in samples[1:-1]
        )
        assert worst <= 1e-4 * scale

    def test_forwards_tol_drift(self):
        line = standard_line()
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        u = line.center_velocity
        grid = np.linspace(0.0, 0.5 * line.center_period, 5)
        step = line.proper_period / 200  # drift per step between 1e-10 and 1e-8
        precession_series(u, line, z0, grid, step=step)
        with pytest.raises(DriftViolation):
            precession_series(u, line, z0, grid, step=step, tol_drift=1e-10)

    def test_grid_validation(self):
        line = standard_line()
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ConstraintViolation):
            precession_series(line.center_velocity, line, z0, [0.0])
        with pytest.raises(ConstraintViolation):
            precession_series(line.center_velocity, line, z0, [0.0, 1.0, 0.5])


def composed_series(u, line, z0, t_grid, step):
    """precession_series as a composition of public calls, one sample at a time."""
    ts = [float(t) for t in t_grid]
    ss = [proper_time_of_frame_time(u, line, t) for t in ts]
    out = []
    for state in transport_path(line, z0, ss, step=step):
        rdot = line.velocity(state.s)
        v = relative_velocity(u, rdot)
        a = relative_acceleration(u, rdot, line.acceleration(state.s))
        out.append((boost(u, rdot)(state.z), precession_rate(v, a)))
    z_dot = [None] + [
        (out[k + 1][0] - out[k - 1][0]) * (1.0 / (ts[k + 1] - ts[k - 1]))
        for k in range(1, len(ts) - 1)
    ] + [None]
    return [(z, rate, zd) for (z, rate), zd in zip(out, z_dot)]


def observed_orbit(speed, observer, boosted, seed):
    rng = np.random.default_rng(seed)
    uc = random_velocity(rng, 0.5) if boosted else AbsoluteVelocity.rest()
    line = CircularWorldLine.from_plane(speed / 1.3, 1.3, center_velocity=uc)
    u = {"center": line.center_velocity, "initial": line.velocity(0.0),
         "explicit": random_velocity(rng, 0.6)}[observer]
    z0 = boost(line.velocity(0.0), AbsoluteVelocity.rest())(FourVector([0.0, 0.2, -0.5, 0.8]))
    t_max = frame_time_of_proper_time(u, line, 0.3 * line.proper_period)
    return u, line, z0, np.linspace(0.0, t_max, 40), line.proper_period / 4000


SERIES_CASES = [
    (speed, observer, boosted)
    for speed in (0.1, 0.6, 0.9)
    for observer in ("center", "initial", "explicit")
    for boosted in (False, True)
] + [(0.99, "center", False), (0.99, "explicit", False), (0.99, "center", True)]


class TestSeriesIsThePublicComposition:
    @pytest.mark.parametrize("speed,observer,boosted", SERIES_CASES)
    def test_circular_equals_public_calls(self, speed, observer, boosted):
        u, line, z0, grid, step = observed_orbit(speed, observer, boosted, seed=int(100 * speed))
        samples = precession_series(u, line, z0, grid, step=step)
        for sample, (z, rate, z_dot) in zip(samples, composed_series(u, line, z0, grid, step)):
            assert np.array_equal(sample.z.components, z.components)
            assert np.array_equal(sample.rate.matrix, rate.matrix)
            if z_dot is None:
                assert sample.z_dot is None
            else:
                assert np.array_equal(sample.z_dot.components, z_dot.components)

    def test_inertial_equals_public_calls(self):
        carrier = InertialWorldLine(AbsoluteVelocity.from_3velocity([0.5, -0.2, 0.1]))
        u = AbsoluteVelocity.from_3velocity([0.0, 0.3, 0.4])
        z0 = project_spatial(carrier.velocity(0.0), FourVector([0.0, 0.0, 1.0, 0.4]))
        grid = np.linspace(0.0, 5.0, 21)
        samples = precession_series(u, carrier, z0, grid)
        for sample, (z, rate, z_dot) in zip(samples, composed_series(u, carrier, z0, grid, None)):
            assert np.array_equal(sample.z.components, z.components)
            assert np.array_equal(sample.rate.matrix, rate.matrix)
            assert (sample.z_dot is None) == (z_dot is None)
            if z_dot is not None:
                assert np.array_equal(sample.z_dot.components, z_dot.components)

    def test_series_runs_the_boost_checks(self, monkeypatch):
        # with no tolerance left once transport is done, the boost checks reject roundoff
        u, line, z0, grid, step = observed_orbit(0.6, "explicit", True, seed=5)
        transport = precession_module.transport_path

        def then_no_tolerance(*args, **kwargs):
            states = transport(*args, **kwargs)
            monkeypatch.setattr(TOL, "constraint", 0.0)
            return states

        monkeypatch.setattr(precession_module, "transport_path", then_no_tolerance)
        with pytest.raises(ConstraintViolation, match="boost"):
            precession_series(u, line, z0, grid, step=step)

    def test_subnormal_grid_spacing_is_a_constraint_violation(self):
        line = standard_line()
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            with pytest.raises(ConstraintViolation, match="grid spacing"):
                precession_series(line.center_velocity, line, z0, [0.0, 5e-321, 1e-320])


def nine_dot_rate_components(rate, u, frame):
    # the reference formula: the full matrix fi . rate(fj), then three of its entries
    m = np.array([[lorentz_dot(fi, rate(fj)) for fj in frame] for fi in frame])
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


class TestRateComponents:
    def test_equals_nine_dot_reference(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            u = random_velocity(rng, 0.9)
            frame = orthonormal_spatial_frame(u)
            v = random_spacelike_unit(rng, u) * rng.uniform(0.0, 0.95)
            a = random_spacelike_unit(rng, u) * rng.uniform(0.0, 3.0)
            for rate in (precession_rate(v, a), wedge(FourVector(rng.normal(size=4)),
                                                     FourVector(rng.normal(size=4)))):
                expected = nine_dot_rate_components(rate, u, frame)
                assert np.array_equal(rate_components(rate, u, frame), expected)
                assert np.array_equal(rate_components(rate, u), expected)


class TestInitialFrameInstants:
    def test_even_instants_are_quiet(self):
        line = standard_line()
        for n in (1, 2, 3):
            inst = initial_frame_special_instants(line, n)
            assert max_abs(inst.even.velocity.components) == 0.0
            assert max_abs(inst.even.rate.matrix) == 0.0
            lam_s = line.lorentz_factor * inst.even.proper_time
            assert abs(lam_s - 2 * n * math.pi / line.angular_rate) < 1e-12
            assert abs(
                line.initial_time_of_proper_time(inst.even.proper_time) - inst.even.frame_time
            ) < 1e-10

    def test_even_instants_match_generic_pipeline(self):
        line = standard_line()
        u0 = line.initial_velocity
        for n in (1, 2, 3):
            s = initial_frame_special_instants(line, n).even.proper_time
            v = relative_velocity(u0, line.velocity(s))
            a = relative_acceleration(u0, line.velocity(s), line.acceleration(s))
            assert max_abs(v.components) < 1e-10
            assert max_abs(precession_rate(v, a).matrix) < 1e-10

    def test_odd_instant_closed_forms_match_generic_pipeline(self):
        for speed in (0.3, 0.6, 0.9):
            line = standard_line(speed, 1.0)
            u0 = line.initial_velocity
            inst = initial_frame_special_instants(line, 1).odd
            rdot = line.velocity(inst.proper_time)
            v = relative_velocity(u0, rdot)
            a = relative_acceleration(u0, rdot, line.acceleration(inst.proper_time))
            assert max_abs(v.components - inst.velocity.components) < 1e-12
            assert max_abs(a.components - inst.acceleration.components) < 1e-12
            pipeline = precession_rate(v, a)
            assert max_abs(pipeline.matrix - inst.rate.matrix) < 1e-8
            assert inst.velocity.norm() < 1.0

    def test_odd_instant_hand_values(self):
        line = standard_line()
        inst = initial_frame_special_instants(line, 1).odd
        # -(2 lam / (1 + x)) (x uc + Om q) with lam = 1.25, x = 0.36
        expected_v = [-2.5 * 0.36 / 1.36, 0.0, -2.5 * 0.6 / 1.36, 0.0]
        assert max_abs(inst.velocity.components - expected_v) < 1e-12
        expected_a = [0.0, 0.64 * 0.36 / 1.36 ** 2, 0.0, 0.0]
        assert max_abs(inst.acceleration.components - expected_a) < 1e-12

    def test_rate_kills_observer(self):
        line = standard_line(0.9, 1.0)
        inst = initial_frame_special_instants(line, 2)
        moved = inst.odd.rate(line.initial_velocity)
        assert max_abs(moved.components) < 1e-12

    def test_rejects_bad_index(self):
        with pytest.raises(ConstraintViolation):
            initial_frame_special_instants(standard_line(), 0)


class TestFrameDependence:
    def test_same_gyroscope_precesses_differently(self):
        line = standard_line()
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        center_grid = np.linspace(0.0, line.center_period, 257)
        center = precession_series(line.center_velocity, line, z0, center_grid)
        center_mags = [float(np.linalg.norm(rate_components(s.rate, line.center_velocity)))
                       for s in center]
        assert max(center_mags) - min(center_mags) <= 1e-8

        u0 = line.initial_velocity
        initial_grid = np.linspace(0.0, line.initial_time_of_proper_time(line.proper_period), 257)
        initial = precession_series(u0, line, z0, initial_grid)
        initial_mags = [float(np.linalg.norm(rate_components(s.rate, u0))) for s in initial]
        assert max(initial_mags) - min(initial_mags) >= 0.01
