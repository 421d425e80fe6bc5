import math

import numpy as np
import pytest

import warnings

from relkin import (
    E1,
    E2,
    E3,
    TOL,
    AbsoluteVelocity,
    CircularWorldLine,
    ConstraintViolation,
    DriftViolation,
    FourVector,
    InertialWorldLine,
    LorentzMap,
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
from relkin.boosts import _boost_matrix, _relative_acceleration, _relative_velocity
from relkin.precession import PrecessionSample, _rate_matrix
from relkin.transport import GyroState
from relkin.worldlines import _invert_increasing
from helpers import DelegatingLine, max_abs, random_spacelike_unit, random_velocity


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

    def test_nan_velocity_dot_z_is_not_gyroscopic(self):
        # velocity.z is -inf + inf; before, the NaN passed and the boost overflowed
        line = InertialWorldLine(AbsoluteVelocity.from_3velocity([0.9, 0.0, 0.0]))
        huge = FourVector([1e308, 1e308, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstraintViolation, match="not gyroscopic at the requested time"):
                observe_gyroscope(AbsoluteVelocity.rest(), line, lambda s: huge, 1.0)


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


def per_sample_series(u, line, z0, t_grid, step=None, tol_drift=None):
    """precession_series one sample at a time through the scalar kernels: the
    oracle of the block pass, bytes and exceptions alike."""
    ts = [float(t) for t in t_grid]
    clock = line._frame_clock(u)
    ss = [_invert_increasing(clock, t) for t in ts]
    states = precession_module.transport_path(line, z0, ss, step=step, tol_drift=tol_drift)
    w, tol = u.components.tolist(), TOL.constraint
    samples, zs = [], []
    for t, state in zip(ts, states):
        rdot, rddot = line._kinematics_arrays(state.s)
        observed = FourVector(_boost_matrix(w, rdot, tol) @ state.z.components)
        v = _relative_velocity(w, rdot)
        a = _relative_acceleration(w, rdot, rddot, tol)
        samples.append(PrecessionSample(t, observed, LorentzMap(_rate_matrix(v, a, tol))))
        zs.append(observed.components.tolist())
    for k in range(1, len(samples) - 1):
        dt = ts[k + 1] - ts[k - 1]
        inv_dt = 1.0 / dt
        if not math.isfinite(inv_dt):
            raise ConstraintViolation(f"frame-time grid spacing {dt} is too small to difference")
        samples[k].z_dot = FourVector([(p - q) * inv_dt for p, q in zip(zs[k + 1], zs[k - 1])])
    return samples


def assert_matches_the_oracle(u, line, z0, grid, step=None):
    got = precession_series(u, line, z0, grid, step=step)
    expected = per_sample_series(u, line, z0, grid, step=step)
    assert len(got) == len(expected) == len(grid)
    for g, e in zip(got, expected):
        assert g.t == e.t
        assert g.z.components.tobytes() == e.z.components.tobytes()
        assert g.rate.matrix.tobytes() == e.rate.matrix.tobytes()
        assert not (g.z.components.flags.writeable or g.rate.matrix.flags.writeable)
        assert (g.z_dot is None) == (e.z_dot is None)
        if e.z_dot is not None:
            assert g.z_dot.components.tobytes() == e.z_dot.components.tobytes()
            assert not g.z_dot.components.flags.writeable


CENTER = AbsoluteVelocity.from_3velocity([0.3, -0.2, 0.4])
EXPLICIT = AbsoluteVelocity.from_3velocity([-0.4, 0.5, 0.2])


def _carried_plane(uc):
    carry = boost(uc, AbsoluteVelocity.rest())
    return carry(E3), carry(E1)


CIRCLES = {
    "rest": lambda speed: CircularWorldLine.from_plane(speed / 1.3, 1.3),
    "boosted": lambda speed: CircularWorldLine.from_plane(speed / 1.3, 1.3, center_velocity=CENTER),
    "plane": lambda speed: CircularWorldLine.from_plane(speed / 1.3, 1.3, plane=(E3, E1)),
    "boosted-plane": lambda speed: CircularWorldLine.from_plane(
        speed / 1.3, 1.3, plane=_carried_plane(CENTER), center_velocity=CENTER),
}


def orbit_grid(line, u, n_points):
    t_max = frame_time_of_proper_time(u, line, 0.05 * line.proper_period)
    return np.linspace(0.0, t_max, n_points)


def gyro_of(line):
    return boost(line.velocity(0.0), AbsoluteVelocity.rest())(FourVector([0.0, 0.2, -0.5, 0.8]))


class RiggedLine(InertialWorldLine):
    """A line at rest whose kinematics are replaced at chosen proper times.

    Seen from the rest frame its proper time is the frame time, so each
    grid point is the proper time of its sample.
    """

    def __init__(self, rigged):
        super().__init__(AbsoluteVelocity.rest())
        self.rigged = rigged

    def _kinematics_arrays(self, s):
        return self.rigged.get(s, self._kinematics)


def transport_gives(monkeypatch, zs):
    # the transport replaced by the given vectors at the requested proper times
    def transport(line, z0, ss, **kwargs):
        return [GyroState(s, FourVector(z)) for s, z in zip(ss, zs)]

    monkeypatch.setattr(precession_module, "transport_path", transport)


def raised(series, *args, **kwargs):
    with pytest.raises(Exception) as info:
        series(*args, **kwargs)
    return type(info.value), str(info.value)


REST4, MOVING4, ZERO4, X4 = (1.0, 0.0, 0.0, 0.0), (1.25, 0.75, 0.0, 0.0), (0.0,) * 4, (0.0, 1.0, 0.0, 0.0)
X, INF, NAN = FourVector(X4), math.inf, math.nan

# name: (observer, frame-time grid, kinematics rigged by proper time, observed-space
# vectors the transport hands over, the message the scalar path raises)
FAILING_SERIES = {
    "past-directed-at-sample-2": (
        REST4, [0.0, 1.0, 2.0, 3.0], {2.0: ((-1.0, 0.0, 0.0, 0.0), ZERO4)}, [X4] * 4,
        "future directed"),
    "earlier-sample-fails-a-later-check": (
        REST4, [0.0, 1.0, 2.0, 3.0],
        {1.0: (REST4, REST4), 3.0: ((-1.0, 0.0, 0.0, 0.0), ZERO4)}, [X4] * 4,
        "acceleration must be orthogonal"),
    "off-the-lorentz-form": (
        REST4, [0.0, 1.0, 2.0, 3.0], {3.0: ((2.0, 0.0, 0.0, 0.0), ZERO4)}, [X4] * 4,
        "does not preserve the Lorentz form"),
    "nan-acceleration": (
        REST4, [0.0, 1.0, 2.0, 3.0], {2.0: (REST4, (NAN,) * 4)}, [X4] * 4,
        "acceleration must be orthogonal"),
    "infinite-acceleration-passes-orthogonality": (
        REST4, [0.0, 1.0, 2.0, 3.0], {1.0: (MOVING4, (0.0, INF, 0.0, 0.0))}, [X4] * 4,
        "map entries must be finite"),
    "observed-vector-overflows": (
        MOVING4, [0.0, 1.0, 2.0, 3.0], {}, [X4, X4, (1e308, 1.7e308, 0.0, 0.0), X4],
        "components must be finite"),
    "observed-vector-overflows-at-an-endpoint": (
        MOVING4, [0.0, 1.0], {}, [X4, (1e308, 1.7e308, 0.0, 0.0)], "components must be finite"),
    "z-dot-overflows": (
        REST4, [0.0, 1e-308, 2e-308], {},
        [(0.0, -2.0, 0.0, 0.0), X4, (0.0, 2.0, 0.0, 0.0)], "components must be finite"),
}


class TestBlockObservation:
    """The block pass returns the per-sample oracle's bytes and raises its exceptions."""

    @pytest.mark.parametrize("kind", sorted(CIRCLES))
    @pytest.mark.parametrize("observer", ["center", "initial", "explicit"])
    def test_circular_lines(self, kind, observer):
        # seen from the initial frame a faster orbit reaches a relative speed whose
        # boosts miss the Lorentz form by more than the tolerance
        top = 0.9 if observer == "initial" else 0.99
        for speed, n_points in ((0.3, 2), (0.3, 3), (top, 2), (top, 3), (top, 1000)):
            line = CIRCLES[kind](speed)
            u = {"center": line.center_velocity, "initial": line.velocity(0.0),
                 "explicit": EXPLICIT}[observer]
            grid = orbit_grid(line, u, n_points)
            assert_matches_the_oracle(u, line, gyro_of(line), grid, line.proper_period / 2000)

    @pytest.mark.parametrize("u", [AbsoluteVelocity.rest(), EXPLICIT], ids=["rest", "explicit"])
    def test_inertial_line(self, u):
        carrier = InertialWorldLine(AbsoluteVelocity.from_3velocity([0.5, -0.2, 0.1]))
        z0 = project_spatial(carrier.velocity(0.0), FourVector([0.0, 0.0, 1.0, 0.4]))
        for n_points in (2, 3, 1000):
            assert_matches_the_oracle(u, carrier, z0, np.linspace(0.0, 5.0, n_points))

    def test_user_defined_line(self):
        # no _kinematics_block of its own: the stacked fallback serves the block pass
        line = DelegatingLine(CIRCLES["boosted-plane"](0.9))
        for n_points in (2, 3, 1000):
            assert_matches_the_oracle(EXPLICIT, line, gyro_of(line.line),
                                      orbit_grid(line.line, EXPLICIT, n_points),
                                      line.line.proper_period / 2000)

    @pytest.mark.parametrize("case", sorted(FAILING_SERIES))
    def test_raises_what_the_oracle_raises(self, case, monkeypatch):
        w, grid, rigged, zs, message = FAILING_SERIES[case]
        u, line = AbsoluteVelocity(w), RiggedLine(rigged)
        transport_gives(monkeypatch, zs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the oracle's overflowing matmul warns first
            expected = raised(per_sample_series, u, line, X, grid)
        assert expected[0] is ConstraintViolation and message in expected[1]
        assert raised(precession_series, u, line, X, grid) == expected

    def test_fast_orbit_from_the_initial_frame_raises_what_the_oracle_raises(self):
        # at rest relative to the observer at sample 0, then fast enough that a
        # later sample's boost misses the Lorentz form
        line = CIRCLES["rest"](0.99)
        u = line.velocity(0.0)
        args = (u, line, gyro_of(line), orbit_grid(line, u, 40), line.proper_period / 2000)
        expected = raised(per_sample_series, *args)
        assert "Lorentz form" in expected[1]
        assert raised(precession_series, *args) == expected

    def test_subnormal_grid_spacing_raises_what_the_oracle_raises(self):
        line = standard_line()
        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        grid = [0.0, 5e-321, 1e-320]
        expected = raised(per_sample_series, line.center_velocity, line, z0, grid)
        assert "grid spacing" in expected[1]
        assert raised(precession_series, line.center_velocity, line, z0, grid) == expected

    def test_zero_tolerance_raises_what_the_oracle_raises(self, monkeypatch):
        u, line, z0, grid, step = observed_orbit(0.6, "explicit", True, seed=5)
        transport = precession_module.transport_path

        def then_no_tolerance(*args, **kwargs):
            states = transport(*args, **kwargs)
            monkeypatch.setattr(TOL, "constraint", 0.0)
            return states

        tol = TOL.constraint
        monkeypatch.setattr(precession_module, "transport_path", then_no_tolerance)
        expected = raised(per_sample_series, u, line, z0, grid, step=step)
        assert "boost" in expected[1]
        monkeypatch.setattr(TOL, "constraint", tol)
        assert raised(precession_series, u, line, z0, grid, step=step) == expected

    def test_scalar_kernels_run_only_to_raise(self, monkeypatch):
        calls = []

        def spy(name):
            kernel = getattr(precession_module, name)
            return lambda *args: calls.append(name) or kernel(*args)

        for name in ("_boost_matrix", "_relative_velocity", "_relative_acceleration", "_rate_matrix"):
            monkeypatch.setattr(precession_module, name, spy(name))
        u, line, z0, grid, step = observed_orbit(0.9, "explicit", True, seed=9)
        precession_series(u, line, z0, grid, step=step)
        assert calls == []
        transport_gives(monkeypatch, [X4] * 4)
        rigged = RiggedLine({2.0: ((-1.0, 0.0, 0.0, 0.0), ZERO4)})
        with pytest.raises(ConstraintViolation, match="future directed"):
            precession_series(AbsoluteVelocity.rest(), rigged, X, [0.0, 1.0, 2.0, 3.0])
        assert calls == ["_boost_matrix"]

    def test_rate_rows_are_the_scalar_rates(self):
        rng = np.random.default_rng(71)
        u = random_velocity(rng, 0.9)
        v = [(random_spacelike_unit(rng, u) * rng.uniform(0.0, 0.999)).components
             for _ in range(300)]
        a = [(random_spacelike_unit(rng, u) * rng.uniform(0.0, 5.0)).components
             for _ in range(300)]
        # at rest, at the speed of light, beyond it, timelike, NaN, overflowing
        v += [np.zeros(4), [0.0, 1.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
              [np.nan, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]]
        a += [np.ones(4), np.ones(4), np.ones(4), np.ones(4), np.ones(4), [0.0, 0.0, 1e308, 0.0]]
        v, a = np.array(v), np.array(a)
        with np.errstate(all="ignore"):
            rate, ok = precession_module._rate_rows(v, a, 1e-12)
        for k in range(len(v)):
            try:
                expected = LorentzMap(precession_module._rate_matrix(
                    v[k].tolist(), a[k].tolist(), 1e-12)).matrix
            except ConstraintViolation:
                assert not ok[k]
            else:
                assert ok[k]
                assert rate[k].tobytes() == expected.tobytes()


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
