"""Seeded workloads for the relkin benchmark: ops, output checks, rebuilt paths.

Every op has three parts:

* ``run``: the one-call path a user would take, timed by the runner;
* ``output``: the op's result as bytes (CSV or ``key = value`` report
  lines in the CLI's 17-digit format), made outside the timed region;
* ``check``: compares the bytes with an independent reference and
  returns the largest deviation and a failure message or None.

``rebuild`` repeats the op one public call at a time inside tracer spans;
the traced runner requires its bytes to equal the one-call bytes.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import yaml

from relkin import (
    AbsoluteVelocity,
    CircularWorldLine,
    FourVector,
    PrecessionSample,
    SpatialRotation,
    boost,
    central_frame_precession,
    circular_thomas_angle,
    coplanar,
    frame_time_of_proper_time,
    lorentz_dot,
    orthonormal_spatial_frame,
    precession_rate,
    precession_series,
    proper_time_of_frame_time,
    rate_components,
    relative_acceleration,
    relative_velocity,
    rotation_angle_axis,
    thomas_rotation_circular,
    thomas_rotation_discrete,
    thomas_rotation_general,
    transport_circular_exact,
    transport_path,
)
from relkin.cli import emit_csv, run_scenario

from spans import TracedCircular, TracedInertial, Tracer

REST = AbsoluteVelocity.rest()
PRECESS_HEADER = ["t", "zt", "zx", "zy", "zz", "rate_1", "rate_2", "rate_3", "rate_mag"]
TRANSPORT_HEADER = ["s", "zt", "zx", "zy", "zz", "vel_dot_z", "mag_drift"]
METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])

# Speeds at which every op of the timed workloads completes at this commit.
# Above them boost()'s absolute 1e-12 Lorentz-form check starts rejecting
# valid inputs (ROADMAP item 3); the near-c census of closed-form covers
# that band and lists the failures.
CHAIN_SPEED_MAX = 0.93      # pairwise gamma of a triangle stays below 14
ORBIT_SPEED_MAX = 0.96      # orbital speed for the rotation closed forms,
ORBIT_CENTER_MAX = 0.3      # with centre speed at most 0.3
OBSERVE_SPEED_MAX = 0.99    # orbital speed on observe-dense
INITIAL_OBSERVER_MAX = 0.95  # the half-orbit boost fails above this speed

OBSERVE_STEPS = 2000        # explicit RK4 step: proper period / 2000
OBSERVE_SPAN = 0.125        # of a proper period: 250 steps per op
OBSERVE_POINTS = (80, 120, 160)  # one to three RK4 steps per output segment
OBSERVE_OPS = 24
# A closed-form call takes about a millisecond and a shared virtual machine
# preempts the process for 4 to 40 ms at a time, so ops are batches of calls
# of one kind: one triangle batch (the fastest op), six orbit batches, one
# batch of all compose files (the slowest op).  The median op is then the middle of the
# orbit batches, and the tail the compose batch's own repetitions rather
# than the preemptions.
BATCH = 25
TRIANGLE_OPS, ORBIT_OPS, COMPOSE_OPS = 25, 150, 50
# rotation_angle_axis leaves its axial formula for an eigenvector route
# when cos(angle) < -0.999 and then loses up to ~1e-5 rad; the timed orbits
# keep their Thomas angle this far from pi and the census covers the rest
NEAR_PI = 0.05
CENSUS_EACH = 40

OBSERVE_TOL = 1e-5          # RK4 at P/2000 over a whole period at speed 0.99: 5e-7
EXACT_TOL = 1e-9


def fmt(x) -> str:
    # the CLI's number format: 17 significant digits, negative zero folded
    return format(float(x) + 0.0, ".16e")


def report_bytes(pairs) -> bytes:
    return "".join(f"{k} = {v}\n" for k, v in pairs).encode()


def parse_report(data: bytes) -> dict[str, str]:
    out = {}
    for line in data.decode().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def parse_csv(data: bytes) -> np.ndarray:
    lines = data.decode().splitlines()[1:]
    return np.array([[float(x) for x in line.split(",")] for line in lines])


def numbers(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split()])


def axis_text(axis) -> str:
    return "none" if axis is None else " ".join(fmt(c) for c in axis.components)


def unit3(rng) -> np.ndarray:
    d = rng.normal(size=3)
    return d / np.linalg.norm(d)


def velocity3(rng, vmax: float, vmin: float = 0.0) -> np.ndarray:
    return unit3(rng) * rng.uniform(vmin, vmax)


def plane3(rng) -> tuple[np.ndarray, np.ndarray]:
    a = unit3(rng)
    b = unit3(rng)
    b = b - a * (a @ b)
    return a, b / np.linalg.norm(b)


# --- independent references -------------------------------------------------

def _gamma_minus_one(v1: np.ndarray, v2: np.ndarray) -> float:
    """gamma - 1 of the relative speed of two 3-velocities, without cancellation."""
    g1sq = 1.0 / (1.0 - v1 @ v1)
    g2sq = 1.0 / (1.0 - v2 @ v2)
    d = v1 - v2
    c = np.cross(v1, v2)
    s = g1sq * g2sq * (d @ d - c @ c)       # gamma^2 - 1
    return s / (math.sqrt(1.0 + s) + 1.0)


def wigner_angle(v0, v1, v2) -> float:
    """Thomas-Wigner angle of the boost chain around the triangle v0, v1, v2.

    cos(theta) = (1+g1+g2+g12)^2 / ((1+g1)(1+g2)(1+g12)) - 1, rewritten in
    a = g1 - 1, ... so that small angles keep their digits:
    sin^2(theta/2) = (Heron(sqrt a, sqrt b, sqrt c) + 2abc) / (2 (2+a)(2+b)(2+c)).
    """
    a = _gamma_minus_one(v0, v1)
    b = _gamma_minus_one(v1, v2)
    c = _gamma_minus_one(v0, v2)
    x, y, z = sorted((math.sqrt(a), math.sqrt(b), math.sqrt(c)), reverse=True)
    heron = (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))
    h = (heron + 2.0 * a * b * c) / (2.0 * (2.0 + a) * (2.0 + b) * (2.0 + c))
    return 2.0 * math.atan2(math.sqrt(max(h, 0.0)), math.sqrt(max(1.0 - h, 0.0)))


def reduced_thomas_angle(speed: float) -> float:
    lam = 1.0 / math.sqrt(1.0 - speed * speed)
    angle = math.remainder(2.0 * math.pi * (1.0 - lam), 2.0 * math.pi)
    return math.pi if angle <= -math.pi else angle


def check_rotation_report(rep: dict, v0, v1, v2) -> tuple[float, str | None]:
    """Angle, axis and coplanarity of a chain report against Wigner."""
    angle = float(rep["angle_rad"])
    err = abs(abs(angle) - wigner_angle(v0, v1, v2))
    if not err <= EXACT_TOL:
        return err, f"angle {angle} is {err} off the Wigner closed form"
    if rep["axis"] != "none":
        axis = numbers(rep["axis"])
        u = np.array([1.0, *v0]) / math.sqrt(1.0 - v0 @ v0)
        if not abs(axis @ METRIC @ axis - 1.0) <= EXACT_TOL:
            return err, "axis is not a unit vector"
        if not abs(u @ METRIC @ axis) <= EXACT_TOL * max(1.0, abs(axis).max()):
            return err, "axis is not a space vector of the frame"
    if rep["coplanar"] == "true" and not abs(angle) <= 1e-8:
        return err, "coplanar chain with a nonzero rotation"
    return err, None


def observe_reference(line, u, z0, t_grid) -> tuple[np.ndarray, np.ndarray]:
    """Exactly transported gyroscope seen by ``u`` at each frame time, and u's frame."""
    frame = np.array([f.components for f in orthonormal_spatial_frame(u)])
    ref = []
    for t in t_grid:
        s = proper_time_of_frame_time(u, line, t)
        z = transport_circular_exact(line, z0, line.lorentz_factor * s)
        ref.append(boost(u, line.velocity(s))(z).components)
    return np.array(ref), frame


def check_observed(rows, t_grid, ref, frame, u, central) -> tuple[float, str | None]:
    """Observed gyroscope rows (t, z, rate, |rate|) against the exact operator."""
    if rows.shape != (len(t_grid), 9) or not np.array_equal(rows[:, 0], t_grid):
        return math.inf, "frame-time grid differs from the requested one"
    z = rows[:, 1:5]
    err = float(np.linalg.norm((z - ref) @ METRIC @ frame.T, axis=1).max())
    if not err <= OBSERVE_TOL:
        return err, f"observed gyroscope is {err} off the exact operator"
    scale = max(1.0, float(np.abs(z).max()))
    ortho = float(np.abs(z @ METRIC @ u.components).max())
    if not ortho <= 1e-8 * scale:
        return err, f"observed gyroscope leaves the observer's space by {ortho}"
    mag = float(np.abs(np.sqrt(np.einsum("ij,jk,ik->i", z, METRIC, z)) - 1.0).max())
    if not mag <= 1e-8:
        return err, f"observed gyroscope magnitude drifts by {mag}"
    rate_err = float(np.abs(np.linalg.norm(rows[:, 5:8], axis=1) - rows[:, 8]).max())
    if central is not None:
        rate_err = max(rate_err, float(np.abs(rows[:, 5:8] - central).max()))
    if not rate_err <= EXACT_TOL:
        return max(err, rate_err), f"precession rate is {rate_err} off"
    return max(err, rate_err), None


# --- step counts ------------------------------------------------------------

def rk4_steps(s1: float, s2: float, step: float) -> int:
    """Steps the fixed-step RK4 loop takes from s1 to s2, partial step included."""
    total = s2 - s1
    if total == 0.0:
        return 0
    n_full = int(abs(total) // step)
    h = math.copysign(step, total)
    s = s1
    for _ in range(n_full):
        s += h
    return n_full + (abs(s2 - s) > 1e-15 * max(1.0, abs(s2)))


def path_steps(line, ss, s_start: float, step: float | None) -> int:
    """RK4 steps of transport_path under the step policy of this commit.

    The explicit step, else proper period / 10 000 on circular lines and
    span / 10 000 per output segment on other lines.
    """
    ss = [float(s) for s in ss]
    first_fwd = next((i for i, s in enumerate(ss) if s >= s_start), len(ss))
    n = 0
    for order in (range(first_fwd, len(ss)), range(first_fwd - 1, -1, -1)):
        cur = s_start
        for i in order:
            if step is not None:
                h = float(step)
            elif isinstance(line, CircularWorldLine):
                h = line.proper_period / 10_000
            else:
                h = abs(ss[i] - cur) / 10_000 or 1.0
            n += rk4_steps(cur, ss[i], h)
            cur = ss[i]
    return n


# --- rebuilt library paths --------------------------------------------------

def traced_line(tr: Tracer, line):
    line.tracer = tr
    return line


def chain_rebuilt(tr: Tracer, u, u1, u2):
    """thomas_rotation_discrete, one boost at a time."""
    T = tr.call

    def body():
        m = (T("boosts.boost", boost, u, u2).matrix @ T("boosts.boost", boost, u2, u1).matrix
             @ T("boosts.boost", boost, u1, u).matrix)
        return T("boosts.SpatialRotation", SpatialRotation, m, u, tol=1e-10)

    return T("boosts.thomas_rotation_discrete", body)


def precession_series_rebuilt(tr: Tracer, u, line, z0, t_grid, step):
    """precession_series, one layer call at a time."""
    T = tr.call
    ss: list[float] = []

    def body():
        ts = [float(t) for t in t_grid]
        ss.extend(T("worldlines.proper_time_of_frame_time", proper_time_of_frame_time, u, line, t)
                  for t in ts)
        states = T("transport.transport_path", transport_path, line, z0, ss, step=step)
        samples = []
        for t, state in zip(ts, states):
            rdot = T("worldlines.velocity", line.velocity, state.s)
            observed = T("minkowski.apply", T("boosts.boost", boost, u, rdot), state.z)
            v = T("boosts.relative_velocity", relative_velocity, u, rdot)
            a = T("boosts.relative_acceleration", relative_acceleration, u, rdot,
                  T("worldlines.acceleration", line.acceleration, state.s))
            rate = T("precession.precession_rate", precession_rate, v, a)
            samples.append(PrecessionSample(t, observed, rate))
        for k in range(1, len(samples) - 1):
            dt = ts[k + 1] - ts[k - 1]
            samples[k].z_dot = (samples[k + 1].z - samples[k - 1].z) * (1.0 / dt)
        return samples

    samples = T("precession.precession_series", body)
    tr.count("rk4_steps", path_steps(line, ss, 0.0, step))
    tr.count("samples", len(samples))
    return samples


def precess_rows_rebuilt(tr: Tracer, samples, u, path):
    T = tr.call
    frame = T("minkowski.orthonormal_spatial_frame", orthonormal_spatial_frame, u)
    rows = []
    for sample in samples:
        rc = T("precession.rate_components", rate_components, sample.rate, u, frame)
        rows.append([sample.t, *sample.z.components, *rc, float(np.linalg.norm(rc))])
    tr.count("csv_rows", len(rows))
    return T("cli.emit_csv", emit_csv, PRECESS_HEADER, rows, path)


def gyro_rebuilt(tr: Tracer, line, s, g3):
    T = tr.call
    carry = T("boosts.boost", boost, T("worldlines.velocity", line.velocity, s), REST)
    return T("minkowski.apply", carry, T("minkowski.FourVector", FourVector, [0.0, *g3]))


def velocity_rebuilt(tr: Tracer, v3):
    return tr.call("minkowski.from_3velocity", AbsoluteVelocity.from_3velocity,
                   np.asarray(v3, dtype=float))


def _scenario_line(tr: Tracer, cfg: dict):
    if cfg.get("type") == "inertial":
        u = velocity_rebuilt(tr, cfg["velocity"])
        return traced_line(tr, tr.call("worldlines.InertialWorldLine", TracedInertial, u))
    center = cfg.get("center_velocity")
    uc = REST if center is None else velocity_rebuilt(tr, center)
    line = tr.call("worldlines.from_plane", TracedCircular.from_plane, float(cfg["omega"]),
                   float(cfg["rho"]), center_velocity=uc)
    return traced_line(tr, line)


def _compose_rebuilt(tr: Tracer, cfg: dict, out: Path) -> Path:
    T = tr.call
    u1 = velocity_rebuilt(tr, cfg["velocity1"])
    u2 = velocity_rebuilt(tr, cfg["velocity2"])
    rotation = chain_rebuilt(tr, REST, u1, u2)
    angle, axis = T("boosts.rotation_angle_axis", rotation_angle_axis, rotation)
    flat = T("boosts.coplanar", coplanar, REST, u1, u2)
    out.write_bytes(report_bytes([
        ("kind", "boost-compose"),
        ("coplanar", "true" if flat else "false"),
        ("angle_rad", fmt(angle)),
        ("axis", axis_text(axis)),
    ]))
    return out


def _circular_thomas_rebuilt(tr: Tracer, cfg: dict, out: Path) -> Path:
    T = tr.call
    line = _scenario_line(tr, cfg)
    exact = T("transport.circular_thomas_angle", circular_thomas_angle, line)
    rotation = T("transport.thomas_rotation_circular", thomas_rotation_circular, line)
    operator_angle, axis = T("boosts.rotation_angle_axis", rotation_angle_axis, rotation)
    step = cfg.get("step")
    numeric = T("transport.thomas_rotation_general", thomas_rotation_general, line, 0.0,
                line.proper_period, step=step)
    tr.count("rk4_steps", rk4_steps(0.0, line.proper_period, step or line.proper_period / 10_000))
    numeric_angle, _ = T("boosts.rotation_angle_axis", rotation_angle_axis, numeric)
    out.write_bytes(report_bytes([
        ("kind", "circular-thomas"),
        ("orbital_speed", fmt(line.orbital_speed)),
        ("time_dilation", fmt(line.lorentz_factor)),
        ("closed_form_angle_rad", fmt(exact.reduced)),
        ("closed_form_angle_unreduced_rad", fmt(exact.unreduced)),
        ("winding", fmt(exact.winding)),
        ("operator_angle_rad", fmt(operator_angle)),
        ("numeric_angle_rad", fmt(numeric_angle)),
        ("closed_minus_numeric_rad", fmt(exact.reduced - numeric_angle)),
        ("axis", axis_text(axis)),
    ]))
    return out


def _transport_rebuilt(tr: Tracer, cfg: dict, out: Path) -> Path:
    T = tr.call
    line = _scenario_line(tr, cfg["worldline"])
    s_min, s_max = float(cfg["s_min"]), float(cfg["s_max"])
    z0 = gyro_rebuilt(tr, line, s_min, cfg["gyro"])
    norm0 = T("minkowski.norm", z0.norm)
    ss = np.linspace(s_min, s_max, cfg["n_points"])
    step = cfg.get("step")
    states = T("transport.transport_path", transport_path, line, z0, ss, s_start=s_min, step=step)
    tr.count("rk4_steps", path_steps(line, ss, s_min, step))
    rows = []
    for state in states:
        rdot = T("worldlines.velocity", line.velocity, state.s)
        rows.append([state.s, *state.z.components,
                     T("minkowski.lorentz_dot", lorentz_dot, rdot, state.z),
                     T("minkowski.norm", state.z.norm) - norm0])
    tr.count("csv_rows", len(rows))
    return T("cli.emit_csv", emit_csv, TRANSPORT_HEADER, rows, out)


def _precess_rebuilt(tr: Tracer, cfg: dict, out: Path) -> Path:
    line = _scenario_line(tr, cfg["worldline"])
    frame = cfg["frame"]
    if frame == "center":
        u = line.center_velocity
    elif frame in ("initial", "u0"):
        u = tr.call("worldlines.velocity", line.velocity, 0.0)
    else:
        u = velocity_rebuilt(tr, frame)
    z0 = gyro_rebuilt(tr, line, 0.0, cfg["gyro"])
    t_grid = np.linspace(float(cfg["t_min"]), float(cfg["t_max"]), cfg["n_points"])
    samples = precession_series_rebuilt(tr, u, line, z0, t_grid, cfg.get("step"))
    return precess_rows_rebuilt(tr, samples, u, out)


_REBUILDERS = {
    "boost-compose": (_compose_rebuilt, ".report.txt"),
    "circular-thomas": (_circular_thomas_rebuilt, ".report.txt"),
    "transport": (_transport_rebuilt, ".csv"),
    "precess": (_precess_rebuilt, ".csv"),
}


def scenario_rebuilt(tr: Tracer, path: Path, out_dir: Path) -> Path:
    """run_scenario for the fields the committed and generated scenarios use."""

    def body():
        cfg = yaml.safe_load(path.read_text())
        rebuild, suffix = _REBUILDERS[cfg["kind"]]
        return rebuild(tr, cfg, out_dir / (path.stem + suffix))

    return tr.call("cli.run_scenario", body)


# --- ops --------------------------------------------------------------------

class ScenarioOp:
    """One committed scenario through run_scenario, compared with its golden file."""

    def __init__(self, path: Path, golden: Path):
        self.path = path
        self.name = path.stem
        self.golden = golden.read_bytes()
        self.cfg = yaml.safe_load(path.read_text())
        self.kind = self.cfg["kind"]
        self._ref = None

    def run(self, out_dir):
        return run_scenario(self.path, out_dir=out_dir)

    def rebuild(self, tr, out_dir):
        return scenario_rebuilt(tr, self.path, out_dir)

    def output(self, raw) -> bytes:
        return Path(raw).read_bytes()

    def check(self, data: bytes):
        err = self._error(data)
        if data != self.golden:
            return err, f"{self.name} output differs from the golden file"
        return err, None

    def _error(self, data: bytes) -> float:
        cfg = self.cfg
        kind = cfg["kind"]
        if kind == "boost-compose":
            rep = parse_report(data)
            v1, v2 = np.array(cfg["velocity1"], float), np.array(cfg["velocity2"], float)
            return abs(abs(float(rep["angle_rad"])) - wigner_angle(np.zeros(3), v1, v2))
        if kind == "circular-thomas":
            rep = parse_report(data)
            closed = float(rep["closed_form_angle_rad"])
            return max(abs(float(rep["numeric_angle_rad"]) - closed),
                       abs(float(rep["operator_angle_rad"]) - closed))
        rows = parse_csv(data)
        if kind == "transport":
            # an inertial carrier leaves the needle exactly where it started
            z0 = rows[0, 1:5]
            return float(max(np.abs(rows[:, 1:5] - z0).max(), np.abs(rows[:, 5:7]).max()))
        if self._ref is None:
            # the committed precess scenario: centre frame of a rest-centred orbit
            wl = cfg["worldline"]
            line = CircularWorldLine.from_plane(float(wl["omega"]), float(wl["rho"]))
            u = line.center_velocity
            z0 = boost(line.velocity(0.0), REST)(FourVector([0.0, *cfg["gyro"]]))
            t_grid = np.linspace(float(cfg["t_min"]), float(cfg["t_max"]), cfg["n_points"])
            ref, frame = observe_reference(line, u, z0, t_grid)
            central = rate_components(central_frame_precession(line), u)
            self._ref = (t_grid, ref, frame, u, central)
        return check_observed(rows, *self._ref)[0]


class ObserveOp:
    """precession_series of a seeded orbit on a dense frame-time grid, as CSV."""

    kind = "observe"

    def __init__(self, rng, speed: float, observer: str, boosted: bool, n_points: int,
                 out_name: str, in_plane: bool = False):
        self.name = f"observe-{observer}"
        self.speed = speed
        self.rho = float(rng.uniform(0.5, 2.0))
        self.center = velocity3(rng, 0.5) if boosted else None
        self.plane = plane3(rng)
        self.observer = observer
        self.w3 = velocity3(rng, 0.6)
        # a radial needle precesses fully in the orbital plane: the worst case
        self.gyro = self.plane[0] if in_plane else unit3(rng)
        self.n_points = n_points
        self.out_name = out_name
        self._ref = None

    def _objects(self):
        uc = REST if self.center is None else AbsoluteVelocity.from_3velocity(self.center)
        carry = boost(uc, REST)
        plane = tuple(carry(FourVector([0.0, *p])) for p in self.plane)
        line = CircularWorldLine.from_plane(self.speed / self.rho, self.rho, plane=plane,
                                            center_velocity=uc)
        if self.observer == "center":
            u = line.center_velocity
        elif self.observer == "initial":
            u = line.velocity(0.0)
        else:
            u = AbsoluteVelocity.from_3velocity(self.w3)
        z0 = boost(line.velocity(0.0), REST)(FourVector([0.0, *self.gyro]))
        period = line.proper_period
        t_max = frame_time_of_proper_time(u, line, OBSERVE_SPAN * period)
        t_grid = np.linspace(0.0, t_max, self.n_points)
        return line, u, z0, t_grid, period / OBSERVE_STEPS

    def run(self, out_dir):
        line, u, z0, t_grid, step = self._objects()
        samples = precession_series(u, line, z0, t_grid, step=step)
        frame = orthonormal_spatial_frame(u)
        rows = []
        for sample in samples:
            rc = rate_components(sample.rate, u, frame)
            rows.append([sample.t, *sample.z.components, *rc, float(np.linalg.norm(rc))])
        return emit_csv(PRECESS_HEADER, rows, Path(out_dir) / self.out_name)

    def rebuild(self, tr, out_dir):
        T = tr.call
        uc = REST if self.center is None else velocity_rebuilt(tr, self.center)
        carry = T("boosts.boost", boost, uc, REST)
        plane = tuple(T("minkowski.apply", carry, T("minkowski.FourVector", FourVector, [0.0, *p]))
                      for p in self.plane)
        line = traced_line(tr, T("worldlines.from_plane", TracedCircular.from_plane,
                                 self.speed / self.rho, self.rho, plane=plane, center_velocity=uc))
        if self.observer == "center":
            u = line.center_velocity
        elif self.observer == "initial":
            u = T("worldlines.velocity", line.velocity, 0.0)
        else:
            u = velocity_rebuilt(tr, self.w3)
        z0 = gyro_rebuilt(tr, line, 0.0, self.gyro)
        period = line.proper_period
        t_max = T("worldlines.frame_time_of_proper_time", frame_time_of_proper_time, u, line,
                  OBSERVE_SPAN * period)
        t_grid = np.linspace(0.0, t_max, self.n_points)
        samples = precession_series_rebuilt(tr, u, line, z0, t_grid, period / OBSERVE_STEPS)
        return precess_rows_rebuilt(tr, samples, u, Path(out_dir) / self.out_name)

    def output(self, raw) -> bytes:
        return Path(raw).read_bytes()

    def check(self, data: bytes):
        if self._ref is None:
            line, u, z0, t_grid, _ = self._objects()
            ref, frame = observe_reference(line, u, z0, t_grid)
            central = None
            if self.observer == "center":
                central = rate_components(central_frame_precession(line), u)
            self._ref = (t_grid, ref, frame, u, central)
        return check_observed(parse_csv(data), *self._ref)


class TriangleOp:
    """Residual rotation of the boost chain around a seeded velocity triangle."""

    def __init__(self, vs, kind="triangle"):
        self.name = self.kind = kind
        self.vs = [np.asarray(v, dtype=float) for v in vs]

    def run(self, out_dir):
        u, u1, u2 = (AbsoluteVelocity.from_3velocity(v) for v in self.vs)
        angle, axis = rotation_angle_axis(thomas_rotation_discrete(u, u1, u2))
        return angle, axis, coplanar(u, u1, u2)

    def rebuild(self, tr, out_dir):
        u, u1, u2 = (velocity_rebuilt(tr, v) for v in self.vs)
        rotation = chain_rebuilt(tr, u, u1, u2)
        angle, axis = tr.call("boosts.rotation_angle_axis", rotation_angle_axis, rotation)
        return angle, axis, tr.call("boosts.coplanar", coplanar, u, u1, u2)

    def output(self, raw) -> bytes:
        angle, axis, flat = raw
        return report_bytes([("coplanar", "true" if flat else "false"),
                             ("angle_rad", fmt(angle)), ("axis", axis_text(axis))])

    def check(self, data: bytes):
        return check_rotation_report(parse_report(data), *self.vs)


class OrbitOp:
    """Closed forms of a seeded circular orbit: Thomas angle, operator, exact transport."""

    kind = "orbit"

    def __init__(self, rng, speed: float, center_speed_max: float, boosted: bool):
        self.name = "orbit"
        self.speed = speed
        self.rho = float(rng.uniform(0.5, 2.0))
        self.center = velocity3(rng, center_speed_max) if boosted else None
        self.plane = plane3(rng)
        self.gyro = unit3(rng)

    def run(self, out_dir):
        uc = REST if self.center is None else AbsoluteVelocity.from_3velocity(self.center)
        carry = boost(uc, REST)
        plane = tuple(carry(FourVector([0.0, *p])) for p in self.plane)
        line = CircularWorldLine.from_plane(self.speed / self.rho, self.rho, plane=plane,
                                            center_velocity=uc)
        return self._closed_forms(line, lambda name, fn, *a: fn(*a))

    def rebuild(self, tr, out_dir):
        T = tr.call
        uc = REST if self.center is None else velocity_rebuilt(tr, self.center)
        carry = T("boosts.boost", boost, uc, REST)
        plane = tuple(T("minkowski.apply", carry, T("minkowski.FourVector", FourVector, [0.0, *p]))
                      for p in self.plane)
        line = traced_line(tr, T("worldlines.from_plane", TracedCircular.from_plane,
                                 self.speed / self.rho, self.rho, plane=plane, center_velocity=uc))
        return self._closed_forms(line, T)

    def _closed_forms(self, line, T):
        closed = T("transport.circular_thomas_angle", circular_thomas_angle, line)
        rotation = T("transport.thomas_rotation_circular", thomas_rotation_circular, line)
        angle, _ = T("boosts.rotation_angle_axis", rotation_angle_axis, rotation)
        carry = T("boosts.boost", boost, line.initial_velocity, REST)
        z0 = T("minkowski.apply", carry, T("minkowski.FourVector", FourVector, [0.0, *self.gyro]))
        z_turn = T("transport.transport_circular_exact", transport_circular_exact, line, z0,
                   line.center_period)
        rate = T("precession.central_frame_precession", central_frame_precession, line)
        rc = T("precession.rate_components", rate_components, rate, line.center_velocity)
        return closed.reduced, angle, z0, T("minkowski.apply", rotation, z0), z_turn, rc, line

    def output(self, raw) -> bytes:
        closed, angle, z0, z_rot, z_turn, rc, line = raw
        vec = lambda x: " ".join(fmt(c) for c in np.asarray(getattr(x, "components", x)))
        return report_bytes([
            ("closed_form_angle_rad", fmt(closed)),
            ("operator_angle_rad", fmt(angle)),
            ("angular_rate", fmt(line.angular_rate)),
            ("orbital_speed", fmt(line.orbital_speed)),
            ("z0", vec(z0)),
            ("operator_z", vec(z_rot)),
            ("exact_z", vec(z_turn)),
            ("central_rate", vec(rc)),
        ])

    def check(self, data: bytes):
        rep = parse_report(data)
        speed = float(rep["orbital_speed"])
        if not abs(speed - self.speed) <= 1e-12:
            return math.inf, f"orbital speed {speed} is not the requested {self.speed}"
        closed = float(rep["closed_form_angle_rad"])
        if not abs(closed - reduced_thomas_angle(speed)) <= EXACT_TOL:
            return math.inf, f"closed-form angle {closed} is not 2 pi (1 - gamma)"
        # the reported axis is canonicalised, so only the angle's size is comparable
        err = abs(abs(float(rep["operator_angle_rad"])) - abs(closed))
        z0, z_rot, z_turn = (numbers(rep[k]) for k in ("z0", "operator_z", "exact_z"))
        scale = max(1.0, float(np.abs(z0).max()))
        err = max(err, float(np.abs(z_turn - z_rot).max()) / scale)
        lam = 1.0 / math.sqrt(1.0 - speed * speed)
        rate = float(np.linalg.norm(numbers(rep["central_rate"])))
        err = max(err, abs(rate - (lam - 1.0) * float(rep["angular_rate"])))
        mag = abs(z_turn @ METRIC @ z_turn - z0 @ METRIC @ z0) / scale ** 2
        if not max(err, mag) <= EXACT_TOL:
            return max(err, mag), f"orbit closed forms disagree by {max(err, mag)}"
        return err, None


class ComposeOp:
    """A generated boost-compose scenario file through run_scenario."""

    kind = "boost-compose"

    def __init__(self, path: Path, v1, v2):
        self.name = "boost-compose"
        self.path = path
        self.v1, self.v2 = np.asarray(v1, float), np.asarray(v2, float)
        path.write_text(
            "kind: boost-compose\n"
            f"velocity1: [{', '.join(format(x, '.17e') for x in self.v1)}]\n"
            f"velocity2: [{', '.join(format(x, '.17e') for x in self.v2)}]\n"
        )

    def run(self, out_dir):
        return run_scenario(self.path, out_dir=out_dir)

    def rebuild(self, tr, out_dir):
        return scenario_rebuilt(tr, self.path, Path(out_dir))

    def output(self, raw) -> bytes:
        return Path(raw).read_bytes()

    def check(self, data: bytes):
        return check_rotation_report(parse_report(data), np.zeros(3), self.v1, self.v2)


class Batch:
    """Closed-form ops of one kind, run and timed as one op."""

    SEPARATOR = b"--\n"

    def __init__(self, items):
        self.items = items
        self.kind = items[0].kind
        self.name = f"{self.kind}-batch"

    def run(self, out_dir):
        return [item.run(out_dir) for item in self.items]

    def rebuild(self, tr, out_dir):
        return [item.rebuild(tr, out_dir) for item in self.items]

    def output(self, raws) -> bytes:
        return b"".join(item.output(raw) + self.SEPARATOR for item, raw in zip(self.items, raws))

    def check(self, data: bytes):
        parts = data.split(self.SEPARATOR)[:-1]
        if len(parts) != len(self.items):
            return math.inf, f"batch output has {len(parts)} parts, not {len(self.items)}"
        worst, failure = 0.0, None
        for item, part in zip(self.items, parts):
            err, item_failure = item.check(part)
            worst = max(worst, err)
            failure = failure or item_failure
        return worst, failure


# --- workloads --------------------------------------------------------------

def scenario_replay(rng, root: Path, out_dir: Path):
    names = sorted(p.stem for p in (root / "scenarios").glob("*.yaml"))
    golden = {p.name.split(".")[0]: p for p in (root / "tests" / "golden").iterdir()}
    ops = [ScenarioOp(root / "scenarios" / f"{n}.yaml", golden[n]) for n in names]
    order = rng.permutation(len(ops))
    warm = next(op for op in ops if op.name == "boost_perpendicular")
    return [ops[i] for i in order], warm


def observe_dense(rng, root: Path, out_dir: Path):
    """Speeds stratified over (0, 0.99]; grid size, observer and centre boost
    follow the stratum, so a seed changes only positions within strata,
    radii and directions.

    The top stratum is pinned at speed 0.99, centre at rest, needle in the
    orbital plane: the largest integrator error of the pass, so that
    max_err does not depend on the luck of the draw.
    """
    ops = []
    for k in range(OBSERVE_OPS - 1):
        speed = OBSERVE_SPEED_MAX * (k + rng.uniform(1e-3, 1.0)) / OBSERVE_OPS
        kind = ("center", "initial", "explicit")[(k // 3) % 3]
        if kind == "initial" and speed > INITIAL_OBSERVER_MAX:
            kind = "center"
        ops.append(ObserveOp(rng, speed, kind, k % 2 == 1, OBSERVE_POINTS[k % 3], "observe.csv"))
    ops.append(ObserveOp(rng, OBSERVE_SPEED_MAX, "center", False, OBSERVE_POINTS[-1],
                         "observe.csv", in_plane=True))
    order = rng.permutation(len(ops))
    warm = ObserveOp(rng, float(rng.uniform(0.1, 0.9)), "center", False, 32, "warm.csv")
    return [ops[i] for i in order], warm


def triangle_op(rng, vmax, vmin=0.0, from_rest=False):
    first = np.zeros(3) if from_rest else velocity3(rng, vmax, vmin)
    return TriangleOp([first, velocity3(rng, vmax, vmin), velocity3(rng, vmax, vmin)],
                      "chain-from-rest" if from_rest else "triangle")


def closed_form(rng, root: Path, out_dir: Path):
    groups = [
        [triangle_op(rng, CHAIN_SPEED_MAX) for _ in range(TRIANGLE_OPS)],
        [OrbitOp(rng, orbit_speed(rng), ORBIT_CENTER_MAX, k % 2 == 1) for k in range(ORBIT_OPS)],
        [ComposeOp(out_dir / f"compose_{i}.yaml", velocity3(rng, CHAIN_SPEED_MAX),
                   velocity3(rng, CHAIN_SPEED_MAX)) for i in range(COMPOSE_OPS)],
    ]
    ops = [Batch(g[i:i + BATCH]) for g in groups[:2] for i in range(0, len(g), BATCH)]
    ops.append(Batch(groups[2]))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order], ops[-1]


def orbit_speed(rng) -> float:
    """Orbital speed in (0, ORBIT_SPEED_MAX] whose Thomas angle stays NEAR_PI away from pi."""
    while True:
        speed = float(rng.uniform(1e-3, ORBIT_SPEED_MAX))
        if abs(reduced_thomas_angle(speed)) <= math.pi - NEAR_PI:
            return speed


def calibration(rng, out_dir: Path) -> list:
    """One small op of each kind, for unit costs a workload's own ops never incur."""
    return [
        ObserveOp(rng, 0.6, "center", False, 32, "calibration.csv"),
        triangle_op(rng, 0.6),
        OrbitOp(rng, 0.6, 0.0, False),
        ComposeOp(out_dir / "calibration.yaml", velocity3(rng, 0.6), velocity3(rng, 0.6)),
    ]


def census(rng) -> dict[str, list]:
    """Closed-form ops in the bands the timed ops stay out of, by band."""
    near_pi = []
    for k in range(CENSUS_EACH):
        # 2 pi (gamma - 1) within NEAR_PI of an odd multiple of pi
        # gamma near 1.5, 2.5 or 3.5: speeds 0.75, 0.92 and 0.96
        lam = 1.0 + (k % 3 + 0.5) + rng.uniform(-NEAR_PI, NEAR_PI) / (2.0 * math.pi)
        near_pi.append(OrbitOp(rng, math.sqrt(1.0 - 1.0 / lam ** 2), ORBIT_CENTER_MAX, k % 2 == 1))
    near_c = [triangle_op(rng, 0.999, CHAIN_SPEED_MAX) for _ in range(CENSUS_EACH)]
    near_c += [triangle_op(rng, 0.999, CHAIN_SPEED_MAX, from_rest=True) for _ in range(CENSUS_EACH)]
    near_c += [OrbitOp(rng, float(rng.uniform(ORBIT_SPEED_MAX, 1.0 - 1e-6)), ORBIT_CENTER_MAX,
                       k % 2 == 1) for k in range(CENSUS_EACH)]
    return {"near_c": near_c, "near_pi": near_pi}


WORKLOADS = {
    "scenario-replay": scenario_replay,
    "observe-dense": observe_dense,
    "closed-form": closed_form,
}

