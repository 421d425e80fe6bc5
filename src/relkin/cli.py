"""Command-line front end: YAML scenarios in, deterministic text/CSV out.

Four scenario kinds cover the public operations:

* ``boost-compose``  -- residual rotation of a three-boost chain (report)
* ``circular-thomas`` -- closed-form vs integrated rotation per orbit (report)
* ``transport``      -- gyroscopic vector along a world line (CSV)
* ``precess``        -- gyroscope as seen by an inertial frame (CSV)

Identical input bytes produce identical output bytes.  Exit codes: 2 for
parse/schema errors, 3 for constraint violations, 4 for integration drift,
with one machine-readable ``error code=... kind=... message="..."`` line
on stderr.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from .boosts import (
    boost,
    coplanar,
    rotation_angle_axis,
    thomas_rotation_discrete,
)
from .errors import ConstraintViolation, DriftViolation, ScenarioError
from .minkowski import (
    AbsoluteVelocity,
    FourVector,
    _mdot,
    lorentz_dot,
    orthonormal_spatial_frame,
)
from .precession import precession_series, rate_components
from .transport import (
    circular_thomas_angle,
    thomas_rotation_circular,
    thomas_rotation_general,
    transport_path,
)
from .worldlines import CircularWorldLine, InertialWorldLine, WorldLine

_ENV_OUT = "RELKIN_OUT"

_KINDS = {"boost-compose", "circular-thomas", "transport", "precess"}
_ALLOWED_KEYS = {
    "boost-compose": {"kind", "velocity1", "velocity2"},
    "circular-thomas": {"kind", "omega", "rho", "center_velocity", "plane", "step"},
    "transport": {"kind", "worldline", "gyro", "s_min", "s_max", "n_points", "step"},
    "precess": {"kind", "worldline", "frame", "gyro", "t_min", "t_max", "n_points", "step"},
}
_WORLDLINE_KEYS = {
    "circular": {"type", "omega", "rho", "center_velocity", "plane"},
    "inertial": {"type", "velocity"},
}


def _fmt(x: float) -> str:
    # fixed 17-significant-digit decimal form; +0.0 folds away negative zero
    return format(float(x) + 0.0, ".16e")


def emit_csv(header: list[str], rows, path) -> Path:
    """Write rows of floats as CSV with the fixed numeric formatting."""
    path = Path(path)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV file {path}: {exc}") from exc
    return path


def _emit_report(pairs: list[tuple[str, str]], path) -> Path:
    path = Path(path)
    try:
        with open(path, "w", newline="") as fh:
            for key, value in pairs:
                fh.write(f"{key} = {value}\n")
    except OSError as exc:
        raise OSError(f"cannot write report file {path}: {exc}") from exc
    return path


def _require(cfg: dict, key: str, kind: str):
    if key not in cfg:
        raise ScenarioError(f"scenario kind '{kind}' needs field '{key}'")
    return cfg[key]


def _number(value, name: str, positive: bool = False) -> float:
    """The one reader of scenario numbers.

    A value that is not a number is a parse error (exit 2); NaN, an
    infinity, or with ``positive`` anything not above zero violates a
    constraint (exit 3).
    """
    if isinstance(value, bool):
        raise ScenarioError(f"field '{name}' must be a number, got {value}")
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"field '{name}' must be a number") from exc
    if not (math.isfinite(x) and (x > 0.0 or not positive)):
        need = "positive and finite" if positive else "finite"
        raise ConstraintViolation(f"{name} must be {need}, got {x}")
    return x


def _vector3(value, name: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ScenarioError(f"field '{name}' must be a list of 3 numbers")
    if len(value) != 3:
        raise ScenarioError(f"field '{name}' must have exactly 3 components")
    return np.array([_number(c, f"{name}[{i}]") for i, c in enumerate(value)])


def _velocity_from_3(value, name: str) -> AbsoluteVelocity:
    return AbsoluteVelocity.from_3velocity(_vector3(value, name))


def _positive_int(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"field '{name}' must be an integer")
    if value < 2:
        raise ConstraintViolation(f"field '{name}' must be at least 2, got {value}")
    return value


def _circular_from(cfg: dict) -> CircularWorldLine:
    kind = cfg.get("kind", "circular")
    omega = _number(_require(cfg, "omega", kind), "omega")
    rho = _number(_require(cfg, "rho", kind), "rho")
    center = cfg.get("center_velocity")
    uc = AbsoluteVelocity.rest() if center is None else _velocity_from_3(center, "center_velocity")
    plane_cfg = cfg.get("plane")
    plane = None
    if plane_cfg is not None:
        if not isinstance(plane_cfg, list) or len(plane_cfg) != 2:
            raise ScenarioError("field 'plane' must be a list of two 3-vectors")
        carry = boost(uc, AbsoluteVelocity.rest())
        axes = []
        for i, entry in enumerate(plane_cfg):
            p3 = _vector3(entry, f"plane[{i}]")
            axes.append(carry(FourVector([0.0, *p3])))
        plane = (axes[0], axes[1])
    return CircularWorldLine.from_plane(omega, rho, plane=plane, center_velocity=uc)


def _worldline_from(cfg, name: str = "worldline") -> WorldLine:
    if not isinstance(cfg, dict):
        raise ScenarioError(f"field '{name}' must be a mapping with a 'type'")
    wtype = cfg.get("type")
    if wtype not in _WORLDLINE_KEYS:
        raise ScenarioError(f"world line type must be one of {sorted(_WORLDLINE_KEYS)}")
    unknown = set(cfg) - _WORLDLINE_KEYS[wtype]
    if unknown:
        raise ScenarioError(f"unknown world line fields: {sorted(unknown)}")
    if wtype == "inertial":
        return InertialWorldLine(_velocity_from_3(_require(cfg, "velocity", wtype), "velocity"))
    return _circular_from(cfg)


def _gyro_vector(cfg: dict, line: WorldLine, s_anchor: float) -> FourVector:
    """Needle direction, given in base-frame space, carried onto the line.

    Boosting the base-frame vector to the local rest frame makes it
    gyroscopic at the anchor automatically.
    """
    g3 = _vector3(_require(cfg, "gyro", cfg["kind"]), "gyro")
    if not g3.any():
        raise ConstraintViolation("gyro vector must be nonzero")
    return boost(line.velocity(s_anchor), AbsoluteVelocity.rest())(FourVector([0.0, *g3]))


def _axis_text(axis: FourVector | None) -> str:
    if axis is None:
        return "none"
    return " ".join(_fmt(c) for c in axis.components)


def _run_boost_compose(cfg: dict, out_path: Path, step: float | None, tol: float | None) -> Path:
    u = AbsoluteVelocity.rest()
    u1 = _velocity_from_3(_require(cfg, "velocity1", "boost-compose"), "velocity1")
    u2 = _velocity_from_3(_require(cfg, "velocity2", "boost-compose"), "velocity2")
    rotation = thomas_rotation_discrete(u, u1, u2)
    angle, axis = rotation_angle_axis(rotation)
    return _emit_report(
        [
            ("kind", "boost-compose"),
            ("coplanar", "true" if coplanar(u, u1, u2) else "false"),
            ("angle_rad", _fmt(angle)),
            ("axis", _axis_text(axis)),
        ],
        out_path,
    )


def _run_circular_thomas(cfg: dict, out_path: Path, step: float | None, tol: float | None) -> Path:
    line = _circular_from(cfg)
    exact = circular_thomas_angle(line)
    operator_angle, axis = rotation_angle_axis(thomas_rotation_circular(line))
    numeric_rotation = thomas_rotation_general(line, 0.0, line.proper_period, step=step)
    numeric_angle, _ = rotation_angle_axis(numeric_rotation)
    return _emit_report(
        [
            ("kind", "circular-thomas"),
            ("orbital_speed", _fmt(line.orbital_speed)),
            ("time_dilation", _fmt(line.lorentz_factor)),
            ("closed_form_angle_rad", _fmt(exact.reduced)),
            ("closed_form_angle_unreduced_rad", _fmt(exact.unreduced)),
            ("winding", _fmt(exact.winding)),
            ("operator_angle_rad", _fmt(operator_angle)),
            ("numeric_angle_rad", _fmt(numeric_angle)),
            ("closed_minus_numeric_rad", _fmt(exact.reduced - numeric_angle)),
            ("axis", _axis_text(axis)),
        ],
        out_path,
    )


def _run_transport(cfg: dict, out_path: Path, step: float | None, tol: float | None) -> Path:
    line = _worldline_from(_require(cfg, "worldline", "transport"))
    s_min = _number(_require(cfg, "s_min", "transport"), "s_min")
    s_max = _number(_require(cfg, "s_max", "transport"), "s_max")
    if not s_max > s_min:
        raise ConstraintViolation("s_max must exceed s_min")
    n = _positive_int(_require(cfg, "n_points", "transport"), "n_points")
    z0 = _gyro_vector(cfg, line, s_min)
    norm0 = z0.norm()
    ss = np.linspace(s_min, s_max, n)
    states = transport_path(line, z0, ss, s_start=s_min, step=step, tol_drift=tol)
    rows = []
    for state in states:
        z = state.z.components.tolist()
        rdot = line.velocity(state.s).components.tolist()
        rows.append([state.s, *z, _mdot(rdot, z), state.z.norm() - norm0])
    return emit_csv(["s", "zt", "zx", "zy", "zz", "vel_dot_z", "mag_drift"], rows, out_path)


def _run_precess(cfg: dict, out_path: Path, step: float | None, tol: float | None) -> Path:
    line = _worldline_from(_require(cfg, "worldline", "precess"))
    frame_cfg = _require(cfg, "frame", "precess")
    if frame_cfg == "center":
        if not isinstance(line, CircularWorldLine):
            raise ScenarioError("frame 'center' needs a circular world line")
        u = line.center_velocity
    elif frame_cfg in ("initial", "u0"):
        u = line.velocity(0.0)
    else:
        u = _velocity_from_3(frame_cfg, "frame")
    t_min = _number(_require(cfg, "t_min", "precess"), "t_min")
    t_max = _number(_require(cfg, "t_max", "precess"), "t_max")
    if not t_max > t_min:
        raise ConstraintViolation("t_max must exceed t_min")
    n = _positive_int(_require(cfg, "n_points", "precess"), "n_points")
    z0 = _gyro_vector(cfg, line, 0.0)
    t_grid = np.linspace(t_min, t_max, n)
    samples = precession_series(u, line, z0, t_grid, step=step, tol_drift=tol)
    frame = orthonormal_spatial_frame(u)
    rows = []
    for sample in samples:
        rc = rate_components(sample.rate, u, frame)
        rows.append([sample.t, *sample.z.components, *rc, float(np.linalg.norm(rc))])
    header = ["t", "zt", "zx", "zy", "zz", "rate_1", "rate_2", "rate_3", "rate_mag"]
    return emit_csv(header, rows, out_path)


_RUNNERS = {
    "boost-compose": (_run_boost_compose, ".report.txt"),
    "circular-thomas": (_run_circular_thomas, ".report.txt"),
    "transport": (_run_transport, ".csv"),
    "precess": (_run_precess, ".csv"),
}


def _load_scenario(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ScenarioError("scenario file must contain a mapping")
    kind = cfg.get("kind")
    if kind not in _KINDS:
        raise ScenarioError(f"scenario kind must be one of {sorted(_KINDS)}, got {kind!r}")
    unknown = set(cfg) - _ALLOWED_KEYS[kind]
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
    return cfg


def run_scenario(
    path,
    out_dir=None,
    step: float | None = None,
    tol: float | None = None,
) -> Path:
    """Run one scenario file and write its output file.

    Returns the output path.  ``out_dir`` falls back to the RELKIN_OUT
    environment variable and then to the working directory; ``step``
    overrides any step given in the scenario; ``tol`` is the drift
    tolerance of the transport and precess integrations (default
    ``TOL.drift``).  Both must be positive and finite.
    """
    path = Path(path)
    cfg = _load_scenario(path)
    step = cfg.get("step") if step is None else step
    step = None if step is None else _number(step, "step", positive=True)
    tol = None if tol is None else _number(tol, "tolerance", positive=True)
    runner, suffix = _RUNNERS[cfg["kind"]]
    if out_dir is None:
        out_dir = os.environ.get(_ENV_OUT) or os.getcwd()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return runner(cfg, out_dir / (path.stem + suffix), step, tol)


def selftest() -> int:
    """Quick invariant suite; returns 0 when everything holds."""
    rng = np.random.default_rng(20240915)

    def random_velocity(vmax=0.99):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        return AbsoluteVelocity.from_3velocity(d * rng.uniform(0.0, vmax))

    failures = 0

    def check(label, fn):
        nonlocal failures
        try:
            fn()
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"ok {label}")

    def expect(ok, what: str) -> None:
        # an explicit check, which ``python -O`` keeps (it strips assert statements)
        if not ok:
            raise AssertionError(what)

    def boost_algebra():
        for _ in range(200):
            a, b = random_velocity(), random_velocity()
            fwd, back = boost(a, b), boost(b, a)
            err = np.max(np.abs((fwd @ back).matrix - np.eye(4)))
            expect(err < 1e-11, f"boost(b, a) @ boost(a, b) is {err} off the identity")
            x = FourVector(rng.normal(size=4))
            x = x / math.sqrt(abs(lorentz_dot(x, x))) if abs(lorentz_dot(x, x)) > 1e-9 else x
            y = FourVector(rng.normal(size=4))
            err = abs(lorentz_dot(fwd(x), fwd(y)) - lorentz_dot(x, y))
            bound = 1e-10 * max(1.0, float(np.max(np.abs(y.components))) ** 2)
            expect(err < bound, f"boost changes a Lorentz product by {err}")

    def coplanar_identity():
        u = AbsoluteVelocity.rest()
        u1 = AbsoluteVelocity.from_3velocity([0.6, 0.0, 0.0])
        u2 = AbsoluteVelocity.from_3velocity([0.9, 0.0, 0.0])
        angle, _ = rotation_angle_axis(thomas_rotation_discrete(u, u1, u2))
        expect(abs(angle) < 1e-8, f"collinear chain rotates by {angle}")

    def circular_consistency():
        line = CircularWorldLine.from_plane(0.6, 1.0)
        from .transport import transport_circular_exact, transport_numeric

        z0 = FourVector([0.0, 1.0, 0.0, 0.0])
        period = line.proper_period
        numeric = transport_numeric(line, z0, 0.0, period, step=period / 2000)
        exact = transport_circular_exact(line, z0, line.lorentz_factor * period)
        err = np.max(np.abs(numeric.z.components - exact.components))
        expect(err < 1e-6, f"numeric transport is {err} off the exact one")

    def central_rate():
        from .precession import central_frame_precession

        line = CircularWorldLine.from_plane(0.6, 1.0)
        rc = rate_components(central_frame_precession(line), line.center_velocity)
        err = abs(rc[2] - (1.0 - line.lorentz_factor) * 0.6)
        expect(err < 1e-10, f"central-frame rate is {err} off (1 - gamma) omega")

    def time_round_trip():
        line = CircularWorldLine.from_plane(0.6, 1.0)
        for _ in range(50):
            s = rng.uniform(0.0, 10.0 * line.proper_period)
            t = line.initial_time_of_proper_time(s)
            err = abs(line.proper_time_of_initial_time(t) - s)
            expect(err < 1e-10, f"time round trip from s = {s} is {err} off")

    def thomas_angles():
        for speed in (0.3, 0.6):
            line = CircularWorldLine.from_plane(speed, 1.0)
            angle, _ = rotation_angle_axis(thomas_rotation_circular(line))
            err = abs(angle - circular_thomas_angle(line).reduced)
            expect(err < 1e-9, f"operator angle is {err} off the closed form at speed {speed}")

    check("boost algebra", boost_algebra)
    check("coplanar chain is identity", coplanar_identity)
    check("numeric vs exact circular transport", circular_consistency)
    check("central-frame precession rate", central_rate)
    check("initial-frame time round trip", time_round_trip)
    check("thomas angle extraction", thomas_angles)

    if failures:
        print(f"selftest failed ({failures} checks)")
        return 1
    print("selftest passed")
    return 0


def _error_line(code: int, kind: str, message: str) -> None:
    msg = str(message).replace('"', "'").replace("\n", " ")
    print(f'error code={code} kind={kind} message="{msg}"', file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relkin",
        description="Special-relativity kinematics scenarios: boosts, Thomas rotation, "
        "Fermi-Walker transport, gyroscope precession.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run a scenario file")
    run_parser.add_argument("scenario", help="path to a YAML scenario file")
    run_parser.add_argument("--out", default=None, help="output directory (default: cwd or $RELKIN_OUT)")
    run_parser.add_argument("--step", type=float, default=None, help="integrator step override")
    run_parser.add_argument("--tol", type=float, default=None, help="drift tolerance override")
    sub.add_parser("selftest", help="run the built-in invariant suite")
    args = parser.parse_args(argv)

    if args.command == "selftest":
        return selftest()
    try:
        out_path = run_scenario(args.scenario, out_dir=args.out, step=args.step, tol=args.tol)
    except ScenarioError as exc:
        _error_line(2, "parse", str(exc))
        return 2
    except DriftViolation as exc:
        _error_line(4, "drift", str(exc))
        return 4
    except ConstraintViolation as exc:
        _error_line(3, "constraint", str(exc))
        return 3
    except OSError as exc:
        _error_line(1, "io", str(exc))
        return 1
    print(out_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
