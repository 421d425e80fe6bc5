"""The committed goldens are accurate, not only reproducible.

The byte tests in ``test_cli.py`` show that a fresh run writes the files in
``tests/golden/``; these tests read those files and check their numbers
against closed forms, so a change that moves a golden's last bits is judged
by how far the new numbers lie from the exact ones.
"""
import math
from pathlib import Path

import numpy as np

from relkin import (
    AbsoluteVelocity,
    CircularWorldLine,
    FourVector,
    boost,
    central_frame_precession,
    rate_components,
    transport_circular_exact,
)
from relkin.worldlines import _STEP_TARGET

from helpers import parse_report, read_csv

GOLDEN = Path(__file__).resolve().parent / "golden"


def default_step_bound(line: CircularWorldLine) -> float:
    # the default step's one-period error target plus a unit of rounding per step,
    # relative to |u0|^2: the bound ``relkin selftest`` checks too
    steps = line.proper_period / line.default_step
    scale = float(np.max(np.abs(line.initial_velocity.components))) ** 2
    return (_STEP_TARGET + steps * np.finfo(float).eps) * scale


def test_circular_thomas_angles():
    # one revolution at speed 0.6 (gamma 1.25) turns the gyroscope by 2 pi (1 - gamma)
    report = parse_report(GOLDEN / "circular_thomas.report.txt")
    assert report["orbital_speed"] == f"{0.6:.16e}"
    exact = -0.5 * math.pi
    for key in ("closed_form_angle_rad", "closed_form_angle_unreduced_rad", "operator_angle_rad"):
        assert abs(float(report[key]) - exact) <= 1e-15, key
    numeric = float(report["numeric_angle_rad"])
    difference = float(report["closed_minus_numeric_rad"])
    bound = default_step_bound(CircularWorldLine.from_plane(0.6, 1.0))  # 1.84e-12
    assert abs(numeric - exact) <= bound
    assert abs(difference) <= bound
    assert difference == float(report["closed_form_angle_rad"]) - numeric
    assert report["axis"].split() == [f"{c:.16e}" for c in (0.0, 0.0, 0.0, 1.0)]


def test_precess_center_follows_the_exact_transport():
    # the needle starts along e1 in the rest frame of u(0); the centre frame is at rest,
    # its time is center time, and the observed needle is z(s) boosted into that frame
    header, rows = read_csv(GOLDEN / "precess_center.csv")
    assert header == ["t", "zt", "zx", "zy", "zz", "rate_1", "rate_2", "rate_3", "rate_mag"]
    line = CircularWorldLine.from_plane(0.6, 1.0)
    uc = line.center_velocity
    z0 = boost(line.velocity(0.0), AbsoluteVelocity.rest())(FourVector([0.0, 1.0, 0.0, 0.0]))
    bound = 1e-14  # rounding: with no step the scenario's transport is exact (1.1e-15 measured)
    rate = rate_components(central_frame_precession(line), uc)
    for t, *row in rows:
        s = line.proper_time_of_center_time(t)
        exact = boost(uc, line.velocity(s))(transport_circular_exact(line, z0, t))
        assert np.max(np.abs(np.array(row[:4]) - exact.components)) <= bound, t
        assert np.max(np.abs(np.array(row[4:7]) - rate)) <= 1e-15, t
        assert abs(row[7] - float(np.linalg.norm(rate))) <= 1e-15, t


def test_transport_inertial_never_moves():
    header, rows = read_csv(GOLDEN / "transport_inertial.csv")
    assert header == ["s", "zt", "zx", "zy", "zz", "vel_dot_z", "mag_drift"]
    rows = np.array(rows)
    assert np.all(rows[:, 5:] == 0.0)
    assert np.all(rows[:, 1:5] == rows[0, 1:5])
    assert list(rows[:, 0]) == [float(k) for k in range(11)]


def test_boost_perpendicular_is_the_thomas_wigner_angle():
    # the chain rest -> 0.6 e1 -> 0.6 e2 -> rest: pairwise gammas 1.25, 1.25 and
    # 1.25^2, and cos(theta) = (1 + g01 + g12 + g02)^2 / ((1 + g01)(1 + g12)(1 + g02)) - 1
    report = parse_report(GOLDEN / "boost_perpendicular.report.txt")
    assert report["coplanar"] == "false"
    g01 = g02 = 1.0 / math.sqrt(1.0 - 0.36)
    g12 = g01 * g02
    cos_theta = (1.0 + g01 + g12 + g02) ** 2 / ((1.0 + g01) * (1.0 + g12) * (1.0 + g02)) - 1.0
    theta = math.acos(cos_theta)
    assert abs(abs(float(report["angle_rad"])) - theta) <= 1e-15
    # about the plane's normal, opposite in sense to e1 -> e2
    assert report["axis"].split() == [f"{c:.16e}" for c in (0.0, 0.0, 0.0, 1.0)]
    assert float(report["angle_rad"]) < 0.0
