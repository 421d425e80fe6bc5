import ast
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from relkin import (
    TOL,
    AbsoluteVelocity,
    CircularWorldLine,
    FourVector,
    InertialWorldLine,
    Tolerances,
    boost,
    circular_thomas_angle,
    lorentz_dot,
    rotation_angle_axis,
    thomas_rotation_circular,
    thomas_rotation_general,
    transport_path,
)
from relkin import cli
from relkin.cli import MAX_DEPTH, MAX_POINTS, emit_csv, main, run_scenario, selftest
from relkin.transport import MAX_STEPS

from helpers import TimedCircular, parse_report, read_csv

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

GOLDEN_OUTPUTS = [
    ("boost_perpendicular.yaml", "boost_perpendicular.report.txt"),
    ("circular_thomas.yaml", "circular_thomas.report.txt"),
    ("transport_inertial.yaml", "transport_inertial.csv"),
    ("precess_center.yaml", "precess_center.csv"),
]


INERTIAL_TRANSPORT = (
    "kind: transport\n"
    "worldline: {type: inertial, velocity: [0.1, 0.0, 0.0]}\n"
    "gyro: [0.0, 1.0, 0.0]\n"
    "s_min: 0.0\ns_max: 1.0\nn_points: 2\n"
)
CIRCULAR_PRECESS = (
    "kind: precess\n"
    "worldline: {type: circular, omega: 0.6, rho: 1.0}\n"
    "frame: center\ngyro: [1.0, 0.0, 0.0]\n"
    "t_min: 0.0\nt_max: 1.0\nn_points: 2\n"
)
# half a revolution at speed 0.6 on a step of P/100: the drift per step
# lies between the 1e-8 default and 1e-6
COARSE_CIRCULAR_TRANSPORT = (
    "kind: transport\n"
    "worldline: {type: circular, omega: 0.6, rho: 1.0}\n"
    "gyro: [1.0, 0.0, 0.0]\n"
    "s_min: 0.0\ns_max: 4.18879\nn_points: 3\nstep: 0.0837758\n"
)
# at speed 0.82 one RK4 step over about two orbits turns the needle timelike:
# its square goes negative before the drift check
TIMELIKE_TRANSPORT = (
    "kind: transport\n"
    "worldline: {type: circular, omega: 0.824245022861334, rho: 1.0}\n"
    "gyro: [0.017693429288338655, -0.9954456797894932, -0.0936741220853041]\n"
    "s_min: 0\ns_max: 12.94911807546774\nn_points: 2\nstep: 9.10453044118172\n"
)


class TestGoldenRegeneration:
    @pytest.mark.parametrize("scenario,golden", GOLDEN_OUTPUTS)
    def test_byte_identical(self, scenario, golden, tmp_path):
        out = run_scenario(SCENARIOS / scenario, out_dir=tmp_path)
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_repeated_runs_are_deterministic(self, tmp_path):
        first = run_scenario(SCENARIOS / "precess_center.yaml", out_dir=tmp_path / "a")
        second = run_scenario(SCENARIOS / "precess_center.yaml", out_dir=tmp_path / "b")
        assert first.read_bytes() == second.read_bytes()

    def test_circular_thomas_from_public_calls_on_a_timed_subclass(self, tmp_path):
        # a traced replay rebuilds this report one public call at a time, on a circular
        # subclass whose kinematics blocks stack its scalar override: those calls must give
        # run_scenario's bytes, and so the golden's
        cfg = yaml.safe_load((SCENARIOS / "circular_thomas.yaml").read_text())
        line = TimedCircular.from_plane(float(cfg["omega"]), float(cfg["rho"]))
        exact = circular_thomas_angle(line)
        operator_angle, axis = rotation_angle_axis(thomas_rotation_circular(line))
        numeric = thomas_rotation_general(line, 0.0, line.proper_period, step=cfg.get("step"))
        numeric_angle, _ = rotation_angle_axis(numeric)

        def fmt(x):
            return format(float(x) + 0.0, ".16e")

        rebuilt = "".join(f"{key} = {value}\n" for key, value in [
            ("kind", "circular-thomas"),
            ("orbital_speed", fmt(line.orbital_speed)),
            ("time_dilation", fmt(line.lorentz_factor)),
            ("closed_form_angle_rad", fmt(exact.reduced)),
            ("closed_form_angle_unreduced_rad", fmt(exact.unreduced)),
            ("winding", fmt(exact.winding)),
            ("operator_angle_rad", fmt(operator_angle)),
            ("numeric_angle_rad", fmt(numeric_angle)),
            ("closed_minus_numeric_rad", fmt(exact.reduced - numeric_angle)),
            ("axis", " ".join(fmt(c) for c in axis.components)),
        ]).encode()
        out = run_scenario(SCENARIOS / "circular_thomas.yaml", out_dir=tmp_path)
        assert out.read_bytes() == rebuilt
        assert rebuilt == (GOLDEN / "circular_thomas.report.txt").read_bytes()


class TestReports:
    def test_perpendicular_angle_value(self, tmp_path):
        out = run_scenario(SCENARIOS / "boost_perpendicular.yaml", out_dir=tmp_path)
        report = parse_report(out)
        assert report["coplanar"] == "false"
        assert abs(float(report["angle_rad"]) - (-math.atan(0.225))) < 1e-9

    def test_collinear_velocities_give_zero_angle(self, tmp_path):
        scenario = tmp_path / "collinear.yaml"
        scenario.write_text(
            "kind: boost-compose\nvelocity1: [0.6, 0.0, 0.0]\nvelocity2: [0.9, 0.0, 0.0]\n"
        )
        report = parse_report(run_scenario(scenario, out_dir=tmp_path))
        assert report["coplanar"] == "true"
        assert abs(float(report["angle_rad"])) < 1e-8
        assert report["axis"] == "none"

    def test_circular_thomas_report(self, tmp_path):
        out = run_scenario(SCENARIOS / "circular_thomas.yaml", out_dir=tmp_path)
        report = parse_report(out)
        assert abs(float(report["closed_form_angle_rad"]) + math.pi / 2) < 1e-9
        assert abs(float(report["numeric_angle_rad"]) + math.pi / 2) < 1e-7
        assert abs(float(report["closed_minus_numeric_rad"])) < 1e-7


class TestCsvOutputs:
    def test_inertial_transport_rows_identical(self, tmp_path):
        out = run_scenario(SCENARIOS / "transport_inertial.yaml", out_dir=tmp_path)
        _, rows = read_csv(out)
        assert len(rows) == 11
        for row in rows[1:]:
            assert row[1:] == rows[0][1:]

    def test_center_precession_rate_column(self, tmp_path):
        out = run_scenario(SCENARIOS / "precess_center.yaml", out_dir=tmp_path)
        header, rows = read_csv(out)
        rate3 = header.index("rate_3")
        values = [row[rate3] for row in rows]
        assert max(values) - min(values) < 1e-8
        assert abs(values[0] + 0.15) < 1e-10

    def test_circular_transport_drift_columns_stay_small(self, tmp_path):
        scenario = tmp_path / "circ.yaml"
        scenario.write_text(
            "kind: transport\n"
            "worldline: {type: circular, omega: 0.6, rho: 1.0}\n"
            "gyro: [1.0, 0.0, 0.0]\n"
            "s_min: 0.0\ns_max: 8.37758\nn_points: 9\n"
        )
        out = run_scenario(scenario, out_dir=tmp_path)
        header, rows = read_csv(out)
        for row in rows:
            assert abs(row[header.index("vel_dot_z")]) < 1e-10
            assert abs(row[header.index("mag_drift")]) < 1e-10

    def test_transport_drift_columns_are_the_object_arithmetic(self, tmp_path):
        # vel_dot_z and mag_drift, now taken on floats, equal lorentz_dot and norm
        # on the public objects to the last printed digit
        scenario = tmp_path / "circ.yaml"
        scenario.write_text(
            "kind: transport\n"
            "worldline: {type: circular, omega: 0.6, rho: 1.0, center_velocity: [0.2, 0.1, 0.0]}\n"
            "gyro: [1.0, 0.5, 0.3]\n"
            "s_min: -2.0\ns_max: 8.37758\nn_points: 17\nstep: 0.01\n"
        )
        out = run_scenario(scenario, out_dir=tmp_path)
        line = CircularWorldLine.from_plane(
            0.6, 1.0, center_velocity=AbsoluteVelocity.from_3velocity([0.2, 0.1, 0.0]))
        carry = boost(line.velocity(-2.0), AbsoluteVelocity.rest())
        z0 = carry(FourVector([0.0, 1.0, 0.5, 0.3]))
        states = transport_path(line, z0, np.linspace(-2.0, 8.37758, 17), s_start=-2.0, step=0.01)
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == len(states)
        for text, state in zip(rows, states):
            expected = [lorentz_dot(line.velocity(state.s), state.z), state.z.norm() - z0.norm()]
            assert text.split(",")[5:] == [format(x + 0.0, ".16e") for x in expected]

    def test_emit_csv_empty_series(self, tmp_path):
        path = emit_csv(["a", "b"], [], tmp_path / "empty.csv")
        assert path.read_text() == "a,b\n"

    def test_emit_csv_single_row(self, tmp_path):
        path = emit_csv(["a", "b"], [[1.0, -0.5]], tmp_path / "one.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1.0000000000000000e+00,-5.0000000000000000e-01"


class TestCliProcess:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "relkin", *args], capture_output=True, text=True
        )

    def test_run_and_exit_zero(self, tmp_path):
        result = self.run_cli("run", str(SCENARIOS / "boost_perpendicular.yaml"),
                              "--out", str(tmp_path))
        assert result.returncode == 0
        assert Path(result.stdout.strip()).exists()

    def test_malformed_yaml_exits_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("kind: [unclosed\n")
        result = self.run_cli("run", str(bad))
        assert result.returncode == 2
        assert "error code=2 kind=parse" in result.stderr

    def test_unknown_kind_exits_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("kind: warp\n")
        result = self.run_cli("run", str(bad))
        assert result.returncode == 2

    def test_missing_file_exits_2(self, tmp_path):
        result = self.run_cli("run", str(tmp_path / "nope.yaml"))
        assert result.returncode == 2

    def test_superluminal_speed_exits_3(self, tmp_path):
        bad = tmp_path / "fast.yaml"
        bad.write_text(
            "kind: boost-compose\nvelocity1: [1.2, 0.0, 0.0]\nvelocity2: [0.0, 0.5, 0.0]\n"
        )
        result = self.run_cli("run", str(bad))
        assert result.returncode == 3
        assert "error code=3 kind=constraint" in result.stderr

    def test_bad_n_points_exits_3(self, tmp_path):
        bad = tmp_path / "grid.yaml"
        bad.write_text(
            "kind: transport\n"
            "worldline: {type: inertial, velocity: [0.1, 0.0, 0.0]}\n"
            "gyro: [0.0, 1.0, 0.0]\n"
            "s_min: 0.0\ns_max: 1.0\nn_points: 1\n"
        )
        result = self.run_cli("run", str(bad))
        assert result.returncode == 3

    def test_drift_exits_4(self, tmp_path):
        bad = tmp_path / "coarse.yaml"
        bad.write_text(
            "kind: transport\n"
            "worldline: {type: circular, omega: 0.9, rho: 1.0}\n"
            "gyro: [1.0, 0.0, 0.0]\n"
            "s_min: 0.0\ns_max: 120.0\nn_points: 3\nstep: 1.0\n"
        )
        result = self.run_cli("run", str(bad))
        assert result.returncode == 4
        assert "error code=4 kind=drift" in result.stderr

    def test_nan_step_exits_3_without_traceback(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(INERTIAL_TRANSPORT)
        result = self.run_cli("run", str(scenario), "--out", str(tmp_path), "--step", "nan")
        assert result.returncode == 3
        assert result.stderr.splitlines() == [
            'error code=3 kind=constraint message="step must be positive and finite, got nan"'
        ]

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RELKIN_OUT", str(tmp_path / "envout"))
        out = run_scenario(SCENARIOS / "boost_perpendicular.yaml")
        assert out.parent == tmp_path / "envout"
        assert out.exists()


class TestOutputErrors:
    """An output that cannot be written is one io error line (exit 1)."""

    def test_out_naming_a_regular_file_exits_1(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", str(SCENARIOS / "boost_perpendicular.yaml"), "--out", str(taken)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error code=1 kind=io ")
        assert "File exists" in err[0]

    @pytest.mark.parametrize("scenario,output,writer", [
        ("circular_thomas.yaml", "circular_thomas.report.txt", "report"),
        ("transport_inertial.yaml", "transport_inertial.csv", "CSV"),
    ])
    def test_output_path_that_is_a_directory_exits_1(self, scenario, output, writer, tmp_path,
                                                     capsys):
        (tmp_path / output).mkdir()
        assert main(["run", str(SCENARIOS / scenario), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f'error code=1 kind=io message="cannot write {writer} file '
                                 f'{tmp_path / output}: ')


KIND_LIST = "['boost-compose', 'circular-thomas', 'precess', 'transport']"


class TestScenarioParse:
    """Every failure to read or parse a scenario file is one parse error line (exit 2)."""

    def test_list_document_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "list.yaml"
        scenario.write_text("- kind\n- boost-compose\n")
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            'error code=2 kind=parse message="scenario file must contain a mapping"']

    def test_directory_as_scenario_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "dir.yaml"
        scenario.mkdir()
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f'error code=2 kind=parse message="cannot read scenario file {scenario}: ')

    @pytest.mark.parametrize("depth", [2000, 100_000])
    @pytest.mark.parametrize("style", ["flow", "block"])
    def test_deep_nesting_exits_2(self, style, depth, tmp_path):
        # 100 000 levels overflow the C stack of libyaml's composer without the depth guard
        nested = "[" * depth + "]" * depth if style == "flow" else "\n" + "- " * depth + "0.1"
        scenario = tmp_path / "deep.yaml"
        scenario.write_text(f"kind: boost-compose\nvelocity1: {nested}\n")
        result = subprocess.run(
            [sys.executable, "-m", "relkin", "run", str(scenario), "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f'error code=2 kind=parse message="scenario nests deeper than {MAX_DEPTH} levels"']

    def test_nesting_at_the_limit_is_read(self, tmp_path, capsys):
        # the scenario mapping is level 1, so the vector may sit MAX_DEPTH - 1 lists deep
        scenario = tmp_path / "s.yaml"
        inner = MAX_DEPTH - 2
        scenario.write_text("kind: boost-compose\nvelocity1: " + "[" * inner + "[0.1, 0, 0]"
                            + "]" * inner + "\nvelocity2: [0, 0.1, 0]\n")
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 2
        assert "field 'velocity1' must have exactly 3 components" in capsys.readouterr().err
        scenario.write_text(scenario.read_text().replace("[" * inner, "[" * (inner + 1), 1)
                            .replace("]" * inner, "]" * (inner + 1), 1))
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 2
        assert "nests deeper than" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "kind: boost-compose\nvelocity1: !!float\n",  # IndexError in the constructor
        "kind: boost-compose\nvelocity1: !!int\n",
        "kind: boost-compose\nvelocity1: !!timestamp 2024-13-45\n",
        "kind: boost-compose\nvelocity1: !!binary '%'\n",
        "kind: boost-compose\n? [a]\n: 1\n",  # an unhashable key
    ])
    def test_constructor_errors_are_one_parse_line(self, text, tmp_path, capsys):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(text)
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error code=2 kind=parse ")

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "s.yaml"
        scenario.write_bytes(b"kind: boost-compose\xff\n")
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error code=2 kind=parse ")
        assert "is not UTF-8" in err[0]

    def test_unknown_keys_of_mixed_types_are_listed(self, tmp_path, capsys):
        scenario = tmp_path / "s.yaml"
        scenario.write_text("kind: boost-compose\n1: x\nb: y\nnull: z\n")
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error code=2 kind=parse message=\"unknown scenario fields: [None, 1, 'b']\""]

    def test_kind_built_from_aliases_is_one_parse_line(self, tmp_path, capsys):
        # each alias adds a level without nesting the text, and each doubles the width
        links = [f"a{i}: &a{i} [*a{i - 1}, *a{i - 1}]" for i in range(1, 2000)]
        scenario = tmp_path / "s.yaml"
        scenario.write_text("\n".join(["a0: &a0 [1]", *links, "kind: *a1999"]) + "\n")
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error code=2 kind=parse ")


def test_libyaml_loader_is_used_where_installed():
    # the pure-Python loader is about five times slower; falling back to it silently fails here
    if yaml.__with_libyaml__:
        assert cli._LOADER is yaml.CSafeLoader
    else:
        assert cli._LOADER is yaml.SafeLoader


class TestSchemaValidation:
    @pytest.mark.parametrize("text,got", [
        ("kind: warp\n", "'warp'"),
        ("velocity1: [0.1, 0.0, 0.0]\n", "None"),
        ("kind: [transport]\n", "['transport']"),
        ("kind: {a: 1}\n", "{'a': 1}"),
    ])
    def test_kind_error_is_one_parse_line(self, text, got, tmp_path, capsys):
        bad = tmp_path / "kind.yaml"
        bad.write_text(text)
        assert main(["run", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f'error code=2 kind=parse message="scenario kind must be one of {KIND_LIST}, '
            f'got {got}"'
        ]

    @pytest.mark.parametrize("kind,field", [
        ("boost-compose", "step"),
        ("circular-thomas", "gyro"),
        ("transport", "frame"),
        ("precess", "s_max"),
    ])
    def test_fields_of_another_kind_are_rejected(self, kind, field, tmp_path, capsys):
        bad = tmp_path / "extra.yaml"
        bad.write_text(f"kind: {kind}\n{field}: 1\n")
        assert main(["run", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f'error code=2 kind=parse message="unknown scenario fields: [\'{field}\']"'
        ]

    @pytest.mark.parametrize("wtype", ["[circular]", "{a: 1}"])
    def test_unhashable_world_line_type_is_one_parse_line(self, wtype, tmp_path, capsys):
        bad = tmp_path / "line.yaml"
        bad.write_text(INERTIAL_TRANSPORT.replace("type: inertial", f"type: {wtype}"))
        assert main(["run", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error code=2 kind=parse message=\"world line type must be one of "
            "['circular', 'inertial']\""
        ]

    @pytest.mark.parametrize("text,owner,field", [
        (CIRCULAR_PRECESS.replace(", rho: 1.0", ""), "world line type 'circular'", "rho"),
        (CIRCULAR_PRECESS.replace("omega: 0.6, ", ""), "world line type 'circular'", "omega"),
        (INERTIAL_TRANSPORT.replace(", velocity: [0.1, 0.0, 0.0]", ""),
         "world line type 'inertial'", "velocity"),
        ("kind: circular-thomas\nomega: 0.6\n", "scenario kind 'circular-thomas'", "rho"),
        ("kind: circular-thomas\nrho: 1.0\n", "scenario kind 'circular-thomas'", "omega"),
    ])
    def test_missing_field_names_its_owner(self, text, owner, field, tmp_path, capsys):
        bad = tmp_path / "missing.yaml"
        bad.write_text(text)
        assert main(["run", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error code=2 kind=parse message=\"{owner} needs field '{field}'\""
        ]

    def test_unknown_field_rejected(self, tmp_path):
        bad = tmp_path / "extra.yaml"
        bad.write_text(
            "kind: boost-compose\nvelocity1: [0.1,0,0]\nvelocity2: [0,0.1,0]\nbogus: 1\n"
        )
        assert main(["run", str(bad)]) == 2

    def test_center_frame_needs_circular_line(self, tmp_path):
        bad = tmp_path / "frame.yaml"
        bad.write_text(
            "kind: precess\n"
            "worldline: {type: inertial, velocity: [0.1, 0.0, 0.0]}\n"
            "frame: center\ngyro: [1.0, 0.0, 0.0]\n"
            "t_min: 0.0\nt_max: 1.0\nn_points: 3\n"
        )
        assert main(["run", str(bad)]) == 2

    def test_initial_frame_alias(self, tmp_path):
        for token in ("initial", "u0"):
            scenario = tmp_path / f"frame_{token}.yaml"
            scenario.write_text(
                "kind: precess\n"
                "worldline: {type: circular, omega: 0.6, rho: 1.0}\n"
                f"frame: {token}\ngyro: [1.0, 0.0, 0.0]\n"
                "t_min: 0.0\nt_max: 2.0\nn_points: 5\n"
            )
            out = run_scenario(scenario, out_dir=tmp_path / token)
            assert out.exists()

    def test_explicit_frame_velocity(self, tmp_path):
        scenario = tmp_path / "frame_vec.yaml"
        scenario.write_text(
            "kind: precess\n"
            "worldline: {type: circular, omega: 0.6, rho: 1.0}\n"
            "frame: [0.1, 0.2, 0.0]\ngyro: [1.0, 0.0, 0.0]\n"
            "t_min: 0.0\nt_max: 2.0\nn_points: 5\n"
        )
        assert run_scenario(scenario, out_dir=tmp_path).exists()

    def test_moving_center_with_plane(self, tmp_path):
        scenario = tmp_path / "moving.yaml"
        scenario.write_text(
            "kind: circular-thomas\n"
            "omega: 0.5\nrho: 1.0\n"
            "center_velocity: [0.2, 0.0, 0.1]\n"
            "plane: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]\n"
        )
        report = parse_report(run_scenario(scenario, out_dir=tmp_path))
        assert abs(float(report["time_dilation"]) - 1.0 / math.sqrt(1 - 0.25)) < 1e-12


class TestStepAndTolerance:
    def test_timelike_needle_is_one_drift_line(self, tmp_path, capsys):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(TIMELIKE_TRANSPORT)
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error code=4 kind=drift")
        assert "|z| drift = nan" in err[0]

    @pytest.mark.parametrize("worldline, message", [
        ("{type: inertial, velocity: [0.5, 0.3, 0.1]}",
         "transport drift at s = 0.0: velocity.z = 2.7755575615628914e-17, |z| drift = 0.0 "
         "(exact inertial transport)"),
        ("{type: circular, omega: 0.6, rho: 1.0}",
         "transport drift at s = 1.0: velocity.z = 1.1102230246251565e-16, "
         "|z| drift = 2.220446049250313e-16 (exact circular transport)"),
    ], ids=["inertial", "circular"])
    def test_tolerance_below_rounding_names_the_exact_route(self, worldline, message, tmp_path,
                                                            capsys):
        # with no step both lines take their exact route: a drift there is the tolerance's,
        # not a step's, and only the circular line's message says circular
        scenario = tmp_path / "s.yaml"
        scenario.write_text(f"kind: transport\nworldline: {worldline}\ngyro: [0.3, 1.0, 0.7]\n"
                            "s_min: 0.0\ns_max: 10.0\nn_points: 11\n")
        assert main(["run", str(scenario), "--out", str(tmp_path), "--tol", "1e-17"]) == 4
        assert capsys.readouterr().err == f'error code=4 kind=drift message="{message}"\n'

    @pytest.mark.parametrize(
        "flags,field",
        [
            (["--step", "nan"], ""),
            (["--step", "inf"], ""),
            (["--tol", "nan"], ""),
            (["--tol", "inf"], ""),
            ([], "step: .nan\n"),
            ([], "step: .inf\n"),
        ],
        ids=["step-nan", "step-inf", "tol-nan", "tol-inf", "field-nan", "field-inf"],
    )
    def test_non_finite_exits_3(self, tmp_path, capsys, flags, field):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(INERTIAL_TRANSPORT + field)
        assert main(["run", str(scenario), "--out", str(tmp_path), *flags]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error code=3 kind=constraint")

    def test_non_numeric_step_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(INERTIAL_TRANSPORT + "step: fast\n")
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error code=2 kind=parse")

    def test_circular_thomas_validates_and_uses_scenario_step(self, tmp_path):
        base = "kind: circular-thomas\nomega: 0.6\nrho: 1.0\n"
        bad = tmp_path / "nan.yaml"
        bad.write_text(base + "step: .nan\n")
        assert main(["run", str(bad), "--out", str(tmp_path)]) == 3
        coarse = tmp_path / "coarse.yaml"
        coarse.write_text(base + "step: 0.01\n")
        fine = tmp_path / "fine.yaml"
        fine.write_text(base)
        coarse_angle = parse_report(run_scenario(coarse, out_dir=tmp_path))["numeric_angle_rad"]
        fine_angle = parse_report(run_scenario(fine, out_dir=tmp_path))["numeric_angle_rad"]
        assert coarse_angle != fine_angle

    def test_tol_sets_the_drift_bound(self, tmp_path):
        scenario = tmp_path / "coarse.yaml"
        scenario.write_text(COARSE_CIRCULAR_TRANSPORT)
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 4
        assert main(["run", str(scenario), "--out", str(tmp_path), "--tol", "1e-6"]) == 0

    def test_tol_is_passed_not_written_into_global(self, tmp_path, monkeypatch):
        seen = []
        kinematics = CircularWorldLine._kinematics_arrays

        def spy(self, s):
            seen.append(TOL.drift)
            return kinematics(self, s)

        monkeypatch.setattr(CircularWorldLine, "_kinematics_arrays", spy)
        out = run_scenario(SCENARIOS / "precess_center.yaml", out_dir=tmp_path, tol=1e-6)
        assert seen and set(seen) == {Tolerances().drift}
        assert out.read_bytes() == (GOLDEN / "precess_center.csv").read_bytes()


# one scenario per reader of numbers; FIELD is replaced by the value under test
NUMBER_FIELDS = {
    "omega": "kind: circular-thomas\nomega: FIELD\nrho: 1.0\n",
    "rho": "kind: circular-thomas\nomega: 0.6\nrho: FIELD\n",
    "center_velocity": "kind: circular-thomas\nomega: 0.6\nrho: 1.0\n"
                       "center_velocity: [0.1, FIELD, 0.0]\n",
    "plane": "kind: circular-thomas\nomega: 0.6\nrho: 1.0\n"
             "plane: [[1.0, 0.0, FIELD], [0.0, 1.0, 0.0]]\n",
    "velocity": "kind: transport\nworldline: {type: inertial, velocity: [FIELD, 0.0, 0.0]}\n"
                "gyro: [0.0, 1.0, 0.0]\ns_min: 0.0\ns_max: 1.0\nn_points: 2\n",
    "gyro": "kind: transport\nworldline: {type: inertial, velocity: [0.1, 0.0, 0.0]}\n"
            "gyro: [0.0, FIELD, 0.0]\ns_min: 0.0\ns_max: 1.0\nn_points: 2\n",
    "s_min": "kind: transport\nworldline: {type: circular, omega: 0.6, rho: 1.0}\n"
             "gyro: [1.0, 0.0, 0.0]\ns_min: FIELD\ns_max: 1.0\nn_points: 2\n",
    "s_max": "kind: transport\nworldline: {type: circular, omega: 0.6, rho: 1.0}\n"
             "gyro: [1.0, 0.0, 0.0]\ns_min: 0.0\ns_max: FIELD\nn_points: 2\n",
    "t_min": "kind: precess\nworldline: {type: circular, omega: 0.6, rho: 1.0}\nframe: center\n"
             "gyro: [1.0, 0.0, 0.0]\nt_min: FIELD\nt_max: 1.0\nn_points: 3\n",
    "t_max": "kind: precess\nworldline: {type: circular, omega: 0.6, rho: 1.0}\nframe: center\n"
             "gyro: [1.0, 0.0, 0.0]\nt_min: 0.0\nt_max: FIELD\nn_points: 3\n",
    "frame": "kind: precess\nworldline: {type: circular, omega: 0.6, rho: 1.0}\n"
             "frame: [0.1, 0.0, FIELD]\ngyro: [1.0, 0.0, 0.0]\nt_min: 0.0\nt_max: 1.0\n"
             "n_points: 3\n",
    "velocity1": "kind: boost-compose\nvelocity1: [FIELD, 0.0, 0.0]\nvelocity2: [0.0, 0.1, 0.0]\n",
}
BAD_NUMBERS = [("abc", 2, "parse"), ("'[1]'", 2, "parse"), ("true", 2, "parse"),
               (".nan", 3, "constraint"), (".inf", 3, "constraint"), ("-.inf", 3, "constraint")]


class TestScenarioNumbers:
    @pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
    @pytest.mark.parametrize("value,code,kind", BAD_NUMBERS)
    def test_bad_number_is_one_error_line(self, field, value, code, kind, tmp_path, capsys):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(NUMBER_FIELDS[field].replace("FIELD", value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            assert main(["run", str(scenario), "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error code={code} kind={kind} ")
        assert field in err[0]

    @pytest.mark.parametrize("text,code", [
        (NUMBER_FIELDS["s_max"].replace("FIELD", ".inf"), 3),
        (NUMBER_FIELDS["rho"].replace("FIELD", ".inf"), 3),
        (NUMBER_FIELDS["omega"].replace("FIELD", "fast"), 2),
        # finite numbers whose squares overflow
        (NUMBER_FIELDS["omega"].replace("FIELD", "1.0e300"), 3),
        (NUMBER_FIELDS["rho"].replace("FIELD", "1.0e300"), 3),
        (NUMBER_FIELDS["gyro"].replace("[0.0, FIELD, 0.0]", "[1.0e300, 0.0, 1.0]"), 3),
        (NUMBER_FIELDS["center_velocity"].replace("[0.1, FIELD, 0.0]", "[1.0e300, 0.0, 0.0]"), 3),
        # a subnormal frame-time spacing, whose reciprocal overflows
        (NUMBER_FIELDS["t_max"].replace("FIELD", "1.0e-320"), 3),
    ])
    def test_process_prints_one_line_and_no_warning(self, text, code, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(text)
        result = subprocess.run(
            [sys.executable, "-m", "relkin", "run", str(scenario), "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == code
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(f"error code={code} ")


    @pytest.mark.parametrize("digits,code,kind", [(400, 3, "constraint"), (5000, 2, "parse")])
    def test_integer_beyond_float_range_is_one_error_line(self, digits, code, kind, tmp_path,
                                                          capsys):
        # 10**400 overflows float(); an integer of over 4300 digits fails YAML's int()
        scenario = tmp_path / "s.yaml"
        scenario.write_text(NUMBER_FIELDS["s_max"].replace("FIELD", "1" + "0" * digits))
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error code={code} kind={kind} ")

    def test_subnormal_grid_spacing_is_one_error_line(self, tmp_path, capsys):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(NUMBER_FIELDS["t_max"].replace("FIELD", "1.0e-320"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            assert main(["run", str(scenario), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error code=3 kind=constraint ")
        assert "grid spacing" in err[0]


class TestWorkBudget:
    def test_tiny_step_exits_3_at_once(self, tmp_path, capsys):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(INERTIAL_TRANSPORT + "step: 1.0e-300\n")
        start = time.perf_counter()
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error code=3 kind=constraint ")
        assert "more than the limit" in err[0]

    def test_step_limit_covers_the_whole_grid(self, tmp_path, capsys):
        # 1e9 steps split over 99 segments: each is under the limit, the run is not
        scenario = tmp_path / "s.yaml"
        scenario.write_text(INERTIAL_TRANSPORT.replace("s_max: 1.0\nn_points: 2",
                                                       "s_max: 1.0e9\nn_points: 100")
                            + "step: 1.0\n")
        start = time.perf_counter()
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "more than the limit" in err[0]

    @pytest.mark.parametrize("kind", ["transport", "precess"])
    def test_circular_span_past_the_default_step_budget_exits_3(self, kind, tmp_path, capsys):
        # with no step a circular line is transported exactly, within the budget of its
        # default step: unchecked, a span of 1e300 would answer with phases that have no
        # significant digits
        if kind == "transport":
            text = COARSE_CIRCULAR_TRANSPORT.replace("s_max: 4.18879", "s_max: 1.0e300")
            text = text.replace("step: 0.0837758\n", "")
        else:
            text = CIRCULAR_PRECESS.replace("t_max: 1.0", "t_max: 1.0e300")
        scenario = tmp_path / "s.yaml"
        scenario.write_text(text)
        start = time.perf_counter()
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error code=3 kind=constraint ")
        assert f"RK4 steps, more than the limit {MAX_STEPS}" in err[0]

    @pytest.mark.parametrize("kind", ["transport", "precess"])
    @pytest.mark.parametrize("n", [10**12, 10**300, MAX_POINTS + 1],
                             ids=["1e12", "1e300", "MAX_POINTS+1"])
    def test_too_many_points_exits_3_before_allocating(self, kind, n, tmp_path, capsys):
        text = INERTIAL_TRANSPORT if kind == "transport" else CIRCULAR_PRECESS
        scenario = tmp_path / "s.yaml"
        scenario.write_text(text.replace("n_points: 2", f"n_points: {n}"))
        start = time.perf_counter()
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error code=3 kind=constraint ")
        assert f"from 2 to {MAX_POINTS}" in err[0]

    def test_inertial_default_step_is_one_step_per_row(self, tmp_path, monkeypatch):
        # a span / 10 000 rule per output segment would take 1e4 steps per row,
        # 1e8 in all; the line's own infinite default step takes one
        calls = []
        kinematics = InertialWorldLine._kinematics_arrays

        def spy(self, s):
            calls.append(s)
            return kinematics(self, s)

        monkeypatch.setattr(InertialWorldLine, "_kinematics_arrays", spy)
        scenario = tmp_path / "s.yaml"
        n = 10_000
        scenario.write_text(INERTIAL_TRANSPORT.replace("n_points: 2", f"n_points: {n}"))
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 0
        assert len(calls) <= 3 * n + 1
        assert len((tmp_path / "s.csv").read_text().splitlines()) == n + 1


def test_cli_import_leaves_scipy_out():
    # scipy is no dependency: importing the CLI must not load it
    result = subprocess.run(
        [sys.executable, "-c", "import sys, relkin.cli; print('scipy.linalg' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "False"


def test_library_has_no_assert_statements():
    # ``python -O`` strips assert statements, so no check may be one
    found = []
    for path in sorted((REPO / "src" / "relkin").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_every_private_name_is_used():
    # a private module-level function or constant, or a private method, of src/relkin that
    # no code in src/ loads is dead, a left-behind twin say; an import alone does not count
    def is_private(name):
        return name.startswith("_") and not name.endswith("__")

    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted((REPO / "src" / "relkin").glob("*.py"))]
    defined, loaded = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined |= {item.name for item in node.body
                            if isinstance(item, ast.FunctionDef) and is_private(item.name)}
            elif isinstance(node, ast.FunctionDef) and is_private(node.name):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name) and is_private(n.id)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert len(defined) > 50  # the walk found the definitions
    assert sorted(defined - loaded) == []


def test_selftest_checks_under_optimize():
    # a wrong closed form must still be caught when asserts are stripped
    broken = subprocess.run(
        [sys.executable, "-O", "-c",
         "import relkin.cli as c; from relkin.transport import ThomasAngle; "
         "c.circular_thomas_angle = lambda line: ThomasAngle(1.0, 1.0, 1.0); "
         "raise SystemExit(c.selftest())"],
        capture_output=True, text=True,
    )
    assert broken.returncode == 1
    assert "FAIL thomas angle extraction" in broken.stdout


def test_selftest_catches_a_coarse_default_step():
    # a step fit 100x too small leaves the one-period error 100x over the target
    broken = subprocess.run(
        [sys.executable, "-O", "-c",
         "import relkin.cli as c, relkin.worldlines as w; w._STEP_FIT = 0.4; "
         "raise SystemExit(c.selftest())"],
        capture_output=True, text=True,
    )
    assert broken.returncode == 1
    assert broken.stdout.count("FAIL") == 1
    assert "FAIL default step meets its error target" in broken.stdout


def test_selftest_checks_the_operator_rk4():
    # an operator RK4 at three times the default step is 3^4 times further off the
    # exact Thomas rotation; vector paths run the same RK4 without going through
    # transport_operator_numeric, so only the operator check fails
    broken = subprocess.run(
        [sys.executable, "-O", "-c",
         "import relkin.cli as c, relkin.transport as t; op = t.transport_operator_numeric; "
         "t.transport_operator_numeric = lambda line, s1, s2, step=None: "
         "op(line, s1, s2, 3.0 * (step or line.default_step)); "
         "raise SystemExit(c.selftest())"],
        capture_output=True, text=True,
    )
    assert broken.returncode == 1
    assert broken.stdout.count("FAIL") == 1
    assert "FAIL default step meets its error target: the operator is " in broken.stdout


def test_selftest_checks_the_exact_route():
    # a path that runs RK4 at the default step where no step is given lies about 1e-13 off
    # the exact transport; the other checks pass explicit steps, so only this one fails
    broken = subprocess.run(
        [sys.executable, "-O", "-c",
         "import relkin.cli as c; path = c.transport_path; "
         "c.transport_path = lambda line, z0, ss, s_start=0.0, step=None: "
         "path(line, z0, ss, s_start, step or line.default_step); "
         "raise SystemExit(c.selftest())"],
        capture_output=True, text=True,
    )
    assert broken.returncode == 1
    assert broken.stdout.count("FAIL") == 1
    assert "FAIL path with no step is the exact transport: the path is " in broken.stdout


def test_optimized_module_selftest_exits_0():
    result = subprocess.run([sys.executable, "-O", "-m", "relkin", "selftest"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "selftest passed" in result.stdout


def test_selftest_passes(capsys):
    assert selftest() == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
