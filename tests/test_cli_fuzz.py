"""Fuzz of the CLI's exit-code contract on generated scenario files.

Each test starts from a valid scenario of one kind and replaces fields,
nested world-line fields and vector components with hostile values, or
leaves them out, or splices YAML punctuation into its text.  Every run
must end in exit 0, 2, 3 or 4; a failure prints exactly one
``error code=`` line on stderr, and no run may warn.
"""
import contextlib
import copy
import functools
import io
import math
import operator
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from relkin import cli
from relkin.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MISSING = object()  # the field is left out

VALUES = [0, 0.0, -0.0, 1, -1, 1.0 - 1e-12, 5e-324, -5e-324, 1e-320, 1e300, -1e300, 1e-300,
          -1e-300, math.nan, math.inf, -math.inf, 10**12, 10**300, True, False, "text", "",
          None, [], [1.0, 2.0, 3.0], {}, {"x": 1.0}, MISSING]

CIRCULAR = {"type": "circular", "omega": 0.6, "rho": 1.0, "center_velocity": [0.1, 0.0, 0.0]}
INERTIAL = {"type": "inertial", "velocity": [0.1, 0.0, 0.0]}
GYRO = [1.0, 0.0, 0.0]
# one valid scenario per kind and world line; each runs in milliseconds
BASES = {
    "boost-compose": {"kind": "boost-compose", "velocity1": [0.6, 0.0, 0.0],
                      "velocity2": [0.0, 0.6, 0.0]},
    "circular-thomas": {"kind": "circular-thomas", "omega": 0.3, "rho": 1.0,
                        "center_velocity": [0.1, 0.0, 0.0],
                        "plane": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "step": 0.1},
    "transport-circular": {"kind": "transport", "worldline": CIRCULAR, "gyro": GYRO,
                           "s_min": 0.0, "s_max": 1.0, "n_points": 3, "step": 0.01},
    "transport-inertial": {"kind": "transport", "worldline": INERTIAL, "gyro": GYRO,
                           "s_min": 0.0, "s_max": 1.0, "n_points": 3},
    "precess-center": {"kind": "precess", "worldline": CIRCULAR, "frame": "center",
                       "gyro": GYRO, "t_min": 0.0, "t_max": 1.0, "n_points": 3, "step": 0.01},
    "precess-velocity": {"kind": "precess", "worldline": INERTIAL, "frame": [0.0, 0.2, 0.0],
                         "gyro": GYRO, "t_min": 0.0, "t_max": 1.0, "n_points": 3},
}


def paths(value, prefix=()):
    """Every key of a scenario and the first entry of every list, nested ones
    included, but the kind."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = [(0, value[0])]
    else:
        return
    for key, sub in items:
        if key != "kind":
            yield prefix + (key,)
            yield from paths(sub, prefix + (key,))


def replaced(cfg: dict, path: tuple, value) -> dict:
    """A copy of ``cfg`` with the entry at ``path`` set to ``value``, or removed."""
    cfg = copy.deepcopy(cfg)
    *head, last = path
    parent = functools.reduce(operator.getitem, head, cfg)
    if value is MISSING:
        del parent[last]
    else:
        parent[last] = value
    return cfg


def check_contract(cfg: dict) -> None:
    check_text(yaml.safe_dump(cfg))


def check_text(text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.yaml"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main(["run", str(path), "--out", tmp])
    assert code in (0, 2, 3, 4)
    lines = err.getvalue().splitlines()
    if code:
        assert len(lines) == 1 and lines[0].startswith(f"error code={code} ")
    else:
        assert lines == []


@pytest.mark.parametrize("base,path", [(b, p) for b, cfg in BASES.items() for p in paths(cfg)],
                         ids=lambda x: x if isinstance(x, str) else ".".join(map(str, x)))
@settings(max_examples=2 * len(VALUES), derandomize=True, deadline=None, database=None)
@given(value=st.sampled_from(VALUES))
def test_one_hostile_field(base, path, value):
    # a finite space, which the derandomized run exhausts: every value is tried
    check_contract(replaced(BASES[base], path, value))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_several_hostile_fields(data):
    base = BASES[data.draw(st.sampled_from(sorted(BASES)))]
    chosen = data.draw(st.lists(st.sampled_from(list(paths(base))), min_size=2, max_size=4,
                                unique=True))
    cfg = base
    # nested entries before their parents, so that every path still exists when replaced
    for path in sorted(chosen, reverse=True):
        cfg = replaced(cfg, path, data.draw(st.sampled_from(VALUES)))
    check_contract(cfg)


# YAML punctuation, tab, byte-order mark, NEL and line separator, a tag, an anchor and an alias
TOKENS = [*"-?:,[]{}#&*!|>'\"%@`", " ", "\n", "\t", "\ufeff", "\x85", "\u2028", "!!float ",
          "&a ", "*a", "0.5"]
NO_LIBYAML = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                reason="PyYAML is built without libyaml")
# the pure-Python loader, and libyaml's where PyYAML has it
LOADERS = [pytest.param(yaml.SafeLoader, id="python"),
           pytest.param(getattr(yaml, "CSafeLoader", None), id="libyaml", marks=NO_LIBYAML)]
# each base in block and in flow style
BASE_TEXTS = {f"{name}-{style}": yaml.safe_dump(cfg, default_flow_style=style == "flow")
              for name, cfg in BASES.items() for style in ("block", "flow")}


@pytest.mark.parametrize("loader", LOADERS)
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_spliced_punctuation(loader, data):
    text = data.draw(st.sampled_from(sorted(BASE_TEXTS.values())))
    # words, runs of white space and single characters, of which up to three are replaced
    pieces = re.findall(r"\w[\w.+-]*|\s+|.", text)
    start = data.draw(st.integers(0, len(pieces)))
    stop = data.draw(st.integers(start, min(len(pieces), start + 3)))
    pieces[start:stop] = data.draw(st.lists(st.sampled_from(TOKENS), max_size=4))
    with mock.patch.object(cli, "_LOADER", loader):
        check_text("".join(pieces))


@NO_LIBYAML
@pytest.mark.parametrize("text", [
    *(pytest.param(p.read_text(), id=p.name) for p in sorted(SCENARIOS.glob("*.yaml"))),
    *(pytest.param(text, id=name) for name, text in BASE_TEXTS.items()),
])
def test_both_loaders_read_the_same_scenario(text):
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
