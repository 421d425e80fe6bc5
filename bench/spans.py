"""In-memory spans recorded by the benchmark around its calls into relkin.

Nothing in ``src/`` is patched.  The traced passes call each layer's
public functions one by one from the benchmark's own files (``rebuild``
in ``ops.py``), wrapping every call in a span.  Kinematics evaluations
made inside the integrator are too frequent for one span each: the
world-line subclasses below time them and add the time to the enclosing
span as aggregated inner work of the ``worldlines`` layer.
"""
from __future__ import annotations

import json
from time import perf_counter

from relkin import CircularWorldLine, InertialWorldLine

LAYERS = ("cli", "worldlines", "transport", "boosts", "precession", "minkowski")


class Tracer:
    """Spans (name, start, end, parent) kept in memory, written out at the end."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.inner_calls: dict[int, int] = {}
        self.inner_s: dict[int, float] = {}
        self.counts: dict[str, int] = {}
        # (one-call seconds, first span, end span, scenarios) of boost-compose ops
        self.scenario_runs: list[tuple[float, int, int, int]] = []

    def call(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent)

    def inner(self, seconds: float) -> None:
        sid = self._stack[-1] if self._stack else -1
        self.inner_calls[sid] = self.inner_calls.get(sid, 0) + 1
        self.inner_s[sid] = self.inner_s.get(sid, 0.0) + seconds

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> list[float]:
        """Duration of each span minus its children and aggregated inner work."""
        own = [end - start - self.inner_s.get(i, 0.0)
               for i, (_, start, end, _) in enumerate(self.spans)]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "inner": [
                        {"parent": sid, "name": "worldlines.kinematics",
                         "calls": n, "seconds": self.inner_s[sid]}
                        for sid, n in self.inner_calls.items()
                    ],
                    "counts": self.counts,
                },
                fh,
            )


class TracedCircular(CircularWorldLine):
    """Circular line whose integrator kinematics calls are timed."""

    tracer: Tracer

    def _kinematics_arrays(self, s):
        start = perf_counter()
        out = CircularWorldLine._kinematics_arrays(self, s)
        self.tracer.inner(perf_counter() - start)
        return out


class TracedInertial(InertialWorldLine):
    """Inertial line whose integrator kinematics calls are timed."""

    tracer: Tracer

    def _kinematics_arrays(self, s):
        start = perf_counter()
        out = InertialWorldLine._kinematics_arrays(self, s)
        self.tracer.inner(perf_counter() - start)
        return out


def _mean_us(seconds: float, n: int) -> float | None:
    return 1e6 * seconds / n if n else None


def _cli_self_us(tr: Tracer, own: list[float]) -> float | None:
    """run_scenario time minus the rebuilt non-cli layers, per scenario.

    Taken on boost-compose scenarios only: their layer work is a few
    hundred microseconds, so the difference is not lost in the noise of a
    long integration.
    """
    total, n = 0.0, 0
    for one_call, lo, hi, scenarios in tr.scenario_runs:
        layers = sum(own[i] for i in range(lo, hi)
                     if tr.spans[i][0].split(".", 1)[0] not in ("cli", "bench"))
        layers += sum(tr.inner_s.get(i, 0.0) for i in range(lo, hi))
        total += one_call - layers
        n += scenarios
    return _mean_us(total, n)


def layer_metrics(tr: Tracer, passes: int) -> dict[str, float | None]:
    """Per-layer figures of ``passes`` traced passes; counts and busy time per pass.

    None where the passes made no such call.
    """
    own = tr.self_times()
    busy = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    by_name: dict[str, list] = {}
    for (name, start, end, _), s in zip(tr.spans, own):
        layer = name.split(".", 1)[0]
        if layer in busy:
            busy[layer] += s
            calls[layer] += 1
        entry = by_name.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += s
    kin_calls = sum(tr.inner_calls.values())
    kin_s = sum(tr.inner_s.values())
    busy["worldlines"] += kin_s
    calls["worldlines"] += kin_calls
    total = sum(end - start for name, start, end, parent in tr.spans if parent < 0)

    def span_mean(*names):
        n = sum(by_name.get(k, (0, 0.0, 0.0))[0] for k in names)
        return _mean_us(sum(by_name.get(k, (0, 0.0, 0.0))[1] for k in names), n)

    def self_of(*names):
        return sum(by_name.get(k, (0, 0.0, 0.0))[2] for k in names)

    steps = tr.counts.get("rk4_steps", 0)
    rows = tr.counts.get("csv_rows", 0)
    samples = tr.counts.get("samples", 0)
    out = {
        "transport.rk4_steps": steps / passes,
        "transport.us_per_rk4_step": _mean_us(
            self_of("transport.transport_path", "transport.thomas_rotation_general"), steps),
        "transport.us_per_exact": span_mean(
            "transport.transport_circular_exact", "transport.thomas_rotation_circular"),
        "worldlines.us_per_kinematics": _mean_us(kin_s, kin_calls),
        "worldlines.invert_calls":
            by_name.get("worldlines.proper_time_of_frame_time", [0])[0] / passes,
        "worldlines.us_per_invert": span_mean("worldlines.proper_time_of_frame_time"),
        "boosts.us_per_boost": span_mean("boosts.boost"),
        "boosts.us_per_chain": span_mean("boosts.thomas_rotation_discrete"),
        "precession.us_per_sample": _mean_us(busy["precession"], samples) if samples else None,
        "minkowski.us_per_velocity": span_mean("minkowski.from_3velocity"),
        "cli.self_us_per_scenario": _cli_self_us(tr, own),
        "cli.us_per_row": _mean_us(by_name.get("cli.emit_csv", [0, 0.0])[1], rows),
    }
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = busy[layer] / passes
        out[f"{layer}.share"] = busy[layer] / total if total else None
        out[f"{layer}.calls"] = calls[layer] / passes
    return out


def traffic(tr: Tracer) -> dict[str, float]:
    """Shares of traced op time of the layer groups the workloads are built around."""
    own = tr.self_times()
    total = sum(end - start for name, start, end, parent in tr.spans if parent < 0)
    kin_s = sum(tr.inner_s.values())

    def share(*prefixes):
        return sum(s for (name, *_), s in zip(tr.spans, own) if name.startswith(prefixes)) / total

    return {
        "transport+worldlines": share("transport.", "worldlines.") + kin_s / total,
        "rk4+kinematics": share("transport.transport_path", "transport.thomas_rotation_general")
        + kin_s / total,
        "boosts+precession+inversion": share("boosts.", "precession.",
                                             "worldlines.proper_time_of_frame_time"),
    }
