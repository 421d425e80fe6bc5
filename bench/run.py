"""relkin benchmark: seeded closed-loop workloads with output checks.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scenario-replay --seed 1 --seconds 30 --trace 0

One process, one caller: each op starts when the previous one returns,
and BLAS runs on one thread.  ``--trace 0`` prints the end-to-end
metrics, at reference machine speed (see ``speed.py``), ``--trace 1``
the per-layer metrics of a traced run.  Summary
lines start with ``#``; the last line is one JSON object.  Outputs,
results and spans go to ``.bench_out/`` in the checkout.
"""
import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pins)

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEEDOMETER = speed.Speedometer()  # started by run(), see speed.py
SETUP_REPEATS = 3
CALIBRATION_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "max_err_digits": "digits",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name or name.endswith("_us_per_scenario"):
        return "us"
    if name.endswith(("share", "frac")):
        return "frac"
    return "count"


def require_checkout() -> None:
    needed = [ROOT / "src" / "relkin" / "__init__.py", ROOT / "scenarios",
              ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"bench: not a relkin checkout, missing {', '.join(missing)}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))


def machine(seed: int) -> dict:
    import numpy
    import scipy
    import yaml

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "commit": commit,
        "seed": seed,
    }


class Tally:
    """Attempts, failures by kind, and the largest deviation of checked outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.wrong = 0          # failed checks, mismatches and untyped errors
        self.max_err = 0.0

    def fail(self, what: str, wrong: bool) -> None:
        key = re.sub(r"[-+]?\d[\d.e+-]*", "#", what)
        self.failures[key] = self.failures.get(key, 0) + 1
        self.wrong += wrong

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, op, data: bytes | None, exc: Exception | None) -> None:
        """Count one op and check its output bytes."""
        from relkin import KinematicsError

        self.attempted += 1
        if exc is not None:
            typed = isinstance(exc, KinematicsError)
            self.fail(f"{op.kind}: {type(exc).__name__}: {exc}", wrong=not typed)
            return
        err, failure = op.check(data)
        if err is not None and math.isfinite(err):
            self.max_err = max(self.max_err, err)
        if failure is not None:
            self.fail(f"{op.kind}: check: {failure}", wrong=True)


def timed_pass(ops, out_dir, tally, latencies, data_hook=None, walls=None) -> float:
    """One pass over the op list; returns the summed op time (checks excluded).

    Op times are at reference speed (see ``speed.py``); ``walls``, when
    given, receives the raw wall time of each op.
    """
    total = 0.0
    for op in ops:
        data, exc = None, None
        start = time.perf_counter()
        try:
            raw = op.run(out_dir)
        except Exception as e:  # counted as a failed op, the pass goes on
            exc = e
        end = time.perf_counter()
        wall = end - start
        elapsed = wall * SPEEDOMETER.scale(start, end)
        if exc is None:
            total += elapsed
            latencies.setdefault(op.name, []).append(elapsed)
            if walls is not None:
                walls.append(wall)
            data = op.output(raw)
            if data_hook is not None:
                data = data_hook(data)
        tally.record(op, data, exc)
    return total


def traced_pass(ops, out_dir, tr, tally, data_hook=None) -> float:
    """Rebuilt paths inside spans; returns the summed rebuilt op time.

    An op whose rebuilt output differs from its one-call output fails.
    """
    total = 0.0
    for op in ops:
        start = time.perf_counter()
        try:
            raw = op.run(out_dir)
        except Exception as e:
            tally.record(op, None, e)
            continue
        one_call = time.perf_counter() - start
        expected = op.output(raw)
        lo = len(tr.spans)
        rebuilt = op.output(tr.call("bench.op", op.rebuild, tr, out_dir))
        hi = len(tr.spans)
        total += tr.spans[lo][2] - tr.spans[lo][1]
        if op.kind == "boost-compose":
            tr.scenario_runs.append((one_call, lo, hi, len(getattr(op, "items", [op]))))
        if data_hook is not None:
            rebuilt = data_hook(rebuilt)
        if rebuilt == expected:
            tally.record(op, rebuilt, None)
        else:
            tally.attempted += 1
            tally.fail(f"{op.kind}: rebuilt path output differs from the one-call output", True)
    return total


def tail(values):
    """Highest order statistic with at least ten values above it, and its percentile."""
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def measure(ops, out_dir, seconds, tally, latencies, pass_fn) -> None:
    """Whole passes until the next one would overrun ``seconds``."""
    walls = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        pass_fn(ops, out_dir, tally, latencies)
        walls.append(time.perf_counter() - start)
        if time.perf_counter() - begin + statistics.median(walls) > seconds:
            return


def setup(workload: str, seed: int, out_dir: Path, import_s: float):
    """Generate the inputs and run one warm-up op, several times.

    Returns the op list, the set-up time at reference speed (import time
    plus the median repetition, each at the speed sampled while it ran)
    and the same in wall time.
    """
    import ops as bench_ops

    times, walls = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        op_list, warm = bench_ops.WORKLOADS[workload](np.random.default_rng(seed), ROOT, out_dir)
        warm.output(warm.run(out_dir))
        end = time.perf_counter()
        walls.append(end - start)
        times.append(walls[-1] * SPEEDOMETER.scale(start, end))
    imported = import_s * SPEEDOMETER.scale(START, START + import_s)
    return op_list, imported + statistics.median(times), import_s + statistics.median(walls)


def run(args) -> int:
    SPEEDOMETER.start()
    try:
        return measured_run(args)
    finally:
        SPEEDOMETER.stop()


def measured_run(args) -> int:
    require_checkout()
    import ops as bench_ops
    import spans

    import_s = time.perf_counter() - START
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    op_list, setup_s, setup_wall_s = setup(args.workload, args.seed, out_dir, import_s)
    # the benchmark's own long-lived objects stay out of the timed collections
    gc.collect()
    gc.freeze()

    tally, latencies = Tally(), {}
    summary: dict = {"workload": args.workload, "machine": machine(args.seed)}
    tr = spans.Tracer()
    passes, traced, walls, pass_walls = [], [], [], []

    def untraced_pass(ops, out_dir, tally, latencies):
        lo = len(walls)
        passes.append(timed_pass(ops, out_dir, tally, latencies, walls=walls))
        pass_walls.append(sum(walls[lo:]))

    def paired_pass(ops, out_dir, tally, latencies):
        # alternating, so that a drift of the machine's speed hits both sides
        untraced_pass(ops, out_dir, tally, latencies)
        traced.append(traced_pass(ops, out_dir, tr, tally))

    measure(op_list, out_dir, args.seconds, tally, latencies,
            paired_pass if args.trace else untraced_pass)
    all_ms = [1e3 * x for v in latencies.values() for x in v]
    tail_ms, tail_pct = tail(all_ms)
    summary.update({
        "passes": len(passes),
        "ops_timed": len(all_ms),
        "op_ms_tail_percentile": tail_pct,
        "setup_wall_s": setup_wall_s,
        "pass_wall_s": statistics.median(pass_walls),
        "op_wall_ms_p50": 1e3 * statistics.median(walls),
        "speed_samples": len(SPEEDOMETER.loops),
        "speed_loop_ms_p50": 1e3 * statistics.median(SPEEDOMETER.loops),
    })
    if args.workload == "scenario-replay":
        for name, values in sorted(latencies.items()):
            summary[f"scenario.{name}_s"] = statistics.median(values)
    summary["op_ms_p50_by_name"] = {
        name: 1e3 * statistics.median(values) for name, values in sorted(latencies.items())}
    if args.workload == "closed-form":
        for band, items in bench_ops.census(np.random.default_rng(args.seed)).items():
            t = Tally()
            timed_pass(items, out_dir, t, {})
            summary[f"census.{band}"] = {"attempted": t.attempted, "failed": t.failed,
                                         "fail_frac": t.failed / t.attempted,
                                         "failures": t.failures}

    if args.trace:
        metrics = spans.layer_metrics(tr, len(traced))
        missing = [k for k, v in metrics.items() if v is None]
        if missing:
            calib = spans.Tracer()
            calib_ops = bench_ops.calibration(np.random.default_rng(args.seed), out_dir)
            timed_pass(calib_ops, out_dir, Tally(), {})  # first-call costs stay out
            for _ in range(CALIBRATION_PASSES):
                traced_pass(calib_ops, out_dir, calib, Tally())
            from_calib = spans.layer_metrics(calib, CALIBRATION_PASSES)
            metrics.update({k: from_calib[k] for k in missing})
            summary["from_calibration"] = missing
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(pass_walls) - 1.0
        summary["traced_passes"] = len(traced)
        summary["traced_share"] = spans.traffic(tr)
        tr.write(out_dir / "spans.json")
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": setup_s,
            "pass_s": statistics.median(passes),
            "op_ms_p50": statistics.median(all_ms),
            "op_ms_tail": tail_ms,
            # -log10 of the largest deviation: the raw maximum of rounding-level
            # errors moves by a factor of several from seed to seed
            "max_err_digits": -math.log10(max(tally.max_err, 1e-17)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    summary.update({
        "max_err": tally.max_err,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.failed / tally.attempted,
        "failures": tally.failures,
    })

    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (out_dir / "result.json").write_text(json.dumps({**summary, **result}, indent=1))
    for key, value in summary.items():
        print(f"# {key} = {json.dumps(value)}")
    for key, value in metrics.items():
        print(f"# metric {key} = {value} {units[key]}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["scenario-replay", "observe-dense", "closed-form"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
