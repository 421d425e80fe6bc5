"""Self-test of the benchmark's own checks.

    python3 bench/selftest.py

For one op of every kind in every workload: a clean run must pass, in a
timed pass and in a traced pass (rebuilt path equal to the one-call
path), and a run whose output has every number scaled by 1 + 1e-3 must
be counted as one failed, incorrect op, both in a timed pass (the output
checks) and in a traced pass (the rebuilt-path comparison).  Exits 1 on
any miss.
"""
import re
import sys

import numpy as np

import run


def corrupt(data: bytes) -> bytes:
    import ops

    return re.sub(rb"[-+]?\d\.\d+e[-+]\d+",
                  lambda m: ops.fmt(float(m.group()) * 1.001).encode(), data)


def main() -> int:
    run.require_checkout()
    import ops
    import spans

    out_dir = run.ROOT / ".bench_out" / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    misses = 0
    for workload, build in ops.WORKLOADS.items():
        op_list, _ = build(np.random.default_rng(7), run.ROOT, out_dir)
        picked = {}
        for op in op_list:
            picked.setdefault(op.kind, op)
        for kind, op in picked.items():
            cases = [
                ("clean", 0, lambda t: run.timed_pass([op], out_dir, t, {})),
                ("corrupted", 1, lambda t: run.timed_pass([op], out_dir, t, {}, corrupt)),
                ("rebuilt", 0, lambda t: run.traced_pass([op], out_dir, spans.Tracer(), t)),
                ("corrupted rebuilt", 1,
                 lambda t: run.traced_pass([op], out_dir, spans.Tracer(), t, corrupt)),
            ]
            for label, expected, pass_fn in cases:
                tally = run.Tally()
                pass_fn(tally)
                ok = tally.failed == expected and tally.wrong == expected
                misses += not ok
                print(f"{'ok' if ok else 'MISS'} {workload} {kind} {label}: "
                      f"failed={tally.failed} {tally.failures}")
    print("selftest passed" if not misses else f"selftest failed ({misses} misses)")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
