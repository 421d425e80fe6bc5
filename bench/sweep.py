"""Run the benchmark once per seed, one run at a time, and summarise the spread.

    python3 bench/sweep.py --workload closed-form --seeds 101-110 [--seconds 30] [--out FILE]

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to the metric's bound in ``BENCHMARK.json``.
``--out`` writes the same figures, and every run's result, as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = args.seconds or config["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": spread}
        print(f"{name:16s} median {med:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:.3f} "
              f"bound {bound} ({spread / bound:.2f} of it)")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "summary": summary, "runs": runs},
            indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
