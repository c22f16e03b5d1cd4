"""Steadiness check: run workloads several times and report each metric's spread.

    python3 perfbench/steady.py --workload vqmc-n16 --runs 10

Runs ``run.py`` untraced once for each seed from 1 to --runs, one run at a
time, and prints for every metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance as
a share of the median, next to the metric's bound in BENCHMARK.json.  The
bounds should rest on these spreads: each spread but set-up's below a third
of its bound.  All run outputs are kept in perfbench/out/steady-*.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=names + ["all"], required=True)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    chosen = names if "all" in args.workload else args.workload
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (HERE / "out").mkdir(exist_ok=True)

    for workload in chosen:
        results = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()),
                flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {len(results)} runs, failed share {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in results)}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
                  f"{bounds[name]:6.2f}")
        (HERE / "out" / f"steady-{workload}.json").write_text(
            json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
