"""Steadiness mode: run each workload repeatedly, one seed per run, and report
the median and quartiles of every metric.

    python3 bench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                            [--seconds S] [--json OUT]

Runs go one after another, from the root of a source checkout.  For each
workload and metric the table gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  With the bounds
from ``BENCHMARK.json`` it marks a spread wider than a third of its bound.
The bounds in ``BENCHMARK.json`` are set from this output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    summary = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                           "platform": platform.platform()},
               "runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        start = time.perf_counter()
        results = [run_once(workload, args.first_seed + i, args.seconds) for i in range(args.runs)]
        run_wall = (time.perf_counter() - start) / args.runs
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        rows = {name: {**summarize([r["metrics"][name]["value"] for r in results]),
                       "values": [r["metrics"][name]["value"] for r in results]}
                for name in results[0]["metrics"]}
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in results), "failed_shares": shares,
            "seconds_per_run": run_wall, "metrics": rows}
        print(f"{workload}: correct={all(r['correct'] for r in results)} failed share={shares}"
              f" {run_wall:.1f} s per run")
        for name, s in rows.items():
            unit = results[0]["metrics"][name]["unit"]
            bound = bounds.get(name)
            mark = " WIDE" if bound is not None and name != "setup_s" and s["spread"] > bound / 3 else ""
            print(f"  {name:40s} {s['median']:12.5g} {unit:6s} q1 {s['q1']:12.5g} q3 {s['q3']:12.5g}"
                  f" spread {s['spread']:7.2%}{mark}")
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
