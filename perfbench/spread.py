"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/spread.py --workload tau2-scale --seeds 1-10 --seconds 25

Runs one after another, never in parallel, and prints one JSON object:
per metric the values in seed order, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread, which is
the distance between the quartiles over the median, and per run the
counters digest, which must repeat exactly for a repeated seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark spread over seeds")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="25")
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    runs = []
    for seed in _seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, cwd=RUN.parent.parent, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(done.stderr, file=sys.stderr)
            return 1
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                     "failed": result["failed"], "tail_pct": details.get("tail_pct"),
                     "counters_digest": details["counters_digest"]})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    out = {"workload": args.workload, "seconds": float(args.seconds),
           "runs": runs, "metrics": {name: summary(v) for name, v in values.items()}}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
