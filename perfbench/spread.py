#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--trace 0|1] [--out FILE] [WORKLOAD ...]

For every workload (all by default) this runs ``run.py`` once per seed
1..runs, then prints, per metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median. A spread should
stay under a third of the metric's bound in ``BENCHMARK.json``. Each run
measures for ``run_seconds`` of ``BENCHMARK.json``. ``--out`` stores the
summary, with the environment of the first run and the summary of the
unscaled times and scale factors of the ``raw`` lines, in a JSON file under
the key ``end_to_end`` or ``per_layer``, keeping the other key.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarize(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "runs": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "runs": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        series: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        env = None
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                return 1
            env = env or next((json.loads(line[4:]) for line in lines
                               if line.startswith("env ")), None)
            for name, metric in result["metrics"].items():
                series.setdefault(name, []).append(metric["value"])
            raw_line = next(line for line in lines if line.startswith("raw "))
            for name, value in json.loads(raw_line[4:]).items():
                raw.setdefault(name, []).append(value)
        summary[workload] = {
            "env": env,
            "metrics": {name: summarize(v) for name, v in series.items()},
            "raw": {name: summarize(v) for name, v in raw.items()}}
        print(f"== {workload}")
        for name, s in summary[workload]["metrics"].items():
            bound = bounds.get(name)
            if s["runs"] == 1:
                print(f"  {name:28s} {s['median']:14.5f}")
                continue
            spread = "" if s["spread"] is None else f"{s['spread']:.4f}"
            limit = f" (bound/3 {bound / 3:.4f})" if bound else ""
            print(f"  {name:28s} median {s['median']:12.5f}  "
                  f"q1 {s['q1']:12.5f}  q3 {s['q3']:12.5f}  spread {spread}{limit}")
        sys.stdout.flush()
    if args.out:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored["per_layer" if args.trace else "end_to_end"] = summary
        args.out.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
