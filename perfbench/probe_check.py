#!/usr/bin/env python3
"""Check that the speed probe does not read the program's own load.

    python3 perfbench/probe_check.py [--rounds 6]

``run.py`` scales every time by the probe's chunk time during the command.
That is sound only if the chunk time follows the host, not the load the
benchmark itself puts on the CPUs. Each round this script takes probe
chunks in three phases, back to back so that the host's drift touches all
three alike: idle (the benchmark sleeps), a pair-sweep CLI pass at
``--jobs 1`` (one busy CPU) and one at ``--jobs 2`` (both CPUs busy). It
prints each phase's median chunk time and chunk count per round, and the
ratio of each busy phase to the idle one; ratios near 1 mean the probe reads
the host alone.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from run import SpeedProbe, _cli  # noqa: E402

PHASES = ("idle", "jobs1", "jobs2")


def _chunks(probe: SpeedProbe, t0: float, t1: float) -> list[float]:
    return [c for end, c in zip(probe.ends, probe.chunks) if t0 <= end <= t1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=6)
    args = ap.parse_args()
    cmds = workloads.commands("pair-sweep", 1)
    ratios = {"jobs1": [], "jobs2": []}
    with SpeedProbe() as probe:
        for r in range(args.rounds):
            medians, counts = {}, {}
            for phase in PHASES:
                t0 = time.perf_counter()
                if phase == "idle":
                    time.sleep(3.0)
                else:
                    for cmd in cmds:
                        _cli([*cmd, "--json", "--jobs", phase[-1]])
                chunks = _chunks(probe, t0, time.perf_counter())
                medians[phase] = statistics.median(chunks)
                counts[phase] = len(chunks)
            for phase in ratios:
                ratios[phase].append(medians[phase] / medians["idle"])
            print(f"round {r + 1}: " + ", ".join(
                f"{p} {medians[p] * 1e3:.3f} ms ({counts[p]} chunks)"
                for p in PHASES)
                + f"; jobs1/idle {ratios['jobs1'][-1]:.3f}, "
                f"jobs2/idle {ratios['jobs2'][-1]:.3f}", flush=True)
    for phase, values in ratios.items():
        print(f"{phase}/idle chunk time: median {statistics.median(values):.3f}, "
              f"range {min(values):.3f} .. {max(values):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
