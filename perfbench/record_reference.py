#!/usr/bin/env python3
"""Write reference.json: the expected output of every benchmark command.

    python3 perfbench/record_reference.py

Runs every command any seed can draw, in one process through
``cotsums.cli.main``, and records each instance's params and lhs. Every
instance must pass. Record it once at the commit the benchmark is defined
on; later commits are checked against it, so do not re-record to make a
changed value pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inproc  # noqa: E402
import workloads  # noqa: E402
from run import _reports  # noqa: E402


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        cmds = workloads.all_commands(name)
        out = inproc.run([[*c, "--json", "--jobs", "1"] for c in cmds],
                         traced=False)
        for cmd, res in zip(cmds, out["results"]):
            reports = _reports(res["stdout"])
            if res["rc"] != 0 or not reports or not all(r["pass"] for r in reports):
                print(f"not all instances pass: {workloads.key(cmd)}",
                      file=sys.stderr)
                return 1
            reference[workloads.key(cmd)] = [[r["params"], r["lhs"]]
                                             for r in reports]
        print(f"{name}: {len(cmds)} commands, {out['wall_s']:.1f} s",
              file=sys.stderr)
    (BENCH / "reference.json").write_text(
        json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
