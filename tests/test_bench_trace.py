"""The benchmark's in-process tracer runs against the package as it is.

``perfbench/inproc.py traced`` wraps the functions its SPECS name and reads
the trig tables' lru_cache counters. A command list that reads each table
many times must report table hits, and a wrapped name that disappears
makes the run fail.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = [
    ["sweep", "eq1", "--k", "5..8", "--h", "all-coprime"],
    ["verify", "th4", "--k", "7", "--rs", "2,2,2", "--hs", "1,2,3"],
    ["verify", "lemma1-ii", "--k", "10", "--r", "3"],
    ["verify", "th9", "--k", "5", "--h1", "1", "--h2", "2"],
]


def test_traced_run_counts_table_hits():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "inproc.py"), "traced"],
        input=json.dumps(COMMANDS), capture_output=True, text=True,
        cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert [r["rc"] for r in out["results"]] == [0] * len(COMMANDS)
    assert out["counts"].get("trig.table.hits", 0) > 0
