"""Golden outputs of ``cotsums verify --json`` for every registry id, and of
``cotsums compute`` and ``cotsums sweep``.

``golden_verify.json`` holds, for each argv, the exit code, the report with
its timing fields removed, and stderr. ``golden_cli.json`` holds the same
for compute argv (every target in text and ``--json`` mode, and the refused
argv) and for sweep argv; a sweep record keeps the ``--json`` report lines
without their timing fields and the first summary line. The closed forms,
the registry and the CLI may be restructured, but every printed digit,
every instance and every refusal must stay as recorded. Regenerate both
files (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py

which prints, for each record it rewrites, the fields that moved.
"""

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from cotsums.cli import main

GOLDEN = Path(__file__).with_name("golden_verify.json")
GOLDEN_CLI = Path(__file__).with_name("golden_cli.json")
TIMING_KEYS = ("micros", "lhs_micros", "rhs_micros")
LOW_PRECISION = ["--precision", "100", "--tolerance", "2^-64"]
HIGH_PRECISION = ["--precision", "512"]

# admissible instances: k = 1 and k = 2 wherever the preconditions allow
PASSING = {
    "eq1": [["--h", "1", "--k", "1"], ["--h", "1", "--k", "2"],
            ["--h", "5", "--k", "17"], ["--h", "-3", "--k", "10"],
            ["--h", "37", "--k", "101"],
            ["--h", "3", "--k", "7", *LOW_PRECISION],
            ["--h", "3", "--k", "7", *HIGH_PRECISION]],
    "eq2": [["--h", "1", "--k", "1", "--terms", "100"],
            ["--h", "1", "--k", "2", "--terms", "1000"],
            ["--h", "2", "--k", "5", "--terms", "5000"]],
    "parseval": [["--k", "1"], ["--k", "2"], ["--k", "9", "--seed", "3"]],
    "th1": [["--k", "1"], ["--k", "2", "--m", "3"],
            ["--k", "7", "--m", "3", "--seed", "2"],
            ["--k", "5", "--m", "1"], ["--k", "6", "--m", "4", "--seed", "5"]],
    "cor1": [["--k", "1", "--h1", "1", "--h2", "1"],
             ["--k", "2", "--h1", "1", "--h2", "1"],
             ["--k", "9", "--h1", "2", "--h2", "5", "--seed", "4"]],
    "cor2": [["--k", "1", "--h1", "1", "--h2", "1"],
             ["--k", "2", "--h1", "1", "--h2", "1", "--parity", "even"],
             ["--k", "9", "--h1", "2", "--h2", "5", "--parity", "odd"],
             ["--k", "8", "--h1", "3", "--h2", "5", "--parity", "even"]],
    "lemma1-i": [["--k", "1"], ["--k", "2"], ["--k", "12"]],
    "lemma1-ii": [["--k", "1", "--r", "2"], ["--k", "2", "--r", "1"],
                  ["--k", "7", "--r", "3"],
                  ["--k", "6", "--r", "1", "--convention", "paper"],
                  ["--k", "5", "--r", "2", "--convention", "paper"]],
    "lemma1-iii": [["--k", "2"], ["--k", "10"]],
    "lemma1-iv": [["--k", "1"], ["--k", "9"]],
    "lemma1-v": [["--k", "1"], ["--k", "2"], ["--k", "5", "--s", "2.5"],
                 ["--k", "4", "--s", "2+1i"]],
    "th2": [["--k", "1", "--hs", "1,1"], ["--k", "2", "--hs", "1,1"],
            ["--k", "7", "--hs", "1,2,3"], ["--k", "5", "--hs", "2"],
            ["--k", "5", "--hs", "1,2,3,4"],
            ["--k", "6", "--hs", "1,5,1,5,1,5"],
            ["--k", "7", "--hs", "1,2,3,4,5,6"],
            ["--k", "9", "--hs", "1,2", *LOW_PRECISION],
            ["--k", "9", "--hs", "1,2", *HIGH_PRECISION]],
    "cor3": [["--k", "1", "--h1", "1", "--h2", "1"],
             ["--k", "2", "--h1", "1", "--h2", "1"],
             ["--k", "13", "--h1", "3", "--h2", "-5"]],
    "th4": [["--k", "1", "--rs", "2,2", "--hs", "1,1"],
            ["--k", "2", "--rs", "1,1", "--hs", "1,1"],
            ["--k", "5", "--rs", "1,3", "--hs", "2,3"],
            ["--k", "7", "--rs", "2,2,2", "--hs", "1,2,3"],
            ["--k", "5", "--rs", "2,2,2,2", "--hs", "1,2,3,4"],
            ["--k", "1", "--rs", "2,2", "--hs", "1,1",
             "--convention", "paper"],
            ["--k", "7", "--rs", "2,2,2", "--hs", "1,2,3",
             "--convention", "paper"],
            ["--k", "6", "--rs", "2,4", "--hs", "1,5",
             "--convention", "paper"],
            ["--k", "3", "--rs", "1,1", "--hs", "1,1",
             "--convention", "paper"]],
    "cor5": [["--k", "1", "--r1", "2", "--r2", "2", "--h1", "1", "--h2", "1"],
             ["--k", "2", "--r1", "1", "--r2", "1", "--h1", "1", "--h2", "1"],
             ["--k", "7", "--r1", "1", "--r2", "3", "--h1", "2", "--h2", "3"],
             ["--k", "1", "--r1", "2", "--r2", "2", "--h1", "1", "--h2", "1",
              "--convention", "paper"],
             ["--k", "7", "--r1", "2", "--r2", "4", "--h1", "2", "--h2", "3",
              "--convention", "paper"],
             ["--k", "5", "--r1", "1", "--r2", "1", "--h1", "1", "--h2", "2",
              "--convention", "paper"]],
    "th5": [["--k", "2", "--hs", "1,1"], ["--k", "8", "--hs", "3,1,5,7"],
            ["--k", "10", "--hs", "1,3"]],
    "cor6": [["--k", "2", "--h1", "1", "--h2", "1"],
             ["--k", "12", "--h1", "5", "--h2", "7"]],
    "cor7": [["--k", "2", "--h", "1"], ["--k", "14", "--h", "3"]],
    "th7": [["--k", "1", "--hs", "1,1"], ["--k", "9", "--hs", "2,4,5,7"],
            ["--k", "7", "--hs", "3,5"]],
    "cor8": [["--k", "1", "--h1", "1", "--h2", "1"],
             ["--k", "11", "--h1", "3", "--h2", "4"]],
    "cor9-s3": [["--k", "1", "--h", "1"], ["--k", "15", "--h", "4"]],
    "cor9-s5": [["--k", "1", "--h", "1"], ["--k", "13", "--h", "5"]],
    "cor10": [["--k", "1", "--h1", "2", "--h2", "1"],
              ["--k", "9", "--h1", "4", "--h2", "5"]],
    "cor11": [["--k", "1", "--h", "2"], ["--k", "11", "--h", "4"]],
    "eq14": [["--k", "1", "--h1", "1", "--h2", "1"],
             ["--k", "9", "--h1", "2", "--h2", "5"]],
    "tan-sq": [["--k", "1"], ["--k", "3"], ["--k", "21"]],
    "remark1": [["--k", "1", "--h", "2"], ["--k", "13", "--h", "6"]],
    "th9": [["--k", "1", "--h1", "1", "--h2", "1"],
            ["--k", "2", "--h1", "1", "--h2", "1"],
            ["--k", "5", "--h1", "2", "--h2", "3", "--s1", "2.5"],
            ["--k", "3", "--h1", "1", "--h2", "2", "--s1", "2+1i"],
            ["--k", "4", "--h1", "1", "--h2", "3", *LOW_PRECISION],
            ["--k", "4", "--h1", "1", "--h2", "3", *HIGH_PRECISION]],
    "lemma3-a": [["--k", "1", "--terms", "100"],
                 ["--k", "2", "--terms", "100"],
                 ["--k", "7", "--seed", "3", "--terms", "2000"]],
    "lemma3-b": [["--k", "1"], ["--k", "2"], ["--k", "8", "--seed", "5"]],
    "lehmer-th8": [["--k", "1"], ["--k", "2"], ["--k", "9", "--seed", "2"]],
    "cor12": [["--k", "1"], ["--k", "2"], ["--k", "10", "--seed", "4"]],
    "gamma-dft": [["--k", "1"], ["--k", "2"], ["--k", "12"]],
}

# one argv per precondition rule, each violating only that rule; the parity
# rule of cor2 is left out because argparse refuses other values first
VIOLATING = {
    "eq1": [["--h", "1", "--k", "0"], ["--h", "2", "--k", "4"]],
    "eq2": [["--h", "1", "--k", "-2"], ["--h", "3", "--k", "6"]],
    "parseval": [["--k", "0"]],
    "th1": [["--k", "0"], ["--k", "3", "--m", "9"], ["--k", "3", "--m", "0"]],
    "cor1": [["--k", "0", "--h1", "1", "--h2", "1"],
             ["--k", "4", "--h1", "2", "--h2", "1"],
             ["--k", "4", "--h1", "1", "--h2", "2"]],
    "cor2": [["--k", "0", "--h1", "1", "--h2", "1"],
             ["--k", "6", "--h1", "3", "--h2", "1"],
             ["--k", "6", "--h1", "1", "--h2", "4"]],
    "lemma1-i": [["--k", "0"]],
    "lemma1-ii": [["--k", "0"], ["--k", "3", "--r", "0"]],
    "lemma1-iii": [["--k", "0"], ["--k", "5"]],
    "lemma1-iv": [["--k", "-1"], ["--k", "4"]],
    "lemma1-v": [["--k", "0"], ["--k", "3", "--s", "1"]],
    "th2": [["--k", "0", "--hs", "1,1"], ["--k", "6", "--hs", "1,3"]],
    "cor3": [["--k", "0", "--h1", "1", "--h2", "1"],
             ["--k", "9", "--h1", "3", "--h2", "1"],
             ["--k", "9", "--h1", "1", "--h2", "6"]],
    "th4": [["--k", "0", "--rs", "2,2", "--hs", "1,1"],
            ["--k", "5", "--rs", "2,2", "--hs", "1,1,1"],
            ["--k", "5", "--rs", "0,2", "--hs", "1,1"],
            ["--k", "5", "--rs", "1,2", "--hs", "1,1"],
            ["--k", "6", "--rs", "2,2", "--hs", "1,2"]],
    "cor5": [["--k", "0", "--r1", "2", "--r2", "2", "--h1", "1", "--h2", "1"],
             ["--k", "5", "--r1", "0", "--r2", "2", "--h1", "1", "--h2", "1"],
             ["--k", "5", "--r1", "2", "--r2", "1", "--h1", "1", "--h2", "1"],
             ["--k", "6", "--r1", "2", "--r2", "2", "--h1", "2", "--h2", "1"],
             ["--k", "6", "--r1", "2", "--r2", "2", "--h1", "1", "--h2", "3"]],
    "th5": [["--k", "0", "--hs", "1,1"], ["--k", "5", "--hs", "1,1"],
            ["--k", "8", "--hs", "1,3,5"], ["--k", "8", "--hs", "2,1"],
            ["--k", "8", "--hs", "3,2"]],
    "cor6": [["--k", "0", "--h1", "1", "--h2", "1"],
             ["--k", "7", "--h1", "1", "--h2", "1"],
             ["--k", "8", "--h1", "2", "--h2", "1"],
             ["--k", "6", "--h1", "3", "--h2", "1"],
             ["--k", "6", "--h1", "1", "--h2", "2"]],
    "cor7": [["--k", "0", "--h", "1"], ["--k", "5", "--h", "1"],
             ["--k", "6", "--h", "2"]],
    "th7": [["--k", "0", "--hs", "1,1"], ["--k", "6", "--hs", "1,1"],
            ["--k", "9", "--hs", "1,2,4"], ["--k", "9", "--hs", "1,3"]],
    "cor8": [["--k", "0", "--h1", "1", "--h2", "1"],
             ["--k", "8", "--h1", "1", "--h2", "1"],
             ["--k", "9", "--h1", "2", "--h2", "1"],
             ["--k", "9", "--h1", "3", "--h2", "1"],
             ["--k", "9", "--h1", "1", "--h2", "6"]],
    "cor9-s3": [["--k", "0", "--h", "1"], ["--k", "4", "--h", "1"],
                ["--k", "9", "--h", "3"]],
    "cor9-s5": [["--k", "0", "--h", "1"], ["--k", "4", "--h", "1"],
                ["--k", "9", "--h", "3"], ["--k", "9", "--h", "2"]],
    "cor10": [["--k", "0", "--h1", "2", "--h2", "1"],
              ["--k", "8", "--h1", "2", "--h2", "1"],
              ["--k", "9", "--h1", "1", "--h2", "1"],
              ["--k", "9", "--h1", "6", "--h2", "1"],
              ["--k", "9", "--h1", "2", "--h2", "3"]],
    "cor11": [["--k", "0", "--h", "2"], ["--k", "4", "--h", "1"],
              ["--k", "9", "--h", "1"], ["--k", "9", "--h", "6"]],
    "eq14": [["--k", "0", "--h1", "1", "--h2", "1"],
             ["--k", "4", "--h1", "1", "--h2", "1"],
             ["--k", "9", "--h1", "3", "--h2", "1"],
             ["--k", "9", "--h1", "1", "--h2", "3"]],
    "tan-sq": [["--k", "0"], ["--k", "4"]],
    "remark1": [["--k", "0", "--h", "2"], ["--k", "4", "--h", "1"],
                ["--k", "9", "--h", "1"], ["--k", "9", "--h", "6"]],
    "th9": [["--k", "0", "--h1", "1", "--h2", "1"],
            ["--k", "4", "--h1", "2", "--h2", "1"],
            ["--k", "4", "--h1", "1", "--h2", "2"],
            ["--k", "4", "--h1", "1", "--h2", "1", "--s1", "1"],
            ["--k", "4", "--h1", "1", "--h2", "1", "--s2", "0.5+1i"]],
    "lemma3-a": [["--k", "0"]],
    "lemma3-b": [["--k", "0"]],
    "lehmer-th8": [["--k", "0"]],
    "cor12": [["--k", "0"]],
    "gamma-dft": [["--k", "0"]],
}

# argv the registry refuses before any precondition rule runs
MISSING = [["eq1", "--k", "5"], ["th9", "--k", "5", "--h1", "1"]]


# compute argv, each run in text and in --json mode
COMPUTE = [
    ["dedekind", "--h", "3", "--k", "7"],
    ["dedekind-cot", "--h", "3", "--k", "7"],
    ["dedekind-cot", "--h", "1", "--k", "1"],
    ["dedekind-series", "--h", "3", "--k", "7", "--terms", "1000"],
    ["zagier", "--hs", "1,2,3", "--k", "5"],
    ["zagier-cot", "--hs", "1,2,3,4", "--k", "5"],
    ["zagier-cot", "--hs", "1,1", "--k", "1"],
    ["bernoulli-sum", "--rs", "2,2", "--hs", "1,2", "--k", "5"],
    ["bernoulli-sum-rhs", "--rs", "2,2", "--hs", "1,2", "--k", "5"],
    ["bernoulli-sum-rhs", "--rs", "1,3", "--hs", "2,3", "--k", "5",
     "--convention", "paper"],
    ["hardy", "--which", "S", "--h", "1", "--k", "5"],
    ["hardy", "--which", "s1", "--h", "2", "--k", "7"],
    ["hardy", "--which", "s2", "--h", "3", "--k", "8"],
    ["hardy", "--which", "s3", "--h", "2", "--k", "7"],
    ["hardy", "--which", "s4", "--h", "2", "--k", "7",
     "--convention", "include-zero"],
    ["hardy", "--which", "s5", "--h", "3", "--k", "7"],
    ["hardy-a", "--hs", "1,3", "--k", "4"],
    ["hardy-a-rhs", "--hs", "1,3", "--k", "4"],
    ["hardy-b", "--hs", "1,2", "--k", "5"],
    ["hardy-b-rhs", "--hs", "1,2", "--k", "5"],
    ["gamma-rk", "--r", "2", "--k", "3"],
    ["digamma", "--x", "1/3"],
    ["digamma"],
    ["hurwitz", "--s", "2.5", "--x", "1/3"],
    ["hurwitz"],
    ["periodic-zeta", "--s", "2.5", "--x", "1/3"],
    ["periodic-zeta", "--x", "1/4"],
    ["cot", "--a", "1", "--k", "7"],
    ["tan", "--a", "2", "--k", "7"],
    ["cot-deriv", "--order", "2", "--a", "1", "--k", "7"],
    ["bernoulli-number", "--r", "12"],
    ["bernoulli-poly", "--r", "4"],
    ["sawtooth", "--x", "7/3"],
    ["mod-inverse", "--h", "3", "--k", "7"],
]

# compute argv that must exit 2 and name the violated condition
COMPUTE_REFUSED = [
    ["dedekind", "--h", "1"],
    ["cot", "--a", "1", "--k", "0"],
    ["cot", "--a", "1", "--k", "-3"],
    ["tan", "--a", "1", "--k", "-3"],
    ["digamma", "--x", "1/0"],
    ["hurwitz", "--x", "1/0"],
    ["periodic-zeta", "--x", "1/0"],
    ["sawtooth", "--x", "1/0"],
    ["hardy-a", "--hs", ",", "--k", "4"],
    ["hardy-b-rhs", "--hs", ",", "--k", "5"],
    ["zagier-cot", "--hs", ",", "--k", "5"],
    ["zagier-cot", "--hs", "1,2,3", "--k", "5"],
    ["hurwitz", "--s", "2+1e9i", "--x", "1/2"],
    ["periodic-zeta", "--s", "2+1e9i", "--x", "1/3"],
    ["periodic-zeta", "--s", "2", "--x", "1/1000000"],
    ["bernoulli-sum", "--rs", "2,2", "--hs", "1", "--k", "5"],
    ["bernoulli-sum", "--rs", "0,2", "--hs", "1,1", "--k", "5"],
    ["bernoulli-number", "--r", "-2"],
    ["bernoulli-sum-rhs", "--rs", "2,2", "--hs", "1", "--k", "5"],
    ["bernoulli-sum-rhs", "--rs", "2", "--hs", "1,2", "--k", "5"],
    ["bernoulli-sum-rhs", "--rs", "0,2", "--hs", "1,1", "--k", "5"],
    ["bernoulli-poly", "--r", "-2"],
    ["hardy-a-rhs", "--hs", "1,1,1", "--k", "4"],
    ["mod-inverse", "--h", "2", "--k", "4"],
    ["hardy", "--k", "7", "--h", "3", "--which", "S", "--convention", "paper"],
    ["bernoulli-sum-rhs", "--rs", "2,2", "--hs", "1,2", "--k", "5",
     "--convention", "include-zero"],
]

# sweep argv, each run with --json: every range form, every multiplier and
# tuple form, the single values, and the refusals
SWEEP = [
    ["eq1", "--k", "1..12", "--h", "all-coprime"],
    ["eq1", "--k", "odd", "3..9", "--h", "all-coprime"],
    ["eq1", "--k", "even", "4..8", "--h", "1..3"],
    ["eq1", "--k", "3,5,7", "--h", "2"],
    ["eq1", "--k", "7", "--h", "3,5"],
    ["cor3", "--k", "3..6", "--h1", "all-coprime", "--h2", "1,2,4"],
    ["th2", "--k", "5..7", "--hs", "1,2,3"],
    ["th2", "--k", "5", "--hs", "all-coprime", "--m", "2"],
    ["th2", "--k", "7", "--hs", "random", "--samples", "5", "--seed", "2"],
    ["th4", "--k", "5", "--rs", "2,2"],
    ["th4", "--k", "5", "--rs", "2,2", "--convention", "paper"],
    ["lemma1-ii", "--k", "5", "--r", "1..3"],
    ["cor5", "--k", "5", "--r1", "1..3", "--r2", "1", "--h1", "all-coprime",
     "--h2", "1"],
    ["cor12", "--k", "6", "--seed", "1..3"],
    ["th1", "--k", "5", "--m", "3", "--seed", "1..2"],
    ["th9", "--k", "4", "--h1", "1", "--h2", "1,3", "--s1", "2.5"],
    ["cor2", "--k", "8", "--h1", "all-coprime", "--h2", "1",
     "--parity", "even"],
    ["eq2", "--k", "5", "--h", "1", "--terms", "10"],
    ["lemma3-a", "--k", "5", "--terms", "10"],
    ["eq1", "--h", "1"],
    ["th4", "--k", "5"],
    ["cor11", "--k", "4..4", "--h", "all-coprime"],
    ["eq1", "--k", "5..", "--h", "1"],
    ["eq1", "--k", "5", "--h", "x"],
    ["th4", "--k", "5", "--rs", "2,2,2", "--samples", "4"],
    ["th4", "--k", "5", "--rs", "2,2", "--convention", "include-zero"],
    ["th4", "--k", "5", "--rs", "2,2,2"],
    ["th2", "--k", "7", "--hs", "random", "--seed", "5..1"],
    ["eq1", "--k", "5", "--h", "1", "--jobs", "0"],
]


# argv of any command whose flag text is not a number, or not a finite
# one: each exits 2 naming the flag; their records follow all the others
FLAG_TEXT_REFUSED = [
    ["verify", "eq1", "--h", "1", "--k", "3", "--tolerance", "inf"],
    ["verify", "eq1", "--h", "1", "--k", "3", "--tolerance", "nan"],
    ["verify", "eq1", "--h", "1", "--k", "3", "--tolerance", "abc"],
    ["verify", "eq1", "--h", "1", "--k", "3", "--tolerance", "2^x"],
    ["sweep", "eq1", "--k", "3", "--h", "1", "--tolerance", "2^x"],
    ["verify", "lemma1-v", "--k", "3", "--s", "abc"],
    ["verify", "th9", "--k", "4", "--h1", "1", "--h2", "1", "--s1", "nan"],
    ["verify", "th9", "--k", "4", "--h1", "1", "--h2", "1", "--s2", "abc"],
    ["compute", "hurwitz", "--s", "abc", "--x", "1/2"],
    ["compute", "hurwitz", "--s", "inf", "--x", "1/2"],
    ["compute", "periodic-zeta", "--s", "nan", "--x", "1/3"],
    ["compute", "sawtooth", "--x", "abc"],
    ["sweep", "th9", "--k", "4", "--h1", "1", "--h2", "1", "--s1", "abc"],
    ["sweep", "lemma1-v", "--k", "3..5", "--s", "inf"],
    ["verify", "lemma1-v", "--k", "3", "--s", "1e400"],
    ["sweep", "lemma1-v", "--k", "3..5", "--s", "1e400"],
]


def _argvs():
    for ident in PASSING:
        for args in PASSING[ident] + VIOLATING[ident]:
            yield ["verify", ident, *args, "--json"]
    for args in MISSING:
        yield ["verify", *args, "--json"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    report = out.getvalue()
    if report:
        payload = json.loads(report)
        for key in TIMING_KEYS:
            payload.pop(key, None)
        report = json.dumps(payload)
    return {"argv": argv, "exit": code, "report": report,
            "stderr": err.getvalue()}


def _cli_argvs():
    for args in COMPUTE:
        yield ["compute", *args]
        yield ["compute", *args, "--json"]
    for args in COMPUTE_REFUSED:
        yield ["compute", *args]
    for args in SWEEP:
        yield ["sweep", *args, "--json"]
    yield from FLAG_TEXT_REFUSED


def _run_cli(argv):
    """Exit code, stdout and stderr of one compute or sweep argv; a sweep
    keeps its report lines without timing fields and its first summary
    line. The usage text of an argparse refusal is wrapped at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    stdout = out.getvalue()
    if argv[0] == "sweep":
        lines = stdout.splitlines()
        reports = [json.loads(line) for line in lines if line.startswith("{")]
        for report in reports:
            for key in TIMING_KEYS:
                report.pop(key, None)
        stdout = [json.dumps(r) for r in reports]
        stdout += [line for line in lines if line.startswith("sweep ")][:1]
    return {"argv": argv, "exit": code, "stdout": stdout,
            "stderr": err.getvalue()}


def _load(path=GOLDEN):
    # a missing file fails the coverage tests
    return json.loads(path.read_text()) if path.exists() else []


@pytest.mark.parametrize("expected", _load(),
                         ids=lambda case: " ".join(case["argv"][1:-1]))
def test_golden(expected):
    assert _run(expected["argv"]) == expected


def test_golden_covers_every_id():
    from cotsums.registry import REGISTRY

    runs = {}
    for case in _load():
        if case["exit"] != 2:
            runs.setdefault(case["argv"][1], []).append(case)
    assert set(runs) == set(REGISTRY)
    assert all(len(cases) >= 2 for cases in runs.values())


@pytest.mark.parametrize("expected", _load(GOLDEN_CLI),
                         ids=lambda case: " ".join(case["argv"]))
def test_golden_cli(expected):
    assert _run_cli(expected["argv"]) == expected


def test_golden_cli_covers_every_target():
    from cotsums.cli import COMPUTE_TARGETS

    modes = {}
    for case in _load(GOLDEN_CLI):
        if case["argv"][0] == "compute" and case["exit"] == 0:
            modes.setdefault(case["argv"][1], set()).add(
                "--json" in case["argv"])
    assert modes == {target: {False, True} for target in COMPUTE_TARGETS}


def _moved(old, new, path=""):
    """The paths of the fields that differ between two records; JSON text
    (a report, a sweep line) is compared field by field."""
    if (isinstance(old, str) and isinstance(new, str)
            and old.startswith("{") and new.startswith("{")):
        old, new = json.loads(old), json.loads(new)
    if isinstance(old, dict) and isinstance(new, dict):
        return [field for key in {**old, **new}
                for field in _moved(old.get(key), new.get(key),
                                    f"{path}.{key}" if path else key)]
    if isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        return [field for i, (a, b) in enumerate(zip(old, new))
                for field in _moved(a, b, f"{path}[{i}]")]
    return [] if old == new else [path or "the record"]


def _rewrite(path, records):
    """Write the records to path, printing each one that moved and how."""
    before = {json.dumps(r["argv"]): r for r in _load(path)}
    for record in records:
        old = before.get(json.dumps(record["argv"]))
        moved = ["new record"] if old is None else _moved(old, record)
        if moved:
            print(f"{path.name}: {' '.join(record['argv'])}: "
                  f"{', '.join(moved)}")
    path.write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    _rewrite(GOLDEN, [_run(argv) for argv in _argvs()])
    _rewrite(GOLDEN_CLI, [_run_cli(argv) for argv in _cli_argvs()])
