import argparse
import ast
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import pickle
import random
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotsums import cli, config, exact, sums, zeta
from cotsums.cli import main
from cotsums.config import RunConfig
from cotsums.errors import (ConvergenceDomain, CotsumsError, NotCoprime,
                            OutOfRange, ParityViolation, WorkLimitExceeded)
from cotsums.registry import REGISTRY, IdentityEntry, verify
from cotsums.report import build_report

SPEC_IDS = {
    "eq1", "eq2", "parseval", "th1", "cor1", "cor2",
    "lemma1-i", "lemma1-ii", "lemma1-iii", "lemma1-iv", "lemma1-v",
    "th2", "cor3", "th4", "cor5", "th5", "cor6", "cor7", "th7", "cor8",
    "cor9-s3", "cor9-s5", "cor10", "cor11", "eq14", "tan-sq", "remark1",
    "th9", "lemma3-a", "lemma3-b", "lehmer-th8", "cor12", "gamma-dft",
}


class TestRegistry:
    def test_registry_is_complete(self):
        assert set(REGISTRY) == SPEC_IDS

    def test_entries_carry_anchor_and_precondition(self):
        for entry in REGISTRY.values():
            assert entry.anchor
            assert entry.precondition

    def test_unknown_id(self):
        with pytest.raises(OutOfRange):
            verify("eq99", {"k": 3})

    def test_missing_parameter(self):
        with pytest.raises(OutOfRange):
            verify("eq1", {"k": 5})

    def test_precondition_messages_name_condition(self):
        with pytest.raises(NotCoprime, match="coprime"):
            verify("eq1", {"h": 2, "k": 4})
        with pytest.raises(ParityViolation, match="k must be odd"):
            verify("cor9-s3", {"h": 1, "k": 4})
        with pytest.raises(ParityViolation, match="h must be even"):
            verify("cor11", {"h": 3, "k": 5})
        with pytest.raises(OutOfRange, match="hs must hold at least one"):
            verify("th5", {"k": 4, "hs": ()})

    def test_config_floor(self):
        cfg = RunConfig(precision=64, tolerance="2^-128")
        with pytest.raises(OutOfRange):
            verify("eq1", {"h": 1, "k": 3}, cfg)

    def test_report_round_trip_reproduces_residual(self):
        cfg = RunConfig()
        first = verify("th2", {"k": 5, "hs": (1, 2, 3, 4)}, cfg)
        payload = json.loads(first.to_json())
        again = verify(payload["id"],
                       {"k": payload["params"]["k"],
                        "hs": tuple(payload["params"]["hs"])}, cfg)
        assert again.residual == payload["residual"]
        assert again.lhs == payload["lhs"]
        assert again.rhs == payload["rhs"]

    @pytest.mark.parametrize("identity,params", [
        ("th2", {"k": 7, "hs": (1, 2, 3, 4)}),
        ("eq2", {"h": 2, "k": 7, "terms": 300}),    # against its tail bound
        ("parseval", {"k": 9, "seed": 3}),
        ("cor1", {"k": 9, "h1": 2, "h2": 5}),
        ("remark1", {"k": 13, "h": 6}),         # and a third side
    ], ids=["th2", "eq2", "parseval", "cor1", "remark1"])
    def test_two_sided_timings_recorded(self, identity, params):
        rep = verify(identity, params)
        assert rep.lhs_micros is not None and rep.rhs_micros is not None
        assert rep.micros > 0

    def test_every_row_gives_its_sides(self):
        # one comparison reads them: no row builds its own report
        assert "checker" not in IdentityEntry._fields
        assert all(e.exact is not None and e.closed is not None
                   for e in REGISTRY.values())

    @pytest.mark.parametrize("identity,params", [
        ("th2", {"k": 7, "hs": (1, 2, 3)}),     # closed side is the literal 0
        ("lemma3-b", {"k": 8, "seed": 5}),      # "exact" side is numeric
        ("cor12", {"k": 10, "seed": 4}),
    ])
    def test_timings_only_for_exact_against_numeric(self, identity, params):
        rep = verify(identity, params)
        assert rep.lhs_micros is None and rep.rhs_micros is None
        assert rep.micros > 0

    def test_lemma1_ii_paper_r1_flagged_not_crash(self):
        rep = verify("lemma1-ii", {"k": 3, "r": 1, "convention": "paper"})
        assert not rep.passed
        assert "-1/2" in rep.note


class TestCli:
    def test_compute_dedekind(self, capsys):
        assert main(["compute", "dedekind", "--h", "1", "--k", "3"]) == 0
        assert capsys.readouterr().out.strip() == "1/18"

    def test_compute_hardy(self, capsys):
        assert main(["compute", "hardy", "--which", "s3", "--h", "1",
                     "--k", "3"]) == 0
        assert capsys.readouterr().out.strip() == "1/3"

    def test_compute_gamma_rk(self, capsys):
        assert main(["compute", "gamma-rk", "--r", "1", "--k", "1"]) == 0
        assert capsys.readouterr().out.startswith("0.5772156649")

    def test_compute_prints_a_long_exact_value(self, capsys):
        # B_2000's numerator has 4,152 digits, under the int-to-text limit
        assert main(["compute", "bernoulli-number", "--r", "2000"]) == 0
        out = capsys.readouterr().out.strip()
        numerator, _, denominator = out.partition("/")
        assert len(numerator) == len("-") + 4152
        assert denominator == "2338224387510"

    def test_compute_json_mode(self, capsys):
        assert main(["compute", "zagier", "--hs", "1,1", "--k", "3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"target": "zagier",
                           "params": {"hs": [1, 1], "k": 3},
                           "value": "-1/18", "exact": True}

    def test_compute_missing_param_usage_error(self, capsys):
        assert main(["compute", "dedekind", "--h", "1"]) == 2

    def test_verify_pass_and_json(self, capsys):
        code = main(["verify", "th2", "--k", "3", "--hs", "1,1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["lhs"] == "-1/18"
        assert mpmath.mpf(payload["residual"]) < mpmath.mpf("1e-38")

    def test_verify_tan_sq(self, capsys):
        assert main(["verify", "tan-sq", "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "20" in out

    def test_verify_fail_exit_code(self, capsys):
        code = main(["verify", "th4", "--k", "3", "--rs", "1,1",
                     "--hs", "1,1", "--convention", "paper"])
        assert code == 1
        out = capsys.readouterr().out
        assert "7/36" in out

    def test_verify_precondition_exit_code(self, capsys):
        code = main(["verify", "cor11", "--k", "5", "--h", "3"])
        assert code == 2
        assert "even" in capsys.readouterr().err

    def test_verify_list(self, capsys):
        assert main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        for ident in SPEC_IDS:
            assert ident in out

    def test_sweep_eq1(self, capsys, tmp_path):
        csv_path = tmp_path / "eq1.csv"
        code = main(["sweep", "eq1", "--k", "1..12", "--h", "all-coprime",
                     "--csv", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 fail" in out
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "id,h,k,lhs,rhs,residual,pass,micros"
        assert len(lines) == 1 + sum(1 for k in range(1, 13)
                                     for h in range(1, max(k, 2))
                                     if __import__("math").gcd(h, k) == 1)

    @pytest.mark.parametrize("argv,ratio", [
        (["th2", "--k", "5..7", "--hs", "1,1,1,1"], True),
        (["th2", "--k", "5..7", "--hs", "1,1,1"], False),
        (["lemma3-b", "--k", "5..7"], False),
        (["lehmer-th8", "--k", "5..7"], False),
    ])
    def test_sweep_ratio_line_only_for_exact_sides(self, capsys, argv, ratio):
        assert main(["sweep", *argv]) == 0
        assert ("exact-side" in capsys.readouterr().out) == ratio

    @pytest.mark.parametrize("argv,products", [
        (["th4", "--k", "101", "--rs", "2,2,2,2,2,2,2,2",
          "--hs", "1,2,3,4,5,6,7,8"], 6 * 101 ** 2 + 101),
        (["th1", "--k", "101", "--m", "8"], 6 * 101 ** 2 + 101),
        (["cor1", "--k", "101", "--h1", "2", "--h2", "3"], 101),
        (["cor2", "--k", "101", "--h1", "2", "--h2", "3"], 101),
        (["parseval", "--k", "101"], 101),
        # every other row whose exact side is a pair sum, at m = 2
        (["eq1", "--k", "101", "--h", "2"], 101),
        (["cor3", "--k", "101", "--h1", "2", "--h2", "3"], 101),
        (["cor5", "--k", "101", "--r1", "2", "--r2", "4", "--h1", "2",
          "--h2", "3"], 101),
        (["cor6", "--k", "102", "--h1", "1", "--h2", "5"], 102),
        (["cor7", "--k", "102", "--h", "5"], 102),
        (["cor8", "--k", "101", "--h1", "3", "--h2", "2"], 101),
        (["cor9-s3", "--k", "101", "--h", "2"], 101),
        (["cor9-s5", "--k", "101", "--h", "3"], 101),
        (["cor10", "--k", "101", "--h1", "2", "--h2", "3"], 101),
        (["cor11", "--k", "101", "--h", "2"], 101),
        (["eq14", "--k", "101", "--h1", "2", "--h2", "3"], 101),
        (["remark1", "--k", "101", "--h", "2"], 101),
    ])
    def test_convolution_chain_opens_large_m(self, capsys, argv, products):
        # 101^7 terms by enumeration; (m-2)k^2 + k products by the chain,
        # charged to --work-limit, the pair rows at m = 2 included
        assert main(["verify", *argv]) == 0
        assert main(["verify", *argv, "--work-limit", str(products - 1)]) == 2
        assert f"{products} products" in capsys.readouterr().err

    def test_sweep_parity_filtering(self, capsys):
        # cor11 needs h even: all-coprime expansion keeps admissible ones only
        code = main(["sweep", "cor11", "--k", "odd 3..9", "--h",
                     "all-coprime"])
        assert code == 0
        assert "0 fail" in capsys.readouterr().out

    def test_sweep_exit_on_failure(self, capsys):
        code = main(["sweep", "lemma1-ii", "--k", "3..5", "--r", "1",
                     "--convention", "paper"])
        assert code == 1

    def test_sweep_honours_instance_terms(self, capsys):
        argv = ["eq2", "--k", "5", "--h", "1", "--terms", "10"]
        assert main(["sweep", *argv, "--json"]) == 0
        swept = json.loads(capsys.readouterr().out.splitlines()[0])
        assert main(["verify", *argv, "--json"]) == 0
        single = json.loads(capsys.readouterr().out)
        assert swept["params"]["terms"] == 10
        assert swept["rhs"] == single["rhs"]

    def test_subparser_flags_are_the_names_read(self):
        """compute has exactly the flags its targets read, and --convention;
        verify and sweep exactly those the registry rows read, each as
        --<name>; --jobs is a flag of sweep alone."""
        parser = cli._build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        common = {"-h", "--help", "--precision", "--tolerance",
                  "--work-limit", "--json"}
        own = {"compute": {"--convention"}, "verify": {"--list"},
               "sweep": {"--csv", "--samples", "--verbose", "--jobs"}}
        flags = {name: {opt for a in p._actions for opt in a.option_strings}
                 - common - own[name]
                 for name, p in subparsers.choices.items()}
        targets = {f"--{n}" for _, names, _ in cli.COMPUTE_TARGETS.values()
                   for n in names}
        rows = {f"--{n}" for e in REGISTRY.values() for n in e.param_names}
        assert flags == {"compute": targets, "verify": rows, "sweep": rows}
        conventions = {name: next(a.choices for a in p._actions
                                  if a.dest == "convention")
                       for name, p in subparsers.choices.items()}
        assert conventions == {
            "compute": ["paper", "corrected", "include-zero", "exclude-zero"],
            "verify": ["paper", "corrected"], "sweep": ["paper", "corrected"]}
        assert targets == {"--h", "--k", "--a", "--r", "--order", "--hs",
                           "--rs", "--s", "--x", "--which", "--terms"}
        assert rows == {"--k", "--h", "--h1", "--h2", "--r", "--r1", "--r2",
                        "--seed", "--m", "--hs", "--rs", "--s", "--s1",
                        "--s2", "--parity", "--terms", "--convention"}

    def test_sweep_no_instances_usage_error(self, capsys):
        code = main(["sweep", "cor11", "--k", "4..4", "--h", "all-coprime"])
        assert code == 2

    def test_sweep_jobs_matches_serial(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial_csv = tmp_path / "serial.csv"
        parallel_csv = tmp_path / "parallel.csv"

        def reports(text):
            return [{k: v for k, v in json.loads(line).items()
                     if not k.endswith("micros")}
                    for line in text.splitlines() if line.startswith("{")]

        # eq1 expands to 278 instances in chunks of 35: each spans several k
        for argv in (["cor3", "--k", "3..6", "--h1", "all-coprime",
                      "--h2", "1"],
                     ["eq1", "--k", "1..30", "--h", "all-coprime"]):
            assert main(["sweep", *argv, "--json", "--csv",
                         str(serial_csv)]) == 0
            serial_reports = reports(capsys.readouterr().out)
            assert main(["sweep", *argv, "--json", "--csv",
                         str(parallel_csv), "--jobs", "2"]) == 0
            assert reports(capsys.readouterr().out) == serial_reports
            serial_rows = serial_csv.read_text()
            parallel_rows = parallel_csv.read_text()
            # identical rows in identical (deterministic) order, timings aside
            strip = lambda text: [",".join(line.split(",")[:-1])
                                  for line in text.splitlines()]
            assert strip(serial_rows) == strip(parallel_rows)

    def test_bad_tolerance_for_precision(self, capsys):
        code = main(["verify", "eq1", "--h", "1", "--k", "3",
                     "--precision", "64"])
        assert code == 2
        assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("argv,condition", [
    (["compute", "cot", "--a", "1", "--k", "0"], "k must be >= 1"),
    (["compute", "cot", "--a", "1", "--k", "-3"], "k must be >= 1"),
    (["compute", "tan", "--a", "1", "--k", "-3"], "k must be >= 1"),
    (["compute", "digamma", "--x", "1/0"], "nonzero denominator"),
    (["compute", "hurwitz", "--x", "1/0"], "nonzero denominator"),
    (["compute", "periodic-zeta", "--x", "1/0"], "nonzero denominator"),
    (["compute", "sawtooth", "--x", "1/0"], "nonzero denominator"),
    (["verify", "eq2", "--h", "1", "--k", "5", "--terms", "-5"],
     "terms must be >= 1"),
    (["verify", "eq2", "--h", "1", "--k", "5", "--terms", "0"],
     "terms must be >= 1"),
    (["verify", "lemma3-a", "--k", "5", "--terms", "-5"],
     "terms must be >= 1"),
    (["verify", "th5", "--k", "4", "--hs", ","], "at least one integer"),
    (["verify", "th7", "--k", "5", "--hs", ","], "at least one integer"),
    (["sweep", "th5", "--k", "4", "--hs", ","], "at least one integer"),
    (["compute", "hardy-a", "--hs", ",", "--k", "4"], "at least one integer"),
    (["compute", "hardy-b-rhs", "--hs", ",", "--k", "5"],
     "at least one integer"),
    (["compute", "zagier-cot", "--hs", ",", "--k", "5"],
     "at least one integer"),
    (["sweep", "th5", "--k", "4", "--m", "0"], "no admissible instances"),
    (["sweep", "eq1", "--k", "3", "--h", "1", "--csv", "/nonexistent/x.csv"],
     "cannot write /nonexistent/x.csv"),
    (["sweep", "eq1", "--k", "3", "--h", "1", "--csv", "/nonexistent/x.csv",
      "--jobs", "2"], "cannot write /nonexistent/x.csv"),
    # the Euler-Maclaurin cut grows as 2|Im s|: refused before any term
    (["verify", "lemma1-v", "--k", "3", "--s", "2+1e9i"],
     "Hurwitz cut 2000000000 terms x 3 values = 6000000000 terms exceed "
     "the work limit 100000000"),
    (["verify", "th9", "--k", "3", "--h1", "1", "--h2", "1", "--s2", "2+1e9i"],
     "Hurwitz cut 2000000000 terms x 3 values"),
    (["compute", "hurwitz", "--s", "2+1e9i", "--x", "1/2"],
     "Hurwitz cut 2000000000 terms x 1 values = 2000000000 terms exceed "
     "the work limit 100000000"),
    (["compute", "periodic-zeta", "--s", "2+1e9i", "--x", "1/3"],
     "Hurwitz cut 2000000000 terms x 3 values"),
    # q = 10^6 Hurwitz values at the 121-term cut of s = 2
    (["compute", "periodic-zeta", "--s", "2", "--x", "1/1000000"],
     "Hurwitz cut 121 terms x 1000000 values = 121000000 terms exceed"),
    # the closed form refuses the lists the exact side refuses
    (["compute", "bernoulli-sum-rhs", "--rs", "2,2", "--hs", "1", "--k", "5"],
     "rs and hs must have the same length"),
    (["compute", "bernoulli-sum-rhs", "--rs", "2", "--hs", "1,2", "--k", "5"],
     "rs and hs must have the same length"),
    (["compute", "bernoulli-sum-rhs", "--rs", "0,2", "--hs", "1,1",
      "--k", "5"], "orders must be >= 1"),
    (["compute", "bernoulli-poly", "--r", "-2"],
     "Bernoulli index must be >= 0"),
    (["sweep", "eq1", "--k", "5"], "eq1 needs --h"),
    # a convention the id or target does not read, named in CLI spelling
    (["verify", "th4", "--k", "5", "--rs", "2,2", "--hs", "1,2",
      "--convention", "include-zero"],
     "invalid choice: 'include-zero' (choose from 'paper', 'corrected')"),
    (["compute", "hardy", "--k", "7", "--h", "3", "--which", "S",
      "--convention", "paper"],
     "convention must be one of include-zero, exclude-zero, got 'paper'"),
    (["sweep", "eq1", "--k", "5..", "--h", "1"],
     "--k takes 1..50, odd 3..49, even 4..48, 3,5,7 or 7, got '5..'"),
    (["sweep", "eq1", "--k", "5", "--h", "1", "--jobs", "0"],
     "jobs must be >= 1, got 0"),
    (["sweep", "th2", "--k", "7", "--hs", "random", "--seed", "5..1"],
     "--seed must hold at least one integer, got '5..1'"),
    # the series terms count against the work limit, before any is summed
    (["verify", "eq2", "--h", "1", "--k", "5", "--terms", "3000000000"],
     "3000000000 terms exceed the work limit 100000000"),
    (["verify", "lemma3-a", "--k", "5", "--terms", "3000000000"],
     "3000000000 terms exceed the work limit 100000000"),
    (["compute", "dedekind-series", "--h", "1", "--k", "5", "--terms",
      "3000000000"], "3000000000 terms exceed the work limit 100000000"),
    # a tolerance that is not a finite number, and text that is not a
    # number, named by its flag with the forms it takes
    *((["verify", "eq1", "--h", "1", "--k", "3", "--tolerance", text],
      "error: tolerance must be a finite 2^n or decimal such as 2^-128 or "
      f"1e-30, got {text!r}") for text in ("inf", "nan", "abc", "2^x")),
    (["verify", "lemma1-v", "--k", "3", "--s", "abc"],
     "error: s must be a finite number such as 2, 5/2, 2.5 or 2+1i, "
     "got 'abc'"),
    (["verify", "th9", "--k", "4", "--h1", "1", "--h2", "1", "--s1", "nan"],
     "error: s1 must be a finite number"),
    (["compute", "hurwitz", "--s", "inf"], "error: s must be a finite"),
    (["compute", "sawtooth", "--x", "abc"],
     "error: x must be a rational such as 1/3, -2 or 0.25, got 'abc'"),
    # the zero-sum exact sides refuse k < 1 by name, as their closed twins
    (["compute", "zagier", "--hs", "1", "--k", "0"], "k must be >= 1, got 0"),
    (["compute", "hardy-a", "--hs", "1,1", "--k", "0"],
     "k must be >= 1, got 0"),
    (["compute", "hardy-b", "--hs", "1,1", "--k", "-1"],
     "k must be >= 1, got -1"),
    (["compute", "bernoulli-sum", "--rs", "2", "--hs", "1", "--k", "0"],
     "k must be >= 1, got 0"),
    # sweep flags refused as --jobs 0 is (listed last, so that the ids of
    # the cases above keep their numbers)
    (["sweep", "th2", "--k", "7", "--hs", "random", "--m", "4",
      "--samples", "0"], "samples must be >= 1, got 0"),
    (["sweep", "th2", "--k", "7", "--hs", "random", "--m", "4",
      "--samples", "-3"], "samples must be >= 1, got -3"),
    (["sweep", "th2", "--k", "7", "--m", "-1"], "m must be >= 0, got -1"),
    # an exponent no instance takes is named by its rule, as verify names it
    (["sweep", "th9", "--k", "4", "--h1", "1", "--h2", "1", "--s1", "1"],
     "error: Re s1 must exceed 1"),
    (["sweep", "lemma1-v", "--k", "3..5", "--s", "0.5"],
     "error: Re s must exceed 1"),
    # B_3000's numerator has 6,762 digits, past Python's int-to-text limit
    (["compute", "bernoulli-number", "--r", "3000"],
     "error: an exact value of more than 4300 digits is too long to print"),
    # the cut is floor(2|Im s|) exactly, as hurwitz_zeta takes it, not
    # rounded at mpmath's global 53 bits (which gives ...691367936)
    (["compute", "hurwitz", "--s", "2+123456789012345678901i", "--x", "1/2"],
     "Hurwitz cut 246913578024691357802 terms x 1 values"),
    # the m = 2 exact sides are charged to --work-limit as the chain is
    (["verify", "eq1", "--h", "1", "--k", "5001", "--work-limit", "10"],
     "error: (m-2)k^2 + k = 5001 products at k=5001, m=2 exceed the work "
     "limit 10"),
    (["compute", "dedekind", "--h", "1", "--k", "5001", "--work-limit",
      "10"], "(m-2)k^2 + k = 5001 products at k=5001, m=2 exceed"),
])
def test_compute_refuses_without_traceback(argv, condition):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "cotsums.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert condition in proc.stderr


# one violated rule, raised by the library function and by its verify row
SHARED_RULES = [
    ("hardy_A_rhs", ((1, 1, 1), 4), "th5", {"k": 4, "hs": (1, 1, 1)}),
    ("tan_cot_pair_rhs", (1, 1, 4), "cor9-s3", {"k": 4, "h": 1}),
    ("bernoulli_dedekind_rhs", ((1, 2), (1, 1), 5), "th4",
     {"k": 5, "rs": (1, 2), "hs": (1, 1)}),
    ("bernoulli_pair_rhs", (2, 1, 1, 1, 5), "cor5",
     {"k": 5, "r1": 2, "r2": 1, "h1": 1, "h2": 1}),
    ("s1_half_range", (1, 9), "remark1", {"k": 9, "h": 1}),
    ("homogeneous_pair_cot", (3, 1, 9), "cor3", {"k": 9, "h1": 3, "h2": 1}),
    ("hardy_B_rhs", ((1, 2, 4), 9), "th7", {"k": 9, "hs": (1, 2, 4)}),
    # a pair form names h1 and h2, not the hs[j] of the tuple form it calls
    ("alt_pair_rhs", (2, 1, 4), "cor6", {"k": 4, "h1": 2, "h2": 1}),
    ("tan_cot_pair_rhs", (3, 1, 9), "cor8", {"k": 9, "h1": 3, "h2": 1}),
]


@pytest.mark.parametrize("function,args,identity,params", SHARED_RULES,
                         ids=[f"{case[0]}-{case[2]}" for case in SHARED_RULES])
def test_library_and_verify_share_the_wording(function, args, identity,
                                              params):
    with pytest.raises(CotsumsError) as library:
        getattr(sums, function)(*args)
    with pytest.raises(CotsumsError) as registry:
        verify(identity, params)
    assert type(library.value) is type(registry.value)
    assert str(library.value) == str(registry.value)


def test_rule_messages_are_built_only_in_errors():
    """ParityViolation, NotCoprime, the k >= 1 message and the list rule's
    message are constructed by the rule vocabulary of errors.py and nowhere
    else in the package."""
    built = set()
    for path in sorted((Path(cli.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", ""))
                if name in ("ParityViolation", "NotCoprime"):
                    built.add((path.name, name))
            elif isinstance(node, ast.Constant) and re.search(
                    r"\b(k|modulus) must be (>= 1|positive)", str(node.value)):
                built.add((path.name, "k >= 1"))
            elif isinstance(node, ast.Constant) and "at least one integer" in (
                    str(node.value)):
                built.add((path.name, "list"))
    assert built == {("errors.py", "ParityViolation"),
                     ("errors.py", "NotCoprime"), ("errors.py", "k >= 1"),
                     ("errors.py", "list")}


@pytest.mark.parametrize("argv", [["compute", "dedekind"], ["verify", "eq1"],
                                  ["sweep", "eq1"]])
def test_cli_defaults_are_the_run_config_defaults(argv):
    args = cli._build_parser().parse_args(argv)
    assert cli._config_from(args) == RunConfig()


def test_config_is_checked_once_per_value(monkeypatch):
    parsed = []
    parse = config.parse_tolerance

    def spy(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(config, "parse_tolerance", spy)
    RunConfig.validate.cache_clear()
    cfg = RunConfig(tolerance="2^-120")
    for _ in range(200):
        report = verify("eq1", {"h": 2, "k": 7}, cfg)
        assert report.tolerance == "7.523163845e-37"
    assert parsed == ["2^-120"]
    assert verify("eq1", {"h": 2, "k": 7},
                  RunConfig(tolerance="1e-30")).tolerance == "1.0e-30"
    assert parsed == ["2^-120", "1e-30"]


@pytest.mark.parametrize("tolerance", ["inf", "nan", "-inf", "abc", "2^x"])
def test_tolerance_that_is_not_a_finite_number_is_refused(tolerance):
    # "inf" once passed lhs 1 against rhs 7; a refusal is not cached
    cfg = RunConfig(tolerance=tolerance)
    for _ in range(3):
        with pytest.raises(OutOfRange, match="^tolerance must be a finite"):
            verify("eq1", {"h": 1, "k": 3}, cfg)
        with pytest.raises(OutOfRange, match="^tolerance"):
            build_report("eq1", "", {}, 1, 7, cfg)


# text that is not a number, given to the last flag of argv: the library
# and the CLI give one message, which names the flag (s1, not s) and the
# forms it takes
NOT_A_NUMBER = [
    (lambda: RunConfig(tolerance="2^x").validate(),
     ["verify", "eq1", "--h", "1", "--k", "3", "--tolerance", "2^x"]),
    (lambda: verify("lemma1-v", {"k": 3, "s": "abc"}),
     ["verify", "lemma1-v", "--k", "3", "--s", "abc"]),
    (lambda: verify("th9", {"k": 4, "h1": 1, "h2": 1, "s1": "nan"}),
     ["verify", "th9", "--k", "4", "--h1", "1", "--h2", "1", "--s1", "nan"]),
    (lambda: zeta.mikolas_pair("2", "1e", 1, 1, 4),
     ["verify", "th9", "--k", "4", "--h1", "1", "--h2", "1", "--s2", "1e"]),
    (lambda: zeta.hurwitz_zeta("inf", Fraction(1, 2)),
     ["compute", "hurwitz", "--x", "1/2", "--s", "inf"]),
    (lambda: zeta.periodic_zeta("2+xi", Fraction(1, 3)),
     ["compute", "periodic-zeta", "--x", "1/3", "--s", "2+xi"]),
    # a sweep names the flag too, not skipping each instance as inadmissible
    (lambda: verify("th9", {"k": 4, "h1": 1, "h2": 1, "s1": "abc"}),
     ["sweep", "th9", "--k", "4", "--h1", "1", "--h2", "1", "--s1", "abc"]),
    (lambda: verify("lemma1-v", {"k": 3, "s": "1/0"}),
     ["sweep", "lemma1-v", "--k", "3..5", "--s", "1/0"]),
]


@pytest.mark.parametrize("library,argv", NOT_A_NUMBER,
                         ids=[" ".join(argv[-2:]) for _, argv in NOT_A_NUMBER])
def test_library_and_cli_name_the_flag_alike(capsys, library, argv):
    with pytest.raises(OutOfRange) as refused:
        library()
    flag = argv[-2].lstrip("-")
    assert str(refused.value).startswith(f"{flag} must be a finite ")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {refused.value}\n"


# an exponent above zeta.S_BOUND, given to the last flag of argv: 1e400
# once did not return
ABOVE_BOUND = [
    (lambda: verify("lemma1-v", {"k": 3, "s": "1e400"}),
     ["verify", "lemma1-v", "--k", "3", "--s", "1e400"]),
    (lambda: verify("lemma1-v", {"k": 3, "s": "1e400"}),
     ["sweep", "lemma1-v", "--k", "3..5", "--s", "1e400"]),
    (lambda: zeta.mikolas_pair("2", "2+1e31i", 1, 1, 4),
     ["verify", "th9", "--k", "4", "--h1", "1", "--h2", "1", "--s2",
      "2+1e31i"]),
    (lambda: zeta.hurwitz_zeta("1e31", Fraction(1, 2)),
     ["compute", "hurwitz", "--x", "1/2", "--s", "1e31"]),
]


@pytest.mark.parametrize("library,argv", ABOVE_BOUND,
                         ids=[" ".join(argv[:2] + argv[-2:])
                              for _, argv in ABOVE_BOUND])
def test_exponent_above_the_bound_is_refused(capsys, library, argv):
    flag, text = argv[-2].lstrip("-"), argv[-1]
    message = f"|{flag}| must be at most 1e+30, got {text!r}"
    with pytest.raises(OutOfRange) as refused:
        library()
    assert str(refused.value) == message
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_exponent_at_the_bound_is_taken():
    assert zeta.S_BOUND == 10 ** 30
    assert verify("lemma1-v", {"k": 3, "s": "1e30"}).passed


def test_a_huge_exponent_is_refused_at_once(capsys):
    # mpmath reads the exponent as written, so the value is never expanded:
    # 1e1000000 once took 16.8 s to be refused
    t0 = time.perf_counter()
    for text in ("1e1000000", "-1e4000000"):
        with pytest.raises(OutOfRange, match=r"^\|s\| must be at most 1e\+30"):
            zeta._to_s(text)
        assert main(["compute", "hurwitz", "--x", "1/2", f"--s={text}"]) == 2
    assert time.perf_counter() - t0 < 2
    assert "|s| must be at most 1e+30, got '1e1000000'" in capsys.readouterr().err


# exponent text whose value a parse could expand, and the refusal of each
EXTREME_EXPONENTS = [
    # 1e-1000000 once took 12.5 s in Fraction before Re s > 1 refused it
    ("1e-1000000", "Re s must exceed 1"),
    ("1e-1000000000000", "Re s must exceed 1"),
    # more than the 4,300 digits int takes, and mpmath reads digits by int
    ("9" * 100_000, f"|s| must be at most 1e+30, got {'9' * 100_000!r}"),
]


@pytest.mark.parametrize("text,refusal", EXTREME_EXPONENTS, ids=[
    "1e-1000000", "1e-1000000000000", "100000 nines"])
def test_an_extreme_exponent_is_refused_within_a_second(capsys, text,
                                                        refusal):
    t0 = time.perf_counter()
    with pytest.raises(CotsumsError) as refused:
        verify("lemma1-v", {"k": 3, "s": text})
    assert str(refused.value) == refusal
    assert main(["verify", "lemma1-v", "--k", "3", f"--s={text}"]) == 2
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert time.perf_counter() - t0 < 1


def test_complex_exponent_is_read_at_full_precision(capsys):
    # "2.1+1i" was once read through complex(), whose 53-bit 2.1 moved the
    # printed value from its 16th significant digit on
    assert main(["compute", "hurwitz", "--s", "2.1+1i", "--x", "1/2"]) == 0
    printed = capsys.readouterr().out.strip()
    with mpmath.workprec(300):
        ref = mpmath.zeta(mpmath.mpc("2.1", "1"), mpmath.mpf(1) / 2)
        assert printed == mpmath.nstr(ref, 75)


# argv that read exponent text as their last flag's value; the work limit
# keeps a drawn 2+99999i from summing 10^5-term Hurwitz cuts
EXPONENT_ARGV = [["compute", "hurwitz", "--x", "1/2", "--s"],
                 ["verify", "lemma1-v", "--k", "3", "--s"],
                 ["sweep", "th9", "--k", "4", "--h1", "1", "--h2", "1",
                  "--s1"]]
EXPONENT_TEXT = st.lists(st.sampled_from(
    [*"0123456789+-./eij ", "inf", "nan"]), max_size=10).map("".join)


def test_exponent_text_exits_0_1_or_2_without_traceback():
    """Any exception but argparse's exit would end in a traceback: it fails
    the draw."""
    t0 = time.perf_counter()

    @given(argv=st.sampled_from(EXPONENT_ARGV), text=EXPONENT_TEXT)
    @settings(max_examples=150, deadline=None)
    def run(argv, text):
        *argv, flag = argv
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([*argv, "--work-limit", "20000",
                             f"{flag}={text}"])
            except SystemExit as usage:         # argparse's own refusals
                code = usage.code
        assert code in (0, 1, 2)

    run()
    assert time.perf_counter() - t0 < 10


SMALL = st.integers(-2, 12)
# sweep's range text: each valid form (a range is empty at times), malformed
# text, empty, all-coprime
SPAN = st.builds(lambda lo, n: f"{lo}..{lo + n}", SMALL, st.integers(-1, 6))
RANGE_TEXT = st.one_of(
    SPAN, st.builds("{} {}".format, st.sampled_from(["odd", "even"]), SPAN),
    st.lists(SMALL, min_size=1, max_size=3).map(
        lambda values: ",".join(map(str, values))),
    st.sampled_from(["", "all-coprime", "5..", "x", "1..2..3", "odd", ",",
                     "3,,5", "odd all-coprime"]))
SWEEP_FLAGS = st.fixed_dictionaries({"k": RANGE_TEXT}, optional={
    **dict.fromkeys(("h", "h1", "h2", "seed"), RANGE_TEXT),
    "hs": st.one_of(st.lists(st.integers(-3, 12), max_size=4).map(
        lambda values: ",".join(map(str, values))),
        st.sampled_from(["all-coprime", "random"])),
    "m": st.integers(0, 4), "samples": st.integers(0, 5)})


def test_sweep_flags_exit_0_1_or_2_without_traceback():
    """Any exception but argparse's exit would end in a traceback: it fails
    the draw."""
    t0 = time.perf_counter()

    @given(identity=st.sampled_from(["eq1", "cor3", "th2", "cor12", "th1"]),
           flags=SWEEP_FLAGS)
    @settings(max_examples=150, deadline=None)
    def run(identity, flags):
        argv = ["sweep", identity, "--work-limit", "2000",
                *(f"--{name}={value}" for name, value in flags.items())]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as usage:         # argparse's own refusals
                code = usage.code
        assert code in (0, 1, 2)

    run()
    assert time.perf_counter() - t0 < 10


# mpmath drops the spaces inside complex text, which once read 2+12 3.j as
# 2+123i and 2 + 1j as 2+1i; text with inner whitespace is no number
@pytest.mark.parametrize("text", ["2+12 3.j", "2 + 1j", "2 +1i"])
def test_exponent_text_with_inner_space_is_refused(capsys, text):
    def refusal(name):
        return (f"{name} must be a finite number such as 2, 5/2, 2.5 or "
                f"2+1i, got {text!r}")

    for library in (zeta._to_s,
                    lambda s: zeta.hurwitz_zeta(s, Fraction(1, 2))):
        with pytest.raises(OutOfRange) as refused:
            library(text)
        assert str(refused.value) == refusal("s")
    for *argv, flag in EXPONENT_ARGV:
        assert main([*argv, flag, text]) == 2
        assert capsys.readouterr().err == f"error: {refusal(flag[2:])}\n"


def test_exponent_text_with_outer_space_is_read(capsys):
    assert zeta._to_s(" 2+1i ") == mpmath.mpc(2, 1)
    assert main(["compute", "hurwitz", "--x", "1/2", "--s", " 2+1i "]) == 0
    read = capsys.readouterr().out
    assert main(["compute", "hurwitz", "--x", "1/2", "--s", "2+1i"]) == 0
    assert capsys.readouterr().out == read


@pytest.mark.parametrize("s", ["1e6", "1e30"])
def test_large_exponent_reaches_the_kernel(capsys, s):
    # zeta(s, 1/4) ~ 4^s: th9's lhs passes such values to the kernel, which
    # once built ints of ~s bits (OverflowError at 1e30); F sums them in mpf
    lhs, rhs = zeta.mikolas_pair(s, "3", 1, 1, 4)
    with mpmath.workprec(300):
        assert abs(lhs - rhs) <= abs(lhs) * mpmath.mpf(2) ** -200
        # F(s, 1/3) = e^(2 pi i/3) + O(2^-s); 3^-s at |s| = 1e30 costs
        # ~100 of the working bits
        value = zeta.periodic_zeta(s, Fraction(1, 3))
        assert abs(value - mpmath.expjpi(mpmath.mpf(2) / 3)) < 2 ** -150
    # an absolute tolerance cannot hold at |lhs| ~ 4^s: th9 returns FAIL
    assert main(["verify", "th9", "--k", "4", "--h1", "1", "--h2", "1",
                 "--s1", s]) in (0, 1)
    assert main(["compute", "periodic-zeta", "--s", s, "--x", "1/3"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_invalid_config_is_refused_at_every_call():
    cfg = RunConfig(precision=64, tolerance="2^-128")
    for _ in range(3):
        with pytest.raises(OutOfRange, match="below 2"):
            verify("eq1", {"h": 1, "k": 3}, cfg)


@pytest.mark.parametrize("value,field", [(RunConfig(), "tolerance"),
                                         (REGISTRY["eq1"], "anchor")])
def test_settings_and_rows_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, "2^-64")


def test_run_config_pickles_for_the_workers():
    cfg = RunConfig(precision=300, tolerance="1e-40", work_limit=5)
    again = pickle.loads(pickle.dumps(cfg))
    assert type(again) is RunConfig and again == cfg
    assert again.validate() == cfg.validate()


@pytest.fixture
def counted_draws(monkeypatch):
    """The multipliers drawn by the sweep's random tuple generators."""
    draws = []

    class Counting(random.Random):
        def choice(self, seq):
            draws.append(1)
            return super().choice(seq)

    monkeypatch.setattr(cli.random, "Random", Counting)
    return draws


def test_random_tuples_stop_once_every_tuple_is_drawn(counted_draws):
    # k = 7 has 6 units, so 6^3 = 216 tuples of m = 3: the draws stop at the
    # last new one, which keeps the order of the full run of draws
    units = [1, 2, 3, 4, 5, 6]
    count, tuples = cli._tuple_candidates("random", 7, 3, 2_000_000, 1,
                                          10 ** 8)
    assert count == len(tuples)
    assert sorted(tuples) == sorted(itertools.product(units, repeat=3))
    assert len(counted_draws) < 30_000
    rng = random.Random(99991 + 7)
    full = dict.fromkeys(tuple(rng.choice(units) for _ in range(3))
                         for _ in range(len(counted_draws) // 3 + 5000))
    assert tuples == list(full)


@pytest.mark.parametrize("argv,refusal", [
    (["--k", "97", "--m", "5"], "96^5 multiplier tuples exceed the work "
                                "limit 100000000"),
    (["--k", "7", "--m", "3", "--work-limit", "215"],
     "6^3 multiplier tuples exceed the work limit 215"),
    (["--k", "7", "--m", "1000000000"],
     "6^1000000000 multiplier tuples exceed the work limit 100000000"),
])
def test_all_coprime_tuples_are_charged_to_the_work_limit(capsys, argv,
                                                          refusal):
    """The tuple count is refused before any tuple is built."""
    t0 = time.perf_counter()
    assert main(["sweep", "th2", "--hs", "all-coprime", *argv]) == 2
    assert time.perf_counter() - t0 < 5
    assert refusal in capsys.readouterr().err


def test_all_coprime_multipliers_are_counted_from_the_primes_of_k():
    for k in range(-1, 400):
        count, values = cli._units(k)
        assert count == len(exact.units_mod(k))
        assert list(values) == exact.units_mod(k)


def test_all_coprime_tuples_at_the_work_limit(capsys):
    assert main(["sweep", "th2", "--k", "7", "--hs", "all-coprime", "--m",
                 "3", "--work-limit", "216"]) == 0
    assert "216 instances, 216 pass" in capsys.readouterr().out


def test_random_draws_are_charged_to_the_work_limit(counted_draws, capsys):
    assert main(["sweep", "th2", "--k", "7", "--hs", "random", "--m", "3",
                 "--samples", "2000000", "--work-limit", "1000"]) == 2
    assert "draws exceed the work limit 1000" in capsys.readouterr().err
    assert not counted_draws


@pytest.mark.parametrize("text,limit,values", [
    ("3..6", 4, [3, 4, 5, 6]), ("odd 3..9", 4, [3, 5, 7, 9]),
    ("even 3..9", 3, [4, 6, 8]), ("odd -3..3", 4, [-3, -1, 1, 3]),
    ("even 4..4", 1, [4]), ("odd 3,4,5", 2, [3, 5]),
])
def test_a_range_is_counted_after_its_parity(text, limit, values):
    args = argparse.Namespace(k=text.split(), work_limit=limit)
    assert list(cli._parse_int_range(args, "k")) == values
    args = argparse.Namespace(k=text.split(), work_limit=limit - 1)
    with pytest.raises(WorkLimitExceeded, match=re.escape(
            f"--k {text}: {limit} values exceed the work limit {limit - 1}")):
        cli._parse_int_range(args, "k")


TIMED_MAIN = ("import sys, time\nfrom cotsums.cli import main\n"
              "t0 = time.perf_counter()\ncode = main(sys.argv[1:])\n"
              "print(time.perf_counter() - t0)\nsys.exit(code)\n")


def run_capped(argv, script=TIMED_MAIN, cap=2 << 30):
    """argv run by the script (by default the CLI, printing the time spent
    in main) in a child process whose address space is capped at cap bytes
    (2 GB), so that a list built at a refused size ends in a MemoryError
    rather than in the host's memory."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))


@pytest.mark.parametrize("argv,refusal", [
    (["sweep", "eq1", "--k", "1..1000000000", "--h", "1"],
     "--k 1..1000000000: 1000000000 values"),
    (["sweep", "eq1", "--k", "5", "--h", "1..1000000000"],
     "--h 1..1000000000: 1000000000 values"),
    (["sweep", "cor12", "--k", "5", "--seed", "1..1000000000"],
     "--seed 1..1000000000: 1000000000 values"),
    (["sweep", "eq1", "--k", "odd", "1..200000001", "--h", "1"],
     "--k odd 1..200000001: 100000001 values"),
    # the k^2 products of the transform, charged before its input is built
    (["verify", "lemma1-v", "--k", "20000"],
     "k^2 = 400000000 products at k=20000"),
    (["verify", "gamma-dft", "--k", "20000"],
     "k^2 = 400000000 products at k=20000"),
    # ranges each under the limit whose product is over it: counted before
    # any instance is made, sum(phi(k)) = 121590396 for the second
    (["sweep", "eq1", "--k", "1..20000", "--h", "1..20000"],
     "--k x --h: 400000000 instances"),
    (["sweep", "eq1", "--k", "1..20000", "--h", "all-coprime"],
     "--k x --h: more than 100000000 instances"),
    # all-coprime tuples are counted from phi(k), not listed
    (["sweep", "th2", "--k", "1..20000", "--hs", "all-coprime", "--m", "1"],
     "--k x --hs: more than 100000000 instances"),
    # the chain's count, charged before the 2^40-entry sign table is built
    (["compute", "hardy", "--which", "S", "--h", "12", "--k",
      "1099511627776"], "(m-2)k^2 + k = 1099511627776 products at "
                        "k=1099511627776, m=2"),
])
def test_a_size_over_the_work_limit_is_refused_within_a_second(argv,
                                                               refusal):
    proc = run_capped(argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{refusal} exceed the work limit 100000000" in proc.stderr
    assert float(proc.stdout) < 1


# one argv per place that charges the work budget, each refused by the one
# rule in errors.py: (argv, the words naming the work, the limit)
CHARGES = {
    "range": (["sweep", "eq1", "--k", "1..1000000000", "--h", "1"],
              "1000000000 values", 100000000),
    "all-coprime": (["sweep", "th2", "--hs", "all-coprime", "--k", "7",
                     "--m", "3", "--work-limit", "215"],
                    "6^3 multiplier tuples", 215),
    "random-draws": (["sweep", "th2", "--k", "7", "--hs", "random", "--m",
                      "3", "--samples", "2000000", "--work-limit", "1000"],
                     "6000000 random draws", 1000),
    "instances": (["sweep", "eq1", "--k", "1..20000", "--h", "1..20000"],
                  "400000000 instances", 100000000),
    "dft": (["verify", "gamma-dft", "--k", "20000"],
            "k^2 = 400000000 products at k=20000", 100000000),
    "convolution": (["verify", "th1", "--k", "101", "--m", "8",
                     "--work-limit", "61306"],
                    "(m-2)k^2 + k = 61307 products at k=101, m=8", 61306),
    "enumeration": (["sweep", "th2", "--k", "5..30", "--hs", "1,1,1,1",
                     "--work-limit", "10000"], "22^3 terms", 10000),
    "hurwitz-cut": (["compute", "hurwitz", "--s", "2+1e9i", "--x", "1/2"],
                    "= 2000000000 terms", 100000000),
    "series": (["verify", "eq2", "--h", "1", "--k", "5", "--terms",
                "3000000000"], "3000000000 terms", 100000000),
}


@pytest.mark.parametrize("argv,what,limit", CHARGES.values(), ids=CHARGES)
def test_every_charge_is_refused_in_one_wording(argv, what, limit):
    proc = run_capped(argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.endswith(f"{what} exceed the work limit {limit}\n")


def test_running_out_of_memory_exits_2_naming_the_command():
    """A size no charge counts yet (the cot^(3000) polynomial) ends in the
    backstop's exit 2, not a traceback; 256 MB is reached in ~0.3 s."""
    proc = run_capped(["compute", "cot-deriv", "--order", "3000", "--a", "1",
                       "--k", "3"], cap=256 << 20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: compute cot-deriv ran out of memory\n"


@pytest.mark.parametrize("argv", [
    ["compute", "bernoulli-number", "--r", str(10 ** 30)],
    ["verify", "lemma3-a", "--k", str(10 ** 30), "--seed", "5", "--terms",
     "3"],
])
def test_an_overflowing_size_exits_2_naming_the_command(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[0]} {argv[1]} overflowed: ")
    assert "Traceback" not in err


def _untimed(out):
    """A sweep's stdout with every timing masked."""
    return re.sub(r"\d+(\.\d+)?(?= ?(s|ms|us|x)\b)|(?<=micros\": )\d+", "#",
                  out)


@pytest.mark.parametrize("seed", ["abc", "1..1000000000"])
def test_a_seed_no_instance_reads_is_ignored(capsys, seed):
    """--seed is parsed only by rows that read it and by random hs."""
    outs = []
    for argv in ([], ["--seed", seed]):
        assert main(["sweep", "eq1", "--k", "5", "--h", "1", "--json",
                     *argv]) == 0
        outs.append(_untimed(capsys.readouterr().out))
    assert outs[0] == outs[1]


# the CLI on two cores with its instances run by a stub that returns one
# fixed report and stops the sweep at the 1,001st instance a process runs:
# prints the instances that process ran and its peak of traced allocations
# (a worker's, under --jobs 2), then the peak of the process running main
STUBBED_MAIN = """
import os, sys, tracemalloc
from cotsums import cli
from cotsums.registry import verify

report, runs = verify("eq1", {"h": 1, "k": 5}), []


class Stop(Exception):
    pass


def run(payload):
    runs.append(payload[1])
    if len(runs) > 1000:
        raise Stop(len(runs), tracemalloc.get_traced_memory()[1])
    return report


cli._run_instance = run
os.cpu_count = lambda: 2
tracemalloc.start()
try:
    cli.main(sys.argv[1:])
except Stop as stop:
    print(*stop.args, tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize("argv", [
    ["eq1", "--k", "1..100000000", "--h", "1"],
    ["eq1", "--k", "5", "--h", "1..100000000"],
    # 96^4 = 84934656 tuples, under the default limit
    ["th2", "--k", "97", "--hs", "all-coprime", "--m", "4"],
    # each forked worker walks its own copy of the stream, and the parent
    # holds no more than the chunks its pipes deliver
    ["eq1", "--k", "5", "--h", "1..100000000", "--jobs", "2"],
])
def test_a_sweep_at_the_work_limit_runs_in_bounded_memory(argv):
    """Admitted sweeps of ~10^8 instances start at once and hold no list
    that grows with the instance count."""
    proc = run_capped(["sweep", *argv], STUBBED_MAIN)
    assert proc.returncode == 0, proc.stderr
    runs, peak, main_peak = map(int, proc.stdout.split())
    assert runs == 1001
    assert peak < 50 << 20
    assert main_peak < 50 << 20


def test_each_range_flag_is_parsed_once(monkeypatch, capsys):
    parsed = []
    parse = cli._parse_int_range
    monkeypatch.setattr(cli, "_parse_int_range",
                        lambda args, name: parsed.append(name)
                        or parse(args, name))
    assert main(["sweep", "eq1", "--k", "1..30", "--h", "1..5"]) == 0
    assert parsed == ["k", "h"]


def test_a_refusal_mid_sweep_keeps_the_reports_before_it(monkeypatch, capsys,
                                                         tmp_path):
    """Reports are printed and written as they arrive: those before an
    instance the work limit refuses stay on stdout and in the CSV, under
    forked workers too, whose chunk ends at the refusal."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_PER_WORKER", 1)      # 26 instances fork
    path = tmp_path / "th2.csv"
    for jobs in ("1", "2"):
        assert main(["sweep", "th2", "--k", "5..30", "--hs", "1,1,1,1",
                     "--work-limit", "10000", "--json", "--csv", str(path),
                     "--jobs", jobs]) == 2
        out, err = capsys.readouterr()
        assert err == "error: 22^3 terms exceed the work limit 10000\n"
        assert [json.loads(line)["params"]["k"]
                for line in out.splitlines()] == list(range(5, 22))
        rows = path.read_text().splitlines()
        assert rows[0] == "id,k,hs,lhs,rhs,residual,pass,micros"
        assert len(rows) == 18


@pytest.fixture
def forks(monkeypatch):
    """The pids that os.fork returns to the parent."""
    pids, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: pids.append(pid := fork()) or pid)
    return pids


def assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_a_worker_that_dies_fails_the_sweep(monkeypatch, capsys, forks):
    """A worker killed mid-sweep ends the sweep with exit 2 and its status,
    never a summary of the instances that did arrive."""
    run = cli._run_instance

    def run_or_die(payload):
        if payload[1]["k"] == 20:
            os.kill(os.getpid(), signal.SIGKILL)
        return run(payload)

    monkeypatch.setattr(cli, "_run_instance", run_or_die)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert main(["sweep", "eq1", "--k", "1..30", "--h", "all-coprime",
                 "--jobs", "2"]) == 2
    out, err = capsys.readouterr()
    assert err == ("error: a sweep worker ended before its last report "
                   "(signal 9)\n")
    assert out == ""
    assert len(forks) == 2
    assert_reaped(forks)


@pytest.mark.parametrize("argv,code", [
    (["eq1", "--k", "1..30", "--h", "all-coprime"], 0),
    (["th2", "--k", "5..30", "--hs", "1,1,1,1", "--work-limit", "10000"], 2),
])
def test_no_worker_outlives_the_sweep(monkeypatch, capsys, forks, argv,
                                      code):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_PER_WORKER", 1)      # 26 th2 instances fork
    assert main(["sweep", *argv, "--jobs", "2"]) == code
    assert_reaped(forks)


def test_no_worker_outlives_an_interrupt(forks):
    payloads = (("eq1", {"h": 1, "k": k}, RunConfig()) for k in range(1, 90))
    reports = cli._forked(payloads, 2, 4)
    assert next(reports).params == {"h": 1, "k": 1}
    with pytest.raises(KeyboardInterrupt):
        reports.throw(KeyboardInterrupt)
    assert_reaped(forks)


@pytest.mark.parametrize("identity,inputs", [
    ("gamma-dft", ("gamma_map", "euler_gamma_table", "digamma")),
    ("lemma1-v", ("_periodic_zeta_table", "hurwitz_row", "hurwitz_zeta")),
])
def test_transform_rows_charge_k_squared_before_their_input(
        monkeypatch, identity, inputs):
    def refuse(*args):
        raise AssertionError("an input map was built before the k^2 charge")

    for name in inputs:
        monkeypatch.setattr(zeta, name, refuse)
    with pytest.raises(WorkLimitExceeded, match=re.escape(
            "k^2 = 40000 products at k=200 exceed the work limit 39999")):
        verify(identity, {"k": 200}, RunConfig(work_limit=39999))


@pytest.fixture
def serial_forks(monkeypatch):
    """Stands in for the forked workers: records each (workers, chunk size)
    asked for, and runs the sweep in-line."""
    started = []

    def forked(payloads, jobs, chunk):
        started.append((jobs, chunk))
        yield from map(cli._run_instance, payloads)

    monkeypatch.setattr(cli, "_forked", forked)
    return started


# cor3 at k = 3..6 with h1 all-coprime and h2 = 1 expands to 10 instances
@pytest.mark.parametrize("jobs,cores,started", [
    ("1000", 4, [4]),      # capped at the cores
    ("1000", 64, [10]),    # capped at the instances
    ("3", 8, [3]),
    ("1000", None, []),    # core count unknown: serial
    ("2", 1, []),
    ("2", 2, [2]),         # chunks of ceil(10 / 8) = 2 instances
])
def test_sweep_jobs_clamped(monkeypatch, capsys, serial_forks, jobs, cores,
                            started):
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(cli, "_PER_WORKER", 1)      # the floor is tested below
    assert main(["sweep", "cor3", "--k", "3..6", "--h1", "all-coprime",
                 "--h2", "1", "--jobs", jobs]) == 0
    assert "10 instances, 10 pass" in capsys.readouterr().out
    # each worker runs contiguous chunks of ceil(n / 4 jobs)
    assert serial_forks == [(w, math.ceil(10 / (4 * w))) for w in started]


def test_a_tiny_sweep_forks_no_worker(monkeypatch, capsys):
    """Forking costs more than a few instances: a 4-instance sweep at
    --jobs 2 runs serially, and prints what the --jobs 1 run prints."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["sweep", "eq1", "--k", "5", "--h", "all-coprime", "--json"]
    assert main(argv) == 0
    serial = _untimed(capsys.readouterr().out)

    def refuse():
        raise AssertionError("a 4-instance sweep forked a worker")

    monkeypatch.setattr(os, "fork", refuse)
    assert main([*argv, "--jobs", "2"]) == 0
    assert _untimed(capsys.readouterr().out) == serial
    assert "sweep eq1: 4 instances, 4 pass, 0 fail" in serial


def test_benchmark_sweeps_still_fork_two_workers(monkeypatch, capsys,
                                                 serial_forks):
    """Each pair-sweep command (~370 to ~1,100 instances) is long enough
    for both workers under the instances-per-worker floor."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    workloads = importlib.import_module("perfbench.workloads")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    spec = workloads.WORKLOADS["pair-sweep"]
    for argv in workloads.all_commands("pair-sweep"):
        serial_forks.clear()
        assert main([*argv, "--jobs", str(spec["jobs"])]) == 0
        capsys.readouterr()
        assert [jobs for jobs, _ in serial_forks] == [2]


def test_serial_sweep_loads_no_multiprocessing():
    """Importing the CLI and running a --jobs 1 sweep load neither
    multiprocessing nor the process pool, nor dataclasses or inspect (~11 ms
    of start-up); a --jobs 2 sweep forks its workers without them."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = ("import os, sys\n"
              "from cotsums import cli\n"
              "from cotsums.cli import main\n"
              "os.cpu_count = lambda: 2\n"
              "cli._PER_WORKER = 1\n"
              "for jobs in ('1', '2'):\n"
              "    assert main(['sweep', 'cor3', '--k', '3..6', '--h1', "
              "'all-coprime', '--h2', '1', '--jobs', jobs]) == 0\n"
              "    print(sorted(m for m in sys.modules if m.startswith("
              "('multiprocessing', 'concurrent', 'dataclasses', "
              "'inspect'))))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("10 instances, 10 pass") == 2
    assert [line for line in proc.stdout.splitlines()
            if line.startswith("[")] == ["[]", "[]"]


def test_library_and_cli_read_terms_alike(capsys):
    """terms is an instance parameter: the library call and --terms give
    one report, timings aside."""
    library = verify("eq2", {"h": 2, "k": 7, "terms": 300}).to_dict()
    assert main(["verify", "eq2", "--h", "2", "--k", "7", "--terms", "300",
                 "--json"]) == 0
    command = json.loads(capsys.readouterr().out)
    for report in (library, command):
        for key in ("micros", "lhs_micros", "rhs_micros"):
            report.pop(key, None)
    assert library == command
    assert command["params"]["terms"] == 300


def test_re_s_above_one_is_one_rule():
    with pytest.raises(ConvergenceDomain) as registry:
        verify("th9", {"k": 5, "h1": 1, "h2": 1, "s1": "1"})
    with pytest.raises(ConvergenceDomain) as library:
        zeta.mikolas_pair("1", "3", 1, 1, 5)
    assert str(registry.value) == str(library.value) == "Re s1 must exceed 1"


def test_benchmark_argv_parse(monkeypatch):
    """Every argv the benchmark can run, with the --json and --jobs it
    appends, is accepted by the CLI parser."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    workloads = importlib.import_module("perfbench.workloads")
    parser = cli._build_parser()
    for name, spec in workloads.WORKLOADS.items():
        for argv in workloads.all_commands(name):
            parser.parse_args([*argv, "--json", "--jobs", str(spec["jobs"])])
