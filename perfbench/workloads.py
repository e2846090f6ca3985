"""The four benchmark workloads as lists of CLI command slots.

A workload is a list of slots. Each slot holds one or more candidate
commands (argv after ``python -m cotsums.cli``, without ``--json`` and
``--jobs``); a run draws one candidate per slot from its ``--seed``. The
candidate pools are fixed, so ``reference.json`` can hold the expected
verdicts and left-hand sides of every command a seed can produce.
"""

from __future__ import annotations

import random
from math import gcd

POOL = 12  # candidates per seeded slot


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _common_units(ks) -> list[int]:
    """Multipliers coprime to every k of the window, so a tuple drawn from
    them keeps every k of the sweep admissible. They range past max(ks) so
    that a small window still sees varied residues."""
    return [h for h in range(1, 8 * max(ks))
            if all(gcd(h, k) == 1 for k in ks)]


def _tuple_pool(tag: str, ks, m: int) -> list[str]:
    rng = random.Random(f"perfbench:{tag}")
    units = _common_units(ks)
    return [",".join(str(rng.choice(units)) for _ in range(m))
            for _ in range(POOL)]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# Multipliers for large k: primes above every k of the sweep, so each is a
# unit for all of them, spread over several thousand so h mod k varies.
_LARGE_H = [_next_prime(3000 + 1250 * i) for i in range(POOL)]
_LARGE_K_EQ1 = [2000 + 130 * i for i in range(8)]
_LARGE_K_ODD = [2001 + 130 * i for i in range(8)]

_MAP_SEEDS = random.Random("perfbench:map-seeds").sample(range(1, 10 ** 6),
                                                         POOL)

_TH2_M4_K, _TH2_M6_K = [26, 27, 28], [7, 8]
_TH4_K, _TH5_K, _TH7_K = [22, 23, 24], [24, 26], [25, 27]


def _sweep(identity: str, *args: str) -> list[str]:
    return ["sweep", identity, *args]


def _hs_slot(identity: str, ks, m: int, *extra: str) -> list[list[str]]:
    return [_sweep(identity, "--k", _csv(ks), *extra, "--hs", hs)
            for hs in _tuple_pool(f"{identity}:m{m}", ks, m)]


WORKLOADS: dict[str, dict] = {
    "pair-sweep": {
        "jobs": 2,
        "slots": [
            [_sweep("eq1", "--k", "1..60", "--h", "all-coprime")],
            [_sweep("cor9-s3", "--k", "odd", "3..59", "--h", "all-coprime")],
            [_sweep("cor7", "--k", "even", "2..60", "--h", "all-coprime")],
        ],
    },
    "large-k": {
        "jobs": 1,
        "slots": [
            [_sweep("eq1", "--k", _csv(_LARGE_K_EQ1), "--h", str(h))
             for h in _LARGE_H],
            [_sweep("cor9-s3", "--k", _csv(_LARGE_K_ODD), "--h", str(h))
             for h in _LARGE_H],
        ],
    },
    "zero-sum": {
        "jobs": 1,
        "slots": [
            _hs_slot("th2", _TH2_M4_K, 4),
            _hs_slot("th2", _TH2_M6_K, 6),
            _hs_slot("th4", _TH4_K, 4, "--rs", "2,2,2,2"),
            _hs_slot("th5", _TH5_K, 4),
            _hs_slot("th7", _TH7_K, 4),
        ],
    },
    "zeta-dft": {
        "jobs": 1,
        "slots": [
            [_sweep("th9", "--k", "4..7", "--h1", "1", "--h2", "all-coprime")],
            [_sweep("gamma-dft", "--k", "20..28")],
            [_sweep("cor12", "--k", "20..26", "--seed", str(s))
             for s in _MAP_SEEDS],
            [_sweep("lehmer-th8", "--k", "20..26", "--seed", str(s))
             for s in _MAP_SEEDS],
            [_sweep("lemma1-ii", "--k", "96", "--r", "1..4")],
        ],
    },
}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The workload's command list for one seed: one candidate per slot."""
    rng = random.Random(f"{workload}:{seed}")
    return [slot[rng.randrange(len(slot))] if len(slot) > 1 else slot[0]
            for slot in WORKLOADS[workload]["slots"]]


def all_commands(workload: str) -> list[list[str]]:
    """Every command any seed can draw for the workload."""
    return [cmd for slot in WORKLOADS[workload]["slots"] for cmd in slot]


def key(cmd: list[str]) -> str:
    return " ".join(cmd)
