"""The two sides of an identity stay separate computations.

No closed side may be the transform of its own defining map: with the
direct transform disabled, every identity whose closed side is a finite
trig sum or a product of closed-form transforms must still verify. A closed
side rebuilt as dft(defining map) would raise here instead.

The closed side of a transform row (lemma1-i..v, gamma-dft) is the stated
transform map, built without dft: it returns the same map with dft
disabled.

No exact side may use the trig layer or a transform: with the closed-form
kernel, the cot/tan tables and dft disabled, every exact side must still
return its value.

Every id that reads the cot/tan tables must see them: with each int entry
v scaled to v + (v >> e), about 1 + 2^-e, the tables make each such id
fail.

th9 reads two cached zeta tables, one per side: scaling either the Hurwitz
row of its lhs or the F map of its rhs makes it fail.

F is built apart from th9's lhs row and from lemma1-v's transform: with
the Hurwitz row, the Riemann zeta cache, dft and the trig tables disabled,
the F map and a value of F still return.

dft builds its roots of unity itself: with the trig tables and their
rotation disabled, it still returns.

remark1's full-range form is a third side: scaling it alone, while its lhs
and rhs stay as they are, makes remark1 fail.
"""

from fractions import Fraction

import pytest
from mpmath import mpf, workprec

from cotsums import periodic, registry, sums, trig, zeta
from cotsums.config import RunConfig
from cotsums.hp import is_exact
from cotsums.registry import REGISTRY, verify

INSTANCES = {
    "eq1": {"h": 5, "k": 17},
    "cor3": {"k": 13, "h1": 3, "h2": 5},
    "th2": {"k": 7, "hs": (1, 2, 3, 4)},
    "th4": {"k": 7, "rs": (1, 3), "hs": (2, 3)},
    "cor5": {"k": 7, "r1": 2, "r2": 4, "h1": 2, "h2": 3},
    "th5": {"k": 8, "hs": (3, 1, 5, 7)},
    "cor6": {"k": 12, "h1": 5, "h2": 7},
    "cor7": {"k": 14, "h": 3},
    "th7": {"k": 9, "hs": (2, 4, 5, 7)},
    "cor8": {"k": 11, "h1": 3, "h2": 4},
    "cor9-s3": {"k": 15, "h": 4},
    "cor9-s5": {"k": 13, "h": 5},
    "cor10": {"k": 9, "h1": 4, "h2": 5},
    "cor11": {"k": 11, "h": 4},
    "eq14": {"k": 9, "h1": 2, "h2": 5},
    "tan-sq": {"k": 21},
    "remark1": {"k": 13, "h": 6},
}


def _refuse_dft(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a closed side called dft")

    for module in (periodic, registry, zeta):
        monkeypatch.setattr(module, "dft", refuse)


@pytest.fixture
def no_dft(monkeypatch):
    _refuse_dft(monkeypatch)


@pytest.mark.parametrize("identity,params", INSTANCES.items(),
                         ids=list(INSTANCES))
def test_closed_side_needs_no_dft(no_dft, identity, params):
    assert verify(identity, params).passed


# the rows whose closed side is a transform map
TRANSFORM_ROWS = {
    "lemma1-i": {"k": 12}, "lemma1-ii": {"k": 7, "r": 3},
    "lemma1-iii": {"k": 10}, "lemma1-iv": {"k": 9},
    "lemma1-v": {"k": 5, "s": "2.5"}, "gamma-dft": {"k": 12},
}


@pytest.mark.parametrize("identity", TRANSFORM_ROWS)
def test_transform_closed_side_needs_no_dft(monkeypatch, identity):
    entry = REGISTRY[identity]
    params = {**entry.defaults, **TRANSFORM_ROWS[identity]}
    expected = entry.closed(RunConfig(), **params)
    assert isinstance(expected, periodic.PeriodicMap)
    _refuse_dft(monkeypatch)
    assert entry.closed(RunConfig(), **params).values == expected.values


# rows whose closed side reads dft or a series, with an instance each
EXACT_ONLY = {
    "eq2": {"h": 3, "k": 7}, "parseval": {"k": 11},
    "th1": {"k": 7, "m": 4},
    "cor1": {"k": 11, "h1": 2, "h2": 3},
    "cor2": {"k": 11, "h1": 2, "h2": 3, "parity": "even"},
}


def _exact_side(identity):
    entry = REGISTRY[identity]
    params = {**INSTANCES, **EXACT_ONLY}[identity]
    return entry.exact(RunConfig(), **{**entry.defaults, **params})


@pytest.mark.parametrize("identity", [*INSTANCES, *EXACT_ONLY])
def test_exact_side_needs_no_trig(monkeypatch, identity):
    expected = _exact_side(identity)
    assert is_exact(expected)

    def refuse(*args, **kwargs):
        raise AssertionError("an exact side called the trig layer or dft")

    for module, name in [(trig, "trig_product_sum"), (sums, "trig_product_sum"),
                         (periodic, "spectral_product_sum"),
                         (trig, "fixed_tables"),
                         (periodic, "dft"), (registry, "dft")]:
        monkeypatch.setattr(module, name, refuse)
    assert _exact_side(identity) == expected


@pytest.mark.parametrize("identity,name", [
    ("cor12", "euler_gamma_table"), ("lemma3-a", "euler_gamma_table"),
    ("lemma3-b", "euler_gamma_table"), ("lehmer-th8", "dft"),
    ("lemma3-a", "dft")])
def test_series_form_builds_only_its_own_tables(monkeypatch, identity, name):
    # each S(f) check computes its two forms alone: cor12 and lemma3-* build
    # no Euler-gamma table, and the cot, Lehmer and series sides no transform
    def refuse(*args, **kwargs):
        raise AssertionError(f"{identity} called zeta.{name}")

    monkeypatch.setattr(zeta, name, refuse)
    assert verify(identity, {"k": 11, "seed": 3}).passed


# Every id whose check reads the tables of trig.fixed_tables: an instance
# whose table sum is not 0 (a scaled odd table keeps a zero sum at 0, to a
# unit of 2^-P), and the e of the perturbation 1 + 2^-e. 2^-100 is far
# above the 2^-128 tolerance; eq2 and lemma3-a compare a truncated series
# with its tail bound, which only a perturbation above that bound can
# cross.
TABLE_READERS = {
    **{ident: (INSTANCES[ident], 100) for ident in (
        "eq1", "th2", "cor3", "th4", "th5", "cor5", "cor6", "cor7", "th7",
        "cor8", "cor9-s3", "cor9-s5", "cor10", "cor11", "tan-sq", "remark1")},
    "eq14": ({"k": 11, "h1": 3, "h2": 4}, 100),
    "lemma1-i": ({"k": 10}, 100),
    "lemma1-ii": ({"k": 10}, 100),
    "lemma1-iii": ({"k": 10}, 100),
    "lemma1-iv": ({"k": 9}, 100),
    "lemma3-b": ({"k": 11, "seed": 3}, 100),
    "lehmer-th8": ({"k": 11, "seed": 3}, 100),
    "cor12": ({"k": 11, "seed": 3}, 100),
    "eq2": ({"h": 1, "k": 5, "terms": 2000}, 8),
    "lemma3-a": ({"k": 7, "seed": 1, "terms": 2000}, 8),
}

# instances of the ids that read neither table
TABLE_FREE = {
    "parseval": {"k": 11}, "th1": {"k": 7, "m": 4},
    "cor1": {"k": 11, "h1": 2, "h2": 3}, "cor2": {"k": 11, "h1": 2, "h2": 3},
    "lemma1-v": {"k": 6}, "th9": {"k": 5, "h1": 1, "h2": 2},
    "gamma-dft": {"k": 7},
}


@pytest.fixture
def wrap_tables(monkeypatch):
    """install(wrap) routes both tables of the one table builder through
    wrap(table)."""
    def install(wrap):
        monkeypatch.setattr(trig, "fixed_tables", lambda *args, build=(
            trig.fixed_tables): tuple(map(wrap, build(*args))))

    return install


@pytest.mark.parametrize("identity", REGISTRY)
def test_table_readers_listed(wrap_tables, identity):
    reads = []
    wrap_tables(lambda table: reads.append(table) or table)
    params = (TABLE_READERS[identity][0] if identity in TABLE_READERS
              else TABLE_FREE[identity])
    assert verify(identity, params).passed
    assert bool(reads) == (identity in TABLE_READERS)


@pytest.mark.parametrize("identity", TABLE_READERS)
def test_table_perturbation_is_seen(wrap_tables, identity):
    params, e = TABLE_READERS[identity]
    assert verify(identity, params).passed

    def scale(table):
        return tuple(None if v is None else v + (v >> e) for v in table)

    wrap_tables(scale)
    assert not verify(identity, params).passed


def test_dft_builds_its_own_roots(monkeypatch):
    # lemma1-i..iv compare dft with maps built from the trig tables, so dft
    # must not take its roots from the rotation behind them
    def refuse(*args):
        raise AssertionError("dft read the trig tables' rotation")

    maps = [periodic.sawtooth_map(12), zeta.gamma_map(7),
            periodic.sawtooth_dft_map(9)]
    for name in ("fixed_tables", "_half_turn"):
        monkeypatch.setattr(trig, name, refuse)
    for f in maps:
        assert periodic.dft(f).period == f.period


@pytest.fixture
def cold_zeta_caches():
    """Every zeta-layer cache is empty at the start and at the end, so no
    warm entry hides a patched primitive; the test may call clear()."""
    caches = (zeta.hurwitz_row, zeta._periodic_zeta_table, zeta.riemann_zeta,
              zeta.euler_gamma_table)

    def clear():
        for cached in caches:
            cached.cache_clear()

    clear()
    yield clear
    clear()


# each th9 table, and the table of the other side, which must not change
# when this one is scaled
@pytest.mark.parametrize("name,other", [
    ("hurwitz_row", lambda s: zeta.periodic_zeta_map(s, 7).values),
    ("_periodic_zeta_table", lambda s: zeta.hurwitz_row(s, 7, 256))],
    ids=["lhs-row", "rhs-F-map"])
def test_th9_sides_read_separate_zeta_tables(monkeypatch, cold_zeta_caches,
                                             name, other):
    params = {"k": 7, "h1": 1, "h2": 3}
    assert verify("th9", params).passed
    s = zeta._to_s("2")
    before = other(s)
    build = getattr(zeta, name)

    def scaled(*args):
        table = build(*args)
        values = table if isinstance(table, tuple) else table.values
        with workprec(1024):
            values = tuple(None if v is None else v * (1 + mpf(2) ** -100)
                           for v in values)
        return values if isinstance(table, tuple) else periodic.PeriodicMap(
            values)

    cold_zeta_caches()
    monkeypatch.setattr(zeta, name, scaled)
    assert not verify("th9", params).passed
    assert other(s) == before


@pytest.mark.parametrize("s", ["2", "2.5", "2+1i"])
def test_f_is_built_apart(monkeypatch, cold_zeta_caches, s):
    def refuse(*args):
        raise AssertionError("F read a table of another side")

    for module, name in ((zeta, "hurwitz_row"), (zeta, "riemann_zeta"),
                         (zeta, "dft"), (periodic, "dft"),
                         (trig, "fixed_tables")):
        monkeypatch.setattr(module, name, refuse)
    assert zeta.periodic_zeta_map(s, 7).period == 7
    assert zeta.periodic_zeta(s, Fraction(3, 7)) is not None
    assert zeta.periodic_zeta(s, 0) is not None


def test_remark1_sees_its_full_range_side(monkeypatch):
    params = {"k": 13, "h": 6}
    before = verify("remark1", params)
    assert before.passed
    full_range = sums.tan_cot_pair_rhs

    def scaled(*args):
        with workprec(RunConfig().precision):
            return full_range(*args) * (1 + mpf(2) ** -100)

    monkeypatch.setattr(sums, "tan_cot_pair_rhs", scaled)
    after = verify("remark1", params)
    assert not after.passed
    assert (after.lhs, after.rhs) == (before.lhs, before.rhs)
