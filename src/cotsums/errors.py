"""Exception types for domain and precondition violations, and the rules
that raise them: each precondition is worded once, here. A rule is a
callable over a parameter dict; a library function checks its arguments
with check(rules, **args), and a registry row lists the same rules.
"""

from math import gcd


class CotsumsError(Exception):
    """Base class for all library errors."""


class NotCoprime(CotsumsError):
    """A multiplier is not invertible modulo k."""


class PeriodMismatch(CotsumsError):
    """Two periodic maps with different periods were combined."""


class ParityViolation(CotsumsError):
    """A parity precondition (k even/odd, h even/odd, m even) failed."""


class PoleAtIntegerMultiple(CotsumsError):
    """cot(pi*a/k) requested with k | a."""


class PoleAtHalfPeriod(CotsumsError):
    """tan(pi*a/k) requested with k even and a = k/2 (mod k)."""


class ConvergenceDomain(CotsumsError):
    """A zeta-side evaluation was requested outside Re s > 1."""


class NonPositiveArgument(CotsumsError):
    """digamma requested at x <= 0."""


class OutOfRange(CotsumsError):
    """A parameter fell outside its documented range."""


class NotOdd(CotsumsError):
    """An operation requiring an odd periodic map received a non-odd one."""


class WorkLimitExceeded(CotsumsError):
    """A user-sized loop would exceed the configured work budget."""


def check(rules, **params) -> None:
    """Raise the first of the rules that the parameters violate."""
    for rule in rules:
        rule(params)


def charge(count: int, work_limit: int, what: str) -> None:
    """Refuse count units of work (what names them) over work_limit."""
    if count > work_limit:
        raise WorkLimitExceeded(f"{what} exceed the work limit {work_limit}")


def require(test, error, message: str):
    """A rule raising error(message filled from the parameters) unless test."""
    def rule(params):
        if not test(params):
            raise error(message.format(**params))
    return rule


def given(what: str, names):
    """what reads each named parameter, given on the CLI as --name: none of
    them is missing or None."""
    def rule(params):
        missing = [n for n in names if params.get(n) is None]
        if missing:
            raise OutOfRange(f"{what} needs --" + " --".join(missing))
    return rule


def coprime(*names):
    """Each named multiplier is a unit mod k."""
    def rule(params):
        k = params["k"]
        for name in names:
            h = params[name]
            if gcd(h, k) != 1:
                raise NotCoprime(f"{name} must be coprime to k: "
                                 f"gcd({h}, {k}) = {gcd(h, k)}")
    return rule


def all_coprime(params) -> None:
    """Every multiplier of the tuple hs is a unit mod k."""
    k = params["k"]
    for j, h in enumerate(params["hs"], 1):
        if gcd(h, k) != 1:
            raise NotCoprime(f"hs[{j}] = {h} must be coprime to k = {k}")


def parity(what: str, parity: str, value=None):
    """what must have the parity; value(params) when what is not a param."""
    def rule(params):
        v = params[what] if value is None else value(params)
        if (v % 2 == 0) != (parity == "even"):
            raise ParityViolation(f"{what} must be {parity}, got {v}")
    return rule


def holds_ints(label: str):
    """The list values, read from text, holds at least one integer; label
    names it in the message."""
    return require(lambda p: len(p["values"]) > 0, OutOfRange,
                   label + " must hold at least one integer, got {text!r}")


def orders(value):
    """Every Bernoulli order in value(params) is >= 1."""
    return require(lambda p: all(r >= 1 for r in value(p)), OutOfRange,
                   "orders must be >= 1")


def choice(name: str, options, error=OutOfRange):
    """The parameter is one of the options, which the message lists."""
    return require(lambda p: p[name] in options, error,
                   f"{name} must be one of {', '.join(options)}, "
                   f"got {{{name}!r}}")


K_POSITIVE = require(lambda p: p["k"] >= 1, OutOfRange,
                     "k must be >= 1, got {k}")
R_POSITIVE = require(lambda p: p["r"] >= 1, OutOfRange, "r must be >= 1")
TERMS_POSITIVE = require(lambda p: p["terms"] >= 1, OutOfRange,
                         "terms must be >= 1, got {terms}")
K_EVEN, K_ODD = parity("k", "even"), parity("k", "odd")
M_EVEN = parity("m", "even", lambda p: len(p["hs"]))
H1_ODD = parity("h1", "odd", lambda p: p["hs"][0])    # h_1 of the tuple hs
PAIRED_ORDERS = (require(lambda p: len(p["rs"]) == len(p["hs"]), OutOfRange,
                         "rs and hs must have the same length"),
                 orders(lambda p: p["rs"]))
