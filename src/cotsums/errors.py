"""Exception types for domain and precondition violations."""


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
    """An exact side would exceed the configured product budget."""
