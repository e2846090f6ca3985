"""cotsums: exact and high-precision verification of finite trigonometric
identities for Dedekind, Hardy, Bernoulli and zeta-type sums.

Every identity has two independently computed sides: a definitional side
(exact rational arithmetic or a brute-force enumeration) and a closed form
(cot/tan sums, transform products, or zeta combinations) evaluated at a
configurable bit precision. The registry ties each identity id to both
sides and reports the residual.
"""

from .config import RunConfig
from .errors import (ConvergenceDomain, CotsumsError, NonPositiveArgument,
                     NotCoprime, NotOdd, OutOfRange, ParityViolation,
                     PeriodMismatch, PoleAtHalfPeriod,
                     PoleAtIntegerMultiple, WorkLimitExceeded)
from .exact import (Poly, bernoulli_number, bernoulli_poly, frac, mod_inverse,
                    periodic_bernoulli, sawtooth)
from .periodic import (PeriodicMap, closed_form_dft, constrained_product_sum,
                       convolve, defining_map, dft, map_max_residual,
                       sawtooth_map, spectral_product_sum)
from .registry import REGISTRY, IdentityEntry, verify
from .report import IdentityReport
from .sums import (dedekind_cot, dedekind_series, dedekind_sum, hardy_A,
                   hardy_A_rhs, hardy_B, hardy_B_rhs, hardy_sum, zagier_cot,
                   zagier_sum)
from .trig import cot_at, cot_deriv_at, cot_poly, tan_at, trig_product_sum
from .zeta import (digamma, euler_gamma_rk, euler_gamma_table, hurwitz_zeta,
                   mikolas_pair, periodic_zeta, riemann_zeta, series_forms,
                   series_partial)

__version__ = "0.1.0"
