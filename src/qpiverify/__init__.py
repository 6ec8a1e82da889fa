"""Exact and arbitrary-precision verification of q-hypergeometric identities,
WZ telescoping certificates, cyclotomic supercongruences, and their classical
limits.  The exact checks need no mpmath, so the package loads `numerics`, and
mpmath with it, only when a numeric name is first read (PEP 562)."""

__version__ = "0.1.0"

from .congruences import (
    GcdNotCoprime,
    ModulusContext,
    ModulusKind,
    NonInvertibleDenominator,
    PadicWitness,
    congruent_zero,
    euler_number,
    legendre_symbol,
    modulus_build,
    verify_intro,
    verify_modsun,
    verify_sun,
)
from .polys import Poly, cyclotomic, poly_gcd, poly_gcd_ext
from .qseries import QPochSpec, SeriesId, partial_sum, q_integer, q_pochhammer, summand
from .ratfunc import RatFunc, ZeroDenominator
from .wz import (
    CheckResult,
    ConvergenceBudgetExceeded,
    IdentityId,
    WzPairId,
    check_identity,
    check_telescoping,
    wz_term,
)

__all__ = [
    "CheckResult",
    "ConvergenceBudgetExceeded",
    "EvalReport",
    "GcdNotCoprime",
    "IdentityId",
    "ModulusContext",
    "ModulusKind",
    "NonInvertibleDenominator",
    "PadicWitness",
    "Poly",
    "QPochSpec",
    "RatFunc",
    "SeriesId",
    "WzPairId",
    "ZeroDenominator",
    "check_identity",
    "check_identity_numeric",
    "check_telescoping",
    "congruent_zero",
    "cyclotomic",
    "eval_classical",
    "eval_qpoch_inf",
    "eval_series",
    "euler_number",
    "legendre_symbol",
    "limit_scan",
    "modulus_build",
    "partial_sum",
    "poly_gcd",
    "poly_gcd_ext",
    "q_gamma",
    "q_integer",
    "q_pochhammer",
    "summand",
    "verify_intro",
    "verify_modsun",
    "verify_sun",
    "wz_term",
]

_NUMERIC = frozenset(
    ("EvalReport", "check_identity_numeric", "eval_classical", "eval_qpoch_inf", "eval_series", "limit_scan", "q_gamma")
)


def __getattr__(name):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import numerics

    return getattr(numerics, name)


def __dir__():
    return sorted(globals().keys() | _NUMERIC)
