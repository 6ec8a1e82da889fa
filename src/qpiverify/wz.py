"""Checks on the two q-WZ pairs: their telescoping certificate and the
finite summation identities it proves.

The pairs' functions F(n, k) and G(n, k) = R(n, k) F(n, k) are defined in
`qseries`, next to the series they generate: each F is one shared core times a
few pair-specific factors, and both pairs have the same rational certificate
R(n, k) = (1 - q^(4n))^2 / ((1 - q^(6n-2k+1)) (1 - q^(2n+2k-1))).  They satisfy
F(n, k-1) - F(n, k) = G(n+1, k) - G(n, k) exactly as rational functions.
Summing that relation over k telescopes to the identities a2, a3, second and
second2; this module checks both the relation and the identities exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .factored import FactorList, negated, sum_terms
from .qseries import (
    SeriesId,
    WzPairId,
    series_factors,
    series_range,
    sun_closed_form,
    wz_term_brackets,
    wz_term_factors,
)
from .ratfunc import RatFunc


class IdentityId(Enum):
    ID_A2 = "a2"
    ID_A3 = "a3"
    ID_SECOND = "second"
    ID_SECOND2 = "second2"
    ID_WHIPPLE = "whipple"


@dataclass
class CheckResult:
    """Outcome of a single exact or numeric check.

    `witness` holds the exact difference (or congruence residue) when the
    check fails; `bound` and `terms` are filled by numeric checks only.
    """

    passed: bool
    case_label: str
    witness: RatFunc | None = None
    bound: object | None = None
    terms: int | None = None

    def __post_init__(self):
        if self.passed and self.witness is not None and not self.witness.is_zero():
            raise ValueError(f"{self.case_label}: a passing check carries a nonzero witness")


class ConvergenceBudgetExceeded(ArithmeticError):
    """A numeric check met no tail bound within its term budget; raised rather
    than silently returning a degraded value.  Defined here, beside
    CheckResult, so that catching it loads no mpmath; `numerics` raises it."""


def wz_term(pair: WzPairId, which: str, n: int, k: int) -> RatFunc:
    """F(n, k) or G(n, k) as a reduced rational function."""
    return wz_term_brackets(pair, which, n, k).to_ratfunc()


def check_telescoping(pair: WzPairId, n: int, k: int) -> CheckResult:
    """Exact check of F(n, k-1) - F(n, k) = G(n+1, k) - G(n, k).

    The terms go in as F(n, k-1), -G(n+1, k), -F(n, k), G(n, k), which puts
    each F beside a G that shares most of its brackets, so the joins of
    `sum_terms` multiply less than in the order of the equation (see
    `check_identity`)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    label = f"telescoping {pair.value} n={n} k={k}"
    terms = [
        wz_term_factors(pair, "F", n, k - 1),
        negated(wz_term_factors(pair, "G", n + 1, k)),
        negated(wz_term_factors(pair, "F", n, k)),
        wz_term_factors(pair, "G", n, k),
    ]
    diff = sum_terms(terms)
    if diff.is_zero():
        return CheckResult(True, label)
    return CheckResult(False, label, witness=diff.to_ratfunc())


def identity_terms(ident: IdentityId, n: int) -> tuple[list[FactorList], list[FactorList]]:
    """The summands' factor lists of the left and right sides of a finite
    identity."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def full(sid: SeriesId) -> list[FactorList]:
        return series_factors(sid, n, series_range(sid, n)[1])

    # The left sides sum the J2/L2 series over 0 <= k < n.
    if ident is IdentityId.ID_A2:
        lhs, rhs = series_factors(SeriesId.J2_LHS, None, n - 1), full(SeriesId.A2_RHS)
    elif ident is IdentityId.ID_A3:
        lhs, rhs = series_factors(SeriesId.J2_LHS, None, n - 1), full(SeriesId.A3_RHS)
    elif ident is IdentityId.ID_SECOND:
        # The left side is the alternating sum without the q^(3k^2) weight,
        # i.e. F(k, 0) of the second WZ pair.
        lhs = [wz_term_factors(WzPairId.PAIR_L2, "F", k, 0) for k in range(n)]
        rhs = full(SeriesId.SECOND_RHS)
    elif ident is IdentityId.ID_SECOND2:
        lhs, rhs = series_factors(SeriesId.L2_LHS, None, n - 1), full(SeriesId.SECOND2_RHS)
    elif ident is IdentityId.ID_WHIPPLE:
        if n % 2 == 0:
            raise ValueError("the Whipple-type identity requires odd n")
        lhs, rhs = full(SeriesId.WHIPPLE_LHS), [sun_closed_form(n)]
    else:
        raise ValueError(f"unknown identity {ident}")
    return lhs, rhs


#: The identities whose right side sums G(n, n - k) over k: their terms, in
#: ascending WZ index, are the right side's reversed.
_DESCENDING_RHS = (IdentityId.ID_A3, IdentityId.ID_SECOND2)


def check_identity(ident: IdentityId, n: int) -> CheckResult:
    """Exact check that LHS(n) - RHS(n) is the zero rational function.

    The sum does not depend on the order of its terms, but its cost does:
    binary splitting multiplies each side of a join by its copies of each
    bracket above the other side's least exponent, so neighbours that share
    brackets join cheaply.  So the right side's terms go in ascending
    WZ index, as the left side's do, and a one-term right side (whipple's
    closed form), which like the k = 0 summand lacks the series' brackets,
    goes first, where it joins that summand's run.
    """
    label = f"{ident.value} n={n}"
    lhs, rhs = identity_terms(ident, n)
    rhs = [negated(t) for t in rhs]
    if ident in _DESCENDING_RHS:
        rhs.reverse()
    diff = sum_terms(rhs + lhs if len(rhs) == 1 else lhs + rhs)
    if diff.is_zero():
        return CheckResult(True, label)
    return CheckResult(False, label, witness=diff.to_ratfunc())
