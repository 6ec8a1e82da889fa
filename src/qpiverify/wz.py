"""The two q-WZ pairs, their telescoping certificate, and the finite
summation identities they prove.

Both pairs consist of functions F(n, k), G(n, k) built from q-shifted
factorials and satisfying F(n, k-1) - F(n, k) = G(n+1, k) - G(n, k) exactly
as rational functions.  Terms whose denominator picks up a q-shifted
factorial of negative length are defined to be zero, so sweeps over a
rectangular (n, k) grid need no boundary cases.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .factored import BracketProduct, sum_terms
from .qseries import SeriesId, summand_brackets
from .ratfunc import RatFunc


class WzPairId(Enum):
    PAIR_J2 = "J2"
    PAIR_L2 = "L2"


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


def _poch_ext(base_exp: int, step: int, count: int) -> BracketProduct:
    """q-shifted factorial extended to negative lengths by reciprocals."""
    if count >= 0:
        return BracketProduct.pochhammer(base_exp, step, count)
    recip = BracketProduct.pochhammer(base_exp + count * step, step, -count)
    if recip.is_zero():
        raise ArithmeticError("reciprocal of a vanishing q-shifted factorial")
    return BracketProduct.one() / recip


def wz_term_brackets(pair: WzPairId, which: str, n: int, k: int) -> BracketProduct:
    """F(n, k) or G(n, k) in factored form; zero when out of support."""
    if which not in ("F", "G"):
        raise ValueError("which must be 'F' or 'G'")
    if n < 0:
        raise ValueError("n must be >= 0")
    qint = BracketProduct.q_integer
    one_minus_q = BracketProduct.from_exponent(1)
    if pair is WzPairId.PAIR_J2:
        if which == "F":
            den_counts = (n, n, n - k, k)
            if min(den_counts) < 0:
                return BracketProduct.zero()
            num = (
                qint(6 * n - 2 * k + 1)
                * _poch_ext(2, 4, n)
                * _poch_ext(1, 2, n - k)
                * _poch_ext(1, 2, n + k)
            )
            den = (
                BracketProduct.pochhammer(4, 4, n) ** 2
                * BracketProduct.pochhammer(4, 4, n - k)
                * BracketProduct.pochhammer(2, 4, k)
            )
        else:
            den_counts = (n - 1, n - 1, n - k, k)
            if min(den_counts) < 0:
                return BracketProduct.zero()
            num = _poch_ext(2, 4, n) * _poch_ext(1, 2, n - k) * _poch_ext(1, 2, n + k - 1)
            den = (
                one_minus_q
                * BracketProduct.pochhammer(4, 4, n - 1) ** 2
                * BracketProduct.pochhammer(4, 4, n - k)
                * BracketProduct.pochhammer(2, 4, k)
            )
        term = (num / den).times_q_power((n - k) * (n - k))
        return term
    if pair is WzPairId.PAIR_L2:
        if which == "F":
            den_counts = (n, n, n - k)
            if min(den_counts) < 0:
                return BracketProduct.zero()
            num = qint(6 * n - 2 * k + 1) * _poch_ext(1, 2, n + k) * _poch_ext(1, 2, n - k) ** 2
            den = BracketProduct.pochhammer(4, 4, n) ** 2 * BracketProduct.pochhammer(4, 4, n - k)
        else:
            den_counts = (n - 1, n - 1, n - k)
            if min(den_counts) < 0:
                return BracketProduct.zero()
            num = _poch_ext(1, 2, n + k - 1) * _poch_ext(1, 2, n - k) ** 2
            den = (
                one_minus_q
                * BracketProduct.pochhammer(4, 4, n - 1) ** 2
                * BracketProduct.pochhammer(4, 4, n - k)
            )
        term = num / den
        return -term if (n + k) % 2 else term
    raise ValueError(f"unknown pair {pair}")


def wz_term(pair: WzPairId, which: str, n: int, k: int) -> RatFunc:
    """F(n, k) or G(n, k) as a reduced rational function."""
    return wz_term_brackets(pair, which, n, k).to_ratfunc()


def check_telescoping(pair: WzPairId, n: int, k: int) -> CheckResult:
    """Exact check of F(n, k-1) - F(n, k) = G(n+1, k) - G(n, k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    label = f"telescoping {pair.value} n={n} k={k}"
    terms = [
        wz_term_brackets(pair, "F", n, k - 1),
        -wz_term_brackets(pair, "F", n, k),
        -wz_term_brackets(pair, "G", n + 1, k),
        wz_term_brackets(pair, "G", n, k),
    ]
    diff = sum_terms(terms)
    if diff.is_zero():
        return CheckResult(True, label)
    return CheckResult(False, label, witness=diff.to_ratfunc())


def parity_power(e: int) -> int:
    """(-1)**e for any integer e."""
    return -1 if e % 2 else 1


def identity_terms(ident: IdentityId, n: int) -> tuple[list[BracketProduct], list[BracketProduct]]:
    """Factored summands of the left and right sides of a finite identity."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if ident is IdentityId.ID_A2:
        lhs = [summand_brackets(SeriesId.J2_LHS, None, k) for k in range(n)]
        rhs = [summand_brackets(SeriesId.A2_RHS, n, k) for k in range(1, n + 1)]
    elif ident is IdentityId.ID_A3:
        lhs = [summand_brackets(SeriesId.J2_LHS, None, k) for k in range(n)]
        rhs = [summand_brackets(SeriesId.A3_RHS, n, k) for k in range(n)]
    elif ident is IdentityId.ID_SECOND:
        # The left side is the alternating sum without the q^(3k^2) weight,
        # i.e. F(k, 0) of the second WZ pair.
        lhs = [wz_term_brackets(WzPairId.PAIR_L2, "F", k, 0) for k in range(n)]
        rhs = [summand_brackets(SeriesId.SECOND_RHS, n, k) for k in range(1, n + 1)]
    elif ident is IdentityId.ID_SECOND2:
        lhs = [summand_brackets(SeriesId.L2_LHS, None, k) for k in range(n)]
        rhs = [summand_brackets(SeriesId.SECOND2_RHS, n, k) for k in range(n)]
    elif ident is IdentityId.ID_WHIPPLE:
        if n % 2 == 0:
            raise ValueError("the Whipple-type identity requires odd n")
        lhs = [summand_brackets(SeriesId.WHIPPLE_LHS, n, k) for k in range((n - 1) // 2 + 1)]
        e, r = divmod(1 - n * n, 8)
        if r:
            raise ArithmeticError("odd n must have n^2 = 1 (mod 8)")
        rhs = [BracketProduct.make(parity_power(e), e, {})]
    else:
        raise ValueError(f"unknown identity {ident}")
    return lhs, rhs


def check_identity(ident: IdentityId, n: int) -> CheckResult:
    """Exact check that LHS(n) - RHS(n) is the zero rational function."""
    label = f"{ident.value} n={n}"
    lhs, rhs = identity_terms(ident, n)
    diff = sum_terms(lhs + [-t for t in rhs])
    if diff.is_zero():
        return CheckResult(True, label)
    return CheckResult(False, label, witness=diff.to_ratfunc())
