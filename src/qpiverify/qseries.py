"""q-shifted factorials, q-integers, and the summands of the verified series.

Summands are addressed by a SeriesId tag.  Each one is available both as a
fully reduced rational function (`summand`) and in the internal factored form
(`summand_brackets`) that the exact summation engine consumes.  The two
construction routes are independent: `q_pochhammer` and `q_integer` multiply
the defining factors out directly, while the factored route normalizes
exponents symbolically, so the test suite can play them against each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .factored import BracketProduct, sum_terms
from .polys import Poly
from .ratfunc import RatFunc


class SeriesId(Enum):
    J2_LHS = "J2_LHS"
    L2_LHS = "L2_LHS"
    SUN_LHS = "SUN_LHS"
    A2_RHS = "A2_RHS"
    A3_RHS = "A3_RHS"
    SECOND_RHS = "SECOND_RHS"
    SECOND2_RHS = "SECOND2_RHS"
    WHIPPLE_LHS = "WHIPPLE_LHS"


#: Series whose summand depends on the truncation parameter n.
N_DEPENDENT = frozenset(
    {
        SeriesId.A2_RHS,
        SeriesId.A3_RHS,
        SeriesId.SECOND_RHS,
        SeriesId.SECOND2_RHS,
        SeriesId.WHIPPLE_LHS,
    }
)


@dataclass(frozen=True)
class QPochSpec:
    """(q**base_exp; q**step)_count with integer exponents."""

    base_exp: int
    step: int
    count: int

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("step must be >= 1")
        if self.count < 0:
            raise ValueError("count must be >= 0")


def q_pochhammer(spec: QPochSpec) -> RatFunc:
    """prod_{j=0}^{count-1} (1 - q**(base_exp + j*step)), multiplied out.

    The empty product is 1; a factor with exponent 0 makes the product zero.
    Negative exponents leave a q-power in the denominator.
    """
    out = RatFunc.one()
    for j in range(spec.count):
        out = out * (1 - RatFunc.q_power(spec.base_exp + j * spec.step))
        if out.is_zero():
            break
    return out


def q_integer(n: int) -> Poly:
    """[n] = 1 + q + ... + q**(n-1); [0] = 0."""
    if n < 0:
        raise ValueError("q-integer index must be >= 0")
    return Poly([1] * n)


def series_range(sid: SeriesId, n: int | None) -> tuple[int, int | None]:
    """Summation range (start, end inclusive; end None when unbounded)."""
    if sid in (SeriesId.J2_LHS, SeriesId.L2_LHS):
        return 0, None
    if sid is SeriesId.SUN_LHS:
        return 0, None if n is None else (n - 1) // 2
    if n is None:
        raise ValueError(f"{sid.value} requires the parameter n")
    if sid in (SeriesId.A2_RHS, SeriesId.SECOND_RHS):
        return 1, n
    if sid in (SeriesId.A3_RHS, SeriesId.SECOND2_RHS):
        return 0, n - 1
    if sid is SeriesId.WHIPPLE_LHS:
        return 0, (n - 1) // 2
    raise ValueError(f"unknown series {sid}")


def _check_args(sid: SeriesId, n: int | None, k: int) -> None:
    if sid in N_DEPENDENT:
        if n is None:
            raise ValueError(f"{sid.value} requires the parameter n")
        if n < 1:
            raise ValueError("n must be >= 1")
        if sid is SeriesId.WHIPPLE_LHS and n % 2 == 0:
            raise ValueError("the Whipple-type sum is defined for odd n only")
    elif n is not None:
        raise ValueError(f"{sid.value} takes no parameter n")
    start, end = series_range(sid, n)
    if k < start or (end is not None and k > end):
        raise ValueError(f"index k={k} outside the range of {sid.value}")


def summand_brackets(sid: SeriesId, n: int | None, k: int) -> BracketProduct:
    """The k-th summand in factored form (exact, fully cancelled)."""
    _check_args(sid, n, k)
    poch = BracketProduct.pochhammer
    qint = BracketProduct.q_integer
    if sid is SeriesId.J2_LHS:
        num = qint(6 * k + 1) * poch(1, 2, k) * poch(1, 2, k) * poch(2, 4, k)
        den = poch(4, 4, k)
        return (num / (den * den * den)).times_q_power(k * k)
    if sid is SeriesId.L2_LHS:
        num = qint(6 * k + 1) * poch(1, 2, k) * poch(1, 2, k) * poch(1, 2, k)
        den = poch(4, 4, k)
        t = (num / (den * den * den)).times_q_power(3 * k * k)
        return -t if k % 2 else t
    if sid is SeriesId.SUN_LHS:
        return (poch(1, 2, k) / poch(4, 4, k)).times_q_power(k * k)
    if sid is SeriesId.A2_RHS:
        num = poch(2, 4, n) * poch(1, 2, n - k) * poch(1, 2, n + k - 1)
        den = (
            BracketProduct.from_exponent(1)
            * poch(4, 4, n - 1)
            * poch(4, 4, n - 1)
            * poch(4, 4, n - k)
            * poch(2, 4, k)
        )
        return (num / den).times_q_power((n - k) * (n - k))
    if sid is SeriesId.A3_RHS:
        num = poch(2, 4, n) * poch(1, 2, k) * poch(1, 2, 2 * n - k - 1)
        den = (
            BracketProduct.from_exponent(1)
            * poch(4, 4, n - 1)
            * poch(4, 4, n - 1)
            * poch(4, 4, k)
            * poch(2, 4, n - k)
        )
        return (num / den).times_q_power(k * k)
    if sid is SeriesId.SECOND_RHS:
        num = poch(1, 2, n + k - 1) * poch(1, 2, n - k) * poch(1, 2, n - k)
        den = (
            BracketProduct.from_exponent(1)
            * poch(4, 4, n - 1)
            * poch(4, 4, n - 1)
            * poch(4, 4, n - k)
        )
        t = num / den
        return -t if (n + k) % 2 else t
    if sid is SeriesId.SECOND2_RHS:
        num = poch(1, 2, 2 * n - k - 1) * poch(1, 2, k) * poch(1, 2, k)
        den = (
            BracketProduct.from_exponent(1)
            * poch(4, 4, n - 1)
            * poch(4, 4, n - 1)
            * poch(4, 4, k)
        )
        t = (num / den).times_q_power((4 * n - k) * k)
        return -t if k % 2 else t
    if sid is SeriesId.WHIPPLE_LHS:
        num = poch(1 - n, 2, k) * poch(n + 1, 2, k)
        den = poch(1, 2, k) * poch(4, 4, k)
        return (num / den).times_q_power(k * k)
    raise ValueError(f"unknown series {sid}")


def summand(sid: SeriesId, n: int | None, k: int) -> RatFunc:
    """The k-th summand as a reduced rational function (q-power denominators
    carry any negative exponents)."""
    return summand_brackets(sid, n, k).to_ratfunc()


def series_terms(sid: SeriesId, n: int | None, upper: int) -> list[BracketProduct]:
    """Factored summands from the series' start index through `upper`.

    For SUN_LHS the parameter n only bounds the range (the summand itself
    does not depend on it), so it is accepted here but not passed down.
    """
    start, end = series_range(sid, n)
    if upper < start or (end is not None and upper > end):
        raise ValueError(f"upper={upper} outside the range of {sid.value}")
    n_arg = n if sid in N_DEPENDENT else None
    return [summand_brackets(sid, n_arg, k) for k in range(start, upper + 1)]


def partial_sum(sid: SeriesId, n: int | None, upper: int) -> RatFunc:
    """Exact sum of the summands from the start of the range through `upper`."""
    return sum_terms(series_terms(sid, n, upper)).to_ratfunc()
