"""q-shifted factorials, q-integers, the two q-WZ pairs, and the summands of
the verified series.

Every exact summand is defined here, once.  The WZ pairs' F and G
(`wz_term_factors`) share the core
C(n, k) = [6n-2k+1] (q;q^2)_(n+k) (q;q^2)_(n-k) / ((q^4;q^4)_n^2 (q^4;q^4)_(n-k)):
F = C (q^2;q^4)_n / (q^2;q^4)_k q^((n-k)^2) for PAIR_J2, F = C (q;q^2)_(n-k)
(-1)^(n+k) for PAIR_L2, and G = R F for both, with the certificate
R(n, k) = (1 - q^(4n))^2 / ((1 - q^(6n-2k+1)) (1 - q^(2n+2k-1))).  F and G
vanish for n < k, and for k < 0 in PAIR_J2, so sweeps over a rectangular
(n, k) grid need no boundary cases.  The J2/L2 series are F(k, 0), and the
telescoped right sides are G(n, k), G(n, n-k) and q-power multiples of them;
`wz` checks the pairs and the identities.

Every summand has one definition: a factor list (coeff, shift, factors),
coeff * q**shift * prod (q**base; q**step)_count**power over the
(base, step, count, power) factors, which are the arguments of
`BracketProduct.from_pochhammers` (`wz_term_factors`, `summand_factors`,
`series_factors`), and both summation engines take the lists, as does the
numeric evaluation of the infinite series (`numerics._series_terms`): each
reads every term's ratio to the one before off two consecutive lists
(`factored._term_changes`), so none builds a normalized product per term.  `summand_brackets` and `wz_term_brackets` give one summand in normal
form.  Summands are addressed by a SeriesId tag, and each one is also
available as a fully reduced rational function (`summand`).  The two
construction routes are independent: `q_pochhammer` and `q_integer`
multiply the defining factors out directly, while the factored route goes
through the factor lists, so the test suite can play them against each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .factored import BracketProduct, FactorList, sum_terms
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


class WzPairId(Enum):
    PAIR_J2 = "J2"
    PAIR_L2 = "L2"


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
    """(q**base_exp; q**step)_count with integer exponents and any integer
    count."""

    base_exp: int
    step: int
    count: int

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("step must be >= 1")


def q_pochhammer(spec: QPochSpec) -> RatFunc:
    """prod_{j=0}^{count-1} (1 - q**(base_exp + j*step)), multiplied out; a
    negative count r is 1 / (q**(base_exp + r*step); q**step)_(-r).

    The empty product is 1; a factor with exponent 0 makes the product zero,
    or raises ZeroDivisionError in a denominator.  Negative exponents leave a
    q-power in the denominator.
    """
    base, count = spec.base_exp, spec.count
    if count < 0:
        base, count = base + count * spec.step, -count
    out = RatFunc.one()
    for j in range(count):
        out = out * (1 - RatFunc.q_power(base + j * spec.step))
        if out.is_zero():
            break
    return out if spec.count >= 0 else 1 / out


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


def parity_power(e: int) -> int:
    """(-1)**e for any integer e."""
    return -1 if e % 2 else 1


def sun_closed_form(n: int) -> FactorList:
    """(-q)**((1 - n**2)/8) for odd n, as a factor list: the right side of
    the modsun congruence and of the Whipple-type sum."""
    e, r = divmod(1 - n * n, 8)
    if r:
        raise ArithmeticError("odd n must have n^2 = 1 (mod 8)")
    return parity_power(e), e, []


def wz_term_factors(pair: WzPairId, which: str, n: int, k: int) -> FactorList:
    """F(n, k) or G(n, k) = R(n, k) F(n, k) as a factor list; zero, (0, 0, []),
    when out of support (n - k < 0 for both pairs, k < 0 too for PAIR_J2)."""
    if which not in ("F", "G"):
        raise ValueError("which must be 'F' or 'G'")
    if n < 0:
        raise ValueError("n must be >= 0")
    if not isinstance(pair, WzPairId):
        raise ValueError(f"unknown pair {pair}")
    j2 = pair is WzPairId.PAIR_J2
    if n - k < 0 or (j2 and k < 0):
        return 0, 0, []
    top = 6 * n - 2 * k + 1
    # The core [top] (q;q^2)_(n+k) (q;q^2)_(n-k) / ((q^4;q^4)_n^2 (q^4;q^4)_(n-k));
    # n + k < 0 (PAIR_L2 only) is a negative count.
    factors = [(top, 1, 1, 1), (1, 1, 1, -1), (1, 2, n + k, 1), (1, 2, n - k, 1)]
    factors += [(4, 4, n, -2), (4, 4, n - k, -1)]
    if j2:  # times q^((n-k)^2) (q^2;q^4)_n / (q^2;q^4)_k
        coeff, shift = 1, (n - k) ** 2
        factors += [(2, 4, n, 1), (2, 4, k, -1)]
    else:  # times (-1)^(n+k) (q;q^2)_(n-k)
        coeff, shift = parity_power(n + k), 0
        factors.append((1, 2, n - k, 1))
    if which == "G":  # R = (1 - q^(4n))^2 / ((1 - q^top) (1 - q^(2n+2k-1)))
        factors += [(4 * n, 1, 1, 2), (top, 1, 1, -1), (2 * n + 2 * k - 1, 1, 1, -1)]
    return coeff, shift, factors


def wz_term_brackets(pair: WzPairId, which: str, n: int, k: int) -> BracketProduct:
    """F(n, k) or G(n, k) in factored form: its factor list, normalized."""
    return BracketProduct.from_pochhammers(*wz_term_factors(pair, which, n, k))


def summand_factors(sid: SeriesId, n: int | None, k: int) -> FactorList:
    """The k-th summand as a factor list; the J2/L2 series and the telescoped
    right sides are the WZ pairs' F and G."""
    _check_args(sid, n, k)
    J2, L2 = WzPairId.PAIR_J2, WzPairId.PAIR_L2
    if sid is SeriesId.J2_LHS:
        return wz_term_factors(J2, "F", k, 0)
    if sid is SeriesId.L2_LHS:
        coeff, shift, factors = wz_term_factors(L2, "F", k, 0)
        return coeff, shift + 3 * k * k, factors
    if sid is SeriesId.A2_RHS:
        return wz_term_factors(J2, "G", n, k)
    if sid is SeriesId.A3_RHS:
        return wz_term_factors(J2, "G", n, n - k)
    if sid is SeriesId.SECOND_RHS:
        return wz_term_factors(L2, "G", n, k)
    if sid is SeriesId.SECOND2_RHS:
        coeff, shift, factors = wz_term_factors(L2, "G", n, n - k)
        return coeff, shift + (4 * n - k) * k, factors
    if sid is SeriesId.SUN_LHS:  # q^(k^2) (q;q^2)_k / (q^4;q^4)_k
        return 1, k * k, [(1, 2, k, 1), (4, 4, k, -1)]
    if sid is SeriesId.WHIPPLE_LHS:  # q^(k^2) (q^(1-n),q^(n+1);q^2)_k / ((q;q^2)_k (q^4;q^4)_k)
        return 1, k * k, [(1 - n, 2, k, 1), (n + 1, 2, k, 1), (1, 2, k, -1), (4, 4, k, -1)]
    raise ValueError(f"unknown series {sid}")


def summand_brackets(sid: SeriesId, n: int | None, k: int) -> BracketProduct:
    """The k-th summand in factored form (exact, fully cancelled): its factor
    list, normalized."""
    return BracketProduct.from_pochhammers(*summand_factors(sid, n, k))


def summand(sid: SeriesId, n: int | None, k: int) -> RatFunc:
    """The k-th summand as a reduced rational function (q-power denominators
    carry any negative exponents)."""
    return summand_brackets(sid, n, k).to_ratfunc()


def series_factors(sid: SeriesId, n: int | None, upper: int) -> list[FactorList]:
    """The summands' factor lists from the series' start index through
    `upper`.  For SUN_LHS the parameter n only bounds the range (the summand
    itself does not depend on it), so it is not passed down."""
    start, end = series_range(sid, n)
    if upper < start or (end is not None and upper > end):
        raise ValueError(f"upper={upper} outside the range of {sid.value}")
    n_arg = n if sid in N_DEPENDENT else None
    return [summand_factors(sid, n_arg, k) for k in range(start, upper + 1)]


def partial_sum(sid: SeriesId, n: int | None, upper: int) -> RatFunc:
    """Exact sum of the summands from the start of the range through `upper`."""
    return sum_terms(series_factors(sid, n, upper)).to_ratfunc()
