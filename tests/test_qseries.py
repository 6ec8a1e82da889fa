import hashlib
import random
from fractions import Fraction

import pytest

from qpiverify.factored import BracketProduct
from qpiverify.polys import Poly, list_mod_monic
from qpiverify.qseries import (
    N_DEPENDENT,
    QPochSpec,
    SeriesId,
    partial_sum,
    q_integer,
    q_pochhammer,
    series_factors,
    series_range,
    summand,
    summand_brackets,
)
from qpiverify.ratfunc import RatFunc


def _low_exponent(r):
    """The least q-exponent of r: the low-order zeros of its numerator less
    those of its denominator."""

    def zeros(p):
        return next(i for i, c in enumerate(p.coeffs) if c)

    return zeros(r.num) - zeros(r.den)


def poch_poly(base, step, count):
    """Independent dense construction of the q-shifted factorial."""
    return q_pochhammer(QPochSpec(base, step, count))


def poch_brackets(base, step, count):
    """The same q-shifted factorial through the factored route."""
    return BracketProduct.from_pochhammers(1, 0, [(base, step, count, 1)])


def test_pochhammer_examples():
    assert poch_poly(1, 2, 2) == RatFunc.from_poly(Poly([1, -1, 0, -1, 1]))
    assert poch_poly(4, 4, 0) == RatFunc.one()
    single = poch_poly(-2, 2, 1)
    assert _low_exponent(single) == -2
    assert single == RatFunc.one() - RatFunc.q_power(-2)


def test_pochhammer_zero_when_exponent_hits_zero():
    assert poch_poly(0, 2, 1).is_zero()
    assert poch_poly(-4, 2, 3).is_zero()


def test_pochhammer_concatenation_property():
    rng = random.Random(2024)
    for _ in range(120):
        base = rng.randint(-5, 6)
        step = rng.randint(1, 4)
        m = rng.randint(0, 4)
        n = rng.randint(0, 4)
        whole = poch_poly(base, step, m + n)
        split = poch_poly(base, step, m) * poch_poly(base + m * step, step, n)
        assert whole == split


def test_q_integer_values():
    assert q_integer(0).is_zero()
    assert q_integer(1) == Poly([1])
    assert q_integer(3) == Poly([1, 1, 1])
    for n in range(201):
        assert q_integer(n).evaluate(1) == n


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        QPochSpec(1, 0, 2)


def test_pochhammer_counts_match_factored_route():
    """Both routes agree for counts -3..3, where (a; p)_(-r) = 1/(a p^-r; p)_r,
    and both raise ZeroDivisionError on a denominator factor 1 - q^0."""
    for base in range(-5, 6):
        for step in (1, 2, 3):
            for count in range(-3, 4):
                if count < 0 and 0 in range(base + count * step, base, step):
                    for route in (poch_poly, poch_brackets):
                        with pytest.raises(ZeroDivisionError):
                            route(base, step, count)
                else:
                    expected = poch_brackets(base, step, count).to_ratfunc()
                    assert poch_poly(base, step, count) == expected


def test_summand_j2_first_terms():
    assert summand(SeriesId.J2_LHS, None, 0) == RatFunc.one()
    # Independent construction: q [7] (q;q^2)_1^2 (q^2;q^4)_1 / (q^4;q^4)_1^3.
    num = Poly.monomial(1, 1) * q_integer(7) * poch_poly(1, 2, 1).num ** 2 * poch_poly(2, 4, 1).num
    den = poch_poly(4, 4, 1).num ** 3
    assert summand(SeriesId.J2_LHS, None, 1) == RatFunc(num, den)


def test_summand_l2_first_terms():
    assert summand(SeriesId.L2_LHS, None, 0) == RatFunc.one()
    num = Poly.monomial(-1, 3) * q_integer(7) * poch_poly(1, 2, 1).num ** 3
    den = poch_poly(4, 4, 1).num ** 3
    assert summand(SeriesId.L2_LHS, None, 1) == RatFunc(num, den)


def test_summand_a2_n1_is_one():
    assert summand(SeriesId.A2_RHS, 1, 1) == RatFunc.one()


def test_summand_against_definitional_construction():
    """Play the factored route against plain Laurent products for every series."""
    cases = [
        (SeriesId.J2_LHS, None, range(0, 8)),
        (SeriesId.L2_LHS, None, range(0, 8)),
        (SeriesId.SUN_LHS, None, range(0, 6)),
        (SeriesId.WHIPPLE_LHS, 9, range(0, 5)),
    ]
    for n in range(1, 7):
        cases += [
            (SeriesId.A2_RHS, n, range(1, n + 1)),
            (SeriesId.A3_RHS, n, range(0, n)),
            (SeriesId.SECOND_RHS, n, range(1, n + 1)),
            (SeriesId.SECOND2_RHS, n, range(0, n)),
        ]
    x = Fraction(5, 3)
    for sid, n, ks in cases:
        for k in ks:
            got = summand(sid, n, k).evaluate(x)
            want = _summand_by_definition(sid, n, k, x)
            assert got == want, (sid, n, k)


def _summand_by_definition(sid, n, k, x):
    """Direct Fraction evaluation from the defining factorials."""

    def poch(base, step, count):
        acc = Fraction(1)
        for j in range(count):
            acc *= 1 - x ** (base + j * step)
        return acc

    def qint(m):
        return Fraction(sum(x**i for i in range(m)))

    if sid is SeriesId.J2_LHS:
        return x ** (k * k) * qint(6 * k + 1) * poch(1, 2, k) ** 2 * poch(2, 4, k) / poch(4, 4, k) ** 3
    if sid is SeriesId.L2_LHS:
        return (-1) ** k * x ** (3 * k * k) * qint(6 * k + 1) * poch(1, 2, k) ** 3 / poch(4, 4, k) ** 3
    if sid is SeriesId.SUN_LHS:
        return x ** (k * k) * poch(1, 2, k) / poch(4, 4, k)
    if sid is SeriesId.A2_RHS:
        return (
            x ** ((n - k) ** 2)
            * poch(2, 4, n)
            * poch(1, 2, n - k)
            * poch(1, 2, n + k - 1)
            / ((1 - x) * poch(4, 4, n - 1) ** 2 * poch(4, 4, n - k) * poch(2, 4, k))
        )
    if sid is SeriesId.A3_RHS:
        return (
            x ** (k * k)
            * poch(2, 4, n)
            * poch(1, 2, k)
            * poch(1, 2, 2 * n - k - 1)
            / ((1 - x) * poch(4, 4, n - 1) ** 2 * poch(4, 4, k) * poch(2, 4, n - k))
        )
    if sid is SeriesId.SECOND_RHS:
        return (
            (-1) ** (n + k)
            * poch(1, 2, n + k - 1)
            * poch(1, 2, n - k) ** 2
            / ((1 - x) * poch(4, 4, n - 1) ** 2 * poch(4, 4, n - k))
        )
    if sid is SeriesId.SECOND2_RHS:
        return (
            (-1) ** k
            * x ** ((4 * n - k) * k)
            * poch(1, 2, 2 * n - k - 1)
            * poch(1, 2, k) ** 2
            / ((1 - x) * poch(4, 4, n - 1) ** 2 * poch(4, 4, k))
        )
    if sid is SeriesId.WHIPPLE_LHS:
        return (
            x ** (k * k)
            * poch(1 - n, 2, k)
            * poch(n + 1, 2, k)
            / (poch(1, 2, k) * poch(4, 4, k))
        )
    raise AssertionError(sid)


#: sha256 of repr([summand_brackets(...)]) over n <= 25 and every k in range
#: (odd n for WHIPPLE_LHS), and over k <= 60 for the series without n.
_SUMMAND_DIGESTS = {
    SeriesId.J2_LHS: "ef29d5c71e492525231fb79b22c7d6bb4e4ddb9d5d0838ab918cefc77d5558f8",
    SeriesId.L2_LHS: "a17457211e6363821214d3a693d3c815c4ed45f157408ad71ad5d2d89cb2784c",
    SeriesId.SUN_LHS: "e85de08505e02f30da2329b9c4bf638135952aaead8c4fee1674a00432b6c89e",
    SeriesId.A2_RHS: "cf4ba9ec4ee3373347f6b7fc6eb94798f27e7d14dddc753bba803a73093fc32a",
    SeriesId.A3_RHS: "5a2e2b7c8069d4d05cbcf2d3e804d6483892ceb63d3fe734ea95f61b7ba7c5a9",
    SeriesId.SECOND_RHS: "25dfbf6621d4c76474701a1123608b7658c374050c6fefeb1c12b966becd8b54",
    SeriesId.SECOND2_RHS: "93bf66153b7669c7f5a728047abce6d4759cbc467037ac0c802486816f76c0f6",
    SeriesId.WHIPPLE_LHS: "9322c671c249098d7ca09cc5cbc167988510bbcf07aeddabd395fe2356a0bbf0",
}


@pytest.mark.parametrize("sid", list(_SUMMAND_DIGESTS), ids=lambda sid: sid.value)
def test_summand_brackets_pinned(sid):
    """Every factored summand must stay the same canonical BracketProduct,
    however its construction is organized."""
    if sid in N_DEPENDENT:
        cases = [
            (n, k)
            for n in range(1, 26)
            if sid is not SeriesId.WHIPPLE_LHS or n % 2
            for k in range(series_range(sid, n)[0], series_range(sid, n)[1] + 1)
        ]
    else:
        cases = [(None, k) for k in range(61)]
    text = repr([summand_brackets(sid, n, k) for n, k in cases])
    assert hashlib.sha256(text.encode()).hexdigest() == _SUMMAND_DIGESTS[sid]


def test_summand_argument_validation():
    with pytest.raises(ValueError):
        summand(SeriesId.J2_LHS, 3, 0)  # extraneous n
    with pytest.raises(ValueError):
        summand(SeriesId.A2_RHS, None, 1)  # missing n
    with pytest.raises(ValueError):
        summand(SeriesId.A2_RHS, 3, 4)  # k > n
    with pytest.raises(ValueError):
        summand(SeriesId.A2_RHS, 3, 0)  # k < 1
    with pytest.raises(ValueError):
        summand(SeriesId.WHIPPLE_LHS, 4, 0)  # even n
    with pytest.raises(ValueError):
        summand(SeriesId.SUN_LHS, 5, 0)  # summand itself takes no n


def test_partial_sum_sun_example():
    assert partial_sum(SeriesId.SUN_LHS, 1, 0) == RatFunc.one()
    # 1 + q(1-q)/(1-q^4), reduced:
    expected = RatFunc.one() + RatFunc(
        Poly.monomial(1, 1) * Poly([1, -1]), Poly([1, 0, 0, 0, -1])
    )
    assert partial_sum(SeriesId.SUN_LHS, 3, 1) == expected


def test_partial_sum_j2_upper_zero():
    assert partial_sum(SeriesId.J2_LHS, None, 0) == RatFunc.one()


def test_partial_sum_additivity():
    cases = [
        (SeriesId.J2_LHS, None, 5),
        (SeriesId.SUN_LHS, 13, 6),
        (SeriesId.A2_RHS, 5, 5),
        (SeriesId.SECOND2_RHS, 5, 4),
        (SeriesId.WHIPPLE_LHS, 11, 5),
    ]
    for sid, n, upper in cases:
        start, _ = series_range(sid, n)
        n_arg = n if sid in (SeriesId.A2_RHS, SeriesId.SECOND2_RHS, SeriesId.WHIPPLE_LHS) else None
        for u in range(start + 1, upper + 1):
            lhs = partial_sum(sid, n, u)
            rhs = partial_sum(sid, n, u - 1) + summand(sid, n_arg, u)
            assert lhs == rhs, (sid, u)


def test_denominator_divides_power_of_q4_factorial():
    """Roots of the reduced denominators are 4j-th roots of unity only."""
    from qpiverify.polys import expand_bracket_powers

    for sid in (SeriesId.J2_LHS, SeriesId.L2_LHS):
        for k in range(21):
            den = summand(sid, None, k).den
            den_ints = [int(c) for c in den.coeffs]
            master = expand_bracket_powers({4 * j: 3 for j in range(1, k + 1)})
            # (q^4;q^4)_k^3 differs from the monic master product only by sign.
            assert list_mod_monic(master, den_ints) == [], (sid, k)


def test_series_terms_and_range():
    assert series_range(SeriesId.J2_LHS, None) == (0, None)
    assert series_range(SeriesId.SUN_LHS, 9) == (0, 4)
    assert series_range(SeriesId.A2_RHS, 6) == (1, 6)
    assert series_range(SeriesId.SECOND2_RHS, 6) == (0, 5)
    assert len(series_factors(SeriesId.SUN_LHS, 9, 4)) == 5
    with pytest.raises(ValueError):
        series_factors(SeriesId.SUN_LHS, 9, 5)
    with pytest.raises(ValueError):
        series_range(SeriesId.A2_RHS, None)
    # The factor lists cover the range and normalize to the summands.
    for sid, n, upper in [(SeriesId.SUN_LHS, 9, 4), (SeriesId.A2_RHS, 6, 6), (SeriesId.WHIPPLE_LHS, 11, 5)]:
        factors = series_factors(sid, n, upper)
        n_arg = n if sid in N_DEPENDENT else None
        want = [summand_brackets(sid, n_arg, k) for k in range(series_range(sid, n)[0], upper + 1)]
        assert [BracketProduct.from_pochhammers(*f) for f in factors] == want
