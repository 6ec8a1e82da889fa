import random
from fractions import Fraction

import pytest

from qpiverify.polys import Poly
from qpiverify.ratfunc import RatFunc, ZeroDenominator


def _low_exponent(r):
    """The least q-exponent of r: the low-order zeros of its numerator less
    those of its denominator."""

    def zeros(p):
        return next(i for i, c in enumerate(p.coeffs) if c)

    return zeros(r.num) - zeros(r.den)


def rand_poly(rng, max_deg=4, max_c=5):
    return Poly([rng.randint(-max_c, max_c) for _ in range(rng.randint(0, max_deg + 1))])


def test_cancellation():
    r = RatFunc(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert r == RatFunc.from_poly(Poly([1, 1]))


def test_content_and_monic_normalization():
    assert RatFunc(Poly([0, 2]), Poly([2])) == RatFunc.from_poly(Poly([0, 1]))


def test_reduced_denominator_structure():
    # (1-q)^2 / (1-q^4) reduces to denominator (1+q)(1+q^2), made monic.
    num = Poly([1, -1]) * Poly([1, -1])
    den = Poly([1, 0, 0, 0, -1])
    r = RatFunc(num, den)
    assert r.den == Poly([1, 1]) * Poly([1, 0, 1])
    assert r.num.degree == 1
    assert r.evaluate(Fraction(2)) == Fraction((1 - 2) ** 2, 1 - 16)


def test_zero_denominator_raises():
    with pytest.raises(ZeroDenominator):
        RatFunc(Poly([1]), Poly())
    with pytest.raises(ZeroDenominator):
        RatFunc.one() / RatFunc.zero()


def test_common_factor_invariance():
    rng = random.Random(11)
    for _ in range(150):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        if b.is_zero() or c.is_zero():
            continue
        assert RatFunc(a * c, b * c) == RatFunc(a, b)


def test_field_arithmetic_randomized():
    rng = random.Random(12)
    for _ in range(100):
        a = RatFunc(rand_poly(rng), Poly([1]) + Poly([0, 1]) * rand_poly(rng))
        b = RatFunc(rand_poly(rng), Poly([1]) + Poly([0, 1]) * rand_poly(rng))
        assert a + b == b + a
        assert a - a == RatFunc.zero()
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a / b) * b == a
        x = Fraction(3, 2)
        try:
            assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
        except ZeroDivisionError:
            pass


def test_q_power_negative_goes_to_denominator():
    r = RatFunc.q_power(-3)
    assert r.num == Poly.one()
    assert r.den == Poly([0, 0, 0, 1])
    assert _low_exponent(r) == -3
    assert _low_exponent(RatFunc.q_power(2)) == 2


def test_str_rendering():
    assert str(RatFunc.from_poly(Poly([1, 1]))) == "q + 1"
    assert "/" in str(RatFunc(Poly([1]), Poly([1, 1])))
