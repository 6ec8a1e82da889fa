import random
from fractions import Fraction
from math import gcd

import pytest

import qpiverify.polys as polys
from qpiverify.polys import (
    Poly,
    content_split,
    cyclotomic,
    cyclotomic_int,
    divisors,
    expand_bracket_powers,
    expand_cyclo_powers,
    list_add,
    list_divmod,
    list_inv_mod_p,
    list_mod_monic,
    list_mul,
    list_scale,
    list_trim,
    mobius,
    poly_gcd,
    poly_gcd_ext,
)


def rand_poly(rng, max_deg=5, max_c=6):
    return Poly([rng.randint(-max_c, max_c) for _ in range(rng.randint(0, max_deg + 1))])


def test_mul_difference_of_squares():
    assert Poly([1, 1]) * Poly([1, -1]) == Poly([1, 0, -1])


def rand_coeff(rng, kind):
    """A random coefficient, possibly zero: an int, a Fraction, or (for
    "mixed") either one."""
    if kind == "mixed":
        kind = rng.choice(("int", "fraction"))
    if kind == "int":
        return rng.randint(-40, 40)
    return Fraction(rng.randint(-40, 40), rng.randint(1, 30))


def test_mul_matches_schoolbook_fraction_convolution():
    rng = random.Random(8)
    for _ in range(300):
        kind_a, kind_b = rng.choice(("int", "fraction", "mixed")), rng.choice(("int", "fraction", "mixed"))
        ca = [rand_coeff(rng, kind_a) for _ in range(rng.randint(0, 7))]
        cb = [rand_coeff(rng, kind_b) for _ in range(rng.randint(0, 7))]
        if ca and rng.random() < 0.5:
            ca[-1] = -abs(ca[-1]) or -1  # a negative leading coefficient
        want = [Fraction(0)] * max(len(ca) + len(cb) - 1, 0)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                want[i + j] += Fraction(x) * Fraction(y)
        got = Poly(ca) * Poly(cb)
        assert got == Poly(want)
        assert all(type(c) is Fraction for c in got.coeffs)
    assert (Poly() * Poly([Fraction(1, 2), -3])).is_zero()
    assert (Poly([0, Fraction(-7, 4)]) * Poly()).is_zero()


def test_content_split_roundtrip_and_primitive():
    rng = random.Random(9)
    for _ in range(300):
        cs = [rand_coeff(rng, "mixed") for _ in range(rng.randint(1, 8))]
        if not any(cs):
            continue
        content, ints = content_split(cs)
        assert all(type(v) is int for v in ints)
        assert [content * v for v in ints] == cs
        assert gcd(*ints) == 1 and content > 0
    assert content_split([Fraction(-3, 4), Fraction(9, 2), 6]) == (Fraction(3, 4), [-1, 6, 8])
    for zeros in ([], [0], [Fraction(0), 0, Fraction(0)]):
        content, ints = content_split(zeros)
        assert ints == [0] * len(zeros) and [content * v for v in ints] == zeros


def test_divrem_geometric_factorization():
    quot, rem = divmod(Poly([-1, 0, 0, 1]), Poly([-1, 1]))
    assert quot == Poly([1, 1, 1])
    assert rem.is_zero()


def test_additive_inverse_is_empty():
    p = Poly([1, 0, 1])
    assert (p + (-p)).coeffs == ()
    assert (p - p).is_zero()


def test_division_by_zero_poly():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly([1, 2]), Poly())


def test_ring_axioms_randomized():
    rng = random.Random(20240)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == Poly.zero()


def test_divmod_roundtrip_randomized():
    rng = random.Random(4)
    for _ in range(200):
        a = rand_poly(rng, 8)
        b = rand_poly(rng, 4)
        if b.is_zero():
            continue
        # Rational coefficients reach the integer kernel through content_split.
        for x, y in ((a, b), (a / rng.randint(1, 9) + Fraction(1, 3), b * Fraction(-2, 5))):
            quot, rem = divmod(x, y)
            assert quot * y + rem == x
            assert rem.degree < y.degree


def test_gcd_ext_divisor_case():
    g, s, t = poly_gcd_ext(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert g == Poly([-1, 1])
    assert s == Poly.zero()
    assert t == Poly.one()


def test_gcd_ext_coprime_case():
    # q is invertible modulo 1 + q + q^2 because its constant term is 1.
    g, s, t = poly_gcd_ext(Poly([0, 1]), Poly([1, 1, 1]))
    assert g == Poly.one()
    assert s * Poly([0, 1]) + t * Poly([1, 1, 1]) == Poly.one()


def test_gcd_ext_with_zero_and_normalization():
    g, s, t = poly_gcd_ext(Poly.zero(), Poly([2, 2]))
    assert g == Poly([1, 1])
    assert s * Poly.zero() + t * Poly([2, 2]) == g
    with pytest.raises(ValueError):
        poly_gcd_ext(Poly.zero(), Poly.zero())


def test_gcd_ext_certificate_randomized():
    rng = random.Random(99)
    for _ in range(150):
        a, b = rand_poly(rng, 6), rand_poly(rng, 6)
        if a.is_zero() and b.is_zero():
            continue
        g, s, t = poly_gcd_ext(a, b)
        assert g == s * a + t * b
        assert g.leading() == 1
        if not a.is_zero():
            assert (a % g).is_zero()
        if not b.is_zero():
            assert (b % g).is_zero()


def totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_cyclotomic_first_values():
    assert cyclotomic(1) == Poly([-1, 1])
    assert cyclotomic(2) == Poly([1, 1])
    assert cyclotomic(3) == Poly([1, 1, 1])
    assert cyclotomic(6) == Poly([1, -1, 1])


def test_cyclotomic_product_oracle_up_to_120():
    # Brute-force oracle: the product over all divisors must rebuild q^n - 1.
    for n in range(1, 121):
        prod = Poly.one()
        for d in divisors(n):
            prod = prod * cyclotomic(d)
        assert prod == Poly([-1] + [0] * (n - 1) + [1]), n


def test_cyclotomic_degree_is_totient():
    for n in range(1, 121):
        assert cyclotomic(n).degree == totient(n), n


def test_cyclotomic_105_has_coefficient_minus_two():
    c = cyclotomic(105)
    assert c.degree == 48
    assert Fraction(-2) in c.coeffs


def test_mobius_small():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    # Brute-force oracle: divisors by scanning, mu from the prime divisors.
    for n in range(1, 301):
        divs = tuple(d for d in range(1, n + 1) if n % d == 0)
        assert divisors(n) == divs, n
        primes = [p for p in divs if p > 1 and all(p % r for r in range(2, p))]
        squarefree = all(n % (p * p) for p in primes)
        assert mobius(n) == ((-1) ** len(primes) if squarefree else 0), n


def test_poly_gcd_monic():
    g = poly_gcd(Poly([-1, 0, 1]) * 3, Poly([2, 2]))
    assert g == Poly([1, 1])


class _WrongQuotient(Poly):
    """Divides with a quotient off by one, so the Bezout cofactors are wrong."""

    __slots__ = ()

    def __divmod__(self, other):
        quot, rem = Poly.__divmod__(self, other)
        return quot + 1, rem


def test_gcd_ext_certificate_failure_raises():
    with pytest.raises(ArithmeticError):
        poly_gcd_ext(_WrongQuotient([1, 0, 1]), Poly([0, 1]))


def test_monic_division_rejects_non_monic_divisor():
    with pytest.raises(ValueError):
        list_mod_monic([1, 2, 3], [1, 2])
    with pytest.raises(ValueError):
        list_mod_monic([1, 2, 3], [])


def test_list_divmod_identity_randomized():
    """lc(d)**k * c == quot * d + rem, k = max(len(c) - len(d) + 1, 0), with
    rem trimmed and shorter than d.  Division with remainder is unique, so
    the identity and the length pin the kernel's output."""
    rng = random.Random(33)
    dividers = [
        [1],
        [-3],
        [0, 0, 0, 1],  # q^3
        [2, 0, 0, 0, 0, 0, -5],  # sparse, negative leading coefficient
        expand_bracket_powers({9: 2}),  # (1 - q^9)^2, sparse and monic
        list(cyclotomic_int(27)),
        expand_cyclo_powers({1: 3, 7: 1}),  # (q - 1)^3 Phi_7
    ]
    for _ in range(20):
        d = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
        dividers.append(d + [rng.choice((-1, 1)) * rng.randint(1, 12)])
    for d in dividers:
        for length in (0, 1, len(d) - 1, len(d), len(d) + 1, 3 * len(d) + 2):
            c = [rng.randint(-50, 50) for _ in range(length)]
            quot, rem = list_divmod(c, d)
            k = max(len(c) - len(d) + 1, 0)
            lhs = list_trim(list_scale(c, d[-1] ** k))
            assert list_trim(list_add(list_mul(quot, d), rem)) == lhs, (c, d)
            assert len(rem) < len(d) and rem == list_trim(list(rem)), (c, d)
    for d in ([], [1, 0], [0]):
        with pytest.raises(ValueError):
            list_divmod([1, 2, 3], d)


def test_constant_poly_hashes_like_its_scalar():
    """A constant Poly equals its scalar, so it hashes like it: a set or a
    dict holds the two as one key."""
    for p, x in ((Poly(), 0), (Poly([1]), 1), (Poly([Fraction(-3, 4)]), Fraction(-3, 4)), (Poly([5]), Fraction(5))):
        assert p == x and hash(p) == hash(x), p
    assert len({Poly([1]), 1}) == 1 and len({Poly(), 0, Fraction(0)}) == 1
    assert {Poly([1, 2]): 1}[Poly([Fraction(1), Fraction(2)])] == 1


def test_cyclotomic_product_must_come_out_monic(monkeypatch):
    expand = polys.expand_bracket_powers
    monkeypatch.setattr(polys, "expand_bracket_powers", lambda exps, c=(1,): [-v for v in expand(exps, c)])
    with pytest.raises(ArithmeticError):
        expand_cyclo_powers({1: 1})


def test_inverse_mod_p_against_brute_force():
    """list_inv_mod_p finds an inverse exactly when one of the p^deg(d)
    candidates works, and what it returns is one."""
    import itertools

    rng = random.Random(5)

    def unit(c, u, d, p):
        return list_trim([v % p for v in list_mod_monic(list_mul(c, u), d)]) == [1]

    for _ in range(60):
        p = rng.choice((2, 3, 5))
        d = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1]
        c = [rng.randint(-6, 6) for _ in range(rng.randint(0, 5))]
        cands = itertools.product(range(p), repeat=len(d) - 1)
        exists = any(unit(c, list(u), d, p) for u in cands)
        u = list_inv_mod_p(c, d, p)
        assert (u is not None) == exists, (c, d, p)
        if u is not None:
            assert unit(c, u, d, p) and len(u) < len(d)
