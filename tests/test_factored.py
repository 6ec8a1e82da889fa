"""The factored representation and summation engine are cross-checked against
the independent dense-polynomial route (Poly / RatFunc with gcd reduction)."""
import math
import random
from fractions import Fraction

import pytest

from qpiverify.factored import (
    BracketProduct,
    FactoredSum,
    Packing,
    SlotOverflow,
    divide_out_cyclotomic,
    negated,
    sum_terms,
    sum_terms_mod,
    u_fold,
)
from qpiverify.polys import (
    InexactDivision,
    Poly,
    cyclo_powers,
    cyclotomic,
    cyclotomic_int,
    divisors,
    expand_bracket_powers,
    expand_cyclo_powers,
    list_add,
    list_bracket_div,
    list_bracket_mul,
    list_divmod_monic,
    list_mod_monic,
    list_mul,
    list_scale,
    list_trim,
)
from qpiverify.qseries import SeriesId
from qpiverify.ratfunc import RatFunc


def rand_bracket_product(rng, rational=True):
    num = rng.randint(-4, 4) or 1
    den = rng.randint(1, 3) if rational else 1
    exps = {rng.randint(1, 6): rng.randint(-2, 2) for _ in range(rng.randint(0, 3))}
    return BracketProduct.make(Fraction(num, den), rng.randint(-4, 4), exps)


def _at(bp, x):
    """A BracketProduct's value at the rational x, factor by factor."""
    value = bp.coeff * Fraction(x) ** bp.shift
    for m, e in bp.exps:
        value *= (1 - Fraction(x) ** m) ** e
    return value


def _as_list(bp):
    """A BracketProduct as the factor list of its single brackets."""
    return bp.coeff, bp.shift, [(m, 1, 1, e) for m, e in bp.exps]


def _sum(terms):
    """sum_terms of BracketProducts, each handed over as its factor list."""
    return sum_terms([_as_list(t) for t in terms])


def test_bracket_kernels_roundtrip():
    rng = random.Random(5)
    for _ in range(200):
        c = [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))]
        m = rng.randint(1, 5)
        expected = list(c)
        while expected and expected[-1] == 0:
            expected.pop()
        prod = list_bracket_mul(c, m)
        assert list_bracket_div(prod, m) == expected


def test_bracket_div_rejects_inexact():
    with pytest.raises(InexactDivision):
        list_bracket_div([1, 1], 1)  # 1 + q is not divisible by 1 - q


def test_expand_bracket_powers_matches_poly():
    rng = random.Random(6)
    for _ in range(100):
        exps = {rng.randint(1, 6): rng.randint(0, 2) for _ in range(rng.randint(0, 3))}
        direct = Poly.one()
        for m, e in exps.items():
            direct = direct * (Poly([1]) - Poly.monomial(1, m)) ** e
        assert Poly(expand_bracket_powers(exps)) == direct


def test_expand_cyclo_powers_spot_checks():
    assert Poly(expand_cyclo_powers({1: 1})) == cyclotomic(1)
    assert Poly(expand_cyclo_powers({2: 1})) == cyclotomic(2)
    assert Poly(expand_cyclo_powers({6: 1})) == cyclotomic(6)
    assert Poly(expand_cyclo_powers({1: 2, 4: 1})) == cyclotomic(1) ** 2 * cyclotomic(4)


def _dense_divide_out(c, d, cap):
    """Divide c by Phi_d up to cap times, one dense division by the expanded
    Phi_d at a time; the oracle for the bracket-product kernel."""
    phi = cyclotomic_int(d)
    count = 0
    while count < cap:
        quot, rem = list_divmod_monic(c, phi)
        if rem:
            break
        c, count = quot, count + 1
    return count, c


def _planted(rng, d, k):
    """q**j * Phi_d**k * r for a random r with nonzero ends that Phi_d does
    not divide; returns (the product, r)."""
    phi = list(cyclotomic_int(d))
    while True:
        r = [rng.choice((-1, 1)) * rng.randint(1, 40)]
        r += [rng.randint(-40, 40) for _ in range(rng.randint(0, 2 * len(phi)))]
        r[-1] = r[-1] or 1
        if list_divmod_monic(r, phi)[1]:
            break
    c = [0] * rng.randint(0, 2) + r
    for _ in range(k):
        c = list_mul(c, phi)
    return c, r


def test_cyclotomic_kernel_matches_dense_division():
    """divide_out_cyclotomic counts and divides as dense division by Phi_d
    does, with caps below, at and above the planted power; cyclo_powers
    takes c to c * prod Phi_d**e and back, and rejects what does not divide."""
    rng = random.Random(23)
    ds = (1, 2, 3, 4, 6, 9, 12, 15, 30, 105)
    for d in ds:
        for k in range(5):
            c, r = _planted(rng, d, k)
            for cap in sorted({max(k - 1, 0), k, k + 1}):
                count, quot = divide_out_cyclotomic(c, d, cap)
                assert (count, quot) == _dense_divide_out(c, d, cap), (d, k, cap)
                assert count == min(k, cap)
            with pytest.raises(InexactDivision):
                cyclo_powers(r, {d: -1})
            mults = {d: rng.randint(1, 3), rng.choice(ds): rng.randint(1, 2)}
            up = cyclo_powers(c, mults)
            assert up == list_mul(c, expand_cyclo_powers(mults)), (d, mults)
            assert cyclo_powers(up, {e: -m for e, m in mults.items()}) == c, (d, mults)
            # One call divides some powers out and multiplies others in.
            other = rng.choice([e for e in ds if e != d])
            want = list_mul(_dense_divide_out(c, d, k)[1], expand_cyclo_powers({other: 2}))
            assert cyclo_powers(c, {d: -k, other: 2}) == want, (d, k, other)
    # Phi_1 = q - 1 = -(1 - q): the sign follows the parity of its power.
    assert cyclo_powers([1], {1: 1}) == [-1, 1]
    assert cyclo_powers([0, 2], {1: 2}) == [0, 2, -4, 2]
    assert cyclo_powers([1, -1], {1: -1}) == [-1]
    assert cyclo_powers([1, 0, -1], {1: -1, 2: -1}) == [-1]
    with pytest.raises(InexactDivision):
        cyclo_powers([1], {1: -1})
    with pytest.raises(InexactDivision):
        expand_cyclo_powers({6: -2, 3: 1})


def _poch(base, step, count):
    """(q**base; q**step)_count in factored form."""
    return BracketProduct.from_pochhammers(1, 0, [(base, step, count, 1)])


def test_pochhammer_zero_factor():
    assert _poch(0, 2, 1).coeff == 0
    assert _poch(-2, 2, 3).coeff == 0  # hits exponent 0 at j=1
    assert _poch(5, 2, 0) == BracketProduct.one()
    # (q^-1; q^2)_-1 = 1 / (q^-3; q^2)_1 = 1 / (1 - q^-3) = -q^3 / (1 - q^3)
    assert _poch(-1, 2, -1) == BracketProduct.make(1, 0, {-3: -1}) == BracketProduct.make(-1, 3, {3: -1})


def test_negative_exponent_normalization():
    # 1 - q^-2 = -q^-2 (1 - q^2)
    bp = BracketProduct.make(1, 0, {-2: 1})
    assert bp.coeff == -1 and bp.shift == -2 and bp.exps == ((2, 1),)
    x = Fraction(3)
    assert _at(bp, x) == 1 - x**-2


def test_q_integer_bracket_form():
    from qpiverify.qseries import q_integer

    def bracket_q_integer(m):  # [m] = (1 - q**m)/(1 - q), for any integer m
        return BracketProduct.from_pochhammers(1, 0, [(m, 1, 1, 1), (1, 1, 1, -1)])

    for m in range(0, 9):
        assert bracket_q_integer(m).to_ratfunc() == RatFunc.from_poly(q_integer(m))
    # Laurent extension: [-m] = -q^-m [m]
    assert _at(bracket_q_integer(-3), Fraction(2)) == (1 - Fraction(1, 8)) / (1 - 2)


POINTS = [Fraction(2), Fraction(3), Fraction(1, 3), Fraction(-2)]


def test_make_matches_evaluation():
    """make() on any integer indices, including 0, against the product it
    stands for, computed here factor by factor."""
    rng = random.Random(8)
    for _ in range(300):
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        shift = rng.randint(-4, 4)
        exps = {rng.randint(-6, 6): rng.randint(-2, 2) for _ in range(rng.randint(0, 4))}
        if exps.get(0, 0) < 0:
            with pytest.raises(ZeroDivisionError):
                BracketProduct.make(coeff, shift, exps)
            continue
        bp = BracketProduct.make(coeff, shift, exps)
        assert all(m >= 1 and e != 0 for m, e in bp.exps)
        for x in POINTS:
            value = coeff * x**shift
            for m, e in exps.items():
                value *= (1 - x**m) ** e
            assert _at(bp, x) == value
    # Zero factors: a zero coefficient or a bracket 1 - q^0 in the numerator
    # gives zero; one in the denominator cannot be divided by.
    assert BracketProduct.make(0, 3, {2: -1}) == BracketProduct.make(0)
    assert BracketProduct.make(2, 1, {0: 2, 3: -1}) == BracketProduct.make(0)
    assert BracketProduct.make(2, 1, {0: 0, 3: 1}) == BracketProduct.make(2, 1, {3: 1})
    with pytest.raises(ZeroDivisionError):
        BracketProduct.make(1, 0, {0: -2})
    with pytest.raises(ZeroDivisionError):
        BracketProduct.from_pochhammers(1, 0, [(0, 1, 1, -1)])


def test_from_exponent_zero_index_in_denominator():
    """The single bracket (1 - q**0)**e: zero for e > 0, one for e = 0, and
    no value for e < 0."""
    assert BracketProduct.make(1, 0, {0: 1}).coeff == 0
    assert BracketProduct.make(1, 0, {0: 0}) == BracketProduct.one()
    with pytest.raises(ZeroDivisionError):
        BracketProduct.make(1, 0, {0: -1})


def _poch_value(base, step, count, x):
    """(x**base; x**step)_count from the definition, negative counts as
    (a; p)_(-r) = 1 / (a p**-r; p)_r."""
    if count < 0:
        return 1 / _poch_value(base + count * step, step, -count, x)
    value = Fraction(1)
    for j in range(count):
        value *= 1 - x ** (base + j * step)
    return value


def test_from_pochhammers_matches_definition():
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        coeff = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        shift = rng.randint(-4, 4)
        factors = [
            (rng.randint(-6, 6), rng.randint(1, 3), rng.randint(-3, 4), rng.randint(-2, 2))
            for _ in range(rng.randint(0, 4))
        ]
        # A factor holding the bracket 1 - q^0 is zero.  The constructor adds
        # the powers of these factors: a net power below 0 cannot be divided
        # by, above 0 gives zero, and 0 is a 0/0 that the definition leaves open.
        zero_powers = []
        for base, step, count, power in factors:
            if count < 0:
                base, count, power = base + count * step, -count, -power
            if power and base <= 0 < base + count * step and base % step == 0:
                zero_powers.append(power)
        if sum(zero_powers) < 0:
            with pytest.raises(ZeroDivisionError):
                BracketProduct.from_pochhammers(coeff, shift, factors)
            continue
        bp = BracketProduct.from_pochhammers(coeff, shift, factors)
        if zero_powers:
            if sum(zero_powers) > 0:
                assert bp.coeff == 0
            continue
        for x in POINTS:
            value = coeff * x**shift
            for base, step, count, power in factors:
                if power:
                    value *= _poch_value(base, step, count, x) ** power
            assert _at(bp, x) == value
        checked += 1
    assert checked > 150
    with pytest.raises(ValueError):
        BracketProduct.from_pochhammers(1, 0, [(1, 0, 2, 1)])


def test_to_ratfunc_evaluation_oracle():
    rng = random.Random(7)
    for _ in range(300):
        bp = rand_bracket_product(rng)
        rf = bp.to_ratfunc()
        x = Fraction(rng.choice([2, 3, 5, -2, 7]), rng.choice([1, 1, 3]))
        if abs(x) == 1 or x == 0:
            continue
        assert rf.evaluate(x) == _at(bp, x)


def _dense_to_ratfunc(fs):
    """`FactoredSum.to_ratfunc` with dense division and a dense product:
    each denominator Phi_d divided out of the numerator one dense division
    at a time, then the numerator cyclotomics' expanded product multiplied
    in; the oracle for the bracket-product kernel."""
    if fs.is_zero():
        return RatFunc.zero()
    low = 0
    while fs.num[low] == 0:
        low += 1
    num = fs.num[low:]
    mults = fs.prefactor.cyclo_mults()
    den_mults = {d: -e for d, e in mults.items() if e < 0}
    for d in sorted(den_mults, reverse=True):
        count, num = _dense_divide_out(num, d, den_mults[d])
        den_mults[d] -= count
    num = list_mul(num, expand_cyclo_powers({d: e for d, e in mults.items() if e > 0}))
    sign = (-1) ** (sum(e for _, e in fs.prefactor.exps) % 2)
    num_poly = Poly(num) * (fs.prefactor.coeff * sign)
    den_poly = Poly(expand_cyclo_powers(den_mults))
    shift = fs.prefactor.shift + low
    if shift >= 0:
        num_poly = num_poly * Poly.monomial(1, shift)
    else:
        den_poly = den_poly * Poly.monomial(1, -shift)
    return RatFunc._from_reduced(num_poly, den_poly)


def _rand_factored_sum(rng):
    """A prefactor with bracket exponents of both signs and a shift of either
    sign, over a numerator with low zeros and planted powers of cyclotomics
    that the prefactor's denominator holds, some of them above its need."""
    exps = {rng.randint(1, 12): rng.choice((-3, -2, -1, 1, 2)) for _ in range(rng.randint(0, 4))}
    pf = BracketProduct.make(Fraction(rng.choice((-5, -1, 1, 3)), rng.choice((1, 2, 7))), rng.randint(-6, 6), exps)
    num = [rng.randint(-30, 30) for _ in range(rng.randint(1, 15))]
    num[-1] = num[-1] or 1
    held = sorted(d for m, e in exps.items() if e < 0 for d in divisors(m))
    for d in rng.sample(held, min(len(held), rng.randint(0, 4))):
        num = list_mul(num, expand_cyclo_powers({d: rng.randint(1, 4)}))
    return FactoredSum(pf, [0] * rng.randint(0, 3) + num)


def test_to_ratfunc_matches_dense_division():
    rng = random.Random(29)
    for _ in range(300):
        fs = _rand_factored_sum(rng)
        got, want = fs.to_ratfunc(), _dense_to_ratfunc(fs)
        assert (got.num, got.den) == (want.num, want.den), fs
    assert FactoredSum(BracketProduct.one(), []).to_ratfunc() == RatFunc.zero()


def test_to_ratfunc_divides_by_no_dense_cyclotomic(monkeypatch):
    """Every Phi_d leaves the numerator as its bracket product; no dense
    monic division runs, on a failing identity's witness or a partial sum."""
    from qpiverify import polys
    from qpiverify.qseries import series_factors
    from qpiverify.wz import IdentityId, identity_terms

    def forbidden(c, d):
        raise AssertionError("dense division by a cyclotomic")

    lhs, rhs = identity_terms(IdentityId.ID_A2, 10)
    values = [
        sum_terms(series_factors(SeriesId.J2_LHS, None, 12)),
        sum_terms(lhs + [negated((c, s + 1, f)) for c, s, f in rhs]),
    ]
    monkeypatch.setattr(polys, "list_divmod_monic", forbidden)
    for fs in values:
        assert not fs.to_ratfunc().den.is_zero()


def test_substitute_q_inverse():
    """At q -> 1/q, c q**s prod (1 - q**m)**e is c q**-s prod (1 - q**-m)**e,
    which `make` normalizes."""
    rng = random.Random(8)
    for _ in range(100):
        bp = rand_bracket_product(rng)
        x = Fraction(rng.choice([2, 3, 5]), 1)
        inverted = BracketProduct.make(bp.coeff, -bp.shift, {-m: e for m, e in bp.exps})
        assert _at(inverted, x) == _at(bp, 1 / x)


def test_sum_terms_against_ratfunc_arithmetic():
    rng = random.Random(9)
    for _ in range(150):
        terms = [rand_bracket_product(rng) for _ in range(rng.randint(1, 5))]
        engine = _sum(terms).to_ratfunc()
        direct = RatFunc.zero()
        for t in terms:
            direct = direct + t.to_ratfunc()
        assert engine == direct


def test_sum_terms_zero_and_empty():
    assert sum_terms([]).is_zero()
    assert sum_terms([(0, 0, [])]).is_zero()
    t = (1, 0, [(2, 1, 1, 1)])
    assert sum_terms([t, negated(t)]).is_zero()
    # (1 - q^2) - (1 - q) - q (1 - q) cancels through the accumulator.
    fs = sum_terms([t, (-1, 0, [(1, 1, 1, 1)]), (-1, 1, [(1, 1, 1, 1)])])
    assert fs.num == [] and fs.is_zero()
    # Both walks read a list with coeff 0, whatever its factors, or with
    # index 0 in its numerator, as zero, and raise on index 0 in a denominator.
    mod, n = expand_cyclo_powers({3: 2}), 3
    for zero in [
        (0, 2, [(1, 1, 3, 1)]),
        (0, 0, [(0, 1, 1, -1)]),
        (5, 1, [(0, 1, 1, 1), (2, 1, 1, -1)]),
        (1, 0, [(-2, 1, 4, 1)]),
    ]:
        assert sum_terms([zero]).is_zero()
        assert sum_terms_mod([zero], mod, n) == ([], [1], {})
        assert sum_terms([zero, t]) == sum_terms([t])
        assert sum_terms_mod([t, zero, t], mod, n) == sum_terms_mod([t, t], mod, n)
    for pole in [(1, 0, [(0, 1, 1, -1)]), (2, 1, [(1, 1, 2, 1), (-4, 2, 3, -1)])]:
        for terms in ([pole], [t, pole]):
            with pytest.raises(ZeroDivisionError):
                sum_terms(terms)
            with pytest.raises(ZeroDivisionError):
                sum_terms_mod(terms, mod, n)


def _value(fs, x):
    """A FactoredSum's value at the rational x."""
    return _at(fs.prefactor, x) * sum(c * x**j for j, c in enumerate(fs.num))


_POINTS = [Fraction(2), Fraction(-3), Fraction(3, 2), Fraction(-5, 3), Fraction(1, 7)]


def test_sum_terms_matches_evaluation_at_rationals():
    rng = random.Random(12)
    for _ in range(200):
        terms = []
        for _ in range(rng.randint(1, 8)):
            exps = {rng.randint(1, 9): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))}
            coeff = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            terms.append(BracketProduct.make(coeff, rng.randint(-6, 6), exps))
        fs = _sum(terms)
        for x in _POINTS:
            assert _value(fs, x) == sum(_at(t, x) for t in terms)


def test_sum_terms_edge_cases():
    # (1 - q)^80 stays in the cofactor (the other term has no bracket), and
    # its middle binomial coefficients are near 2^77.
    fs = sum_terms([(1, 0, [(1, 1, 1, 80)]), (5, 3, [])])
    expected = [(-1) ** j * math.comb(80, j) for j in range(81)]
    expected[3] += 5
    assert fs.prefactor == BracketProduct.one() and fs.num == expected
    assert max(abs(c) for c in fs.num).bit_length() == 77
    cases = [
        # Huge and non-integral coefficients.
        [BracketProduct.make(2**200, 1, {2: 2, 3: -1}), BracketProduct.make(Fraction(3, 7), 0, {1: 3})],
        # Alternating signs.
        [BracketProduct.make((-1) ** k, k, {k + 1: 1, 1: -1}) for k in range(12)],
        # Negative shifts, below and above zero.
        [BracketProduct.make(k - 3, -2 * k, {3: k % 3 - 1, 5: 1}) for k in range(7)],
    ]
    for terms in cases:
        fs = _sum(terms)
        for x in _POINTS:
            assert _value(fs, x) == sum(_at(t, x) for t in terms)
    # One term: everything goes to the prefactor.
    fs = sum_terms([(Fraction(-4, 9), -3, [(2, 1, 1, 2), (7, 1, 1, -1)])])
    assert fs.num == [-1] and fs.prefactor == BracketProduct.make(Fraction(4, 9), -3, {2: 2, 7: -1})


def _rise_fall_rise_terms(rng):
    """3 to 9 terms whose bracket exponents each rise, fall below every
    earlier exponent (the first term's included) and rise again."""
    count = rng.randint(3, 9)
    paths = {}
    for m in rng.sample(range(1, 10), rng.randint(1, 4)):
        path = [rng.randint(-2, 3)]
        for _ in range(count - 1):
            low = min(path)
            path.append(rng.choice([path[-1] + rng.randint(1, 3), low - rng.randint(1, 2), path[-1]]))
        paths[m] = path
    # At least one bracket is below its start somewhere.
    m = next(iter(paths))
    paths[m][rng.randint(1, count - 1)] = min(paths[m]) - 1
    return [
        BracketProduct.make(
            Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 5)),
            rng.randint(-4, 4),
            {m: path[i] for m, path in paths.items()},
        )
        for i in range(count)
    ]


def test_sum_terms_exponents_that_fall_below_the_prefix_minimum():
    """Each bracket's exponent rises, falls below every earlier exponent
    (the first term's included) and rises again, so joins multiply the left
    side by some brackets and the right side by others."""
    rng = random.Random(14)
    for _ in range(150):
        terms = _rise_fall_rise_terms(rng)
        fs = _sum(terms)
        for x in _POINTS:
            assert _value(fs, x) == sum(_at(t, x) for t in terms)


def test_sum_terms_join_shapes():
    """Every rotation and the reversal of a term list pair its terms off in
    other joins, over other runs; each gives the same FactoredSum as the
    list itself, and that sum has the value of the terms.  The lists rise,
    fall below their start and rise again, or peak as each bracket of
    (q; q)_k (q; q)_(n - k) does in k, also over (q**3; q)_k."""
    rng = random.Random(15)
    cases = [_rise_fall_rise_terms(rng) for _ in range(40)]
    for n in (1, 2, 9, 24):
        for den in (0, 1):
            cases.append([
                BracketProduct.from_pochhammers(k - 7, 2 * k, [(1, 1, k, 1), (1, 1, n - k, 1), (3, 1, k, -den)])
                for k in range(n + 1)
            ])
    for terms in cases:
        fs = _sum(terms)
        for x in _POINTS:
            assert _value(fs, x) == sum(_at(t, x) for t in terms)
        for other in [terms[s:] + terms[:s] for s in range(1, len(terms))] + [terms[::-1]]:
            assert _sum(other) == fs


def _pack(p, coeffs):
    return sum(c << (j * p.w) for j, c in enumerate(coeffs))


def test_packing_kernels_roundtrip():
    rng = random.Random(13)
    for _ in range(200):
        bound = rng.choice([1, 60, 2**20, 2**70])
        coeffs = [rng.randint(-bound // 2, bound // 2) for _ in range(rng.randint(1, 30))]
        m = rng.randint(1, 12)
        p = Packing(bound, len(coeffs) + m)
        assert p.w % 8 == 0 and bound < 2 ** (p.w - 2)
        v = _pack(p, coeffs)
        assert p.pack(coeffs) == v
        assert p.unpack(v) == coeffs + [0] * m
        prod = p.bracket_mul(v, m)
        assert p.unpack(prod) == list_bracket_mul(coeffs, m)
        k = rng.randint(1, len(coeffs))
        assert p.split(v, k) == (_pack(p, coeffs[:k]), _pack(p, coeffs[k:]))


def test_unpack_rejects_values_wider_than_their_slots():
    p = Packing(63, 3)
    assert p.unpack(_pack(p, [63, -63, 63])) == [63, -63, 63]
    for coeffs in ([0, 0, 0, 1], [0, 0, 0, -1], [0, 64, 0], [0, -65, 0], [-65, 0, 0]):
        with pytest.raises(SlotOverflow):
            p.unpack(_pack(p, coeffs))


def test_unpack_trim_reads_the_top_slot_off_the_bit_length():
    p = Packing(63, 4)  # 8-bit slots, in range in [-64, 64)
    assert p.unpack(0, trim=True) == [] and p.unpack(0) == [0, 0, 0, 0]
    # |v| just above 2**(j*w - 1) or just below 2**((j + 1)*w - 1), with j
    # the top nonzero slot: [-1, 1] is 255, [-64, -64, 1] is 2**15 + 2**14 - 64.
    for coeffs in ([5], [0, -1], [63, 0, -2], [-64, -64, -64, -64], [-64], [63, 63, -64], [0, 0, 1],
                   [-1, 1], [1, -1], [-64, -64, 1], [63, 63, -1], [-64, -64, -64, 1]):
        assert p.unpack(_pack(p, coeffs), trim=True) == coeffs
        assert p.unpack(_pack(p, coeffs)) == coeffs + [0] * (4 - len(coeffs))
    # 2**(w - 2) is one past the range: the range check still runs first.
    for coeffs in ([64], [0, 64], [-64, -64, 64], [0, 0, 0, 64]):
        with pytest.raises(SlotOverflow):
            p.unpack(_pack(p, coeffs), trim=True)
    rng = random.Random(16)
    for _ in range(300):
        bound = rng.choice([1, 60, 2**20, 2**70])
        p = Packing(bound, rng.randint(1, 12))
        half = 1 << (p.w - 2)
        coeffs = [rng.choice([-half, half - 1, 0, rng.randint(-half, half - 1)]) for _ in range(p.slots)]
        assert p.unpack(_pack(p, coeffs), trim=True) == list_trim(list(coeffs))


def test_fits_checks_every_slot_against_its_headroom():
    p = Packing(2**20, 3)  # 24-bit slots
    assert p.w == 24
    for h in (0, 1, 7, 21, 22):
        edge = 1 << h
        for slot in range(3):
            for c, ok in ((-edge, True), (edge - 1, True), (edge, False), (-edge - 1, False)):
                coeffs = [0, 0, 0]
                coeffs[slot] = c
                assert p.fits(_pack(p, coeffs), h) is ok, (h, coeffs)
        assert p.fits(_pack(p, [-edge, edge - 1, -edge]), h)
        # A negative top slot borrows from the bits above every slot.
        assert p.fits(_pack(p, [edge - 1, 0, -1]), h)
        assert not p.fits(_pack(p, [0, 0, -edge - 1]), h)
        # A top slot that carries out when biased sets no slot's bits.
        assert not p.fits(_pack(p, [0, 0, (1 << 24) - edge]), h)
        assert not p.fits(1 << 72, h) and not p.fits(-(1 << 72), h)
    # in_range is the case h = w - 2.
    rng = random.Random(31)
    for _ in range(300):
        coeffs = [rng.randint(-(1 << 23), (1 << 23) - 1) for _ in range(3)]
        assert p.in_range(_pack(p, coeffs)) is p.fits(_pack(p, coeffs), 22)
        h = rng.randint(0, 22)
        assert p.fits(_pack(p, coeffs), h) is all(-(1 << h) <= c < 1 << h for c in coeffs)


def test_widening_matches_a_plain_pack_at_the_wider_width():
    """`wider.pack(p.unpack(v))`, the walk's widening, is the plain pack at
    the wider width of an in-range value, and raises SlotOverflow on any
    other."""
    rng = random.Random(37)
    for _ in range(300):
        slots = rng.randint(1, 12)
        p = Packing(rng.choice([1, 60, 2**20, 2**70]), slots)
        # A bound of at least 2**(p.w - 3) gives a width of at least p.w.
        wider = Packing(rng.choice([0, 1 << (p.w - 2), 2**30, 2**100]) | (1 << (p.w - 3)), slots)
        quarter = 1 << (p.w - 2)
        coeffs = [rng.choice([-quarter, quarter - 1, 0, rng.randint(-quarter, quarter - 1)]) for _ in range(slots)]
        assert wider.pack(p.unpack(_pack(p, coeffs))) == wider.pack(coeffs) == _pack(wider, coeffs)
        assert wider.unpack(wider.pack(p.unpack(p.pack(coeffs)))) == coeffs
        # One slot out of range, still below 2**(w - 1): p packs it, and
        # the widening refuses it.
        coeffs[rng.randrange(slots)] = rng.choice([-2 * quarter, -quarter - 1, quarter, 2 * quarter - 1])
        with pytest.raises(SlotOverflow):
            wider.pack(p.unpack(_pack(p, coeffs)))


def test_cyclo_multiplicity_counts():
    # (1-q)^2 (1-q^6) / (1-q^3) has Phi_1 multiplicity 2, Phi_2 1, Phi_3 0, Phi_6 1.
    fs = sum_terms([(1, 0, [(1, 1, 1, 2), (6, 1, 1, 1), (3, 1, 1, -1)])])
    assert fs.cyclo_multiplicity(1, 5) == 2
    assert fs.cyclo_multiplicity(2, 5) == 1
    assert fs.cyclo_multiplicity(3, 5) == 0
    assert fs.cyclo_multiplicity(6, 5) == 1
    assert fs.cyclo_multiplicity(6, 1) == 1  # saturation at `need`


def test_cyclo_multiplicity_saturates_on_the_prefactor_alone():
    """When the prefactor alone holds Phi_d more than `need` times, the count
    is `need`, whether or not Phi_d divides the numerator."""
    for need in (1, 2, 4):
        prefactor = BracketProduct.make(1, 0, {3: need + 1})
        for num in ([1], [2, -1], [1, 1, 1]):  # Phi_3 = 1 + q + q^2 divides only the last
            assert FactoredSum(prefactor, num).cyclo_multiplicity(3, need) == need


def test_u_fold_matches_the_dense_remainder():
    """u_fold(c, d, cap) is the remainder of c by the expanded (q**d - 1)**cap,
    on empty lists, lists shorter than d, and long lists of negative and
    200-bit coefficients."""
    rng = random.Random(19)
    for d in range(1, 13):
        for cap in range(31):
            mod = list_scale(expand_bracket_powers({d: cap}), (-1) ** cap)
            for size in (0, d - 1, rng.randint(d, 40 * d + 40)):
                bits = rng.choice([1, 64, 200])
                c = [rng.randint(-(1 << bits), 1 << bits) for _ in range(size)]
                assert u_fold(c, d, cap) == list_mod_monic(c, mod), (d, cap, size)


def test_sum_terms_mod_matches_exact():
    rng = random.Random(10)
    # (n, cyclotomic multiplicities of a modulus dividing (1 - q^n)^2):
    # Phi_5^2, Phi_9^2, [9] Phi_9 and [15] Phi_15.
    for n, mults in [(5, {5: 2}), (9, {9: 2}), (9, {3: 1, 9: 2}), (15, {3: 1, 5: 1, 15: 2})]:
        mod = expand_cyclo_powers(mults)
        # Denominators built from brackets coprime to the modulus.
        ms = [m for m in range(1, 9) if all(m % d for d in mults)]
        for _ in range(40):
            terms = []
            for _ in range(rng.randint(1, 4)):
                exps = {rng.choice(ms): rng.randint(-2, 2) for _ in range(rng.randint(0, 3))}
                terms.append(BracketProduct.make(rng.randint(-3, 3) or 1, rng.randint(0, 4), exps))
            lists = [_as_list(t) for t in terms]
            acc, den, den_brackets = sum_terms_mod(lists, mod, n)
            assert all(m % d for m in den_brackets for d in mults)
            exact = sum_terms(lists).to_ratfunc()
            # acc/den == exact (mod M): cross-multiply.
            lhs = Poly(acc) * exact.den
            rhs = Poly(den) * exact.num
            assert ((lhs - rhs) % Poly(mod)).is_zero()


def _sum_terms_mod_by_lists(terms, mod, n):
    """The reference walk: the same term-ratio recurrence as `sum_terms_mod`
    on coefficient lists, reducing by (1 - q^n)^2 after every step.  Each
    positive exponent above its least clipped value over the later terms,
    taken directly, passes its excess into the copy added into A."""
    work = expand_bracket_powers({n: 2})

    def bracket_mul(c, m):
        return list_mod_monic(list_bracket_mul(c, m), work)

    def shift(c, delta):
        return list_mod_monic([0] * delta + c, work) if c and delta else c

    live = [t for t in terms if t.coeff != 0]
    kept, passing = [], []
    for i, t in enumerate(live):
        exps, excess = dict(t.exps), {}
        for m, e in t.exps:
            later = [max(dict(u.exps).get(m, 0), 0) for u in live[i + 1 :]]
            if e > 0 and later and e > min(later):
                excess[m] = e - min(later)
                exps[m] = min(later)
        kept.append(BracketProduct.make(t.coeff, t.shift, exps))
        passing.append(excess)

    den_brackets, acc, den, term, prev = {}, [], [1], [1], BracketProduct.one()
    for t, excess in zip(kept, passing):
        exps = dict(t.exps)
        for m, e in prev.exps:
            exps[m] = exps.get(m, 0) - e
        ratio = BracketProduct.make(t.coeff / prev.coeff, t.shift - prev.shift, exps)
        for m, e in ratio.exps:
            for _ in range(e):
                term = bracket_mul(term, m)
            for _ in range(-e):
                acc, den = bracket_mul(acc, m), bracket_mul(den, m)
            if e < 0:
                den_brackets[m] = den_brackets.get(m, 0) - e
        if ratio.shift >= 0:
            term = shift(term, ratio.shift)
        else:
            acc, den = shift(acc, -ratio.shift), shift(den, -ratio.shift)
        term = list_scale(term, ratio.coeff.numerator)
        out = term
        for m, e in excess.items():
            for _ in range(e):
                out = bracket_mul(out, m)
        acc = list_add(list_scale(acc, ratio.coeff.denominator), out)
        den = list_scale(den, ratio.coeff.denominator)
        prev = t
    return list_mod_monic(acc, mod), list_mod_monic(den, mod), den_brackets


def test_sum_terms_mod_matches_list_walk():
    """Bit-identical (A, D, den_brackets) against the list walk, with
    brackets past 2n and at multiples of n, shifts past 2n and below -n, and
    coefficient ratios that are not integers."""
    rng = random.Random(23)
    for n in (1, 2, 3, 5, 9, 15):
        n_phi = {d: 1 for d in divisors(n) if d > 1}
        n_phi[n] = n_phi.get(n, 0) + 1
        # (1 - q^n)^2, Phi_n^2 and [n] Phi_n.
        moduli = [expand_bracket_powers({n: 2}), expand_cyclo_powers({n: 2}), expand_cyclo_powers(n_phi)]
        for _ in range(30):
            terms = []
            for _ in range(rng.randint(1, 6)):
                exps = {rng.randint(1, 5 * n + 3): rng.randint(-2, 2) for _ in range(rng.randint(0, 4))}
                exps[n * rng.randint(1, 4)] = rng.randint(0, 3)
                coeff = Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 9]))
                terms.append(BracketProduct.make(coeff, rng.randint(-3 * n - 2, 3 * n + 2), exps))
            mod = rng.choice(moduli)
            out = sum_terms_mod([_as_list(t) for t in terms], mod, n)
            assert out == _sum_terms_mod_by_lists(terms, mod, n)
            # D holds exactly the brackets that some term has in its denominator.
            assert set(out[2]) == {m for t in terms for m, e in t.exps if e < 0}
        # At n = 2 every bracket 1 - q doubles X: coefficients near the slot bound.
        terms = [BracketProduct.make(1, 0, {1: 40, n + 1: 3}), BracketProduct.make(-3, 1, {1: 39})]
        for mod in moduli:
            assert sum_terms_mod([_as_list(t) for t in terms], mod, n) == _sum_terms_mod_by_lists(terms, mod, n)


def test_sum_terms_mod_widens_from_a_narrow_start(monkeypatch):
    """Started at 8-bit slots, the walk widens where its checks ask and
    still matches the list walk.  A widening packs the state again, and the
    walk packs nothing else."""
    import qpiverify.factored as factored

    widths = []
    pack = Packing.pack

    def recorded(self, c):
        widths.append(self.w)
        return pack(self, c)

    monkeypatch.setattr(factored, "_START_WIDTH", 8)
    monkeypatch.setattr(Packing, "pack", recorded)
    test_sum_terms_mod_matches_list_walk()
    assert widths and min(widths) > 8


def test_sum_terms_mod_bounds_a_shift_of_the_first_term(monkeypatch):
    """Walks whose first term is c q**s, from the default start and from
    8-bit slots, against the list walk.  The bound of a times-q**m step
    keeps X's bound; with Y's in its place the proven width falls short of
    these values and a slot overflows."""
    import qpiverify.factored as factored

    cases = [
        (3, [BracketProduct.make(2, 5), BracketProduct.make(3, 7, {26: 1})]),
        (2, [BracketProduct.make(3, 1, {18: 1}), BracketProduct.make(-1, 8), BracketProduct.make(-1, 9)]),
        (3, [BracketProduct.make(1, 14), BracketProduct.make(1, -4, {28: 3})]),
        (5, [BracketProduct.make(1, 7), BracketProduct.make(1, -8, {7: 1}), BracketProduct.make(1, 3, {59: 3})]),
    ]
    for start in (factored._START_WIDTH, 8):
        monkeypatch.setattr(factored, "_START_WIDTH", start)
        for n, terms in cases:
            mod = expand_bracket_powers({n: 2})
            assert sum_terms_mod([_as_list(t) for t in terms], mod, n) == _sum_terms_mod_by_lists(terms, mod, n)


def _factor_list_walks():
    """Runs of factor lists along k: every SeriesId, both WZ pairs' F and G
    (L2's negative counts n + k < 0, zero terms out of support and the
    index-0 zeros of G at n = 0), runs that mix lists of unequal lengths and
    lists of single brackets, and random runs."""
    from qpiverify.qseries import N_DEPENDENT, WzPairId, series_range, summand_factors, wz_term_factors

    walks = []
    for sid in SeriesId:
        for n in (1, 5, 9) if sid in N_DEPENDENT else (None, 9):
            start, end = series_range(sid, n)
            n_arg = n if sid in N_DEPENDENT else None
            walks.append([summand_factors(sid, n_arg, k) for k in range(start, (start + 12 if end is None else end) + 1)])
    for pair in WzPairId:
        for which in ("F", "G"):
            for n in range(7):
                walks.append([wz_term_factors(pair, which, n, k) for k in range(-n - 3, n + 3)])
            walks.append([wz_term_factors(pair, which, n, 2) for n in range(9)])
    sun = [summand_factors(SeriesId.SUN_LHS, None, k) for k in range(6)]
    whipple = [summand_factors(SeriesId.WHIPPLE_LHS, 11, k) for k in range(6)]
    j2 = [wz_term_factors(WzPairId.PAIR_J2, "F", k, 0) for k in range(6)]
    walks.append([t for pair in zip(sun, whipple, j2) for t in pair])
    walks.append([(-1, -3, [(5, 1, 1, 1), (1, 1, 1, -1)]), *j2, (2, 1, [(3, 1, 1, 2)]), *sun])
    # Random lists whose factors move their bases on and off their
    # progressions, with counts of either sign, and now and then change length.
    rng = random.Random(29)

    def factor():
        return rng.randint(-6, 6), rng.randint(1, 3), rng.randint(-3, 4), rng.choice([-2, -1, 1, 2])

    for _ in range(60):
        factors, walk = [factor() for _ in range(rng.randint(0, 3))], []
        while len(walk) < 8:
            if rng.random() < 0.15:
                moved = [factor() for _ in range(rng.randint(0, 3))]
            else:
                moved = [(a + rng.randint(-2, 2) * rng.choice([1, s]), s, r + rng.randint(-2, 2), p) for a, s, r, p in factors]
            t = (rng.choice([1, -2, Fraction(3, 5)]), rng.randint(-4, 4), moved)
            try:
                BracketProduct.from_pochhammers(*t)
            except ZeroDivisionError:
                continue
            factors = moved
            walk.append(t)
        walks.append(walk)
    return walks


def test_term_ratios_read_off_factor_lists():
    """`_term_changes` reads each nonzero factor list as its change from the
    one before: the ratios multiply up to the normalized product's
    coefficient and shift, the changes are `_bracket_changes` of the two
    normalized maps, the running map is the product's own, and a zero list
    is skipped."""
    from qpiverify.factored import _bracket_changes, _term_changes

    read = zeros = 0
    for walk in _factor_list_walks():
        products = [BracketProduct.from_pochhammers(*t) for t in walk]
        zeros += sum(bp.coeff == 0 and t[0] != 0 for t, bp in zip(walk, products))
        live = [bp for bp in products if bp.coeff != 0]
        coeff, shift, prev = Fraction(1), 0, BracketProduct.one()
        for (ratio, q_shift, changes, exps), bp in zip(_term_changes(walk), live, strict=True):
            coeff, shift = coeff * ratio, shift + q_shift
            assert (coeff, shift, exps) == (bp.coeff, bp.shift, dict(bp.exps))
            assert sorted(changes) == sorted(_bracket_changes(dict(bp.exps), dict(prev.exps)))
            prev = bp
            read += 1
    assert read > 700 and zeros > 0
    # Index 0 in a denominator raises, as `from_pochhammers` does.
    with pytest.raises(ZeroDivisionError):
        sum_terms_mod([(1, 0, [(1, 1, 1, 1)]), (1, 0, [(0, 2, 2, -1)])], [1, -2, 1], 1)


def test_term_ratios_are_ints_where_the_lists_allow():
    """A ratio is an int when both lists' coefficients are ints and the
    ratio is whole, as it always is on the WZ and series lists (coefficients
    +-1), and otherwise the Fraction of the two coefficients."""
    from qpiverify.factored import _term_changes
    from qpiverify.qseries import N_DEPENDENT, WzPairId, series_range, summand_factors, wz_term_factors

    int_walks = []
    for sid in SeriesId:
        n = 9 if sid in N_DEPENDENT else None
        start, end = series_range(sid, n)
        int_walks.append([summand_factors(sid, n, k) for k in range(start, (start + 12 if end is None else end) + 1)])
    for pair in WzPairId:
        for n in range(8):
            for k in range(1, n + 3):
                cell = [wz_term_factors(pair, w, m, j) for w, m, j in (("F", n, k - 1), ("F", n, k), ("G", n + 1, k), ("G", n, k))]
                int_walks.append([cell[0], negated(cell[1]), negated(cell[2]), cell[3]])
                int_walks.append([cell[0], negated(cell[2]), negated(cell[1]), cell[3]])  # check_telescoping's
    ratios = [t[0] for walk in int_walks for t in _term_changes(walk)]
    assert len(ratios) > 300 and all(type(r) is int for r in ratios)

    fractions = 0
    for walk in _factor_list_walks():
        live = [t for t in walk if t[0] != 0 and BracketProduct.from_pochhammers(*t).coeff != 0]
        prev = 1
        for (ratio, *_), t in zip(_term_changes(walk), live, strict=True):
            whole = type(t[0]) is int and type(prev) is int and t[0] % prev == 0
            # Up to the sign that indices below 1 fold in.
            assert abs(ratio) == abs(Fraction(t[0]) / prev) and (type(ratio) is int) == whole
            fractions += not whole
            prev = t[0]
    assert fractions > 100


def test_list_changes_is_the_difference_of_the_full_lists():
    """`_list_changes(old, new)` is new's exponents less old's, each listed
    in full from the empty list, however the two lists pair up."""
    from qpiverify.factored import _list_changes

    rng = random.Random(31)

    def factor():
        return rng.randint(-8, 8), rng.randint(1, 4), rng.randint(-4, 5), rng.choice([-2, -1, 1, 2, 3])

    def moved(f):
        a, s, r, p = f
        return a + rng.randint(-2, 2) * rng.choice([1, s]), s, r + rng.randint(-3, 3), p

    for _ in range(1500):
        old = [factor() for _ in range(rng.randint(0, 5))]
        new = [rng.choice([moved(f), f, factor()]) for f in old]
        if rng.random() < 0.3 and new:
            new[rng.randrange(len(new))] = rng.choice(new)  # a repeated factor
        if rng.random() < 0.3:
            del new[rng.randint(0, len(new)) :]
        new += [factor() for _ in range(rng.choice([0, 0, 1, 3]))]
        if rng.random() < 0.5:
            old, new = new, old
        full = _list_changes((), new)
        for m, e in _list_changes((), old).items():
            full[m] = full.get(m, 0) - e
        changes = {m: e for m, e in _list_changes(old, new).items() if e}
        assert changes == {m: e for m, e in full.items() if e}
        assert _list_changes(new, new) == {}


def test_sum_terms_does_not_depend_on_term_order():
    """A permutation of the terms gives the same `FactoredSum`: its prefactor,
    content, width and numerator are all order-free.  Over the WZ cells, both
    sides of the five identities, and series prefixes mixed with zero lists
    and lists of other lengths."""
    from qpiverify.qseries import WzPairId, series_factors, wz_term_factors
    from qpiverify.wz import IdentityId, identity_terms

    rng = random.Random(37)
    sums = []
    for pair in WzPairId:
        for n in range(9):
            for k in range(1, n + 3):
                cell = [wz_term_factors(pair, w, m, j) for w, m, j in (("F", n, k - 1), ("F", n, k), ("G", n + 1, k), ("G", n, k))]
                sums.append([cell[0], negated(cell[1]), negated(cell[2]), cell[3]])
    for ident in IdentityId:
        for n in range(1, 14, 2) if ident is IdentityId.ID_WHIPPLE else range(1, 14):
            lhs, rhs = identity_terms(ident, n)
            sums += [lhs, rhs, lhs + [negated(t) for t in rhs]]
    zeros = [(0, 3, [(1, 1, 2, 1)]), (0, 0, [])]
    j2, l2, sun = (series_factors(s, None, 6) for s in (SeriesId.J2_LHS, SeriesId.L2_LHS, SeriesId.SUN_LHS))
    whipple = series_factors(SeriesId.WHIPPLE_LHS, 13, 6)
    for prefix in (j2, l2, sun, whipple):
        for other in (sun, whipple, j2):
            sums.append(prefix[: rng.randint(1, 7)] + other[: rng.randint(0, 4)] + zeros)
    for terms in sums:
        fs = sum_terms(terms)
        for _ in range(3):
            shuffled = rng.sample(terms, len(terms))
            out = sum_terms(shuffled)
            assert (repr(out.prefactor), out.num) == (repr(fs.prefactor), fs.num)


def test_sum_terms_mod_on_factor_lists_matches_products():
    """`sum_terms_mod` gives the same residues on factor lists as on the
    products they normalize to, each read as its list of single brackets,
    and so does `sum_terms`.  The two walks agree on the same lists: with
    the exact sum c * N / Q (c rational, N and Q integer polynomials),
    A * Q * den(c) == D * N * num(c) (mod M)."""
    from qpiverify.qseries import wz_term_factors
    from qpiverify.wz import WzPairId

    walks = _factor_list_walks()
    # Brackets that fall and rise again, and fall to negative exponents.
    walks.append([wz_term_factors(WzPairId.PAIR_L2, "G", n, n - 3) for n in range(3, 12)][::-1])
    for walk in walks:
        products = [_as_list(BracketProduct.from_pochhammers(*t)) for t in walk]
        fs = sum_terms(walk)
        assert sum_terms(products) == fs
        pf = fs.prefactor
        num = list_mul(fs.num, expand_bracket_powers({m: e for m, e in pf.exps if e > 0}))
        den = expand_bracket_powers({m: -e for m, e in pf.exps if e < 0})
        num, den = [0] * max(pf.shift, 0) + num, [0] * max(-pf.shift, 0) + den
        for n in (3, 7):
            for mod in (expand_bracket_powers({n: 2}), expand_cyclo_powers({n: 2})):
                acc, d, den_brackets = sum_terms_mod(walk, mod, n)
                assert (acc, d, den_brackets) == sum_terms_mod(products, mod, n)
                lhs = list_scale(list_mul(acc, den), pf.coeff.denominator)
                rhs = list_scale(list_mul(d, num), -pf.coeff.numerator)
                assert not list_mod_monic(list_add(lhs, rhs), mod)


def test_list_mod_and_exact_division():
    phi5 = cyclotomic_int(5)
    # q^5 - 1 = (q - 1) Phi_5, so q^5 reduces to 1.
    assert list_trim(list_mod_monic([0, 0, 0, 0, 0, 1], phi5)) == [1]
    prod = list_bracket_mul(phi5, 2)
    assert list_divmod_monic(prod, phi5) == ([1, 0, -1], [])
    assert list_divmod_monic([1, 1], phi5)[1] != []
    # The monic division agrees with Poly's on sparse and dense divisors.
    rng = random.Random(11)
    sparse_and_dense = [
        expand_cyclo_powers({1: 3, 7: 3}),  # (q^7 - 1)^3
        expand_bracket_powers({9: 2}),  # (1 - q^9)^2
        list(cyclotomic_int(27)),
        expand_cyclo_powers({97: 2}),
    ]
    for d in sparse_and_dense:
        for length in (0, len(d) - 1, len(d), 3 * len(d)):
            c = [rng.randint(-50, 50) for _ in range(length)]
            quot, rem = list_divmod_monic(c, d)
            assert (Poly(quot), Poly(rem)) == divmod(Poly(c), Poly(d))
            assert rem == list_trim(list(rem))


def test_sum_terms_mod_rejects_non_monic_modulus():
    terms = [(1, 0, [(1, 1, 1, 1)])]
    with pytest.raises(ValueError):
        sum_terms_mod(terms, [1, 2], 1)
    with pytest.raises(ValueError):
        sum_terms_mod(terms, [1], 1)


def test_sum_terms_mod_rejects_modulus_not_dividing_working_modulus():
    terms = [(1, 0, [(1, 1, 1, 1)])]
    phi5_squared = expand_cyclo_powers({5: 2})
    with pytest.raises(ValueError):
        sum_terms_mod(terms, phi5_squared, 3)
    with pytest.raises(ValueError):
        sum_terms_mod(terms, phi5_squared, 0)
    sum_terms_mod(terms, phi5_squared, 5)  # Phi_5^2 divides (1 - q^5)^2


def _sum_terms_digest(monkeypatch):
    """Run a fixed sweep of exact checks and hash (repr(prefactor), num) of
    every sum_terms call they make, in call order."""
    import hashlib

    from qpiverify import congruences, qseries, wz
    from qpiverify.qseries import SeriesId, WzPairId, partial_sum
    from qpiverify.wz import IdentityId, check_identity, check_telescoping

    h = hashlib.sha256()
    calls = 0

    def recording(terms):
        nonlocal calls
        out = sum_terms(terms)
        h.update(repr((repr(out.prefactor), out.num)).encode())
        calls += 1
        return out

    for module in (congruences, qseries, wz):
        monkeypatch.setattr(module, "sum_terms", recording)
    for pair in WzPairId:
        for n in range(13):
            for k in range(1, n + 3):
                assert check_telescoping(pair, n, k).passed
    for ident in (IdentityId.ID_A2, IdentityId.ID_A3, IdentityId.ID_SECOND, IdentityId.ID_SECOND2):
        for n in range(1, 16):
            assert check_identity(ident, n).passed
    for n in range(1, 42, 2):
        assert check_identity(IdentityId.ID_WHIPPLE, n).passed
    for n in range(1, 16, 2):
        assert congruences.verify_intro(WzPairId.PAIR_J2, n, path="exact").passed
    for n in range(11, 30):
        partial_sum(SeriesId.SUN_LHS, n, (n - 1) // 2)
    return calls, h.hexdigest()


def test_sum_terms_outputs_pinned(monkeypatch):
    """Every exact sum of the sweep keeps its prefactor and its numerator's
    integer coefficients, whatever the accumulation kernel."""
    assert _sum_terms_digest(monkeypatch) == (
        316,
        "0bcddf9d8118b213f04a6d03607db73cb5f0fce73eff7890b8fbbbecf0948997",
    )


def test_sum_terms_multiplication_count_over_the_pinned_sweep(monkeypatch):
    """The sweep of `_sum_terms_digest` makes 12,628 `Packing.bracket_mul`
    calls, one for each copy of a bracket above the joint minimum of two
    joined runs, and no division; with each WZ cell in the order of its
    equation, F(n, k-1), -F(n, k), -G(n+1, k), G(n, k), it made 13,018.
    The exact J2 congruence at n = 27 makes 418 with its right side summed
    first, and would make 612 with it last.  whipple at n = 99 makes 483
    with its right side summed first, and 567 with it last; a3 at n = 25
    makes 632 with its right side in ascending WZ index, and 782 in its own
    order."""
    from qpiverify.congruences import verify_intro
    from qpiverify.qseries import WzPairId
    from qpiverify.wz import IdentityId, check_identity

    calls = []
    multiply = Packing.bracket_mul

    def counting(self, v, m):
        calls.append(m)
        return multiply(self, v, m)

    monkeypatch.setattr(Packing, "bracket_mul", counting)
    _sum_terms_digest(monkeypatch)
    assert 0 < len(calls) <= 12_800
    calls.clear()
    assert verify_intro(WzPairId.PAIR_J2, 27, path="exact").passed
    assert 0 < len(calls) <= 480
    calls.clear()
    assert check_identity(IdentityId.ID_WHIPPLE, 99).passed
    assert 0 < len(calls) <= 520
    calls.clear()
    assert check_identity(IdentityId.ID_A3, 25).passed
    assert 0 < len(calls) <= 680
