import random
from fractions import Fraction

import pytest

from qpiverify.congruences import (
    GcdNotCoprime,
    ModulusKind,
    NonInvertibleDenominator,
    _monic_int,
    _residue,
    check_square_completion,
    congruent_zero,
    euler_number,
    is_prime,
    is_prime_power,
    legendre_symbol,
    modulus_build,
    verify_intro,
    verify_modsun,
    verify_sun,
)
from qpiverify.factored import BracketProduct, negated
from qpiverify.polys import Poly, content_split, cyclotomic
from qpiverify.qseries import SeriesId, partial_sum, series_factors, sun_closed_form, wz_term_factors
from qpiverify.ratfunc import RatFunc
from qpiverify.wz import WzPairId


def test_modulus_build_examples():
    ctx = modulus_build(3, ModulusKind.PHI_SQUARED)
    assert Poly(ctx.coeffs) == Poly([1, 2, 3, 2, 1])
    assert ctx.factor_mults == ((3, 2),)
    # [3] Phi_3 coincides with Phi_3^2 for the prime 3.
    assert Poly(modulus_build(3, ModulusKind.N_PHI).coeffs) == Poly([1, 2, 3, 2, 1])
    # [9] Phi_9 = Phi_3 Phi_9^2, degree 14.
    ctx9 = modulus_build(9, ModulusKind.N_PHI)
    assert Poly(ctx9.coeffs) == cyclotomic(3) * cyclotomic(9) ** 2
    assert Poly(ctx9.coeffs).degree == 14
    assert ctx9.factor_mults == ((3, 1), (9, 2))
    assert Poly(modulus_build(1, ModulusKind.N_PHI).coeffs) == cyclotomic(1)


def test_modulus_build_rejects_even():
    with pytest.raises(ValueError):
        modulus_build(4, ModulusKind.PHI_SQUARED)


def _residue_of(num, den, m):
    """num / den in Q[q]/(m) for rational polynomials: `_residue` of their
    integer parts modulo m's monic integer form, times their contents' ratio."""
    (a, N), (b, D) = content_split(num.coeffs), content_split(den.coeffs)
    return Poly(_residue(N, D, _monic_int(m))) * (a / b)


def _reduced(r, ctx):
    """The residue of a rational function in Q[q]/(modulus)."""
    return _residue_of(r.num, r.den, Poly(ctx.coeffs))


def test_mod_reduce_constant():
    ctx = modulus_build(3, ModulusKind.PHI_SQUARED)
    assert _reduced(RatFunc.one(), ctx) == Poly.one()


def test_mod_reduce_inverse_of_q():
    ctx = modulus_build(3, ModulusKind.PHI_SQUARED)
    r = _reduced(RatFunc.q_power(-1), ctx)
    assert r.degree <= 3
    assert (Poly.monomial(1, 1) * r % Poly(ctx.coeffs)) == Poly.one()


def test_mod_reduce_noninvertible():
    ctx = modulus_build(3, ModulusKind.PHI_SQUARED)
    with pytest.raises(NonInvertibleDenominator):
        _reduced(RatFunc(Poly([1]), Poly([1, 0, 0, -1])), ctx)  # 1/(1-q^3)


def test_mod_reduce_is_ring_homomorphism():
    rng = random.Random(31)
    ctx = modulus_build(5, ModulusKind.PHI_SQUARED)
    mod = Poly(ctx.coeffs)

    def rand_rf():
        num = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        den = Poly([1, rng.randint(-2, 2), rng.randint(-2, 2), 1])
        while not (poly_coprime(den, mod)):
            den = Poly([1, rng.randint(-2, 2), rng.randint(-2, 2), 1])
        return RatFunc(num, den)

    def poly_coprime(a, b):
        from qpiverify.polys import poly_gcd

        return a.is_zero() is False and poly_gcd(a, b).degree == 0

    for _ in range(40):
        a, b = rand_rf(), rand_rf()
        ra, rb = _reduced(a, ctx), _reduced(b, ctx)
        assert _reduced(a * b, ctx) == (ra * rb) % mod
        assert _reduced(a + b, ctx) == (ra + rb) % mod


def test_mod_reduce_inverse_contract():
    ctx = modulus_build(5, ModulusKind.PHI_SQUARED)
    d = RatFunc.from_poly(Poly([1, 1]))
    inv = _reduced(RatFunc.one() / d, ctx)
    direct = _reduced(d, ctx)
    assert (inv * direct % Poly(ctx.coeffs)) == Poly.one()


def test_congruent_zero_cases():
    phi3sq = cyclotomic(3) ** 2
    good = RatFunc(phi3sq, Poly([1, 1]) * Poly([1, 0, 1]))
    assert congruent_zero(good, phi3sq).passed
    bad = congruent_zero(RatFunc.one(), phi3sq)
    assert not bad.passed and bad.witness is not None
    with pytest.raises(GcdNotCoprime):
        congruent_zero(RatFunc(Poly([1]), cyclotomic(3)), cyclotomic(3))
    # Q[q]/(2q + 1) has no monic integer modulus, whether the check passes or not.
    with pytest.raises(ValueError):
        congruent_zero(RatFunc.from_poly(Poly([1, 2])), Poly([1, 2]))


def test_congruent_zero_ill_posed_message():
    phi3 = cyclotomic(3)
    r = RatFunc(Poly([1]), phi3 * Poly([1, 1]))
    with pytest.raises(GcdNotCoprime) as err:
        congruent_zero(r, phi3**2, label="case")
    assert str(err.value) == "case: denominator shares Poly('q^2 + q + 1') with the modulus"
    with pytest.raises(GcdNotCoprime) as err:
        congruent_zero(r, phi3 * 3)  # the gcd is monic whatever the modulus's scale
    assert str(err.value) == "congruent-zero: denominator shares Poly('q^2 + q + 1') with the modulus"


def test_congruent_zero_constant_modulus_and_zero_function_pass():
    r = RatFunc(Poly([Fraction(1, 3), 2]), Poly([5, 0, 1]))
    for m in (Poly([1]), Poly([7]), Poly([Fraction(2, 3)])):
        assert congruent_zero(r, m).passed
    for m in (cyclotomic(3) ** 2, cyclotomic(5) * 2, Poly([4])):
        result = congruent_zero(RatFunc.zero(), m)
        assert result.passed and result.witness is None


def test_monic_int_scales_through_the_content():
    """A modulus has a monic integer form exactly when its primitive part
    leads with +-1, whatever its rational scale and sign."""
    phi5 = cyclotomic(5)
    for scale in (1, -1, 3, Fraction(-2, 7)):
        assert _monic_int(phi5 * scale) == [1, 1, 1, 1, 1]
        assert _monic_int(Poly([3, -3]) * scale) == [-1, 1]
        assert _monic_int(Poly([scale])) == [1]
    for m in (Poly([1, 2]), Poly([2, 4]), Poly([Fraction(1, 2), 1]), Poly([1, 0, -3])):
        with pytest.raises(ValueError, match="has no integral monic form"):
            _monic_int(m)


def test_modsun_small_cases_and_witness_shape():
    assert verify_modsun(1).passed
    assert verify_modsun(3).passed
    # Hand-verified n = 3 reduction: q * S + 1 = Phi_3^2 / ((1+q)(1+q^2)).
    s = partial_sum(SeriesId.SUN_LHS, 3, 1)
    lhs = RatFunc.q_power(1) * s + RatFunc.one()
    assert lhs == RatFunc(cyclotomic(3) ** 2, Poly([1, 1]) * Poly([1, 0, 1]))


def test_modsun_paths_agree():
    for n in range(1, 26, 2):
        assert verify_modsun(n, path="modular").passed
        assert verify_modsun(n, path="exact").passed


def test_modsun_rejects_even():
    with pytest.raises(ValueError):
        verify_modsun(4)
    with pytest.raises(ValueError):
        verify_modsun(3, path="bogus")


def test_verify_intro_small():
    assert verify_intro(WzPairId.PAIR_J2, 1).passed
    assert verify_intro(WzPairId.PAIR_J2, 3).passed
    assert verify_intro(WzPairId.PAIR_J2, 9).passed  # composite, exact path
    assert verify_intro(WzPairId.PAIR_L2, 3).passed
    assert verify_intro(WzPairId.PAIR_L2, 9).passed


def test_verify_intro_path_agreement():
    for n in (3, 5, 7, 11, 13):
        m = verify_intro(WzPairId.PAIR_J2, n, path="modular")
        e = verify_intro(WzPairId.PAIR_J2, n, path="exact")
        assert m.passed and e.passed
        assert m.witness is None and e.witness is None


def test_verify_intro_validation():
    with pytest.raises(ValueError):
        verify_intro(WzPairId.PAIR_J2, 4)
    with pytest.raises(ValueError):
        verify_intro(WzPairId.PAIR_L2, 15)  # not a prime power
    # exploratory mode evaluates it anyway and returns a verdict
    result = verify_intro(WzPairId.PAIR_L2, 15, exploratory=True)
    assert result.case_label.startswith("intro L2 n=15")


def test_exact_path_limit(monkeypatch):
    import qpiverify.congruences as congruences
    from qpiverify.congruences import ExactPathLimit

    with monkeypatch.context() as patched:
        patched.setattr(congruences, "DEFAULT_EXACT_LIMIT", 27)
        with pytest.raises(ExactPathLimit):
            verify_intro(WzPairId.PAIR_J2, 33)
    assert verify_intro(WzPairId.PAIR_J2, 33).passed  # the default limit is 99
    with pytest.raises(ExactPathLimit):
        verify_intro(WzPairId.PAIR_J2, 101, path="exact")
    # Both path checks raise before any term is built.
    built = []
    monkeypatch.setattr(congruences, "wz_term_factors", lambda *args: built.append(args))
    with pytest.raises(ExactPathLimit):
        verify_intro(WzPairId.PAIR_J2, 101, path="exact")
    with pytest.raises(NonInvertibleDenominator):
        verify_intro(WzPairId.PAIR_J2, 33, path="modular")
    assert not built


def test_euler_numbers():
    assert [euler_number(m) for m in range(0, 11, 2)] == [1, -1, 5, -61, 1385, -50521]
    assert euler_number(3) == 0
    with pytest.raises(ValueError):
        euler_number(-2)


def test_legendre_symbol_examples():
    assert legendre_symbol(1, 7) == 1
    assert legendre_symbol(2, 5) == -1
    assert legendre_symbol(-1, 5) == 1
    assert legendre_symbol(10, 5) == 0
    with pytest.raises(ValueError):
        legendre_symbol(2, 9)


def test_legendre_symbol_against_square_counting():
    for p in (3, 5, 7, 11, 13):
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(1, p):
            expected = 1 if a % p in squares else -1
            assert legendre_symbol(a, p) == expected, (a, p)


def test_verify_sun_p5_witness():
    witness, result = verify_sun(5)
    assert witness.difference == Fraction(-125, 32)
    assert witness.valuation == 3
    assert result.passed
    # Requiring one more power of 5 must fail: the valuation is exactly 3.
    _, strict = verify_sun(5, min_valuation=4)
    assert not strict.passed


def test_verify_sun_small_primes():
    for p in (7, 11, 13):
        witness, result = verify_sun(p)
        assert result.passed, (p, witness)


def test_verify_sun_rejects_p_in_denominator(monkeypatch):
    import qpiverify.congruences as congruences

    # A closed form whose denominator carries p makes the valuation meaningless.
    monkeypatch.setattr(congruences, "euler_number", lambda m: Fraction(1, 7**3))
    with pytest.raises(ArithmeticError):
        verify_sun(7)


def test_verify_sun_validation():
    with pytest.raises(ValueError):
        verify_sun(4)
    with pytest.raises(ValueError):
        verify_sun(3)


def test_prime_helpers():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime_power(27) and is_prime_power(25) and is_prime_power(7)
    assert not is_prime_power(1) and not is_prime_power(15) and not is_prime_power(45)
    # Brute-force oracle over the prime divisors found by scanning.
    for n in range(-3, 301):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % r for r in range(2, p))]
        assert is_prime(n) == (primes == [n]), n
        assert is_prime_power(n) == (len(primes) == 1), n


def test_square_completion_small():
    assert all(check_square_completion(n, j) for n in range(1, 13) for j in range(1, n + 1))


def test_failing_congruence_witnesses_agree_across_paths():
    """A deliberately wrong right side must fail on every route with the same
    congruence residue as witness: the modular and exact checks, and
    `congruent_zero` of the difference in lowest terms (`to_ratfunc`).  J2
    and L2 with the right side times q run at composite n, where the
    modular route does not."""
    from qpiverify.congruences import (
        ModulusKind,
        _check_congruence_exact,
        _check_congruence_modular,
        modulus_build,
    )
    from qpiverify.factored import sum_terms

    def lowest_terms(terms, rhs, ctx):
        return congruent_zero(sum_terms([negated(rhs), *terms]).to_ratfunc(), Poly(ctx.coeffs))

    wrong_rhs = (1, 0, [])  # the true right side is (-q)^((1-n^2)/8)
    for n in (7, 15, 21, 29, 45):
        ctx = modulus_build(n, ModulusKind.PHI_SQUARED)
        terms = series_factors(SeriesId.SUN_LHS, n, (n - 1) // 2)
        modular = _check_congruence_modular(terms, wrong_rhs, ctx, "wrong modular")
        exact = _check_congruence_exact(terms, wrong_rhs, ctx, "wrong exact")
        reduced = lowest_terms(terms, wrong_rhs, ctx)
        assert not modular.passed and not exact.passed and not reduced.passed
        assert modular.witness == exact.witness == reduced.witness
        assert modular.witness is not None and not modular.witness.is_zero()
    for case in ("J2", "L2"):
        for n in (9, 15):
            terms, rhs, ctx = _exact_case(case, n, rhs_shift=1)
            exact = _check_congruence_exact(terms, rhs, ctx, "shifted exact")
            reduced = lowest_terms(terms, rhs, ctx)
            assert not exact.passed and not reduced.passed
            assert exact.witness == reduced.witness
            assert exact.witness is not None and not exact.witness.is_zero()


def test_exact_path_ill_posed_raises():
    from qpiverify.congruences import ModulusKind, _check_congruence_exact, modulus_build

    ctx = modulus_build(3, ModulusKind.PHI_SQUARED)
    bad_term = (1, 0, [(3, 1, 1, -1)])  # 1/(1-q^3): pole at the modulus
    with pytest.raises(GcdNotCoprime):
        _check_congruence_exact([bad_term], (1, 0, []), ctx, "ill-posed")


def test_modular_path_ill_posed_raises():
    """A pole at the modulus on the right side, or in an extra leading term,
    is reported by the modular route's bracket scan."""
    import re

    from qpiverify.congruences import _check_congruence_modular

    n = 9
    ctx = modulus_build(n, ModulusKind.PHI_SQUARED)
    terms = series_factors(SeriesId.SUN_LHS, n, (n - 1) // 2)
    pole = (1, 0, [(n, 1, 1, -1)])
    message = re.escape("denominator bracket 1-q^9 shares the index-9 cyclotomic")
    with pytest.raises(NonInvertibleDenominator, match=message):
        _check_congruence_modular(terms, pole, ctx, "pole rhs")
    with pytest.raises(NonInvertibleDenominator, match=message):
        _check_congruence_modular([pole, *terms], sun_closed_form(n), ctx, "pole term")


def _exact_case(case, n, rhs_shift=0):
    """The terms, right side and modulus context of an exact-path check, with
    the right side times q**rhs_shift."""
    from qpiverify.qseries import parity_power

    if case == "modsun":
        terms = series_factors(SeriesId.SUN_LHS, n, (n - 1) // 2)
        coeff, shift, factors = sun_closed_form(n)
        ctx = modulus_build(n, ModulusKind.PHI_SQUARED)
    else:
        pair = WzPairId.PAIR_J2 if case == "J2" else WzPairId.PAIR_L2
        terms = [wz_term_factors(pair, "F", k, 0) for k in range(n)]
        e = (1 - n) // 2 if case == "J2" else -(n - 1) * (n + 5) // 8
        coeff, shift, factors = parity_power(e), e, [(n, 1, 1, 1), (1, 1, 1, -1)]
        ctx = modulus_build(n, ModulusKind.N_PHI)
    return terms, (coeff, shift + rhs_shift, factors), ctx


def _dense_cyclo_multiplicity(fs, d, need):
    """The count as made before the fold: the whole numerator reduced by the
    expanded (q**d - 1)**cap, then divided by Phi_d."""
    from qpiverify.factored import divide_out_cyclotomic
    from qpiverify.polys import expand_bracket_powers, list_mod_monic, list_scale

    pref = sum(e for m, e in fs.prefactor.exps if m % d == 0)
    if fs.is_zero():
        return need
    cap = max(0, need - pref)
    fold = list_scale(expand_bracket_powers({d: cap}), (-1) ** cap)
    count, _ = divide_out_cyclotomic(list_mod_monic(fs.num, fold), d, cap)
    return need if count >= cap else pref + count


_COMPOSITES_TO_45 = [9, 15, 21, 25, 27, 33, 35, 39, 45]


@pytest.mark.parametrize(
    "case, n",
    [("J2", n) for n in _COMPOSITES_TO_45]
    + [("L2", n) for n in _COMPOSITES_TO_45]
    + [("modsun", n) for n in (9, 15, 21)],
)
def test_cyclo_multiplicity_matches_the_dense_count(case, n):
    """Counting on the numerator, and on its fold by (q^n - 1)^K, agrees with
    the dense count, at the modulus' multiplicities and three above them."""
    from qpiverify.factored import FactoredSum, sum_terms, u_fold

    terms, rhs, ctx = _exact_case(case, n)
    fs = sum_terms([negated(rhs), *terms])
    pref = fs.prefactor.cyclo_mults()
    for extra in (0, 3):
        needs = {d: mult + extra for d, mult in ctx.factor_mults}
        fold = max(need - pref.get(d, 0) for d, need in needs.items())
        folded = FactoredSum(fs.prefactor, u_fold(fs.num, n, fold))
        for d, need in needs.items():
            want = _dense_cyclo_multiplicity(fs, d, need)
            assert fs.cyclo_multiplicity(d, need) == want, (d, need)
            assert folded.cyclo_multiplicity(d, need) == want, (d, need)


#: Witnesses of the exact route for the right side times q, as the route
#: gave them when it reduced the whole difference to lowest terms.
_SHIFTED_RHS_WITNESSES = [
    (
        "J2",
        21,
        "q^29 + q^26 + q^25 + q^23 + q^22 + q^20 + q^19 + q^18 + q^17 + q^16 + q^15"
        " + q^14 + q^13 + q^12 + q^11 + q^10 + q^9 + q^7 + q^6 + q^3 + 1",
    ),
    ("J2", 27, "q^41 - q^14"),
    ("L2", 27, "-q^31 + q^4"),
    (
        "J2",
        45,
        "q^67 + q^66 + q^59 + q^58 + q^57 + q^53 + q^52 + q^51 + q^50 + q^49 + q^48"
        " + q^44 + q^43 + q^42 + q^41 + q^40 + q^39 + q^38 + q^37 + q^36 + q^35"
        " + q^34 + q^33 + q^32 + q^31 + q^30 + q^29 + q^28 + q^27 + q^26 + q^25"
        " + q^24 + q^23 + q^20 + q^19 + q^18 + q^17 + q^16 + q^15 + q^11 + q^10"
        " + q^9 + q^2 + q + 1",
    ),
]


@pytest.mark.parametrize(
    "case, n, witness", _SHIFTED_RHS_WITNESSES, ids=[f"{c}-{n}" for c, n, _ in _SHIFTED_RHS_WITNESSES]
)
def test_exact_witnesses_pinned(case, n, witness):
    from qpiverify.congruences import _check_congruence_exact

    terms, rhs, ctx = _exact_case(case, n, rhs_shift=1)
    result = _check_congruence_exact(terms, rhs, ctx, "shifted exact")
    assert not result.passed
    assert str(result.witness) == witness


@pytest.mark.parametrize("case, n, rhs_shift", [("J2", 27, 0), ("modsun", 15, 0), ("J2", 27, 1)])
def test_exact_check_is_one_fold(case, n, rhs_shift, monkeypatch):
    """The exact route folds the whole numerator once, by (q^n - 1)^K, and
    no remainder on a pass or a failure walks a list as long as it."""
    import qpiverify.congruences as congruences
    import qpiverify.factored as factored

    sums, folds, mods = [], [], []
    summed, folded, reduced = congruences.sum_terms, factored.u_fold, factored.list_mod_monic

    def sum_counted(terms):
        sums.append(summed(terms))
        return sums[-1]

    def fold_counted(c, m, k):
        folds.append((c is sums[0].num, m))
        return folded(c, m, k)

    def mod_counted(c, d):
        mods.append(len(c))
        return reduced(c, d)

    monkeypatch.setattr(congruences, "sum_terms", sum_counted)
    for module in (congruences, factored):
        monkeypatch.setattr(module, "u_fold", fold_counted)
        monkeypatch.setattr(module, "list_mod_monic", mod_counted)
    terms, rhs, ctx = _exact_case(case, n, rhs_shift)
    result = congruences._check_congruence_exact(terms, rhs, ctx, "counted")
    assert result.passed == (rhs_shift == 0)
    [fs] = sums
    assert [m for whole, m in folds if whole] == [n]
    assert max(mods, default=0) < len(fs.num)


@pytest.mark.parametrize("case", ["modsun", "J2"])
def test_modular_check_is_one_walk(case, monkeypatch):
    """The modular route sums the terms as built and the right side in one
    `sum_terms_mod` walk, on the list [-rhs, *terms]; the terms go in as
    factor lists, which normalize to the summands."""
    import qpiverify.congruences as congruences
    from qpiverify.qseries import parity_power, summand_brackets
    from qpiverify.wz import wz_term_brackets

    calls = []
    walk = congruences.sum_terms_mod

    def counted(terms, mod, n):
        calls.append(list(terms))
        return walk(terms, mod, n)

    monkeypatch.setattr(congruences, "sum_terms_mod", counted)
    if case == "modsun":
        n = 15
        result = verify_modsun(n, path="modular")
        e = (1 - n * n) // 8
        want = [BracketProduct.make(-parity_power(e), e)]
        want += [summand_brackets(SeriesId.SUN_LHS, None, k) for k in range((n + 1) // 2)]
        assert len(want) == 9
    else:
        n, e = 11, -5
        result = verify_intro(WzPairId.PAIR_J2, n, path="modular")
        rhs = BracketProduct.from_pochhammers(-parity_power(e), e, [(n, 1, 1, 1), (1, 1, 1, -1)])
        want = [rhs, *(wz_term_brackets(WzPairId.PAIR_J2, "F", k, 0) for k in range(n))]
        assert len(want) == 12
    assert result.passed
    [walked] = calls
    assert [BracketProduct.from_pochhammers(*t) for t in walked] == want


@pytest.mark.parametrize("case, n", [("J2", 97), ("modsun", 99)])
def test_modular_check_normalizes_no_term(case, n, monkeypatch):
    """The modular route hands `sum_terms_mod` factor lists, the right
    side's included, and reads each term ratio off them, so
    `BracketProduct.make` never runs."""
    made = []
    make = BracketProduct.make

    def counted(*args, **kwargs):
        made.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(BracketProduct, "make", staticmethod(counted))
    if case == "J2":
        result = verify_intro(WzPairId.PAIR_J2, n, path="modular")
    else:
        result = verify_modsun(n, path="modular")
    assert result.passed
    assert not made


def test_exact_check_normalizes_no_term(monkeypatch):
    """The exact route reads each term off the same factor-list changes as
    the modular walk, so each `sum_terms` call makes one
    `BracketProduct.make` call, its prefactor's, and no `from_pochhammers`
    call."""
    from qpiverify import congruences, factored, wz
    from qpiverify.wz import IdentityId, check_identity

    made, per_call = [], []
    make, from_pochhammers = BracketProduct.make, BracketProduct.from_pochhammers

    def counted_make(*args, **kwargs):
        made.append("make")
        return make(*args, **kwargs)

    def counted_from_pochhammers(*args):
        made.append("from_pochhammers")
        return from_pochhammers(*args)

    def counted_sum_terms(terms):
        start = len(made)
        out = factored.sum_terms(terms)
        per_call.append(made[start:])
        return out

    monkeypatch.setattr(BracketProduct, "make", staticmethod(counted_make))
    monkeypatch.setattr(BracketProduct, "from_pochhammers", staticmethod(counted_from_pochhammers))
    for module in (congruences, wz):
        monkeypatch.setattr(module, "sum_terms", counted_sum_terms)
    assert verify_intro(WzPairId.PAIR_J2, 27, path="exact").passed
    assert check_identity(IdentityId.ID_A2, 20).passed
    assert len(per_call) == 2 and all(calls == ["make"] for calls in per_call)


def test_unsplit_j2_terms_keep_their_numerator_brackets_out_of_d():
    """At p = 7 the J2 summand at k = 1 carries [7] = (1 - q^7)/(1 - q),
    which the next summand lacks; the walk passes it into A, so no bracket
    of D is divisible by 7 and the modulus [7] Phi_7 stays coprime to D."""
    from qpiverify.factored import sum_terms_mod
    from qpiverify.wz import wz_term_brackets

    n = 7
    ctx = modulus_build(n, ModulusKind.N_PHI)
    terms = [wz_term_factors(WzPairId.PAIR_J2, "F", k, 0) for k in range(n)]
    assert any(m == 7 and e > 0 for m, e in wz_term_brackets(WzPairId.PAIR_J2, "F", 1, 0).exps)
    _, _, den_brackets = sum_terms_mod(terms, ctx.coeffs, n)
    assert den_brackets and all(m % n for m in den_brackets)


def _intro_split_terms(pair, n):
    """The intro terms with every [6k+1] split into two terms, as the
    modular path once received them.  `sum_terms_mod` must still give these
    lists bit-identical residues, so the pins below keep them as inputs: the
    summand F(k, 0) / (1 - q^(6k+1)) and its negative times q^(6k+1)."""
    split = []
    for k in range(n):
        coeff, shift, factors = wz_term_factors(pair, "F", k, 0)
        factors = [*factors, (6 * k + 1, 1, 1, -1)]
        split += [(coeff, shift, factors), (-coeff, shift + 6 * k + 1, factors)]
    return split


#: sha256 of repr(sum_terms_mod(...)) for the terms and modulus of each sweep case.
_RESIDUE_DIGESTS = {
    ("modsun", 45): "12c77359ef8a11fbab0e6e30a99c38b1069c59bc614110ffc6e14f148bb842e3",
    ("modsun", 63): "016ced8177d5b86f77cce2240b18d12b1e37c371054f59667ba7adb66717908f",
    ("modsun", 99): "8cad98997648db412b5e7ead9a4cb31353973c1191d11c4e666ca4e9ea0260a3",
    ("J2", 31): "428d78c2face0111a0d148c28476173c7aa19685cb3ea764258b2d915243f146",
    ("J2", 53): "5196aec09c1789a6f1aaecc2b1346d988d287ad66d7692e3f787b7ec86506e3b",
    ("L2", 13): "76e1fc8ddece531393d3edb3c87328552ac2abf86cd404c36782cd397bdfe843",
    ("modsun", 97): "c4d6b2b36bf64d19638b545e6ddc12dacfa1148be2fafa000213a2033d1e1101",
    ("J2", 97): "c37b363da0ba36d13283453f0338909bece226b81041cd2206c1392b9e51e826",
    ("J2", 199): "16104a18648521fef0722c8119140c869292c83ebcebc4a16dde139a71449638",
    ("modsun", 499): "9ca2d083d0f61c256dd4974aa8e76572c2fa653add0afa93ca7a52e7c5403308",
    ("L2", 197): "b1a2bd33132802a58c8a4eeaad3cc544b6fd2443cd2509c82a0c7d71091bef70",
}


@pytest.mark.parametrize("case, n", list(_RESIDUE_DIGESTS))
def test_sum_terms_mod_residues_pinned(case, n):
    """The residues (A, D, den_brackets) of the congruence sweeps' modular
    accumulations must not change with the reduction strategy."""
    import hashlib

    from qpiverify.factored import sum_terms_mod

    if case == "modsun":
        ctx = modulus_build(n, ModulusKind.PHI_SQUARED)
        terms = series_factors(SeriesId.SUN_LHS, n, (n - 1) // 2)
    else:
        ctx = modulus_build(n, ModulusKind.N_PHI)
        pair = WzPairId.PAIR_J2 if case == "J2" else WzPairId.PAIR_L2
        terms = _intro_split_terms(pair, n)
    out = sum_terms_mod(terms, ctx.coeffs, n)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == _RESIDUE_DIGESTS[case, n]


@pytest.mark.parametrize("case, n", list(_RESIDUE_DIGESTS))
def test_sum_terms_mod_residues_pinned_from_a_narrow_start(case, n, monkeypatch):
    """Started at 8-bit slots, the modular walk widens where its checks ask,
    never overflows a slot, and gives the pinned residues.  A widening packs
    the state again, and the walk packs nothing else."""
    import qpiverify.factored as factored

    widths = []
    pack = factored.Packing.pack

    def recorded(self, c):
        widths.append(self.w)
        return pack(self, c)

    monkeypatch.setattr(factored, "_START_WIDTH", 8)
    monkeypatch.setattr(factored.Packing, "pack", recorded)
    test_sum_terms_mod_residues_pinned(case, n)
    assert widths and min(widths) > 8


#: sha256 of repr(sum_terms_mod(...)) for the unsplit intro terms F(k, 0),
#: k < p, modulo Phi_p^2, where the walk widens its slots several times.
_PHI_SQUARED_DIGESTS = {
    ("J2", 199): "674efe40f816a95c6ee8a2a9499d033a27ef36ff930b3a05b7dbdd881f16d486",
    ("L2", 197): "d2b1f5c496c98c42ab968aeac5d8df1b680ef2b430502af51060edc017897be7",
}


@pytest.mark.parametrize("case, n", list(_PHI_SQUARED_DIGESTS))
def test_sum_terms_mod_residues_pinned_modulo_phi_squared(case, n):
    import hashlib

    from qpiverify.factored import sum_terms_mod

    pair = WzPairId.PAIR_J2 if case == "J2" else WzPairId.PAIR_L2
    terms = [wz_term_factors(pair, "F", k, 0) for k in range(n)]
    out = sum_terms_mod(terms, modulus_build(n, ModulusKind.PHI_SQUARED).coeffs, n)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == _PHI_SQUARED_DIGESTS[case, n]


#: sha256 of repr(sum_terms_mod(...)) on the modular route's own walk,
#: [-rhs, *terms], pinned from the terms as normalized products.
_WALK_DIGESTS = {
    ("J2", 199): "3d6a8b597d1196dfcc71157203b7534e8f76e2c05c40348fdd98f137793e3571",
    ("modsun", 499): "8f2f0c79ee0dc08ecb7b45941e61facb7f1b57b13c86e33c9eee0170f8dce557",
    ("L2", 197): "b40061e0fad360337880a76ea76c2a912eadaaa8d28051b6d735935d28d3aa13",
}


@pytest.mark.parametrize("case, n", list(_WALK_DIGESTS))
def test_modular_walk_on_factor_lists_pinned(case, n, monkeypatch):
    """The walk of `verify_intro` and `verify_modsun`, on the factor lists
    they pass, gives the residues pinned from normalized products."""
    import hashlib

    import qpiverify.congruences as congruences

    outs = []
    walk = congruences.sum_terms_mod

    def recorded(terms, mod, m):
        outs.append(walk(terms, mod, m))
        return outs[-1]

    monkeypatch.setattr(congruences, "sum_terms_mod", recorded)
    if case in ("J2", "L2"):
        pair = WzPairId.PAIR_J2 if case == "J2" else WzPairId.PAIR_L2
        result = verify_intro(pair, n, path="modular")
    else:
        result = verify_modsun(n, path="modular")
    assert result.passed
    [out] = outs
    assert hashlib.sha256(repr(out).encode()).hexdigest() == _WALK_DIGESTS[case, n]


_WRONG_RHS_WITNESSES = [
    # q^5 and -q^-7 shift the right side either way; 2q^3(1-q) carries a bracket.
    ("modsun", 7, (1, 5, []), "-q^8 - q^5 + 2q"),
    ("modsun", 7, (-1, -7, []), "-q^8 - q^7 + 2q + 2"),
    ("modsun", 9, (2, 3, [(1, 1, 1, 1)]), "-2q^11 - 5q^8 - 6q^5 + 2q^4 - 2q^3 - 4q^2"),
    ("J2", 5, (1, 0, [(5, 1, 1, 1), (1, 1, 1, -1)]), "q^7 + q^6 + q^5 - q^2 - q - 1"),
    ("L2", 5, (1, 0, [(5, 1, 1, 1), (1, 1, 1, -1)]), "-2q^4 - 2q^3 - 2q^2 - 2q - 2"),
    # Zero, two numerator brackets, a squared one, and a denominator other
    # than 1 - q.
    ("modsun", 7, (0, 0, []), "-q^8 + 2q"),
    (
        "modsun",
        9,
        (1, 0, [(9, 1, 1, 1), (3, 1, 1, 1), (1, 1, 1, -1)]),
        "-q^11 + q^10 + q^9 - 5q^8 - 6q^5 - 5q^2 - q - 1",
    ),
    ("J2", 7, (2, 3, [(7, 1, 1, 2), (1, 1, 1, -1)]), "-q^10 - q^9 - q^8 - q^7 - q^6 - q^5 - q^4"),
    ("L2", 5, (-1, -2, [(5, 1, 1, 1), (2, 1, 1, -1)]), "q^7 + 2q^6 + 2q^5 + 2q^4 + 2q^3 + q^2"),
]


#: sha256 of str(witness) on the modular route at n = 97, where the exact
#: route is out of reach: modsun with its right side negated, and J2 with its
#: right side times q^(2n + 1).
_WRONG_RHS_WITNESS_DIGESTS_97 = {
    "modsun": "8840b32d5499ac3bf79b806aebb83827ebbc0a8583fc7d9c0cce071ab8c9cf73",
    "J2": "0ce9f8b4c879fea6775972d6f2e980015b31516dde078cfdadba95edb5ee6b34",
}


@pytest.mark.parametrize("case", list(_WRONG_RHS_WITNESS_DIGESTS_97))
def test_wrong_rhs_witnesses_pinned_at_n97(case):
    import hashlib

    from qpiverify.congruences import _check_congruence_modular
    from qpiverify.qseries import parity_power

    n = 97
    if case == "modsun":
        ctx = modulus_build(n, ModulusKind.PHI_SQUARED)
        terms = series_factors(SeriesId.SUN_LHS, n, (n - 1) // 2)
        rhs = negated(sun_closed_form(n))
    else:
        ctx = modulus_build(n, ModulusKind.N_PHI)
        terms = _intro_split_terms(WzPairId.PAIR_J2, n)
        e = (1 - n) // 2
        rhs = parity_power(e), e + 2 * n + 1, [(n, 1, 1, 1), (1, 1, 1, -1)]
    result = _check_congruence_modular(terms, rhs, ctx, "wrong modular")
    assert not result.passed
    assert hashlib.sha256(str(result.witness).encode()).hexdigest() == _WRONG_RHS_WITNESS_DIGESTS_97[case]


@pytest.mark.parametrize("case, n, rhs, witness", _WRONG_RHS_WITNESSES)
def test_wrong_rhs_witnesses_pinned(case, n, rhs, witness):
    """Both routes report the same, pinned residue of sum - rhs for wrong
    right sides of every shape."""
    from qpiverify.congruences import _check_congruence_exact, _check_congruence_modular

    if case == "modsun":
        ctx = modulus_build(n, ModulusKind.PHI_SQUARED)
        terms = series_factors(SeriesId.SUN_LHS, n, (n - 1) // 2)
        split = terms
    else:
        ctx = modulus_build(n, ModulusKind.N_PHI)
        pair = WzPairId.PAIR_J2 if case == "J2" else WzPairId.PAIR_L2
        terms = [wz_term_factors(pair, "F", k, 0) for k in range(n)]
        split = _intro_split_terms(pair, n)
    modular = _check_congruence_modular(split, rhs, ctx, "wrong modular")
    exact = _check_congruence_exact(terms, rhs, ctx, "wrong exact")
    assert not modular.passed and not exact.passed
    assert str(modular.witness) == witness
    assert str(exact.witness) == witness


_SLOW_WITNESSES = [
    # congruent_zero on the SUN partial sum minus (true right side + q^(deg M - 1)).
    ("perturbed", 11, "-q^19"),
    ("perturbed", 17, "-q^31"),
    ("perturbed", 23, "-q^43"),
    # The modular route with the right side negated.
    (
        "negated",
        15,
        "-12q^15 + 16q^14 - 16q^12 + 28q^11 - 24q^10 - 4q^9 + 40q^8 - 36q^7"
        " + 8q^6 + 16q^5 - 24q^4 + 20q^3 + 6q^2 - 12q + 8",
    ),
    ("negated", 23, "-6q^26 + 8q^3"),
]


@pytest.mark.parametrize(
    "shape, n, witness", _SLOW_WITNESSES, ids=[f"{s}-{n}" for s, n, _ in _SLOW_WITNESSES]
)
def test_slow_witnesses_pinned(shape, n, witness):
    """Witnesses whose denominators are far from reduced: the residue must
    not depend on how the inverse of the denominator is found."""
    from qpiverify.congruences import _check_congruence_modular

    if shape == "perturbed":
        m = cyclotomic(n) ** 2
        e = (1 - n * n) // 8
        rhs = RatFunc.q_power(e) * (-1 if e % 2 else 1)
        rhs = rhs + RatFunc.from_poly(Poly.monomial(1, m.degree - 1))
        result = congruent_zero(partial_sum(SeriesId.SUN_LHS, n, (n - 1) // 2) - rhs, m)
    else:
        ctx = modulus_build(n, ModulusKind.PHI_SQUARED)
        terms = series_factors(SeriesId.SUN_LHS, n, (n - 1) // 2)
        result = _check_congruence_modular(terms, negated(sun_closed_form(n)), ctx, "negated")
    assert not result.passed
    assert str(result.witness) == witness


def test_residue_matches_extended_gcd_oracle():
    """_residue agrees with (num * s) % M for the Bezout cofactor s of den."""
    from qpiverify.polys import poly_gcd, poly_gcd_ext

    rng = random.Random(17)

    def rand_poly(deg):
        return Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg + 1)])

    moduli = [
        Poly(modulus_build(5, ModulusKind.PHI_SQUARED).coeffs),
        Poly(modulus_build(9, ModulusKind.N_PHI).coeffs),
        Poly(modulus_build(15, ModulusKind.N_PHI).coeffs),
        Poly([-1, 0, 0, 0, 0, 0, 0, 1]) ** 3,
    ]
    checked = 0
    for m in moduli:
        for _ in range(6):
            num = rand_poly(rng.randint(0, 2 * m.degree)) * Poly.monomial(1, rng.randint(0, 5))
            den = rand_poly(rng.randint(1, m.degree + 4)) * Poly.monomial(1, rng.randint(0, 5))
            if den.is_zero() or poly_gcd(den, m).degree > 0:
                continue
            _, s, _ = poly_gcd_ext(den, m)
            scaled = m * rng.choice((1, -2, Fraction(3, 7)))
            assert _residue_of(num, den, scaled) == (num * s) % m
            checked += 1
    assert checked >= 20


def test_residue_planted_cases():
    import re

    from qpiverify.polys import list_inv_mod_p, poly_gcd_ext

    # D = q + p - 2 reduces to the constant p modulo q - 2, so the first prime
    # of the sequence cannot invert it and the next one must.
    p = 2**31 - 1
    m, den = Poly([-2, 1]), Poly([p - 2, 1])
    assert list_inv_mod_p([p], [-2, 1], p) is None
    assert _residue_of(Poly([3, 1]), den, m) == Poly([Fraction(5, p)])
    # A shared factor is reported as the monic gcd.
    m15 = Poly(modulus_build(15, ModulusKind.N_PHI).coeffs)
    den = cyclotomic(5) * Poly([2, 1]) * Fraction(1, 3)
    g = poly_gcd_ext(den, m15)[0]
    with pytest.raises(
        NonInvertibleDenominator,
        match=re.escape(f"denominator shares the factor {g!r} with the modulus"),
    ):
        _residue_of(Poly([1]), den, m15)
    # Q[q]/(2q + 1) has no monic integer modulus.
    with pytest.raises(ValueError):
        _residue_of(Poly([1]), Poly([1, 1]), Poly([1, 2]))
    assert _residue_of(Poly(), Poly([2, 1]), m15) == Poly()
    # A constant modulus leaves the zero ring, where every residue is 0.
    assert _residue_of(Poly([1]), Poly([1, 1]), Poly([3])) == Poly()


def test_negated_rhs_fails_on_modular_route_at_n97():
    """A negated right side at n = 97 fails on the modular route with a
    witness W such that den * W == num (mod M) for the route's num / den."""
    from qpiverify.congruences import _check_congruence_modular
    from qpiverify.factored import sum_terms_mod

    n = 97
    ctx = modulus_build(n, ModulusKind.PHI_SQUARED)
    terms = series_factors(SeriesId.SUN_LHS, n, (n - 1) // 2)
    rhs = negated(sun_closed_form(n))
    result = _check_congruence_modular(terms, rhs, ctx, "negated")
    assert not result.passed
    w, m = result.witness.num, Poly(ctx.coeffs)
    assert result.witness.den == Poly.one() and w.degree < m.degree
    acc, den, _ = sum_terms_mod(terms, ctx.coeffs, n)
    rhs_acc, rhs_den, _ = sum_terms_mod([rhs], ctx.coeffs, n)
    num = Poly(acc) * Poly(rhs_den) - Poly(rhs_acc) * Poly(den)
    assert not (num % m).is_zero()
    assert ((Poly(den) * Poly(rhs_den) * w - num) % m).is_zero()
