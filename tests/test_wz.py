import hashlib
from fractions import Fraction

import pytest

from qpiverify.factored import BracketProduct, negated, sum_terms
from qpiverify.polys import Poly
from qpiverify.qseries import SeriesId, summand, summand_brackets, summand_factors, wz_term_factors
from qpiverify.ratfunc import RatFunc
from qpiverify.wz import (
    CheckResult,
    IdentityId,
    WzPairId,
    check_identity,
    check_telescoping,
    identity_terms,
    wz_term,
    wz_term_brackets,
)


def _value(t):
    """A factor list's value as a reduced rational function."""
    return BracketProduct.from_pochhammers(*t).to_ratfunc()


def test_wz_term_base_cases():
    assert wz_term(WzPairId.PAIR_J2, "F", 0, 0) == RatFunc.one()
    assert wz_term(WzPairId.PAIR_J2, "G", 1, 1) == RatFunc.one()
    assert wz_term(WzPairId.PAIR_L2, "F", 0, 0) == RatFunc.one()
    assert wz_term(WzPairId.PAIR_L2, "G", 1, 1) == RatFunc.one()


def test_wz_term_zero_convention():
    # Denominator (q^4;q^4)_{-1} forces an exact zero.
    assert wz_term(WzPairId.PAIR_J2, "F", 0, 1).is_zero()
    assert wz_term(WzPairId.PAIR_J2, "G", 0, 1).is_zero()
    assert wz_term(WzPairId.PAIR_L2, "F", 2, 3).is_zero()
    assert wz_term(WzPairId.PAIR_L2, "G", 0, 2).is_zero()


def test_wz_f_at_k0_matches_series_summands():
    for n in range(0, 8):
        assert wz_term(WzPairId.PAIR_J2, "F", n, 0) == summand(SeriesId.J2_LHS, None, n)
    # For the second pair, F(n, 0) is the alternating sum's term without the
    # q^(3k^2) weight; check it against a direct evaluation.
    x = Fraction(4, 3)
    for n in range(0, 8):
        val = wz_term(WzPairId.PAIR_L2, "F", n, 0).evaluate(x)
        weight = summand(SeriesId.L2_LHS, None, n).evaluate(x)
        assert val == weight / x ** (3 * n * n)


def test_g_terms_match_rhs_summands():
    # The right-hand summands of the finite identities are exactly G(n, k).
    for n in range(1, 6):
        for k in range(1, n + 1):
            assert wz_term(WzPairId.PAIR_J2, "G", n, k) == summand(SeriesId.A2_RHS, n, k)
            assert wz_term(WzPairId.PAIR_L2, "G", n, k) == summand(SeriesId.SECOND_RHS, n, k)


def test_telescoping_certificate_small_grid_direct_oracle():
    """The engine verdict must agree with plain RatFunc arithmetic."""
    for pair in WzPairId:
        for n in range(0, 5):
            for k in range(1, n + 3):
                direct = (
                    wz_term(pair, "F", n, k - 1)
                    - wz_term(pair, "F", n, k)
                    - wz_term(pair, "G", n + 1, k)
                    + wz_term(pair, "G", n, k)
                )
                result = check_telescoping(pair, n, k)
                assert result.passed == direct.is_zero()
                assert result.passed, (pair, n, k)


def test_telescoping_hand_case():
    # F(0,0) - F(0,1) = 1 and G(1,1) - G(0,1) = 1.
    r = check_telescoping(WzPairId.PAIR_J2, 0, 1)
    assert r.passed and r.witness is None


def test_telescoping_requires_positive_k():
    with pytest.raises(ValueError):
        check_telescoping(WzPairId.PAIR_J2, 2, 0)


def test_check_identity_against_ratfunc_sums():
    for ident in (IdentityId.ID_A2, IdentityId.ID_A3, IdentityId.ID_SECOND, IdentityId.ID_SECOND2):
        for n in range(1, 5):
            lhs_terms, rhs_terms = identity_terms(ident, n)
            lhs = RatFunc.zero()
            for t in lhs_terms:
                lhs = lhs + _value(t)
            rhs = RatFunc.zero()
            for t in rhs_terms:
                rhs = rhs + _value(t)
            assert lhs == rhs, (ident, n)
            assert check_identity(ident, n).passed


def test_a2_at_n1_reads_one_equals_one():
    lhs_terms, rhs_terms = identity_terms(IdentityId.ID_A2, 1)
    assert [_value(t) for t in lhs_terms] == [RatFunc.one()]
    assert [_value(t) for t in rhs_terms] == [RatFunc.one()]


def test_whipple_n3_both_sides_are_minus_q_inverse():
    lhs_terms, rhs_terms = identity_terms(IdentityId.ID_WHIPPLE, 3)
    lhs = RatFunc.zero()
    for t in lhs_terms:
        lhs = lhs + _value(t)
    minus_q_inv = RatFunc(Poly([-1]), Poly([0, 1]))
    assert lhs == minus_q_inv
    assert _value(rhs_terms[0]) == minus_q_inv
    assert check_identity(IdentityId.ID_WHIPPLE, 3).passed


def test_whipple_rejects_even_n():
    with pytest.raises(ValueError):
        check_identity(IdentityId.ID_WHIPPLE, 4)


def test_a2_a3_right_sides_agree():
    """Index reversal k -> n-k is an exact bijection between the right sides."""
    for n in range(1, 16):
        rhs_a2 = [summand_factors(SeriesId.A2_RHS, n, k) for k in range(1, n + 1)]
        rhs_a3 = [summand_factors(SeriesId.A3_RHS, n, k) for k in range(n)]
        diff = sum_terms(rhs_a2 + [negated(t) for t in rhs_a3])
        assert diff.is_zero(), n


def test_second_vs_second2_under_q_inversion():
    """The right side of the reversed identity is the q -> 1/q image of the
    original right side: the same sum after substituting and clearing shifts.
    At q -> 1/q, c q^s prod (1 - q^m)^e is c q^-s prod (1 - q^-m)^e."""
    for n in range(1, 11):
        transformed = []
        for k in range(1, n + 1):
            bp = summand_brackets(SeriesId.SECOND_RHS, n, k)
            transformed.append((bp.coeff, -bp.shift, [(-m, 1, 1, e) for m, e in bp.exps]))
        target = [summand_factors(SeriesId.SECOND2_RHS, n, k) for k in range(n)]
        diff = sum_terms(transformed + [negated(t) for t in target])
        assert diff.is_zero(), n


def test_certificate_sum_reproduces_the_finite_identity():
    """Summing F(n,0) over n < m equals the row sum of G(m, k)."""
    for m in range(1, 16):
        lhs = [wz_term_factors(WzPairId.PAIR_J2, "F", n, 0) for n in range(m)]
        rhs = [wz_term_factors(WzPairId.PAIR_J2, "G", m, k) for k in range(1, m + 1)]
        assert sum_terms(lhs + [negated(t) for t in rhs]).is_zero(), m


def test_check_result_invariant():
    with pytest.raises(ValueError):
        CheckResult(True, "bad", witness=RatFunc.one())
    CheckResult(True, "ok", witness=RatFunc.zero())
    CheckResult(False, "fine", witness=RatFunc.one())


def test_telescoping_degenerates_consistently_out_of_support():
    # Far outside the support every term is zero, and 0 = 0 passes.
    for pair in WzPairId:
        for which in ("F", "G"):
            assert wz_term_brackets(pair, which, 0, 5).coeff == 0
        result = check_telescoping(pair, 0, 5)
        assert result.passed and result.witness is None


#: sha256 of repr([wz_term_brackets(pair, which, n, k)]) over 0 <= n <= 25 and
#: -n-3 <= k <= n+3: in-range cells, both sides of the support, and the
#: negative-length (q;q^2)_(n+k) of the second pair.
_WZ_TERM_DIGESTS = {
    (WzPairId.PAIR_J2, "F"): "0b2518b7ba76eb78d9bcfe3e70a75ba751d11098b65cfb4ffe199920404a0cc6",
    (WzPairId.PAIR_J2, "G"): "92ee17ed1bf367aaeeb89bda8892b34cfe1e37c238a700a5912483cb2e003615",
    (WzPairId.PAIR_L2, "F"): "34147e395a91ea04ba16d5fada387092e5bf6ec172ea455e497eecd8b9153a3b",
    (WzPairId.PAIR_L2, "G"): "4d0dbb8810b27781778032ecec8f65329fd58ef11e9c4a203e90ebf28859b7a3",
}


def test_wz_terms_pinned():
    """Every F and G must stay the same canonical BracketProduct, however the
    pairs are assembled."""
    cells = [(n, k) for n in range(26) for k in range(-n - 3, n + 4)]
    for (pair, which), digest in _WZ_TERM_DIGESTS.items():
        text = repr([wz_term_brackets(pair, which, n, k) for n, k in cells])
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (pair, which)


#: sha256 of str(witness) of each identity with its right side times q, two
#: small n each.  a2 and a3 share theirs: their right sides are equal.
_SHIFTED_WITNESS_DIGESTS = {
    ("a2", 5): "84f0e9e67a6a65aaef118601fee42c07af9d21f371fd7c28b8f255dc1ab3c4cb",
    ("a2", 8): "13a46f8079482aaa349b35ea377978fe4fb0a43c79c09ca96d65695b08b4053a",
    ("a3", 5): "84f0e9e67a6a65aaef118601fee42c07af9d21f371fd7c28b8f255dc1ab3c4cb",
    ("a3", 8): "13a46f8079482aaa349b35ea377978fe4fb0a43c79c09ca96d65695b08b4053a",
    ("second", 5): "ce314d3994b85c3a93c8f4cb6aeb325f9ef8aaf8e377d42e177350e36120dd6d",
    ("second", 8): "5a7fe28213104e6a8019ae8d0395c1fbc768f6ffe68346834021613aab5e3d63",
    ("second2", 5): "3b57d793c63256324e314fb60c7c804e1a0fde9a62d8965bd605a532240bf599",
    ("second2", 8): "03ec87c6fa87226e21be09ee2e41b82e89c294749c79bed87805c61d35b7520f",
    ("whipple", 7): "dba22ce3088dd83519b83dfe953b1bba9a24ec455eec96c1d2e0dae4e67462f7",
    ("whipple", 15): "0a071d1d9129852592d6f19b2d4be4449c59d338c1689eb6dcd95c6bb3e4c8d1",
}


@pytest.mark.parametrize("name, n", list(_SHIFTED_WITNESS_DIGESTS))
def test_failing_identity_witnesses_pinned(name, n, monkeypatch):
    """A failing identity keeps its witness, whatever order `check_identity`
    sums its terms in."""
    import qpiverify.wz as wz

    terms = wz.identity_terms

    def shifted(ident, n):
        lhs, rhs = terms(ident, n)
        return lhs, [(c, s + 1, f) for c, s, f in rhs]

    monkeypatch.setattr(wz, "identity_terms", shifted)
    result = check_identity(IdentityId(name), n)
    assert not result.passed
    assert hashlib.sha256(str(result.witness).encode()).hexdigest() == _SHIFTED_WITNESS_DIGESTS[name, n]
