"""Acceptance suite: every criterion at its stated range and tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  The exact checks assert literal zero (or exact divisibility); the
numeric checks use the stated decimal tolerances.
"""
from fractions import Fraction

import mpmath

from qpiverify.congruences import (
    check_square_completion,
    is_prime,
    verify_intro,
    verify_modsun,
    verify_sun,
)
from qpiverify.polys import cyclotomic_int, list_mod_monic
from qpiverify.numerics import (
    check_identity_numeric,
    classical_target,
    eval_classical,
    limit_scan,
    q_gamma,
    working_prec,
)
from qpiverify.wz import IdentityId, WzPairId, check_identity, check_telescoping

PRIMES_TO_97 = [p for p in range(3, 98) if is_prime(p)]


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_wz_certificates():
    ok = True
    for pair in WzPairId:
        for n in range(0, 21):
            for k in range(1, n + 3):
                ok = ok and check_telescoping(pair, n, k).passed
    _report(1, "telescoping certificate, both pairs, 0<=n<=20, 1<=k<=n+2", ok)


def test_criterion_2_finite_identities():
    ok = True
    for ident in (IdentityId.ID_A2, IdentityId.ID_A3, IdentityId.ID_SECOND, IdentityId.ID_SECOND2):
        for n in range(1, 26):
            ok = ok and check_identity(ident, n).passed
    _report(2, "finite identities a2/a3/second/second2 for n = 1..25", ok)


def test_criterion_3_whipple_specialization():
    ok = all(check_identity(IdentityId.ID_WHIPPLE, n).passed for n in range(1, 100, 2))
    _report(3, "terminating Whipple-type identity for all odd n <= 99", ok)


def test_criterion_4_modsun():
    ok = all(verify_modsun(n, path="modular").passed for n in range(1, 100, 2))
    for n in range(1, 26, 2):
        modular = verify_modsun(n, path="modular")
        exact = verify_modsun(n, path="exact")
        ok = ok and modular.passed == exact.passed == True  # noqa: E712
    _report(4, "mod Phi_n^2 congruence: modular path n <= 99, exact agrees n <= 25", ok)


def test_criterion_5_intro_j2():
    ok = all(verify_intro(WzPairId.PAIR_J2, n, path="exact").passed for n in range(1, 28, 2))
    ok = ok and all(
        verify_intro(WzPairId.PAIR_J2, p, path="modular").passed for p in PRIMES_TO_97
    )
    _report(5, "first intro congruence: exact odd n <= 27, modular primes <= 97", ok)


def test_criterion_6_intro_l2():
    ok = all(verify_intro(WzPairId.PAIR_L2, n).passed for n in (3, 5, 7, 9, 11, 13, 25, 27))
    _report(6, "second intro congruence on odd prime powers {3,5,7,9,11,13,25,27}", ok)


def test_criterion_7_classical_congruence():
    witness, result = verify_sun(5)
    ok = result.passed and witness.difference == Fraction(-125, 32)
    for p in PRIMES_TO_97:
        if p >= 5:
            _, res = verify_sun(p)
            ok = ok and res.passed
    _report(7, "p-adic congruence with valuation >= 3 for primes 5 <= p <= 97", ok)


def test_criterion_8_infinite_identities_numeric():
    ok = True
    for which in ("A1", "A11", "SLATER", "PRODFACT"):
        for q in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
            ok = ok and check_identity_numeric(which, q, 50).passed
    _report(8, "numeric identities A1/A11/SLATER/PRODFACT at 50 digits", ok)


def test_criterion_9_classical_limits():
    ok = True
    for which in ("PI1", "PI2"):
        rep = eval_classical(which, 40)
        prec = working_prec(40)
        with mpmath.workprec(prec):
            diff = abs(rep.value - classical_target(which, prec))
            ok = ok and diff < mpmath.mpf(10) ** -40
    _report(9, "classical series match 4/pi and 2*sqrt(2)/pi to 40 digits", ok)


def test_criterion_10_limit_scans():
    ok = True
    for which in ("PI1", "PI2"):
        points = limit_scan(which, range(4, 17))
        dists = [p.distance for p in points]
        ok = ok and all(dists[i + 1] < dists[i] for i in range(len(dists) - 1))
        ok = ok and dists[-1] < mpmath.mpf("0.01")
        ok = ok and points[-1].terms_used < 100
    _report(
        10, "q->1 distances strictly decreasing over j=4..16, < 1e-2 and < 100 terms at j=16", ok
    )


def test_criterion_11_q_gamma():
    ok = True
    for q in (Fraction(1, 2), Fraction(9, 10)):
        for x in (1, 2):
            rep = q_gamma(x, q, 40)
            ok = ok and abs(rep.value - 1) < mpmath.mpf(10) ** -40
    rep = q_gamma(Fraction(1, 2), 1 - Fraction(1, 1024), 15)
    with mpmath.workprec(128):
        ok = ok and abs(rep.value - mpmath.sqrt(mpmath.pi)) < mpmath.mpf("0.01")
    ok = ok and rep.terms_used < 2000
    _report(11, "q-Gamma normalization and sqrt(pi) limit within 1e-2 in < 2000 terms", ok)


def test_criterion_12_cross_path_consistency():
    ok = True
    for n in [p for p in PRIMES_TO_97 if p <= 31]:
        for pair in WzPairId:
            modular = verify_intro(pair, n, path="modular")
            exact = verify_intro(pair, n, path="exact")
            ok = ok and modular.passed == exact.passed
            ok = ok and modular.witness is None and exact.witness is None
    ok = ok and all(
        check_square_completion(n, j) for n in range(1, 51) for j in range(1, n + 1)
    )
    # Coprimality lemma behind the fast path: gcd(1 - q^{4j}, Phi_n) = 1 for
    # odd n and 1 <= j < n.  Phi_n is irreducible, so it suffices that
    # q^{4j} != 1 modulo Phi_n.
    for n in range(3, 100, 2):
        phi = cyclotomic_int(n)
        cur = list_mod_monic([0, 0, 0, 0, 1], phi)
        for j in range(1, n):
            ok = ok and cur != [1]
            cur = list_mod_monic([0, 0, 0, 0] + cur, phi)
    _report(12, "modular/exact path agreement, factor identity, coprimality lemma", ok)
