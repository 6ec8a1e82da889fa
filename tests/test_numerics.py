import itertools
import math
from fractions import Fraction

import mpmath
import pytest

from qpiverify import numerics
from qpiverify.numerics import (
    ConvergenceBudgetExceeded,
    _ratio_bound,
    _series_terms,
    check_identity_numeric,
    classical_target,
    eval_classical,
    eval_qpoch_inf,
    eval_series,
    limit_scan,
    q_gamma,
    working_prec,
)
from qpiverify.qseries import SeriesId, partial_sum, summand_brackets


SERIES = (SeriesId.J2_LHS, SeriesId.L2_LHS, SeriesId.SUN_LHS)


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _bracket_value(bp, x: Fraction) -> Fraction:
    """A BracketProduct's value at the rational x, factor by factor."""
    value = bp.coeff * x**bp.shift
    for m, e in bp.exps:
        value *= (1 - x**m) ** e
    return value


def test_working_prec_policy():
    assert working_prec(50) == math.ceil(50 * math.log2(10)) + 64
    with pytest.raises(ValueError):
        working_prec(0)


def test_qpoch_leading_behavior_at_tiny_q():
    # (q^2; q^4)_inf = 1 - q^2 + O(q^6): at q = 2^-20 the value is within
    # 2^-39 of 1 - 2^-40.
    rep = eval_qpoch_inf(2, 4, Fraction(1, 2**20), Fraction(1, 2**80), prec=160)
    with mpmath.workprec(160):
        target = 1 - mpmath.mpf(2) ** -40
        assert abs(rep.value - target) <= mpmath.mpf(2) ** -39
    assert rep.tail_bound >= 0


def test_qpoch_deterministic():
    a = eval_qpoch_inf(4, 4, Fraction(1, 2), Fraction(1, 10**40))
    b = eval_qpoch_inf(4, 4, Fraction(1, 2), Fraction(1, 10**40))
    assert a.value == b.value and a.terms_used == b.terms_used
    assert a.value > 0


def test_qpoch_validation():
    with pytest.raises(ValueError):
        eval_qpoch_inf(0, 4, Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        eval_qpoch_inf(2, 4, Fraction(3, 2), 1)
    with pytest.raises(ValueError):
        eval_qpoch_inf(2, 4, Fraction(1, 2), 0)


def test_series_tail_bounds_are_honest():
    """Re-evaluating at eps/10 moves the value by at most both tail bounds."""
    for sid in (SeriesId.J2_LHS, SeriesId.L2_LHS, SeriesId.SUN_LHS):
        for q in (Fraction(1, 3), Fraction(2, 3)):
            a = eval_series(sid, q, Fraction(1, 10**25), prec=160)
            b = eval_series(sid, q, Fraction(1, 10**26), prec=160)
            assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound


def test_series_against_exact_partial_sums():
    """First terms of the numeric series match the exact rational partial sums."""
    prec = 200
    for sid in (SeriesId.J2_LHS, SeriesId.L2_LHS, SeriesId.SUN_LHS):
        exact = partial_sum(sid, None, 10)
        for q in (Fraction(1, 2), Fraction(1, 3)):
            v_exact = exact.evaluate(q)
            with mpmath.workprec(prec):
                expected = mpmath.mpf(v_exact.numerator) / v_exact.denominator
                qm = mpmath.mpf(q.numerator) / q.denominator
                got = sum(itertools.islice(_series_terms(sid, qm), 10), mpmath.mpf(1))
                assert abs(got - expected) < mpmath.mpf(2) ** (-prec + 40)


def test_default_precision_ignores_the_ambient_precision():
    """With prec=None the working precision follows from eps alone, so the
    reports are the same whatever mpmath's ambient precision is."""
    eps = Fraction(1, 3 * 10**40)
    reports = []
    for ambient in (4, 53):
        with mpmath.workprec(ambient):
            series = eval_series(SeriesId.J2_LHS, Fraction(1, 2), eps)
            product = eval_qpoch_inf(1, 2, Fraction(1, 2), eps)
        reports.append((series, product))
    assert reports[0] == reports[1]


def test_series_validation_and_budget(monkeypatch):
    import qpiverify.numerics as numerics

    with pytest.raises(ValueError):
        eval_series(SeriesId.A2_RHS, Fraction(1, 2), Fraction(1, 10))
    with pytest.raises(ValueError):
        eval_series(SeriesId.J2_LHS, Fraction(3, 2), Fraction(1, 10))
    monkeypatch.setattr(numerics, "MAX_TERMS", 3)
    with pytest.raises(ConvergenceBudgetExceeded):
        eval_series(SeriesId.J2_LHS, Fraction(9, 10), Fraction(1, 10**30))


def test_identity_numeric_quick():
    for which in ("A1", "A11", "SLATER", "PRODFACT"):
        result = check_identity_numeric(which, Fraction(1, 2), 30)
        assert result.passed, (which, result.bound)
        assert result.bound is not None and result.terms is not None


def test_identity_numeric_regression_guard():
    """Dropping the (1+q) factor from the product side must break the check."""
    from qpiverify.numerics import _qpoch_inf, _rep_div, _rep_mul

    digits = 30
    prec = working_prec(digits)
    with mpmath.workprec(prec):
        qm = mpmath.mpf(1) / 2
        eps = mpmath.mpf(10) ** (-digits - 5)
        lhs = eval_series(SeriesId.J2_LHS, qm, eps, prec=prec)
        prod = _rep_mul(_qpoch_inf(2, 4, qm, eps), _qpoch_inf(6, 4, qm, eps))
        prod = _rep_div(_rep_div(prod, _qpoch_inf(4, 4, qm, eps)), _qpoch_inf(4, 4, qm, eps))
        # correct RHS passes
        assert abs(lhs.value - (1 + qm) * prod.value) <= mpmath.mpf(10) ** (-digits)
        # perturbed RHS fails by a wide margin
        assert abs(lhs.value - prod.value) > mpmath.mpf(10) ** (-digits)


def test_identity_numeric_validation():
    with pytest.raises(ValueError):
        check_identity_numeric("nope", Fraction(1, 2), 10)
    with pytest.raises(ValueError):
        check_identity_numeric("A1", Fraction(5, 4), 10)


def test_classical_series_match_targets():
    for which in ("PI1", "PI2"):
        rep = eval_classical(which, 25)
        prec = working_prec(25)
        with mpmath.workprec(prec):
            assert abs(rep.value - classical_target(which, prec)) < mpmath.mpf(10) ** -25


def test_classical_term_recurrence_matches_factorials():
    """The recurrence-generated terms equal the direct factorial formula."""

    def half_pochhammer(k):
        acc = Fraction(1)
        for j in range(k):
            acc *= Fraction(1, 2) + j
        return acc

    term = Fraction(1)
    for k in range(0, 21):
        direct = (
            Fraction(6 * k + 1)
            * half_pochhammer(k) ** 3
            / (Fraction(math.factorial(k)) ** 3 * Fraction(4) ** k)
        )
        assert term == direct, k
        term *= Fraction((6 * k + 7) * (2 * k + 1) ** 3, (6 * k + 1) * (2 * k + 2) ** 3 * 4)


def test_classical_truncation_at_zero_terms():
    # The k = 0 term alone is 1.
    rep = eval_classical("PI1", 1)
    assert rep.terms_used >= 1
    assert abs(rep.value - classical_target("PI1", 64)) < 0.1


def test_q_gamma_normalization():
    for q in (Fraction(1, 2), Fraction(9, 10)):
        for x in (1, 2):
            rep = q_gamma(x, q, 30)
            assert abs(rep.value - 1) < mpmath.mpf(10) ** -28, (q, x)


def test_q_gamma_validation():
    with pytest.raises(ValueError):
        q_gamma(0, Fraction(1, 2), 10)
    with pytest.raises(ValueError):
        q_gamma(1, Fraction(3, 2), 10)


def test_limit_scan_validation():
    with pytest.raises(ValueError):
        limit_scan("PI1", [1])
    with pytest.raises(ValueError):
        limit_scan("PI1", [17])
    with pytest.raises(ValueError):
        limit_scan("nope", [4])


def test_limit_scan_small():
    points = limit_scan("PI1", range(4, 7))
    assert [p.j for p in points] == [4, 5, 6]
    assert points[0].distance > points[1].distance > points[2].distance


def test_identity_residuals_at_standard_points():
    """Residuals stay below 10^-50 on the four standard sample points."""
    for which in ("A1", "A11", "SLATER", "PRODFACT"):
        for q in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            result = check_identity_numeric(which, q, 50)
            assert result.passed, (which, q, result.bound)


def test_numeric_recurrences_match_the_exact_summands():
    """The generic ratio walk `_series_terms`, which reads the J2, L2 and SUN
    term ratios off `summand_factors`, and the per-series proofs of
    `_ratio_bound` are checked here against `summand_brackets`, at moderate q
    and near q = 1: the first 40 terms agree, the bound from k on exceeds
    |t_(j+1) / t_j| for every k <= j < 40, and the bound does not increase in
    k."""
    prec = 256
    qs = (Fraction(1, 3), Fraction(2, 3), Fraction(9, 10), Fraction(63, 64), Fraction(1023, 1024))
    for sid in (SeriesId.J2_LHS, SeriesId.L2_LHS, SeriesId.SUN_LHS):
        for q in qs:
            t = [_bracket_value(summand_brackets(sid, None, j), q) for j in range(41)]
            assert t[0] == 1
            with mpmath.workprec(prec):
                qm = mpmath.mpf(q.numerator) / q.denominator
                got = list(itertools.islice(_series_terms(sid, qm), 40))
                for j, term in enumerate(got, 1):
                    want = mpmath.mpf(t[j].numerator) / t[j].denominator
                    assert abs(term - want) <= abs(want) * mpmath.mpf(2) ** (-prec + 32)
                ratios = [_mpf(abs(t[j + 1] / t[j])) for j in range(40)]
                bounds = [_ratio_bound(sid, qm, k) for k in range(41)]
                for k in range(40):
                    assert bounds[k + 1] <= bounds[k], (sid, q, k)
                    assert all(ratio < bounds[k] for ratio in ratios[k:]), (sid, q, k)


def _series_reports(qs):
    return [eval_series(sid, q, Fraction(1, 10**40)) for q in qs for sid in SERIES]


def test_ratio_memo_cold_or_warm_gives_the_same_reports(monkeypatch):
    """The memoized term ratios do not depend on q: a walk that fills the
    memo and one that reads it, in either order, report the same."""
    monkeypatch.setattr(numerics, "_RATIOS", {})
    high_first = _series_reports((Fraction(7, 8), Fraction(1, 4)))
    monkeypatch.setattr(numerics, "_RATIOS", {})
    low_first = _series_reports((Fraction(1, 4), Fraction(7, 8)))
    assert high_first == low_first[3:] + low_first[:3]


def test_ratio_memo_cap(monkeypatch):
    """Past RATIO_MEMO_CAP the ratios are read off the stream again: with a
    cap of 3, a 40-term walk, cold or warm, equals the uncapped walk, and the
    memo keeps 3 ratios."""
    with mpmath.workprec(200):
        qm = mpmath.mpf(9) / 10
        for sid in SERIES:
            monkeypatch.setattr(numerics, "_RATIOS", {})
            want = list(itertools.islice(_series_terms(sid, qm), 40))
            with monkeypatch.context() as capped:
                capped.setattr(numerics, "_RATIOS", {})
                capped.setattr(numerics, "RATIO_MEMO_CAP", 3)
                for _ in range(2):
                    assert list(itertools.islice(_series_terms(sid, qm), 40)) == want
                    assert len(numerics._RATIOS[sid]) == 3


def test_identity_numeric_near_one_keeps_the_quotients_digits():
    """Every product stops on its relative error, so the right sides, which
    are quotients of products that vanish as q -> 1, keep their digits: each
    identity holds to 10^-20, and none raises."""
    for which in ("A1", "A11", "SLATER"):
        for q in (Fraction(99, 100), Fraction(999, 1000)):
            result = check_identity_numeric(which, q, 20)
            assert result.passed and result.bound <= mpmath.mpf(10) ** -20, (which, q, result.bound)


def test_qpoch_matches_mpmath_qp():
    """(q^base; q^step)_inf against mpmath.qp, within the reported tail bound
    plus 10^-digits."""
    digits = 30
    for q in (Fraction(1, 2), Fraction(9, 10), Fraction(63, 64)):
        for base, step in ((1, 1), (1, 2), (2, 4), (3, 4), (4, 4), (5, 4), (6, 4), (7, 3)):
            rep = eval_qpoch_inf(base, step, q, Fraction(1, 10 ** (digits + 5)))
            with mpmath.workprec(working_prec(digits) + 64):
                qm = _mpf(q)
                want = mpmath.qp(qm**base, qm**step, maxterms=10**6)
                allowed = rep.tail_bound + mpmath.mpf(10) ** -digits
                assert abs(rep.value - want) <= allowed, (q, base, step)


def test_q_gamma_matches_mpmath_qgamma():
    """q_gamma at q = 1 - 1/64 against mpmath.qgamma, within the reported tail
    bound plus 10^-digits (mpmath.qgamma does not converge at 1 - 1/1024)."""
    digits = 20
    q = Fraction(63, 64)
    for x in (Fraction(1, 2), Fraction(1, 3), 1, Fraction(5, 2)):
        rep = q_gamma(x, q, digits)
        with mpmath.workprec(working_prec(digits) + 64):
            want = mpmath.qgamma(_mpf(Fraction(x)), _mpf(q), maxterms=10**6)
            assert abs(rep.value - want) <= rep.tail_bound + mpmath.mpf(10) ** -digits, x


def test_q_gamma_near_one_matches_the_multiplied_out_product():
    """Gamma_q(1/2) at q = 1 - 1/1024, 15 digits, against the value that
    multiplying out 112,713 factors gave, with its tail bound 8.86e-21."""
    rep = q_gamma(Fraction(1, 2), 1 - Fraction(1, 1024), 15)
    with mpmath.workprec(128):
        pinned = mpmath.mpf("1.77212921132309668358586223024")
        assert abs(rep.value - pinned) <= rep.tail_bound + mpmath.mpf("8.86e-21")
