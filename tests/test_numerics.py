import itertools
import math
from fractions import Fraction

import mpmath
import pytest

from qpiverify import numerics
from qpiverify.numerics import (
    ConvergenceBudgetExceeded,
    _Powers,
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
                got = sum(map(mpmath.mpf, itertools.islice(_series_terms(sid, _Powers(qm)), 10)), mpmath.mpf(1))
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


@pytest.mark.parametrize("units, passed", [(2.5, True), (3.5, False)])
def test_identity_numeric_criterion_edge(units, passed, monkeypatch):
    """|LHS - RHS| <= 10^-digits plus both sides' tail bounds, near its edge:
    with each side's report replaced by one whose tail bound is 10^-digits,
    a difference of 2.5 10^-digits passes and 3.5 10^-digits fails."""
    digits = 20

    def report(value_units):
        unit = mpmath.mpf(10) ** -digits
        return numerics.EvalReport(value_units * unit, unit, 1)

    monkeypatch.setattr(numerics, "eval_series", lambda *args, **kwargs: report(units))
    monkeypatch.setattr(numerics, "_rep_scale", lambda rep, c: report(0))
    assert check_identity_numeric("A1", Fraction(1, 2), digits).passed is passed


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


def test_classical_digits_checked_first():
    """digits < 1 raises ValueError before the sum starts, as the other
    numeric entry points do."""
    for digits in (0, -6):
        with pytest.raises(ValueError):
            eval_classical("PI1", digits)


# repr of value and tail_bound at the working precision, and terms_used.
_CLASSICAL_PINNED = {
    ("PI1", 10): (
        "mpf('1.2732395447351624346484643769041')",
        "mpf('2.7265962508231054971635191569365e-16')",
        25,
    ),
    ("PI1", 40): (
        "mpf('1.273239544735162686151070106980114896275677165457927750684533')",
        "mpf('4.785225694210948783772124805198931098556894124455219751852475e-46')",
        74,
    ),
    ("PI1", 100): (
        (
            "mpf('1.27323954473516268615107010698011489627567716592365158998133875247117438107381228072"
            "09104221300246876485819814425739045698')"
        ),
        (
            "mpf('7.69224484851154054520589466974747975507601429422941506356412051852715061712258563076"
            "2322110796997822149997797143687020154e-106')"
        ),
        173,
    ),
    ("PI1", 300): (
        (
            "mpf('1.27323954473516268615107010698011489627567716592365158998133875247117438107381228072"
            "091042213002468764858274181406366429514329476891662922302373928585359871383391973549927262"
            "058462197117540246150973914316973918129354689912193378903209465904091378159804572752369512"
            "069522139164896391528749550275268422978479374915044318652')"
        ),
        (
            "mpf('5.84551170846284961361374065810191769671894568153170470757904897257091170842396797734"
            "049413850472917548585176269013843811848852075169094907880518086684309175291483666211349168"
            "419767331109208525018654981991136097337222414206333164180072527585384690918477099050184555"
            "012969907685128469291465952956532563800267883361028778252e-306')"
        ),
        505,
    ),
    ("PI2", 10): (
        "mpf('0.90031631615710617177031678705466')",
        "mpf('1.4456800825688595526302564505693e-16')",
        17,
    ),
    ("PI2", 40): (
        "mpf('0.900316316157106069555199191006740582664574149860607709838554')",
        "mpf('1.255972841878756770274644919596580553082017888232456896388465e-46')",
        50,
    ),
    ("PI2", 100): (
        (
            "mpf('0.90031631615710606955519919100674058266457414995522062557143747123145873071904634499"
            "808277775408234099755154084699440698416')"
        ),
        (
            "mpf('2.01900568191830181010405998545557940368407856151273362458089419614353641440007286032"
            "8960545113035972415954302851642428693e-106')"
        ),
        116,
    ),
    ("PI2", 300): (
        (
            "mpf('0.90031631615710606955519919100674058266457414995522062557143747123145873071904634499"
            "808277775408234099755169574012975047285886515812112126005843071392679156509420993158495130"
            "550222714152119571915792816988397156699909618352761083022650871366332634781534093907882118"
            "473171589565258516223010769458666856726358625735658463384')"
        ),
        (
            "mpf('3.06992935436084204397838618383842706045248400638117274842966204315549627959721995159"
            "536221561399810699825728141767184801503987494698383475058139848470711902342367107244602735"
            "220080213733678054908329544257734888165114196704419733027205763700373115110829854283056045"
            "351428971416297091172410375524276846600834734096093757189e-306')"
        ),
        337,
    ),
}


def test_classical_series_pinned():
    """The classical sums keep every bit of their values and tail bounds."""
    for (which, digits), (value, tail_bound, terms) in _CLASSICAL_PINNED.items():
        rep = eval_classical(which, digits)
        with mpmath.workprec(working_prec(digits)):
            got = repr(rep.value), repr(rep.tail_bound), rep.terms_used
        assert got == (value, tail_bound, terms), (which, digits)


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
                powers = _Powers(mpmath.mpf(q.numerator) / q.denominator)
                got = list(map(mpmath.mpf, itertools.islice(_series_terms(sid, powers), 40)))
                for j, term in enumerate(got, 1):
                    want = mpmath.mpf(t[j].numerator) / t[j].denominator
                    assert abs(term - want) <= abs(want) * mpmath.mpf(2) ** (-prec + 32)
                ratios = [_mpf(abs(t[j + 1] / t[j])) for j in range(40)]
                bounds = [mpmath.mpf(_ratio_bound(sid, powers, k)) for k in range(41)]
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
            want = list(itertools.islice(_series_terms(sid, _Powers(qm)), 40))
            with monkeypatch.context() as capped:
                capped.setattr(numerics, "_RATIOS", {})
                capped.setattr(numerics, "RATIO_MEMO_CAP", 3)
                for _ in range(2):
                    assert list(itertools.islice(_series_terms(sid, _Powers(qm)), 40)) == want
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


#: terms_used and the 10-digit tail_bound of each series and product at
#: eps = 10^-digits and the working precision of digits, as the mpf loops
#: computed them: (series or (base, step), q, digits) -> (terms, bound).
_NUMERIC_CONTRACT = {
    ("J2_LHS", "1/4", 10): (5, "7.575115425e-16"),
    ("J2_LHS", "1/4", 30): (8, "2.30329482e-39"),
    ("J2_LHS", "1/4", 50): (10, "4.747110737e-61"),
    ("J2_LHS", "1/2", 10): (6, "5.547538248e-12"),
    ("J2_LHS", "1/2", 30): (10, "2.789958316e-31"),
    ("J2_LHS", "1/2", 50): (13, "4.611714656e-52"),
    ("J2_LHS", "7/8", 10): (12, "7.611917811e-12"),
    ("J2_LHS", "7/8", 30): (22, "9.959156866e-32"),
    ("J2_LHS", "7/8", 50): (29, "1.909091382e-52"),
    ("J2_LHS", "63/64", 10): (16, "6.836508917e-11"),
    ("J2_LHS", "63/64", 30): (44, "9.343175941e-31"),
    ("J2_LHS", "63/64", 50): (67, "1.517512422e-51"),
    ("J2_LHS", "1023/1024", 10): (16, "9.289331105e-11"),
    ("J2_LHS", "1023/1024", 30): (49, "6.464896447e-31"),
    ("J2_LHS", "1023/1024", 50): (82, "5.824465767e-51"),
    ("L2_LHS", "1/4", 10): (3, "4.401451466e-17"),
    ("L2_LHS", "1/4", 30): (5, "4.702103307e-46"),
    ("L2_LHS", "1/4", 50): (6, "6.133763015e-66"),
    ("L2_LHS", "1/2", 10): (4, "8.645090582e-16"),
    ("L2_LHS", "1/2", 30): (6, "6.677910747e-34"),
    ("L2_LHS", "1/2", 50): (8, "3.292391236e-59"),
    ("L2_LHS", "7/8", 10): (7, "1.024319796e-12"),
    ("L2_LHS", "7/8", 30): (13, "3.082948835e-34"),
    ("L2_LHS", "7/8", 50): (17, "3.169734517e-55"),
    ("L2_LHS", "63/64", 10): (10, "3.407498429e-11"),
    ("L2_LHS", "63/64", 30): (25, "3.873169389e-31"),
    ("L2_LHS", "63/64", 50): (37, "1.711628431e-51"),
    ("L2_LHS", "1023/1024", 10): (11, "4.126441658e-11"),
    ("L2_LHS", "1023/1024", 30): (32, "6.241272547e-31"),
    ("L2_LHS", "1023/1024", 50): (53, "3.545562361e-51"),
    ("SUN_LHS", "1/4", 10): (5, "6.576258936e-16"),
    ("SUN_LHS", "1/4", 30): (8, "2.175886483e-39"),
    ("SUN_LHS", "1/4", 50): (10, "4.607618843e-61"),
    ("SUN_LHS", "1/2", 10): (6, "6.543381664e-12"),
    ("SUN_LHS", "1/2", 30): (10, "3.544012423e-31"),
    ("SUN_LHS", "1/2", 50): (13, "6.003769909e-52"),
    ("SUN_LHS", "7/8", 10): (13, "3.407283669e-12"),
    ("SUN_LHS", "7/8", 30): (23, "3.914016119e-33"),
    ("SUN_LHS", "7/8", 50): (29, "3.128922532e-51"),
    ("SUN_LHS", "63/64", 10): (24, "8.709510135e-11"),
    ("SUN_LHS", "63/64", 30): (55, "3.456220409e-31"),
    ("SUN_LHS", "63/64", 50): (76, "3.772155184e-51"),
    ("SUN_LHS", "1023/1024", 10): (31, "5.949276548e-11"),
    ("SUN_LHS", "1023/1024", 30): (91, "7.460703837e-31"),
    ("SUN_LHS", "1023/1024", 50): (147, "8.250096737e-51"),
    ((1, 1), "1/4", 10): (14, "5.700004911e-11"),
    ((1, 1), "1/4", 30): (47, "2.414045977e-31"),
    ((1, 1), "1/4", 50): (80, "1.938751032e-51"),
    ((1, 1), "1/2", 10): (29, "1.793032483e-11"),
    ((1, 1), "1/2", 30): (94, "1.534744509e-31"),
    ((1, 1), "1/2", 50): (159, "2.469960414e-51"),
    ((1, 1), "7/8", 10): (30, "1.992698567e-15"),
    ((1, 1), "7/8", 30): (86, "2.002678239e-35"),
    ((1, 1), "7/8", 50): (143, "1.734429852e-55"),
    ((1, 1), "63/64", 10): (74, "4.105226774e-55"),
    ((1, 1), "63/64", 30): (136, "5.692223689e-75"),
    ((1, 1), "63/64", 50): (200, "5.681125126e-95"),
    ((1, 1), "1023/1024", 10): (743, "2.6066195e-740"),
    ((1, 1), "1023/1024", 30): (806, "3.589371975e-760"),
    ((1, 1), "1023/1024", 50): (871, "3.500175512e-780"),
    ((1, 2), "1/4", 10): (6, "1.817094847e-12"),
    ((1, 2), "1/4", 30): (16, "5.910294191e-31"),
    ((1, 2), "1/4", 50): (27, "4.746632446e-51"),
    ((1, 2), "1/2", 10): (11, "5.072956902e-12"),
    ((1, 2), "1/2", 30): (32, "1.890662669e-31"),
    ((1, 2), "1/2", 50): (54, "1.51841524e-51"),
    ((1, 2), "7/8", 10): (24, "2.616723612e-13"),
    ((1, 2), "7/8", 30): (72, "2.682669792e-33"),
    ((1, 2), "7/8", 50): (121, "2.027124772e-53"),
    ((1, 2), "63/64", 10): (51, "1.848217028e-33"),
    ((1, 2), "63/64", 30): (114, "1.569337314e-53"),
    ((1, 2), "63/64", 50): (178, "1.778311664e-73"),
    ((1, 2), "1023/1024", 10): (388, "1.848550258e-376"),
    ((1, 2), "1023/1024", 30): (451, "2.37525921e-396"),
    ((1, 2), "1023/1024", 50): (516, "2.221055511e-416"),
    ((2, 4), "1/4", 10): (3, "4.547469426e-12"),
    ((2, 4), "1/4", 30): (9, "3.209880167e-34"),
    ((2, 4), "1/4", 50): (14, "1.789796083e-52"),
    ((2, 4), "1/2", 10): (6, "1.817094847e-12"),
    ((2, 4), "1/2", 30): (16, "5.910294191e-31"),
    ((2, 4), "1/2", 50): (27, "4.746632446e-51"),
    ((2, 4), "7/8", 10): (26, "4.028711564e-12"),
    ((2, 4), "7/8", 30): (82, "4.178602714e-32"),
    ((2, 4), "7/8", 50): (139, "3.61896404e-52"),
    ((2, 4), "63/64", 10): (39, "3.865209346e-22"),
    ((2, 4), "63/64", 30): (101, "3.233702892e-42"),
    ((2, 4), "63/64", 50): (163, "5.97902744e-62"),
    ((2, 4), "1023/1024", 10): (209, "1.302085646e-193"),
    ((2, 4), "1023/1024", 30): (272, "1.812933372e-213"),
    ((2, 4), "1023/1024", 50): (337, "1.8938034e-233"),
    ((4, 4), "1/4", 10): (3, "5.820676927e-11"),
    ((4, 4), "1/4", 30): (12, "3.792542408e-33"),
    ((4, 4), "1/4", 50): (20, "1.272725603e-52"),
    ((4, 4), "1/2", 10): (7, "2.898259423e-11"),
    ((4, 4), "1/2", 30): (23, "5.237165269e-31"),
    ((4, 4), "1/2", 50): (40, "1.038685237e-51"),
    ((4, 4), "7/8", 10): (20, "6.464765284e-12"),
    ((4, 4), "7/8", 30): (62, "6.821610513e-32"),
    ((4, 4), "7/8", 50): (104, "1.330304576e-51"),
    ((4, 4), "63/64", 10): (38, "2.38575363e-21"),
    ((4, 4), "63/64", 30): (97, "2.730097821e-41"),
    ((4, 4), "63/64", 50): (157, "3.228977964e-61"),
    ((4, 4), "1023/1024", 10): (209, "3.455278888e-192"),
    ((4, 4), "1023/1024", 30): (272, "4.253639789e-212"),
    ((4, 4), "1023/1024", 50): (337, "3.913377806e-232"),
}


def test_series_values_within_one_ulp():
    """Each series value is within 1 ulp of the working precision, relative,
    of the same call at 128 more bits, with the same terms: the sum's
    round-off stays below the last bit."""
    for sid in SERIES:
        for q in ("1/4", "1/2", "7/8", "63/64", "1023/1024"):
            for digits in (10, 30, 50):
                eps, prec = Fraction(1, 10**digits), working_prec(digits)
                a = eval_series(sid, Fraction(q), eps, prec=prec)
                b = eval_series(sid, Fraction(q), eps, prec=prec + 128)
                assert a.terms_used == b.terms_used, (sid, q, digits)
                with mpmath.workprec(prec + 256):
                    assert abs(a.value - b.value) <= abs(b.value) * mpmath.mpf(2) ** -prec, (sid, q, digits)


def test_numeric_contract_pinned():
    """No stop decision moves and every tail bound keeps its 10 digits."""
    for (what, q, digits), (terms, bound) in _NUMERIC_CONTRACT.items():
        eps, prec = Fraction(1, 10**digits), working_prec(digits)
        if isinstance(what, str):
            rep = eval_series(SeriesId[what], Fraction(q), eps, prec=prec)
        else:
            rep = eval_qpoch_inf(*what, Fraction(q), eps, prec=prec)
        assert rep.terms_used == terms, (what, q, digits)
        with mpmath.workprec(64):
            pinned = mpmath.mpf(bound)
            assert abs(rep.tail_bound - pinned) <= pinned * mpmath.mpf(10) ** -9, (what, q, digits)


def test_product_stop_with_eps_below_the_working_precision():
    """eps = 10^-100 at 100 bits lies far below the working precision; the
    products still stop where the mpf loops did, with their tail bounds."""
    pinned = {
        (1, 1, "1/2"): (324, "2.600023839e-101"),
        (2, 4, "7/8"): (282, "3.120753404e-102"),
        (1, 2, "63/64"): (339, "2.44774561e-123"),
    }
    for (base, step, q), (terms, bound) in pinned.items():
        rep = eval_qpoch_inf(base, step, Fraction(q), Fraction(1, 10**100), prec=100)
        assert rep.terms_used == terms and mpmath.nstr(rep.tail_bound, 10) == bound, (base, step, q)


def test_integer_loops_keep_the_working_precision_near_one(monkeypatch):
    """Near q = 1 the brackets 1 - q^m lose up to log2(1/(1 - q)) bits each,
    and the integer loops' guard bits make up for it: each value is within
    2^(32 - prec) of the same call at 128 more bits, relative, with the same
    terms, where prec is the call's working precision."""
    eps, prec = Fraction(1, 10**25), working_prec(20)
    calls = [
        (prec, lambda extra, step=step, q=q: eval_qpoch_inf(1, step, q, eps, prec=prec + extra))
        for step in (1, 2, 4)
        for q in (Fraction(999, 1000), Fraction(1023, 1024), Fraction(4095, 4096))
    ]
    calls.append((working_prec(15), lambda extra: q_gamma(Fraction(1, 2), Fraction(1023, 1024), 15)))
    calls += [(working_prec(12) + 32, lambda extra, j=j: limit_scan("PI1", [j])[0]) for j in range(12, 17)]
    low = [call(0) for _, call in calls]
    # q_gamma and limit_scan take their working precision from GUARD_BITS.
    monkeypatch.setattr(numerics, "GUARD_BITS", numerics.GUARD_BITS + 128)
    high = [call(128) for _, call in calls]
    for (p, _), a, b in zip(calls, low, high):
        assert a.terms_used == b.terms_used
        with mpmath.workprec(p + 256):
            assert abs(a.value - b.value) <= abs(b.value) * mpmath.mpf(2) ** (32 - p), (p, a, b)
