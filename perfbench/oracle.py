"""Expected verdicts, checked with code independent of qpiverify.

Every case of exact-sum, modular-congruence and numeric-near-one must pass
with no witness.  Numeric values are compared with references computed by
mpmath's own routines: the program's two sides of each numeric identity
with sums and products of ``mpmath.qp``, ``q_gamma`` with ``mpmath.qgamma``
at moderate q, and the classical and near-one values with 4/pi,
2*sqrt(2)/pi or sqrt(pi), at the acceptance tolerances.  A failing-witness
case must pass when it is not perturbed; when it is, its witness W must be
nonzero, of lower degree than M = Phi_n^2, with M dividing num - W*den, and
equal to -c*q^j.  The polynomial arithmetic here is plain lists of
Fractions.

`check` returns, for each case, None or the reason its outcome is wrong.
"""
from __future__ import annotations

import functools
from fractions import Fraction

import mpmath

#: Acceptance distance of the q -> 1 limit scan at j >= 10, and of the
#: q-Gamma value at q = 1 - 1/1024 from sqrt(pi).
LIMIT_TOL = mpmath.mpf("0.01")
NEAR_ONE_J = 10


# ---------------------------------------------------------------------------
# Polynomials as lists of Fractions, index i holding the coefficient of q^i.
# ---------------------------------------------------------------------------


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _mul(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return _trim([x - y for x, y in zip(a, b)])


def _rem(a: list, m: list) -> list:
    a = _trim(list(a))
    while len(a) >= len(m):
        f = a[-1] / m[-1]
        off = len(a) - len(m)
        for i, v in enumerate(m):
            a[off + i] -= f * v
        _trim(a)
    return a


def cyclotomic(n: int) -> list:
    """Phi_n as q^n - 1 divided by Phi_d for every proper divisor d."""
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_div(poly, cyclotomic(d))
    return poly


def _exact_div(a: list, m: list) -> list:
    a = list(a)
    quot = [Fraction(0)] * (len(a) - len(m) + 1)
    for off in range(len(quot) - 1, -1, -1):
        f = a[off + len(m) - 1] / m[-1]
        quot[off] = f
        for i, v in enumerate(m):
            a[off + i] -= f * v
    if any(a):
        raise ArithmeticError("inexact division")
    return quot


def _fractions(coeffs: list[str]) -> list:
    return [Fraction(c) for c in coeffs]


# ---------------------------------------------------------------------------
# Numeric references.
# ---------------------------------------------------------------------------


def _series_term(which: str, q, k: int):
    """The k-th term of the left side, every factor from mpmath.qp."""
    qp = mpmath.qp
    if which == "A1":
        return q ** (k * k) * (1 - q ** (6 * k + 1)) / (1 - q) * qp(q, q**2, k) ** 2 * qp(q**2, q**4, k) / qp(q**4, q**4, k) ** 3
    if which == "A11":
        return (-1) ** k * q ** (3 * k * k) * (1 - q ** (6 * k + 1)) / (1 - q) * qp(q, q**2, k) ** 3 / qp(q**4, q**4, k) ** 3
    return q ** (k * k) * qp(q, q**2, k) / qp(q**4, q**4, k)


@functools.lru_cache(maxsize=None)
def identity_sides(which: str, q: Fraction, digits: int):
    """Both sides of an infinite identity at q, from mpmath.qp alone.
    Cached: the sweeps of one run share their q points."""
    qp = mpmath.qp
    with mpmath.workdps(digits + 20):
        qm = mpmath.mpf(q.numerator) / q.denominator
        if which == "PRODFACT":
            lhs = qp(qm, qm**2) / (1 - qm)
        else:
            eps = mpmath.mpf(10) ** (-digits - 15)
            lhs, k = mpmath.mpf(0), 0
            while True:
                term = _series_term(which, qm, k)
                lhs += term
                k += 1
                if k > 2 and abs(term) < eps:
                    break
        if which == "A1":
            rhs = (1 + qm) * qp(qm**2, qm**4) * qp(qm**6, qm**4) / qp(qm**4, qm**4) ** 2
        elif which == "A11":
            rhs = qp(qm**3, qm**4) * qp(qm**5, qm**4) / qp(qm**4, qm**4) ** 2
        elif which == "SLATER":
            rhs = qp(qm**2, qm**4) ** 2 / qp(qm, qm**2)
        else:
            rhs = qp(qm**3, qm**4) * qp(qm**5, qm**4)
        return lhs, rhs


def classical_target(which: str):
    return 4 / mpmath.pi if which == "PI1" else 2 * mpmath.sqrt(2) / mpmath.pi


# ---------------------------------------------------------------------------
# Per-case checks.
# ---------------------------------------------------------------------------


def _must_pass(rec: dict) -> str | None:
    if rec["passed"] is not True:
        return "expected pass, got fail"
    if rec["witness"] is not None:
        return "a passing case carries a witness"
    return None


def _check_numeric(case: dict, rec: dict) -> str | None:
    wrong = _must_pass(rec)
    if wrong:
        return wrong
    digits = case["digits"]
    with mpmath.workdps(digits + 20):
        tol = mpmath.mpf(10) ** (-digits)
        if mpmath.mpf(rec["diff"]) > tol:
            return f"reported |LHS - RHS| = {rec['diff']} exceeds 1e-{digits}"
        refs = identity_sides(case["which"], Fraction(case["q"]), digits)
        for side, ref in zip(("lhs", "rhs"), refs):
            err = abs(mpmath.mpf(rec[side]) - ref)
            if err > tol:
                return f"the program's {side} is {mpmath.nstr(err, 5)} from the mpmath.qp reference"
    return None


def _check_classical(case: dict, rec: dict) -> str | None:
    with mpmath.workdps(case["digits"] + 20):
        diff = abs(mpmath.mpf(rec["value"]) - classical_target(case["which"]))
        if diff >= mpmath.mpf(10) ** (-case["digits"]):
            return f"value is {mpmath.nstr(diff, 5)} from the classical constant"
    return None


def _check_limit(case: dict, rec: dict) -> str | None:
    with mpmath.workdps(40):
        dist = abs(mpmath.mpf(rec["value"]) - classical_target(case["which"]))
        reported = mpmath.mpf(rec["distance"])
        if abs(dist - reported) > dist * mpmath.mpf(10) ** -8:
            return f"reported distance {rec['distance']} but the value is {mpmath.nstr(dist, 12)} away"
        if case["j"] >= NEAR_ONE_J and dist >= LIMIT_TOL:
            return f"distance {mpmath.nstr(dist, 5)} is not below {LIMIT_TOL}"
    return None


def _check_qgamma(case: dict, rec: dict) -> str | None:
    x, q, digits = Fraction(case["x"]), Fraction(case["q"]), case["digits"]
    with mpmath.workdps(digits + 20):
        value = mpmath.mpf(rec["value"])
        if q == Fraction(1023, 1024):
            # mpmath.qgamma does not converge this close to q = 1.
            if abs(value - mpmath.sqrt(mpmath.pi)) >= LIMIT_TOL:
                return f"value {mpmath.nstr(value, 10)} is not within {LIMIT_TOL} of sqrt(pi)"
            return None
        ref = mpmath.qgamma(mpmath.mpf(x.numerator) / x.denominator, mpmath.mpf(q.numerator) / q.denominator)
        if abs(value - ref) >= mpmath.mpf(10) ** (-digits):
            return f"value differs from mpmath.qgamma by {mpmath.nstr(abs(value - ref), 5)}"
    return None


def _check_witness(case: dict, rec: dict) -> str | None:
    c, j, n = case["c"], case["j"], case["n"]
    if c == 0:
        return _must_pass(rec)
    if rec["passed"] is not False:
        return "expected fail, got pass"
    if rec["witness"] is None:
        return "a failing case has no witness"
    w_num, w_den = (_fractions(p) for p in rec["witness"])
    if _trim(w_den) != [1]:
        return "the witness is not a polynomial"
    w = _trim(w_num)
    m = _mul(cyclotomic(n), cyclotomic(n))
    if not w:
        return "the witness is zero"
    if len(w) >= len(m):
        return f"witness degree {len(w) - 1} is not below deg M = {len(m) - 1}"
    num, den = _fractions(rec["num"]), _fractions(rec["den"])
    if _rem(_sub(num, _mul(w, den)), m):
        return "M does not divide num - W*den"
    expected = [Fraction(0)] * j + [Fraction(-c)]
    if w != expected:
        return f"witness is not -({c})*q^{j}"
    return None


_CHECKS = {
    "wz": lambda case, rec: _must_pass(rec),
    "identity": lambda case, rec: _must_pass(rec),
    "intro": lambda case, rec: _must_pass(rec),
    "modsun": lambda case, rec: _must_pass(rec),
    "numeric": _check_numeric,
    "classical": _check_classical,
    "limit": _check_limit,
    "qgamma": _check_qgamma,
    "witness": _check_witness,
}


def _limit_monotone(cases: list[dict], records: list[dict], wrong: list) -> None:
    """Distances must fall strictly as j grows, series by series."""
    points: dict[str, list[tuple[int, int]]] = {}
    for index, case in enumerate(cases):
        if case["kind"] == "limit" and wrong[index] is None:
            points.setdefault(case["which"], []).append((case["j"], index))
    with mpmath.workdps(40):
        for series in points.values():
            series.sort()
            for (_, before), (j, index) in zip(series, series[1:]):
                if mpmath.mpf(records[index]["distance"]) >= mpmath.mpf(records[before]["distance"]):
                    wrong[index] = f"distance at j={j} does not fall below the one at j={j - 1}"


def check(cases: list[dict], records: list[dict]) -> list[str | None]:
    """None for each correct outcome, else why it is wrong.  An exception
    raised by the case counts as wrong."""
    wrong: list[str | None] = []
    for case, rec in zip(cases, records):
        if "error" in rec:
            wrong.append(f"raised {rec['error']}")
        else:
            wrong.append(_CHECKS[case["kind"]](case, rec))
    _limit_monotone(cases, records, wrong)
    return wrong
