"""Arbitrary-precision evaluation of the infinite series and products.

Every evaluation returns an EvalReport carrying a rigorous truncation bound
that tracks the true terms, including as q -> 1:

* A series term is the one before times its ratio, read off the exact
  summands by the exact walks' stream and memoized, as it does not depend on
  q.  The series stops after term t_k once |t_k| U/(1 - U) <= eps, where U(k)
  is a closed-form bound on every term ratio |t_(j+1)/t_j| with j >= k that
  keeps the numerator factors of the ratio (`_ratio_bound` proves each).
* An infinite product (x; Q)_inf multiplies its leading factors (1 - x)
  while x > 1/2 or x > Q and then sums the q-exponential expansion
  log (x; Q)_inf = -sum_(r>=1) x^r / (r (1 - Q^r)) with an explicit bound
  on its remainder (`_qpoch_inf`; Gasper and Rahman, Basic Hypergeometric
  Series, 2nd ed., 2004, ch. 1).  It stops on its relative error, so
  quotients of products that vanish as q -> 1 keep their digits.

The inner loops, the series terms with their sum and stop test and the
product's factors and log terms, run on Python integers scaled by 2^P, as
mpmath's own series kernels do (Brent and Zimmermann, Modern Computer
Arithmetic, 2010, ch. 4), and become mpf only at the ends: the final exp
and the reports.  A value that can get arbitrarily small, a series term, a
power q^m or the leading product, is a P-bit mantissa with a binary
exponent; a series sum is an integer at scale 2^-P.  Every integer step
floors: it errs by less than one unit in its last place, always toward
minus infinity.  A bracket 1 - q^m then errs by less than 2^(l + 2) units
of 2^-P relative, with l = log2(1/(1 - q)), the at most 1 + 1/(1 - q)
leading factors of a product by less than 2^(2 l + 4) units together, and
the K floored additions of a series sum by less than K units of 2^-P, all
in one direction.  So P is the working precision plus LOOP_GUARD_BITS = 16
plus 2 l (`_loop_bits`), and near q = 1 the loops keep the working
precision.

Only truncation is bounded, so a PASS certifies truncation only: the
round-off of the integer steps is one-sided and counted above, and that of
the mpf steps is kept small by the guard bits of the working precision, but
neither is bounded (ROADMAP item 1).  Callers fix the working precision
explicitly per call; nothing reads ambient precision state.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .factored import _term_changes
from .qseries import SeriesId, summand_factors
from .wz import CheckResult, ConvergenceBudgetExceeded

GUARD_BITS = 64

#: Hard cap on series terms, protecting the q -> 1 scans from runaway loops.
MAX_TERMS = 10**6


@dataclass
class EvalReport:
    value: mpmath.mpf
    tail_bound: mpmath.mpf
    terms_used: int


@dataclass
class LimitPoint:
    j: int
    q: mpmath.mpf
    value: mpmath.mpf
    distance: mpmath.mpf
    terms_used: int


def working_prec(digits: int) -> int:
    """Binary working precision for a decimal-digit target."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return math.ceil(digits * math.log2(10)) + GUARD_BITS


def _to_mpf(x) -> mpmath.mpf:
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _default_prec(eps) -> int:
    """The working precision for a tolerance eps when the caller gives none,
    computed at a fixed 53 bits whatever the ambient precision."""
    with mpmath.workprec(53):
        return GUARD_BITS + max(64, int(-mpmath.log(_to_mpf(eps), 2)) + 16)


def _check_q(qm) -> None:
    if not (0 < qm < 1):
        raise ValueError("q must lie strictly between 0 and 1")


_SERIES = (SeriesId.J2_LHS, SeriesId.L2_LHS, SeriesId.SUN_LHS)

#: Guard bits of the integer loops above the working precision, on top of
#: twice the bits that the brackets 1 - q^m lose as q -> 1 (`_loop_bits`).
LOOP_GUARD_BITS = 16


def _loop_bits(qm) -> int:
    """P, the bits of the integer loops at q = qm: the working precision,
    LOOP_GUARD_BITS, and 2 log2(1/(1 - q)) for the round-off that grows as
    q -> 1 (module docstring)."""
    return mpmath.mp.prec + LOOP_GUARD_BITS + 2 * max(0, -mpmath.mag(1 - qm))


def _fixed(x, bits: int) -> int:
    """floor(x 2^bits) for an mpf x."""
    return mpmath.libmp.to_fixed(x._mpf_, bits)


def _mpf(man: int, exp: int) -> mpmath.mpf:
    """man 2^exp, rounded to the working precision."""
    return mpmath.mpf((man, exp))


class _Powers:
    """The powers q^m, m >= 0, of one q at P = `_loop_bits(q)` bits, grown on
    demand by `upto`.  q^m is man[m] 2^exp[m] with a P-bit mantissa, so tiny
    powers keep their relative precision, and brackets[m] is 1 - q^m scaled
    by 2^P.  Each power is the one before times q, floored."""

    def __init__(self, qm):
        self.bits = bits = _loop_bits(qm)
        self.one = 1 << bits
        _, man, exp, bc = qm._mpf_
        self.q, self.q_exp = man << (bits - bc), exp + bc - bits
        self.man, self.exp, self.brackets = [1 << (bits - 1)], [1 - bits], [0]

    def upto(self, top: int) -> None:
        """Grow the table to q^top."""
        man, exp, brackets = self.man, self.exp, self.brackets
        bits, one, q, q_exp = self.bits, self.one, self.q, self.q_exp
        while len(man) <= top:
            p = man[-1] * q
            shift = p.bit_length() - bits
            e = exp[-1] + q_exp + shift
            man.append(p >> shift)
            exp.append(e)
            brackets.append(one - (p >> shift - e - bits))


#: Each series' term ratios t_k/t_(k-1), k >= 1, as (num, den, shift, ups,
#: downs, top): num/den q**shift times the brackets (1 - q**m) of the m in
#: ups over those in downs, each m listed once per power, and top the
#: largest power of q the ratio reads.  They do not depend on q and cost
#: more to read than to use, so the first RATIO_MEMO_CAP are kept (how many
#: a walk needs grows with eps).
RATIO_MEMO_CAP = 4096
_RATIOS: dict[SeriesId, list] = {}


def _series_ratios(sid: SeriesId):
    """The term ratios of one series, read off `summand_factors` by the
    stream both exact walks read (`factored._term_changes`)."""
    memo = _RATIOS.setdefault(sid, [])
    yield from memo
    k = len(memo)
    stream = _term_changes(summand_factors(sid, None, j) for j in itertools.count(k))
    next(stream)  # t_k against 1
    for k, (coeff, shift, changes, _) in enumerate(stream, k + 1):
        ups = tuple(m for m, e, p in changes for _ in range(e - p))
        downs = tuple(m for m, e, p in changes for _ in range(p - e))
        ratio = coeff.numerator, coeff.denominator, shift, ups, downs, max(shift, *ups, *downs)
        if k == len(memo) + 1 <= RATIO_MEMO_CAP:
            memo.append(ratio)
        yield ratio


def _series_terms(sid: SeriesId, powers: _Powers):
    """The terms t_1, t_2, ... of one of the three series at the q of the
    table `powers` (t_0 = 1), each the one before times its ratio, as pairs
    (man, exp) for man 2^exp.

    `eval_series` shares the table with `_ratio_bound`.  A term is carried
    as an integer mantissa of P bits and a binary exponent, so it keeps its
    relative precision however small it gets; each step multiplies by the
    ratio's q-power and brackets, divides by its lower brackets once, and
    floors to P bits."""
    bits, man, exp, brackets = powers.bits, powers.man, powers.exp, powers.brackets
    term, term_exp = man[0], exp[0]  # t_0 = 1
    for num, den, shift, ups, downs, top in _series_ratios(sid):
        powers.upto(top)
        t = num * term * man[shift]
        e = term_exp + exp[shift] + bits * (len(downs) - len(ups))
        for m in ups:
            t *= brackets[m]
        for m in downs:
            den *= brackets[m]
        grow = bits + den.bit_length() - t.bit_length()
        if grow > 0:
            t <<= grow
            e -= grow
        t //= den
        drop = t.bit_length() - bits
        term, term_exp = t >> drop, e + drop
        yield term, term_exp


def eval_series(
    sid: SeriesId,
    q,
    eps,
    prec: int | None = None,
) -> EvalReport:
    """Evaluate one of the three infinite series at real q in (0, 1).

    Stops once the geometric tail bound drops below eps; raises
    ConvergenceBudgetExceeded if MAX_TERMS is hit first.  The sum is an
    integer scaled by 2^P, each term added floored, and the stop test
    |t_k| U/(1 - U) <= eps compares integers exactly.
    """
    if sid not in _SERIES:
        raise ValueError(f"{sid} is not an evaluable infinite series")
    if prec is None:
        prec = _default_prec(eps)
    with mpmath.workprec(prec):
        qm = _to_mpf(q)
        _check_q(qm)
        epsm = _to_mpf(eps)
        if epsm <= 0:
            raise ValueError("eps must be positive")
        _, eps_man, eps_exp, _ = epsm._mpf_
        powers = _Powers(qm)
        bits = powers.bits
        total = powers.one  # k = 0 term of all three series
        for k, (term, term_exp) in enumerate(itertools.islice(_series_terms(sid, powers), MAX_TERMS), 1):
            shift = term_exp + bits
            total += term << shift if shift >= 0 else term >> -shift
            bound, bound_exp = _ratio_bound(sid, powers, k)
            gap = (1 << -bound_exp) - bound  # (1 - U) 2^-bound_exp
            if gap > 0:
                # |t| U <= eps (1 - U), both sides times 2^-bound_exp
                lhs, rhs = abs(term) * bound, eps_man * gap
                if term_exp >= eps_exp:
                    lhs <<= term_exp - eps_exp
                else:
                    rhs <<= eps_exp - term_exp
                if lhs <= rhs:
                    term, bound = _mpf(term, term_exp), _mpf(bound, bound_exp)
                    return EvalReport(_mpf(total, -bits), abs(term) * bound / (1 - bound), k + 1)
        raise ConvergenceBudgetExceeded(
            f"{sid.value} at q={mpmath.nstr(qm, 8)}: no tail bound within {MAX_TERMS} terms"
        )


def _ratio_bound(sid: SeriesId, powers: _Powers, k: int):
    """An upper bound U(k) on |t_(j+1)/t_j| for every j >= k, strict and
    non-increasing in k, at the q of the table `powers`.

    With y = q^(2k+1) and z = qy = q^(2k+2), the true ratios at j = k are

      J2:  y (1 - q^(6k+7))/(1 - q^(6k+1)) (1 - y)^2 (1 - y^2) / (1 - z^2)^3
      L2:  y^3 (1 - q^(6k+7))/(1 - q^(6k+1)) (1 - y)^3 / (1 - z^2)^3
      SUN: y (1 - y) / (1 - z^2)

    Split 1 - y^2 = (1 - y)(1 + y) and 1 - z^2 = (1 - z)(1 + z), and use
    0 < (1 - y)/(1 - z) < 1 (as y > z) and (1 - q^a)/(1 - q^b) <= a/b for
    a > b (the mean of 1, q, ..., q^(a-1) is at most that of its first b
    terms).  This gives

      J2:  U(k) = (6k+7)/(6k+1) y (1 + y)/(1 + z)^3
      L2:  U(k) = (6k+7)/(6k+1) y^3/(1 + z)^3
      SUN: U(k) = y/(1 + z)

    each strictly above the ratio at j = k.  U falls as k grows: (6k+7)/(6k+1)
    falls, y falls, y/(1 + qy) rises with y, and the y-derivative of
    y (1 + y)/(1 + qy)^3 has the sign of 1 + 2y(1 - q) - qy^2 > 0.  So U(k)
    is above the ratio at every j >= k as well.  y and z come from the
    table of powers, and U is one integer quotient, floored, returned as
    (man, exp) for man 2^exp with exp < 0.
    """
    powers.upto(2 * k + 2)
    bits, one = powers.bits, powers.one
    y, y_exp = powers.man[2 * k + 1], powers.exp[2 * k + 1]
    z1 = 2 * one - powers.brackets[2 * k + 2]  # 1 + z
    if sid is SeriesId.J2_LHS:
        y1 = 2 * one - powers.brackets[2 * k + 1]  # 1 + y
        return ((6 * k + 7) * y * y1 << 2 * bits) // ((6 * k + 1) * z1 * z1 * z1), y_exp
    if sid is SeriesId.L2_LHS:
        return ((6 * k + 7) * y * y * y << 3 * bits) // ((6 * k + 1) * z1 * z1 * z1), 3 * y_exp
    return (y << bits) // z1, y_exp


def _qpoch_inf(first_exp, step: int, qm, epsm) -> EvalReport:
    """(x; Q)_inf = prod_(m>=0) (1 - x Q^m) with x = q^first_exp, Q = q^step,
    and a rigorous truncation bound.

    first_exp may be any positive real; step is a positive integer.  The
    leading factors are multiplied out while x > 1/2 or x > Q, so that the
    series below converges at least as fast as more factors would.  For the
    rest, expanding each log(1 - x Q^m) and summing the geometric series in m
    gives log (x; Q)_inf = -sum_(r>=1) x^r / (r (1 - Q^r)), and L_R is its
    first R terms.  Every term is positive and 1/(r (1 - Q^r)) falls as r grows, so
    the remainder after R terms lies in [0, rem] with
    rem = x^(R+1) / ((R+1) (1 - Q^(R+1)) (1 - x)).  The value prod exp(-L_R)
    is therefore at most |value| rem above the true product
    (1 - exp(-rem) <= rem).  The stop is on rem, the relative error, which
    quotients of vanishingly small products need near q -> 1; as the value
    lies in (0, 1), the reported absolute tail_bound |value| rem is at most
    eps too.  terms_used counts factors and log terms, and MAX_TERMS caps
    their total.

    Both loops run on integers scaled by 2^P (`_loop_bits`): x Q^n, Q^r and
    the log sum, with one division per log term, and the stop tests the
    term against eps (1 - x).  The leading product, which can underflow any
    fixed scale ((q; q)_inf is about e^-1684 at q = 1023/1024), is a P-bit
    mantissa with a binary exponent, floored to P bits after every factor.
    As 1 - x >= 1 - q at the stop, P keeps at least 64 bits of eps (1 - x)
    however small eps is against the working precision.
    """
    bits = max(_loop_bits(qm), 64 - mpmath.mag(epsm * (1 - qm)))
    one = 1 << bits
    with mpmath.workprec(bits):
        q_step = _fixed(qm**step, bits)
        x = _fixed(qm**first_exp, bits)
    prod, prod_exp = one, -bits
    used = 0
    while x > q_step or 2 * x > one:
        used += 1
        if used > MAX_TERMS:
            raise ConvergenceBudgetExceeded("infinite product tail bound not met")
        prod *= one - x
        drop = prod.bit_length() - bits
        prod >>= drop
        prod_exp += drop - bits
        x = x * q_step >> bits
    stop = _fixed(epsm, bits) * (one - x) >> bits  # eps (1 - x)
    log_sum = 0
    x_r = q_r = one
    for r in itertools.count(1):
        x_r = x_r * x >> bits
        q_r = q_r * q_step >> bits
        term = (x_r << bits) // (r * (one - q_r))
        if term <= stop:  # rem = term / (1 - x), the remainder after r - 1 terms, is <= eps
            break
        used += 1
        if used > MAX_TERMS:
            raise ConvergenceBudgetExceeded("infinite product tail bound not met")
        log_sum += term
    with mpmath.workprec(bits):
        value = _mpf(prod, prod_exp) * mpmath.exp(-_mpf(log_sum, -bits))
    value = mpmath.mpf(value)  # rounded to the working precision
    return EvalReport(value, value * (_mpf(term, -bits) / _mpf(one - x, -bits)), used)


def eval_qpoch_inf(base_exp: int, step: int, q, eps, prec: int | None = None) -> EvalReport:
    """(q^base_exp; q^step)_infinity for integer base_exp >= 1, step >= 1."""
    if base_exp < 1 or step < 1:
        raise ValueError("base_exp and step must be >= 1")
    if prec is None:
        prec = _default_prec(eps)
    with mpmath.workprec(prec):
        qm = _to_mpf(q)
        _check_q(qm)
        epsm = _to_mpf(eps)
        if epsm <= 0:
            raise ValueError("eps must be positive")
        return _qpoch_inf(base_exp, step, qm, epsm)


# ---------------------------------------------------------------------------
# Interval-style combination of reports.
# ---------------------------------------------------------------------------


def _rep_mul(a: EvalReport, b: EvalReport) -> EvalReport:
    value = a.value * b.value
    bound = abs(a.value) * b.tail_bound + abs(b.value) * a.tail_bound + a.tail_bound * b.tail_bound
    return EvalReport(value, bound, a.terms_used + b.terms_used)


def _rep_div(a: EvalReport, b: EvalReport) -> EvalReport:
    low = abs(b.value) - b.tail_bound
    if low <= 0:
        raise ArithmeticError("division by an interval containing zero")
    value = a.value / b.value
    bound = (a.tail_bound + abs(value) * b.tail_bound) / low
    return EvalReport(value, bound, a.terms_used + b.terms_used)


def _rep_scale(a: EvalReport, c) -> EvalReport:
    return EvalReport(a.value * c, a.tail_bound * abs(c), a.terms_used)


NUMERIC_IDENTITIES = ("A1", "A11", "SLATER", "PRODFACT")


def check_identity_numeric(which: str, q, digits: int) -> CheckResult:
    """Evaluate both sides of an infinite identity and compare.

    Passes iff |LHS - RHS| <= 10^-digits plus both tail bounds.  The error
    is absolute, so where both sides vanish a PASS says little: PRODFACT's
    sides both tend to 0 as q -> 1 (each is 4.07e-34 at q = 99/100), and
    near 1 its PASS certifies nothing beyond |LHS - RHS| <= 10^-digits.
    """
    which = which.upper()
    if which not in NUMERIC_IDENTITIES:
        raise ValueError(f"unknown numeric identity {which!r}")
    prec = working_prec(digits)
    with mpmath.workprec(prec):
        qm = _to_mpf(q)
        _check_q(qm)
        eps_side = mpmath.mpf(10) ** (-digits - 5)
        eps_part = eps_side / 8
        qp = lambda b, s: _qpoch_inf(b, s, qm, eps_part)  # noqa: E731
        if which == "A1":
            lhs = eval_series(SeriesId.J2_LHS, qm, eps_side, prec=prec)
            den = qp(4, 4)
            rhs = _rep_div(_rep_div(_rep_mul(qp(2, 4), qp(6, 4)), den), den)
            rhs = _rep_scale(rhs, 1 + qm)
        elif which == "A11":
            lhs = eval_series(SeriesId.L2_LHS, qm, eps_side, prec=prec)
            den = qp(4, 4)
            rhs = _rep_div(_rep_div(_rep_mul(qp(3, 4), qp(5, 4)), den), den)
        elif which == "SLATER":
            lhs = eval_series(SeriesId.SUN_LHS, qm, eps_side, prec=prec)
            num = qp(2, 4)
            rhs = _rep_div(_rep_mul(num, num), qp(1, 2))
        else:  # PRODFACT
            lhs = _rep_scale(qp(1, 2), 1 / (1 - qm))
            rhs = _rep_mul(qp(3, 4), qp(5, 4))
        diff = abs(lhs.value - rhs.value)
        allowed = mpmath.mpf(10) ** (-digits) + lhs.tail_bound + rhs.tail_bound
        label = f"{which.lower()} q={mpmath.nstr(qm, 12)} digits={digits}"
        return CheckResult(
            diff <= allowed,
            label,
            bound=diff,
            terms=lhs.terms_used + rhs.terms_used,
        )


CLASSICAL_SERIES = ("PI1", "PI2")


def eval_classical(which: str, digits: int) -> EvalReport:
    """The two classical central-binomial series, summed exactly by the term
    recurrence and rounded once at the end.

    With E = 10^(digits + 5), so that the tail must be at most 1/E, the
    term is p/(E Q) and the sum S/(E Q) over one running integer
    denominator Q: a step by the ratio num/den makes S <- S den + p num,
    p <- p num and Q <- Q den.  The stop test cross-multiplies, and each
    fraction is reduced once, at the end, so the report is that of the same
    sum in lowest terms."""
    prec = working_prec(digits)
    which = which.upper()
    if which not in CLASSICAL_SERIES:
        raise ValueError(f"unknown classical series {which!r}")
    scale = 10 ** (digits + 5)
    base = 4 if which == "PI1" else 8
    sign = 1 if which == "PI1" else -1
    p = total = scale
    denom = 1
    k = 0
    while True:
        # sup over j >= k of |t_{j+1}/t_j| is at most c = (6k+7)/(base (6k+1))
        # (the cubed fraction is < 1 and the leading ratio decreases in k),
        # and the tail is at most |t_k| c/(1 - c).
        cap, gap = 6 * k + 7, base * (6 * k + 1) - (6 * k + 7)
        if gap > 0 and abs(p) * cap <= denom * gap:
            break
        a, b = 2 * k + 1, 2 * k + 2
        num = sign * cap * a * a * a
        den = (6 * k + 1) * b * b * b * base
        total = total * den + p * num
        p *= num
        denom *= den
        k += 1
    denom *= scale
    total, tail = Fraction(total, denom), Fraction(abs(p) * cap, denom * gap)
    with mpmath.workprec(prec):
        value = mpmath.mpf(total.numerator) / total.denominator
        tail_val = mpmath.mpf(tail.numerator) / tail.denominator
    return EvalReport(value, tail_val, k + 1)


def classical_target(which: str, prec: int) -> mpmath.mpf:
    """4/pi or 2*sqrt(2)/pi from the constant routines, independently of the
    series under test."""
    which = which.upper()
    with mpmath.workprec(prec):
        if which == "PI1":
            return 4 / mpmath.pi
        if which == "PI2":
            return 2 * mpmath.sqrt(2) / mpmath.pi
    raise ValueError(f"unknown classical series {which!r}")


def q_gamma(x, q, digits: int) -> EvalReport:
    """Gamma_q(x) = (q;q)_inf / (q^x;q)_inf * (1-q)^(1-x) for 0 < q < 1, x > 0."""
    prec = working_prec(digits)
    with mpmath.workprec(prec):
        qm = _to_mpf(q)
        _check_q(qm)
        xm = _to_mpf(x)
        if xm <= 0:
            raise ValueError("x must be positive")
        epsm = mpmath.mpf(10) ** (-digits - 5)
        num = _qpoch_inf(1, 1, qm, epsm / 4)
        den = _qpoch_inf(xm, 1, qm, epsm / 4)
        rep = _rep_div(num, den)
        return _rep_scale(rep, (1 - qm) ** (1 - xm))


LIMIT_TARGETS = ("PI1", "PI2")

#: The scan indices j that limit_scan accepts, with q_j = 1 - 2^-j.
LIMIT_JS = range(2, 17)


def limit_scan(which: str, j_range, digits: int = 12) -> list[LimitPoint]:
    """Evaluate the q-series at q_j = 1 - 2^-j and report the distance to the
    classical value; distances are reported, not asserted monotone."""
    which = which.upper()
    if which not in LIMIT_TARGETS:
        raise ValueError(f"unknown limit target {which!r}")
    sid = SeriesId.J2_LHS if which == "PI1" else SeriesId.L2_LHS
    js = list(j_range)
    if any(j not in LIMIT_JS for j in js):
        raise ValueError(f"j must lie in {LIMIT_JS[0]}..{LIMIT_JS[-1]}")
    prec = working_prec(digits) + 32
    points = []
    for j in js:
        with mpmath.workprec(prec):
            qj = 1 - mpmath.mpf(2) ** (-j)
            rep = eval_series(sid, qj, mpmath.mpf(10) ** (-digits), prec=prec)
            target = classical_target(which, prec)
            dist = abs(rep.value - target)
        points.append(LimitPoint(j, qj, rep.value, dist, rep.terms_used))
    return points
