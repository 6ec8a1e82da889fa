"""Cyclotomic supercongruences and the classical p-adic congruence.

Rational-function congruences use reduced-form semantics: A/B == 0 (mod M)
means that in lowest terms M divides A and gcd(B, M) = 1.  Truncated sums are
checked along two independent routes:

* a modular fast path that accumulates the sum minus its right side in one
  walk, as a residue pair A / D in Z[q]/((1 - q^n)^2), each residue held as two
  packed integers X, Y standing for X + (q^n - 1) Y so that a bracket is a
  rotation of their slots, and reduces A and D by M once (once D is coprime
  to M, the congruence holds iff A == 0, so a pass inverts nothing), and
* an exact path that forms the difference over its structured common
  denominator, folds its numerator once modulo (q^n - 1)^K (`u_fold`), and
  reads off the multiplicity of every irreducible factor of M from that
  residue of fewer than K n coefficients, which is what reduced-form
  semantics amount to; every factor of M divides q^n - 1, and K covers the
  largest count any of them needs.  A failure's witness is built from the
  same residue.

A failure's witness is its residue in Q[q]/(M), certified in integer arithmetic
by `_residue`, which takes integer lists and the monic integer M.  The modular
route passes its pair A / D as it stands.  The exact route takes its value as
`FactoredSum.as_quotient` writes it, a rational scale times integer lists with
the prefactor's sign, content, cyclotomics and q-shift applied, so this module
never reads a prefactor's brackets.  `congruent_zero`, the one caller that
holds a `RatFunc` and a `Poly` modulus, splits off their contents itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .factored import (
    FactoredSum,
    FactorList,
    negated,
    sum_terms,
    sum_terms_mod,
    u_fold,
)
from .polys import (
    Poly,
    content_split,
    divisors,
    expand_cyclo_powers,
    factorize,
    list_add,
    list_inv_mod_p,
    list_mod_monic,
    list_mul,
    list_scale,
    poly_gcd,
)
from .qseries import (
    SeriesId,
    WzPairId,
    parity_power,
    series_factors,
    sun_closed_form,
    wz_term_factors,
)
from .ratfunc import RatFunc
from .wz import CheckResult


class NonInvertibleDenominator(ArithmeticError):
    """The denominator is not invertible modulo the modulus."""


class GcdNotCoprime(ArithmeticError):
    """The congruence is ill-posed: the reduced denominator shares a factor
    with the modulus.  Reported distinctly from a mathematical failure."""


class ExactPathLimit(RuntimeError):
    """The requested case needs the exact path beyond its configured bound."""


class ModulusKind(Enum):
    PHI_SQUARED = "phi-squared"
    N_PHI = "n-phi"


@dataclass(frozen=True)
class ModulusContext:
    """A modulus polynomial together with its irreducible factorization."""

    n: int
    kind: ModulusKind
    coeffs: tuple[int, ...]  # the monic modulus, as integer coefficients
    factor_mults: tuple[tuple[int, int], ...]  # (cyclotomic index, multiplicity)


def modulus_build(n: int, kind: ModulusKind) -> ModulusContext:
    """Phi_n(q)**2 or [n]*Phi_n(q) for odd n, with factor bookkeeping."""
    if n < 1 or n % 2 == 0:
        raise ValueError("modulus index must be odd and >= 1")
    if kind is ModulusKind.PHI_SQUARED:
        mults = {n: 2}
    elif kind is ModulusKind.N_PHI:
        # [n] is the product of Phi_d over the divisors d > 1 of n, so both
        # modulus kinds coincide for prime n.
        mults = {d: 1 for d in divisors(n) if d > 1}
        mults[n] = mults.get(n, 0) + 1
    else:
        raise ValueError(f"unknown modulus kind {kind}")
    return ModulusContext(n, kind, tuple(expand_cyclo_powers(mults)), tuple(sorted(mults.items())))


def _residue(N: Sequence[int], D: Sequence[int], mod: Sequence[int]) -> list[Fraction]:
    """The coefficients of N / D in Q[q]/(M), for integer lists N and D and a
    monic integer modulus M.

    With N and D reduced by M, the inverse of D mod (M, p) is lifted by
    Newton's u <- u(2 - D u) mod p^(2^k); N u is rationally reconstructed
    into w = c W and returned once D W c == N (mod M) holds exactly.  D
    sharing a factor with M raises instead.
    """
    if len(mod) == 1:  # Q[q]/(1) is the zero ring
        return []
    N, D = list_mod_monic(N, mod), list_mod_monic(D, mod)
    # The primes skipped are the divisors of the nonzero resultant Res(D, M).
    for P in filter(is_prime, range(2**31 - 1, 2, -2)):
        u = list_inv_mod_p(D, mod, P)
        if u is not None:
            break
        g = poly_gcd(Poly(D), Poly(mod))
        if g.degree > 0:
            raise NonInvertibleDenominator(f"denominator shares the factor {g!r} with the modulus")
    while True:
        w = _rational_lift(_mul_mod(N, u, mod, P), P)
        if w is not None:
            c, W = content_split(w)
            check = list_add(list_scale(list_mul(D, W), c.numerator), list_scale(N, -c.denominator))
            if not list_mod_monic(check, mod):
                return w
        P *= P
        u = _mul_mod(u, list_add([2], list_scale(_mul_mod(D, u, mod, P), -1)), mod, P)


def _monic_int(modulus: Poly) -> list[int]:
    """The monic integer form of a nonzero modulus: it exists exactly when
    the primitive part's leading coefficient is +-1."""
    _, m = content_split(modulus.coeffs)
    if abs(m[-1]) != 1:
        raise ValueError(f"modulus {modulus!r} has no integral monic form")
    return m if m[-1] == 1 else [-c for c in m]


def _mul_mod(a: list[int], b: list[int], mod: list[int], P: int) -> list[int]:
    return [v % P for v in list_mod_monic(list_mul(a, b), mod)]


def _rational_lift(x: list[int], P: int) -> list[Fraction] | None:
    """Rationals a / b == x (mod P) with |a|, |b| <= sqrt(P/2), found with a
    running common denominator; None when some coefficient has none."""
    bound = math.isqrt(P // 2)
    out, den = [], 1
    for v in x:
        r0, r1, t0, t1 = P, v * den % P, 0, 1
        while r1 > bound:
            k = r0 // r1
            r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
        if abs(t1) > bound:
            return None
        out.append(Fraction(r1, t1 * den))
        den *= abs(t1)
    return out


def congruent_zero(r: RatFunc, m: Poly, label: str = "congruent-zero") -> CheckResult:
    """Reduced-form congruence r == 0 (mod m): m | num(r) and gcd(den(r), m) = 1,
    for m integral and monic up to a scalar.  Both halves are read off
    `_residue` of num(r) and den(r) as contents times integer lists: it
    exists iff den(r) is invertible modulo m, and it is zero iff m | num(r);
    a nonzero residue, times the contents' ratio, is the failure's witness."""
    if m.is_zero():
        raise ValueError("zero modulus")
    (a, N), (b, D) = content_split(r.num.coeffs), content_split(r.den.coeffs)
    try:
        w = _residue(N, D, _monic_int(m))
    except NonInvertibleDenominator:
        g = poly_gcd(r.den, m)
        raise GcdNotCoprime(f"{label}: denominator shares {g!r} with the modulus") from None
    if not any(w):
        return CheckResult(True, label)
    return CheckResult(False, label, witness=RatFunc.from_poly(Poly(w) * (a / b)))


def _check_congruence_modular(
    terms: list[FactorList], rhs: FactorList, ctx: ModulusContext, label: str
) -> CheckResult:
    acc, den, den_brackets = sum_terms_mod([negated(rhs), *terms], ctx.coeffs, ctx.n)
    # The accumulated denominator is an integer times a q-power times
    # brackets (1 - q^m); Phi_d divides such a bracket exactly when d | m, so
    # coprimality with the modulus is a divisibility scan, not a gcd.
    for d, _ in ctx.factor_mults:
        shared = [m for m in den_brackets if m % d == 0]
        if shared:
            raise NonInvertibleDenominator(
                f"{label}: denominator bracket 1-q^{shared[0]} shares the "
                f"index-{d} cyclotomic with the modulus"
            )
    if not acc:
        return CheckResult(True, label)
    return CheckResult(False, label, witness=RatFunc.from_poly(Poly(_residue(acc, den, ctx.coeffs))))


def _check_congruence_exact(
    terms: list[FactorList], rhs: FactorList, ctx: ModulusContext, label: str
) -> CheckResult:
    # The right side goes first.  Like the k = 0 summand it lacks the
    # series' brackets, so binary splitting multiplies them into one run
    # holding both; last, it would be multiplied by all of them on its own.
    fs = sum_terms([negated(rhs), *terms])
    if fs.is_zero():
        return CheckResult(True, label)
    # Every factor Phi_d of M divides u = q^n - 1, so Phi_d^k divides u^K for
    # k <= K: with K the largest count any factor needs past the prefactor,
    # the numerator mod u^K counts each of them as the numerator does.
    mults = dict(ctx.factor_mults)
    pref = fs.prefactor.cyclo_mults()
    fold = max(mult - pref.get(d, 0) for d, mult in mults.items())
    folded = FactoredSum(fs.prefactor, u_fold(fs.num, ctx.n, fold))
    counts = {d: folded.cyclo_multiplicity(d, mult) for d, mult in mults.items()}
    if min(counts.values()) < 0:
        raise GcdNotCoprime(f"{label}: reduced denominator shares a factor with the modulus")
    if counts == mults:
        return CheckResult(True, label)
    # The witness is the residue mod M of the folded value.  The folded
    # numerator differs from the whole one by a multiple of u^K, so for each
    # factor Phi_d^(m_d) of M, with Phi_d^(p_d) in the prefactor, the value
    # moves by a multiple of Phi_d^(p_d + K); K >= m_d - p_d makes the move a
    # multiple of M.  No factor of M has a negative count, so the folded
    # numerator holds each of their Phi_d^(-p_d), which `as_quotient`
    # divides out by their known counts; the prefactor's other denominator
    # cyclotomics are coprime to M.  M divides u^2, so both sides fold to 2n
    # coefficients before `_residue`.
    scale, num, den = folded.as_quotient(mults)
    w = _residue(u_fold(num, ctx.n, 2), u_fold(den, ctx.n, 2), ctx.coeffs)
    return CheckResult(False, label, witness=RatFunc.from_poly(Poly(w) * scale))


def verify_modsun(n: int, path: str = "auto") -> CheckResult:
    """Check sum_{k=0}^{(n-1)/2} q^(k^2) (q;q^2)_k / (q^4;q^4)_k against
    (-q)^((1-n^2)/8) modulo Phi_n(q)**2 for odd n."""
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and >= 1")
    if path not in ("auto", "modular", "exact"):
        raise ValueError("path must be auto, modular, or exact")
    resolved = "modular" if path in ("auto", "modular") else "exact"
    ctx = modulus_build(n, ModulusKind.PHI_SQUARED)
    label = f"modsun n={n} ({resolved})"
    check = _check_congruence_modular if resolved == "modular" else _check_congruence_exact
    return check(series_factors(SeriesId.SUN_LHS, n, (n - 1) // 2), sun_closed_form(n), ctx, label)


#: Largest composite n handled by the exact rational-function path by default.
#: The path folds its sum's numerator once modulo (q^n - 1)^K and counts the
#: factors of M, or builds a failure's witness, from that short residue, so
#: the exact sum and the fold set its cost.  J2 at n = 99 is the largest
#: case: its sum's numerator has 58,312 coefficients of up to 186 bits, and
#: the fold takes K = 97.
DEFAULT_EXACT_LIMIT = 99


def verify_intro(
    pair: WzPairId,
    n: int,
    path: str = "auto",
    exploratory: bool = False,
) -> CheckResult:
    """Check the truncated sums against [n](-q)^e modulo [n]*Phi_n(q).

    PAIR_J2 is stated for every odd n; PAIR_L2 only for odd prime powers
    (pass exploratory=True to evaluate other odd n anyway).  Both routes sum
    the same factor lists, the right side's included: prime n runs on the
    modular fast path, composite n needs the exact path, whose size is
    capped by `DEFAULT_EXACT_LIMIT`.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and >= 1")
    if path not in ("auto", "modular", "exact"):
        raise ValueError("path must be auto, modular, or exact")
    if pair is WzPairId.PAIR_L2 and not exploratory and not is_prime_power(n):
        raise ValueError("the PAIR_L2 congruence is stated for odd prime powers only")
    if pair is WzPairId.PAIR_J2:
        e = (1 - n) // 2
    else:
        e, r = divmod(-(n - 1) * (n + 5), 8)
        if r:
            raise ArithmeticError("odd n must make the exponent integral")
    rhs = parity_power(e), e, [(n, 1, 1, 1), (1, 1, 1, -1)]
    ctx = modulus_build(n, ModulusKind.N_PHI)
    if path == "auto":
        resolved = "modular" if is_prime(n) else "exact"
    else:
        resolved = path
    if resolved == "modular" and not is_prime(n):
        # Composite denominators share factors with [n]; the fast path cannot
        # certify coprimality there.
        raise NonInvertibleDenominator(
            f"intro {pair.value} n={n}: modular path requires prime n"
        )
    if resolved == "exact" and n > DEFAULT_EXACT_LIMIT:
        raise ExactPathLimit(
            f"intro {pair.value} n={n}: exact path capped at n <= {DEFAULT_EXACT_LIMIT}"
        )
    label = f"intro {pair.value} n={n} ({resolved})"
    check = _check_congruence_modular if resolved == "modular" else _check_congruence_exact
    return check([wz_term_factors(pair, "F", k, 0) for k in range(n)], rhs, ctx, label)


# ---------------------------------------------------------------------------
# Classical p-adic ingredients.
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


def is_prime_power(n: int) -> bool:
    return n >= 2 and len(factorize(n)) == 1


_euler_even: list[int] = [1]  # E_0, E_2, E_4, ... by the secant recurrence


def euler_number(m: int) -> int:
    """E_m with E_0 = 1 and sum_j binom(m, 2j) E_2j = 0 for even m >= 2;
    odd-index values are zero."""
    if m < 0:
        raise ValueError("Euler number index must be >= 0")
    if m % 2:
        return 0
    i = m // 2
    while len(_euler_even) <= i:
        mm = 2 * len(_euler_even)
        acc = 0
        for j in range(len(_euler_even)):
            acc += math.comb(mm, 2 * j) * _euler_even[j]
        _euler_even.append(-acc)
    return _euler_even[i]


def legendre_symbol(a: int, p: int) -> int:
    """Euler's criterion a^((p-1)/2) mod p mapped to {-1, 0, +1}."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    t = pow(a % p, (p - 1) // 2, p)
    if t == p - 1:
        return -1
    if t not in (0, 1):
        raise ArithmeticError(f"Euler's criterion gave {t} for an odd prime p = {p}")
    return t


@dataclass(frozen=True)
class PadicWitness:
    p: int
    difference: Fraction
    valuation: int


def verify_sun(p: int, min_valuation: int = 3) -> tuple[PadicWitness, CheckResult]:
    """Exact p-adic check of the truncated central-binomial sum against the
    Legendre/Euler-number closed form, requiring valuation >= min_valuation."""
    if p < 5 or not is_prime(p):
        raise ValueError("p must be a prime >= 5")
    total = sum(Fraction(math.comb(2 * k, k), 8**k) for k in range((p - 1) // 2 + 1))
    closed = legendre_symbol(2, p) + Fraction(legendre_symbol(-2, p) * p * p, 4) * euler_number(p - 3)
    diff = total - closed
    if diff == 0:
        valuation = min_valuation  # unreachable for a genuine congruence; defensive
    else:
        if diff.denominator % p == 0:
            raise ArithmeticError(f"p = {p} divides the denominator of the difference")
        num = abs(diff.numerator)
        valuation = 0
        while num % p == 0:
            num //= p
            valuation += 1
    witness = PadicWitness(p, diff, valuation)
    label = f"sun p={p} (valuation {valuation}, need >= {min_valuation})"
    return witness, CheckResult(valuation >= min_valuation, label)


def check_square_completion(n: int, j: int) -> bool:
    """Exact Laurent identity
    (1-q^(n-2j+1))(1-q^(n+2j-1)) + (1-q^(2j-1))^2 q^(n-2j+1) = (1-q^n)^2."""
    a = n - 2 * j + 1
    terms = [
        (1, 0, [(a, 1, 1, 1), (n + 2 * j - 1, 1, 1, 1)]),
        (1, a, [(2 * j - 1, 1, 1, 2)]),
        (-1, 0, [(n, 1, 1, 2)]),
    ]
    return sum_terms(terms).is_zero()
