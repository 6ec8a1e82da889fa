"""Factored q-products and the exact summation kernels built on them.

Every summand handled by this package is a product of a rational coefficient,
a power of q, and "brackets" (1 - q**m) with integer exponents; q-integers and
q-shifted factorials with integer exponents all decompose this way, with
(1 - q**-m) = -q**-m (1 - q**m) normalizing negative exponents.  Since each
bracket splits into distinct irreducible cyclotomic factors, products can be
reduced exactly without any polynomial gcd, and sums of many such terms can be
accumulated over a structured common denominator using only O(degree) per
bracket operations on plain integer coefficient lists.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .polys import (
    Poly,
    cyclotomic_int,
    divisors,
    expand_bracket_powers,
    expand_cyclo_powers,
    list_add,
    list_bracket_div,
    list_bracket_mul,
    list_div_exact_monic,
    list_is_zero,
    list_mod_monic,
    list_mul,
    list_scale,
    list_scale_div_exact,
    list_trim,
)
from .ratfunc import RatFunc


def divide_out_cyclotomic(c: list[int], d: int, cap: int) -> tuple[int, list[int]]:
    """Divide c by Phi_d up to cap times; returns (count, reduced c)."""
    phi = cyclotomic_int(d)
    count = 0
    while count < cap:
        quot = list_div_exact_monic(c, phi)
        if quot is None:
            break
        c = quot
        count += 1
    return count, c


# ---------------------------------------------------------------------------
# Factored products.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BracketProduct:
    """coeff * q**shift * prod_m (1 - q**m)**e_m with m >= 1 and e_m != 0.

    Zero is represented by coeff == 0 (shift 0, no brackets).
    """

    coeff: Fraction
    shift: int
    exps: tuple[tuple[int, int], ...]

    @staticmethod
    def make(coeff: Fraction | int, shift: int = 0, exps: Mapping[int, int] | None = None) -> BracketProduct:
        coeff = Fraction(coeff)
        if coeff == 0:
            return _ZERO_BP
        items = tuple(sorted((m, e) for m, e in (exps or {}).items() if e != 0))
        for m, _ in items:
            if m < 1:
                raise ValueError("bracket indices must be >= 1")
        return BracketProduct(coeff, shift, items)

    @staticmethod
    def one() -> BracketProduct:
        return _ONE_BP

    @staticmethod
    def zero() -> BracketProduct:
        return _ZERO_BP

    @staticmethod
    def from_exponent(e: int, power: int = 1) -> BracketProduct:
        """(1 - q**e)**power for any integer e, normalized to positive brackets."""
        if power == 0:
            return _ONE_BP
        if e == 0:
            return _ZERO_BP
        if e > 0:
            return BracketProduct.make(1, 0, {e: power})
        # 1 - q**e = -q**e (1 - q**-e)
        return BracketProduct.make((-1) ** (power % 2), e * power, {-e: power})

    @staticmethod
    def pochhammer(base_exp: int, step: int, count: int) -> BracketProduct:
        """prod_{j=0}^{count-1} (1 - q**(base_exp + j*step)) in factored form."""
        if count < 0:
            raise ValueError("pochhammer count must be >= 0")
        if step < 1:
            raise ValueError("pochhammer step must be >= 1")
        coeff = 1
        shift = 0
        exps: dict[int, int] = {}
        for j in range(count):
            e = base_exp + j * step
            if e == 0:
                return _ZERO_BP
            if e < 0:
                coeff = -coeff
                shift += e
                e = -e
            exps[e] = exps.get(e, 0) + 1
        return BracketProduct.make(coeff, shift, exps)

    @staticmethod
    def product(factors: Iterable[tuple[BracketProduct, int]]) -> BracketProduct:
        """prod f**e over (f, e) pairs with any integer e, normalized once."""
        coeff, shift, exps = Fraction(1), 0, {}
        for f, e in factors:
            if e < 0 and f.is_zero():
                raise ZeroDivisionError("division by zero factored product")
            coeff *= f.coeff**e  # a zero factor zeroes coeff; make() then returns zero
            shift += f.shift * e
            for m, fe in f.exps:
                exps[m] = exps.get(m, 0) + fe * e
        return BracketProduct.make(coeff, shift, exps)

    @staticmethod
    def q_integer(m: int) -> BracketProduct:
        """[m] = (1 - q**m)/(1 - q), extended to any integer m; [0] = 0."""
        if m == 0:
            return _ZERO_BP
        return BracketProduct.from_exponent(m) / BracketProduct.from_exponent(1)

    def is_zero(self) -> bool:
        return self.coeff == 0

    def exps_map(self) -> dict[int, int]:
        return dict(self.exps)

    def __mul__(self, other: BracketProduct) -> BracketProduct:
        if self.is_zero() or other.is_zero():
            return _ZERO_BP
        exps = self.exps_map()
        for m, e in other.exps:
            exps[m] = exps.get(m, 0) + e
        return BracketProduct.make(self.coeff * other.coeff, self.shift + other.shift, exps)

    def __truediv__(self, other: BracketProduct) -> BracketProduct:
        if other.is_zero():
            raise ZeroDivisionError("division by zero factored product")
        if self.is_zero():
            return _ZERO_BP
        exps = self.exps_map()
        for m, e in other.exps:
            exps[m] = exps.get(m, 0) - e
        return BracketProduct.make(self.coeff / other.coeff, self.shift - other.shift, exps)

    def __pow__(self, n: int) -> BracketProduct:
        if n < 0:
            raise ValueError("negative power; divide explicitly instead")
        if self.is_zero():
            return _ZERO_BP if n else _ONE_BP
        return BracketProduct.make(
            self.coeff**n, self.shift * n, {m: e * n for m, e in self.exps}
        )

    def __neg__(self) -> BracketProduct:
        return BracketProduct.make(-self.coeff, self.shift, dict(self.exps))

    def times_q_power(self, e: int) -> BracketProduct:
        if self.is_zero():
            return _ZERO_BP
        return BracketProduct(self.coeff, self.shift + e, self.exps)

    def times_coeff(self, c: Fraction | int) -> BracketProduct:
        return BracketProduct.make(self.coeff * c, self.shift, dict(self.exps))

    def substitute_q_inverse(self) -> BracketProduct:
        """The factored form of the value at q -> 1/q."""
        if self.is_zero():
            return _ZERO_BP
        coeff = self.coeff
        shift = -self.shift
        exps: dict[int, int] = {}
        for m, e in self.exps:
            # (1 - q**-m)**e = (-1)**e q**(-m e) (1 - q**m)**e
            if e % 2:
                coeff = -coeff
            shift -= m * e
            exps[m] = exps.get(m, 0) + e
        return BracketProduct.make(coeff, shift, exps)

    def cyclo_mults(self) -> dict[int, int]:
        """Multiplicity of each irreducible cyclotomic factor."""
        mults: dict[int, int] = {}
        for m, e in self.exps:
            for d in divisors(m):
                mults[d] = mults.get(d, 0) + e
        return {d: e for d, e in mults.items() if e}

    def evaluate(self, x: Fraction) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        acc = self.coeff * Fraction(x) ** self.shift
        for m, e in self.exps:
            acc *= (1 - Fraction(x) ** m) ** e
        return acc

    def to_ratfunc(self) -> RatFunc:
        """Fully reduced fraction; cancellation happens at the cyclotomic level."""
        return FactoredSum(self, [1]).to_ratfunc()

    def __repr__(self) -> str:
        factors = " ".join(f"(1-q^{m})^{e}" for m, e in self.exps)
        return f"BracketProduct({self.coeff} * q^{self.shift} * {factors or '1'})"


_ZERO_BP = BracketProduct(Fraction(0), 0, ())
_ONE_BP = BracketProduct(Fraction(1), 0, ())


# ---------------------------------------------------------------------------
# Exact summation over a structured common denominator.
#
# Given terms t_0 .. t_K, extract the componentwise minimum of shifts and
# bracket exponents (the common part C, whose negative exponents are exactly
# the least common denominator); each cofactor t_i / C is then a genuine
# Laurent-free polynomial, expanded incrementally from its predecessor since
# consecutive summands differ only in a handful of factors.
# ---------------------------------------------------------------------------


@dataclass
class FactoredSum:
    """Value = prefactor * (num as a polynomial in q)."""

    prefactor: BracketProduct
    num: list[int]

    def is_zero(self) -> bool:
        return list_is_zero(self.num)

    def cyclo_multiplicity(self, d: int, need: int) -> int:
        """Multiplicity of Phi_d in the value, saturated at `need`.

        Returns the exact (possibly negative) multiplicity when it is below
        `need`, and `need` otherwise.
        """
        pref = sum(e for m, e in self.prefactor.exps if m % d == 0)
        if self.is_zero():
            return need
        cap = max(0, need - pref)
        # Phi_d**cap divides the monic (q**d - 1)**cap, so reducing by it
        # first leaves the count up to cap unchanged and the dividend short.
        fold = list_scale(expand_bracket_powers({d: cap}), (-1) ** cap)
        count, _ = divide_out_cyclotomic(list_mod_monic(self.num, fold), d, cap)
        if count >= cap:
            return need
        return pref + count

    def to_ratfunc(self) -> RatFunc:
        """Lowest terms: the prefactor's brackets cancel at the cyclotomic
        level, each remaining denominator Phi_d is divided out of `num` as
        often as it goes, and the numerator cyclotomics multiply in last."""
        if self.is_zero():
            return RatFunc.zero()
        low = 0
        while self.num[low] == 0:
            low += 1
        num = self.num[low:]
        mults = self.prefactor.cyclo_mults()
        den_mults = {d: -e for d, e in mults.items() if e < 0}
        for d in sorted(den_mults, reverse=True):
            count, num = divide_out_cyclotomic(num, d, den_mults[d])
            den_mults[d] -= count
        num = list_mul(num, expand_cyclo_powers({d: e for d, e in mults.items() if e > 0}))
        # (1 - q^m) = -(q^m - 1) flips the sign once per bracket when the
        # product is rewritten in terms of the monic cyclotomics.
        sign = (-1) ** (sum(e for _, e in self.prefactor.exps) % 2)
        num_poly = Poly(num) * (self.prefactor.coeff * sign)
        den_poly = Poly(expand_cyclo_powers(den_mults))
        shift = self.prefactor.shift + low
        if shift >= 0:
            num_poly = num_poly.shifted(shift)
        else:
            den_poly = den_poly.shifted(-shift)
        return RatFunc._from_reduced(num_poly, den_poly)


def _as_int_coeffs(terms: Sequence[BracketProduct]) -> tuple[Fraction, list[int]]:
    """Factor the coefficients as content * integers with gcd 1."""
    lcm = 1
    for t in terms:
        lcm = math.lcm(lcm, t.coeff.denominator)
    ints = [int(t.coeff * lcm) for t in terms]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return Fraction(g, lcm), [v // g for v in ints]


def sum_terms(terms: Iterable[BracketProduct]) -> FactoredSum:
    """Exact sum of factored terms over their least common denominator."""
    live = [t for t in terms if not t.is_zero()]
    if not live:
        return FactoredSum(BracketProduct.one(), [])

    min_shift = min(t.shift for t in live)
    all_ms = sorted({m for t in live for m, _ in t.exps})
    maps = [t.exps_map() for t in live]
    min_exps = {m: min(em.get(m, 0) for em in maps) for m in all_ms}
    content, int_coeffs = _as_int_coeffs(live)
    prefactor = BracketProduct.make(content, min_shift, min_exps)

    resids = [
        {m: em.get(m, 0) - min_exps[m] for m in all_ms if em.get(m, 0) != min_exps[m]}
        for em in maps
    ]
    offsets = [t.shift - min_shift for t in live]

    # Each cofactor is int_coeffs[i] * q**offsets[i] * prod (1 - q**m)**r with
    # every r >= 0, so dividing out a bracket the previous cofactor contains is
    # exact, and the coefficient ratio's denominator divides int_coeffs[i - 1].
    term_list = [0] * offsets[0] + list_scale(expand_bracket_powers(resids[0]), int_coeffs[0])
    acc = list(term_list)
    for i in range(1, len(live)):
        bare = term_list[offsets[i - 1] :] if offsets[i - 1] else list(term_list)
        touched = set(resids[i]) | set(resids[i - 1])
        for m in sorted(touched):
            delta = resids[i].get(m, 0) - resids[i - 1].get(m, 0)
            for _ in range(delta):
                bare = list_bracket_mul(bare, m)
            for _ in range(-delta):
                bare = list_bracket_div(bare, m)
        if int_coeffs[i] != int_coeffs[i - 1]:
            r = Fraction(int_coeffs[i], int_coeffs[i - 1])
            bare = list_scale(bare, r.numerator)
            bare = list_scale_div_exact(bare, r.denominator)
        term_list = [0] * offsets[i] + bare
        acc = list_add(acc, term_list)
    list_trim(acc)
    return FactoredSum(prefactor, acc)


# ---------------------------------------------------------------------------
# The same accumulation carried out modulo a monic integer polynomial M that
# divides S = (1 - q**n)**2, as both supercongruence moduli Phi_n**2 and
# [n] Phi_n do.  Denominators are never inverted: the sum is maintained as
# A / D with both residues updated multiplicatively; a congruence between two
# such pairs is the cross-multiplied A_1 * D_2 == A_2 * D_1 (mod M) once both
# D are coprime to M.  A and D accumulate in Z[q]/(S), where reducing by the
# three-term S costs two operations per coefficient, and are reduced by the
# dense M once at the end.  Reduction mod M is a ring homomorphism
# Z[q]/(S) -> Z[q]/(M) and remainders by a monic M are unique, so the
# residues are those of accumulating in Z[q]/(M) throughout.
# ---------------------------------------------------------------------------


def _mod_bracket_mul(c: list[int], m: int, mod: Sequence[int]) -> list[int]:
    return list_mod_monic(list_bracket_mul(c, m), mod)


def _mod_shift(c: list[int], delta: int, mod: Sequence[int]) -> list[int]:
    if not c or delta == 0:
        return c
    return list_mod_monic([0] * delta + c, mod)


def sum_terms_mod(
    terms: Iterable[BracketProduct], mod: Sequence[int], n: int
) -> tuple[list[int], list[int], dict[int, int]]:
    """Residues (A, D) with sum(terms) = A / D in Q[q]/(mod), plus the bracket
    multiset of D.  `mod` must be monic and divide (1 - q**n)**2.

    D is a product of brackets (1 - q**m), a q-power, and an integer, so its
    coprimality with a cyclotomic modulus can be read off the returned
    multiset: Phi_d divides (1 - q**m) exactly when d | m.
    """
    if len(mod) < 2 or mod[-1] != 1:
        raise ValueError("modulus must be monic, degree >= 1")
    if n < 1:
        raise ValueError("working modulus index n must be >= 1")
    work = expand_bracket_powers({n: 2})
    # A modulus that does not divide S would silently get wrong residues.
    if list_mod_monic(work, mod):
        raise ValueError(f"modulus does not divide (1 - q^{n})^2")
    live = [t for t in terms if not t.is_zero()]
    if not live:
        return [], [1], {}

    # term / den is the current summand and acc / den the partial sum; each
    # step multiplies term by the numerator of the term ratio and acc, den by
    # its denominator.  The first ratio is t_0 itself.
    den_brackets: dict[int, int] = {}
    acc: list[int] = []
    den = [1]
    term = [1]
    prev = BracketProduct.one()
    for t in live:
        ratio = t / prev
        for m, e in ratio.exps:
            for _ in range(e):
                term = _mod_bracket_mul(term, m, work)
            for _ in range(-e):
                acc = _mod_bracket_mul(acc, m, work)
                den = _mod_bracket_mul(den, m, work)
            if e < 0:
                den_brackets[m] = den_brackets.get(m, 0) - e
        if ratio.shift >= 0:
            term = _mod_shift(term, ratio.shift, work)
        else:
            acc = _mod_shift(acc, -ratio.shift, work)
            den = _mod_shift(den, -ratio.shift, work)
        term = list_scale(term, ratio.coeff.numerator)
        acc = list_add(list_scale(acc, ratio.coeff.denominator), term)
        den = list_scale(den, ratio.coeff.denominator)
        prev = t
    return list_mod_monic(acc, mod), list_mod_monic(den, mod), den_brackets
