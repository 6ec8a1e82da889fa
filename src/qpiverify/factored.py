"""Factored q-products and the exact summation kernels built on them.

Every summand handled by this package is a product of a rational coefficient,
a power of q, and "brackets" (1 - q**m) with integer exponents; q-integers and
q-shifted factorials with integer exponents all decompose this way, and
`BracketProduct.make` alone puts such a product into normal form.  Since each
bracket splits into distinct irreducible cyclotomic factors, products can be
reduced exactly without any polynomial gcd, and sums of many such terms can be
accumulated over a structured common denominator with a few big-integer
operations per bracket, on polynomials packed into single ints (`Packing`).

Both summation kernels take each summand as a factor list (`FactorList`), a
product of q-shifted factorials, and read every term through one stream
(`_term_changes`): each term's ratio to the one before, taken off two
consecutive lists, and the brackets whose exponents it changes.  `sum_terms`
multiplies the ratios up into each term's normal form, and `sum_terms_mod`
walks the ratios themselves.  The numeric series (`numerics._series_terms`)
read the same stream and evaluate each ratio in floating point.

An exact sum is a `FactoredSum`, a prefactor times an integer polynomial.
Only this module reads a prefactor's layout: `FactoredSum.as_quotient` is the
one step that turns it into a sign, a content, cyclotomic powers and a
q-shift, for lowest terms (`to_ratfunc`) and for a congruence's witness alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Collection, Iterable, Mapping, Sequence

from .polys import (
    InexactDivision,
    Poly,
    content_split,
    cyclo_powers,
    divisors,
    expand_bracket_powers,
    expand_cyclo_powers,
    list_is_zero,
    list_mod_monic,
)
from .ratfunc import RatFunc


def divide_out_cyclotomic(c: list[int], d: int, cap: int) -> tuple[int, list[int]]:
    """Divide c by Phi_d up to cap times, each a trial `cyclo_powers(c, {d: -1})`
    that stops at the first InexactDivision; returns (count, reduced c)."""
    count = 0
    while count < cap:
        try:
            c = cyclo_powers(c, {d: -1})
        except InexactDivision:
            break
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
        """coeff * q**shift * prod_m (1 - q**m)**e for any integer indices m,
        in normal form: indices m >= 1 with e != 0, in order.

        Indices below 1 follow `_fold_indices`: a negative index m becomes
        (-1)**e q**(m e) (1 - q**-m)**e and merges with the entry for -m, and
        index 0 with e > 0 gives zero and with e < 0 raises
        ZeroDivisionError.  The form is unique: the
        brackets 1 - q**m = -prod_(d | m) Phi_d (m >= 1) have unitriangular
        exponent vectors over the cyclotomics, so no product of them equals
        another, and every normalization yields the same (coeff, shift, exps).
        """
        folded = _fold_indices(Fraction(coeff), shift, exps or {})
        if folded is None:
            return _ZERO_BP
        coeff, shift, exps = folded
        if coeff == 0:
            return _ZERO_BP
        return BracketProduct(coeff, shift, tuple(sorted((m, e) for m, e in exps.items() if e)))

    @staticmethod
    def from_pochhammers(
        coeff: Fraction | int, shift: int, factors: Sequence[tuple[int, int, int, int]]
    ) -> BracketProduct:
        """coeff * q**shift * prod (q**base; q**step)_count**power over the
        (base, step, count, power) factors, by one `make` on their summed
        exponents (`_list_changes` from the empty list).
        (q**a; q**p)_r = prod_{j<r} (1 - q**(a + j p)), a negative count is
        (a; p)_(-r) = 1 / (a p**-r; p)_r, and (m, 1, 1, e) is the single
        bracket (1 - q**m)**e.
        """
        return BracketProduct.make(coeff, shift, _list_changes((), factors))

    @staticmethod
    def one() -> BracketProduct:
        return _ONE_BP

    def cyclo_mults(self) -> dict[int, int]:
        """Multiplicity of each irreducible cyclotomic factor."""
        mults: dict[int, int] = {}
        for m, e in self.exps:
            for d in divisors(m):
                mults[d] = mults.get(d, 0) + e
        return {d: e for d, e in mults.items() if e}

    def to_ratfunc(self) -> RatFunc:
        """Fully reduced fraction; cancellation happens at the cyclotomic level."""
        return FactoredSum(self, [1]).to_ratfunc()

    def __repr__(self) -> str:
        factors = " ".join(f"(1-q^{m})^{e}" for m, e in self.exps)
        return f"BracketProduct({self.coeff} * q^{self.shift} * {factors or '1'})"


_ZERO_BP = BracketProduct(Fraction(0), 0, ())
_ONE_BP = BracketProduct(Fraction(1), 0, ())

#: (coeff, shift, factors): the arguments of `BracketProduct.from_pochhammers`.
FactorList = tuple[Fraction | int, int, Sequence[tuple[int, int, int, int]]]


def negated(t: FactorList) -> FactorList:
    """The factor list of -t."""
    coeff, shift, factors = t
    return -coeff, shift, factors


def _fold_indices(
    coeff: Fraction | int, shift: int, exps: Mapping[int, int]
) -> tuple[Fraction | int, int, Mapping[int, int]] | None:
    """`make`'s rules for indices below 1, on the exponents of a product or
    on the change of them from one product to another: (coeff, shift, map)
    with every index of the map >= 1 (its exponents may be 0), or None when
    index 0 has a positive exponent, which makes the product zero.  A map
    with no index below 1 is returned as it is.

    A negative index m with exponent e becomes (-1)**e q**(m e)
    (1 - q**-m)**e and merges with the entry for -m.  As 1 - q**0 = 0, index
    0 with e < 0 raises ZeroDivisionError.  Each rule is additive in e, so
    it maps the change of a product's exponents to the change of its
    normal form.
    """
    if min(exps, default=1) > 0:
        return coeff, shift, exps
    merged: dict[int, int] = {}
    for m, e in exps.items():
        if m < 0:
            coeff, shift, m = (-coeff if e % 2 else coeff), shift + m * e, -m
        merged[m] = merged.get(m, 0) + e
    zero_power = merged.pop(0, 0)
    if zero_power < 0:
        raise ZeroDivisionError("1 - q^0 = 0 in a denominator")
    if zero_power > 0:
        return None
    return coeff, shift, merged


def _add_run(out: dict[int, int], c: int, c2: int, step: int, power: int) -> None:
    """Add power * (H(c2) - H(c)) to `out`, with H(c) the indicator of the
    indices >= c in the progression c + step*Z (c2 on it): +power on the
    indices from c2 up to c, or -power on those from c up to c2.  The factor
    (a, s, r, P) of `from_pochhammers` is the run (a + r*s, a, s, P)."""
    if step < 1:
        raise ValueError("pochhammer step must be >= 1")
    if c2 < c:
        for m in range(c2, c, step):
            out[m] = out.get(m, 0) + power
    else:
        for m in range(c, c2, step):
            out[m] = out.get(m, 0) - power


def _list_changes(old: Sequence, new: Sequence) -> dict[int, int]:
    """The change of the exponents from factor list `old` to `new`, on any
    integer indices (entries may be 0).

    A factor (a, s, r, P) has exponents P * (H(a) - H(b)) with b = a + r*s,
    H as in `_add_run`: P at a, a + s, ..., b - s for r >= 0, and -P at
    b, ..., a - s for r < 0.  The lists pair their factors by position, up
    to the shorter one's length, and the longer one's surplus factors are
    listed in full.  A pair with one step and power whose bases lie on one
    progression changes by P * (H(a') - H(a)) + P * (H(b) - H(b')), only
    between its two bases and between its two ends; it is read so when that
    lists no more indices than the two factors do, and any other pair is
    listed in full; a run between equal bases or equal ends is empty and
    skipped.  Any pairing gives the same change, and pairing by
    position keeps it short where one list appends factors to the other, as
    G(n + 1, k) does to F(n, k) and a right side's summand to a left side's.
    """
    out: dict[int, int] = {}
    for f, f2 in zip(old, new):
        if f == f2:
            continue
        (a, s, r, p), (a2, s2, r2, p2) = f, f2
        b, b2 = a + r * s, a2 + r2 * s2
        if s == s2 > 0 and p == p2 and (a2 - a) % s == 0 and abs(a2 - a) + abs(b2 - b) <= (abs(r) + abs(r2)) * s:
            if a != a2:
                _add_run(out, a, a2, s, p)
            if b != b2:
                _add_run(out, b2, b, s, p)
        else:
            _add_run(out, a, b, s, p)
            _add_run(out, b2, a2, s2, p2)
    for a, s, r, p in old[len(new) :]:
        _add_run(out, a, a + r * s, s, p)
    for a, s, r, p in new[len(old) :]:
        _add_run(out, a + r * s, a, s, p)
    return out


def _term_changes(terms: Iterable[FactorList]):
    """Each nonzero term t_i of `terms` as its change from t_(i-1):
    (coeff, shift, changes, exps), with coeff * q**shift the ratio of t_i's
    coefficient and q-power to t_(i-1)'s (to 1 for t_0), coeff an int when
    both lists' coefficients are ints and the ratio is whole, and a Fraction
    otherwise (readers take its numerator and denominator), changes the
    (m, e, p) of each bracket whose exponent goes from p to e != p, and exps
    the running map {m: e} of t_i's brackets, updated in place; all as in
    the normal form (`BracketProduct.make`).

    The zero contract of both walks: a list whose coeff is 0 is zero,
    whatever its factors, and is skipped unread; in any other list, index 0
    in the numerator makes it zero and in a denominator raises
    ZeroDivisionError.

    With E_i the exponents of the i-th nonzero list, on any integer indices,
    and E_(-1) = 0 for the empty list, 1, `_list_changes` of two consecutive
    lists is E_i - E_(i-1).  `make` normalizes E_i by `_fold_indices`, whose
    rules are additive in each exponent, and t_(i-1) != 0 has no exponent at
    index 0.  So `_fold_indices` of the change, started from the ratio of the
    lists' coefficients and shifts, is t_i's normal form less t_(i-1)'s, and
    its index 0 is t_i's own, so t_i is zero or raises exactly as `make` would.
    """
    exps: dict[int, int] = {}
    prev = (1, 0, ())
    for t in terms:
        if t[0] == 0:
            continue
        c, c0 = t[0], prev[0]
        ratio = c // c0 if type(c) is int and type(c0) is int and c % c0 == 0 else Fraction(c) / c0
        folded = _fold_indices(ratio, t[1] - prev[1], _list_changes(prev[2], t[2]))
        if folded is None:
            continue
        coeff, shift, delta = folded
        changes = []
        for m, d in delta.items():
            if d:
                p = exps.get(m, 0)
                if p + d:
                    exps[m] = p + d
                else:
                    del exps[m]
                changes.append((m, p + d, p))
        prev = t
        yield coeff, shift, changes, exps


# ---------------------------------------------------------------------------
# Exact summation over a structured common denominator.
#
# Given terms t_0 .. t_K, extract the componentwise minimum of shifts and
# bracket exponents (the common part C, whose negative exponents are exactly
# the least common denominator); each cofactor t_i / C is then a genuine
# Laurent-free polynomial, and the cofactors are summed by binary splitting:
# adjacent runs of terms join with multiplications by brackets only.
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
        `need`, and `need` otherwise.  With pref the multiplicity of Phi_d in
        the prefactor, Phi_d**cap with cap = need - pref divides
        (q**d - 1)**cap, so `num` folded by it (`u_fold`, cap*d coefficients)
        has the same count of Phi_d up to cap, which exact division finds.
        The fold walks all of `num`, so a caller counting for several
        divisors d of one n folds a long `num` once by (q**n - 1)**K first,
        with K the largest cap: Phi_d**cap divides that too.
        """
        pref = sum(e for m, e in self.prefactor.exps if m % d == 0)
        if self.is_zero():
            return need
        cap = max(0, need - pref)
        count, _ = divide_out_cyclotomic(u_fold(self.num, d, cap), d, cap)
        if count >= cap:
            return need
        return pref + count

    def as_quotient(self, known: Collection[int] | None = None) -> tuple[Fraction, list[int], list[int]]:
        """The value as scale * num / den, with num and den integer lists, den
        monic, and the q-shift applied to one of them.

        Up to the sign (-1)**(sum of the bracket exponents), the prefactor is
        coeff * q**shift * prod_d Phi_d**(p_d).  Its numerator cyclotomics
        multiply into `num` through one `cyclo_powers` call.  Its denominator
        Phi_d leave `num` in one of two ways.  With `known` None, each is
        divided out as often as it goes (`divide_out_cyclotomic`, largest d
        first) before that call, which leaves lowest terms.  Otherwise the
        Phi_d with d in `known` leave by their whole counts in the same call,
        so `num` must hold them, and every other one stays in `den`.
        """
        if self.is_zero():
            return Fraction(0), [], [1]
        low = 0
        while self.num[low] == 0:
            low += 1
        num = self.num[low:]
        mults = self.prefactor.cyclo_mults()
        den_mults = {d: -e for d, e in mults.items() if e < 0}
        out = {d: e for d, e in mults.items() if e > 0}
        if known is None:
            for d in sorted(den_mults, reverse=True):
                count, num = divide_out_cyclotomic(num, d, den_mults[d])
                den_mults[d] -= count
        else:
            out.update((d, -den_mults.pop(d)) for d in known if d in den_mults)
        num = cyclo_powers(num, out)
        den = expand_cyclo_powers(den_mults)
        # (1 - q^m) = -(q^m - 1) flips the sign once per bracket when the
        # product is rewritten in terms of the monic cyclotomics.
        scale = self.prefactor.coeff * (-1) ** (sum(e for _, e in self.prefactor.exps) % 2)
        shift = self.prefactor.shift + low
        if shift >= 0:
            num = [0] * shift + num
        else:
            den = [0] * -shift + den
        return scale, num, den

    def to_ratfunc(self) -> RatFunc:
        """Lowest terms: the prefactor's brackets cancel at the cyclotomic
        level (`as_quotient`, dividing out all it can)."""
        scale, num, den = self.as_quotient()
        return RatFunc._from_reduced(Poly([scale * c for c in num]), Poly(den))


class SlotOverflow(ArithmeticError):
    """A packed polynomial has a coefficient outside its slot's range."""


class Packing:
    """Integer polynomials of up to `slots` coefficients packed into one int
    by the Kronecker substitution q -> 2**w: c_0 + c_1 q + ... is the int
    sum_j c_j * 2**(j*w).  Slots are signed, so sums, shifts and products by
    integers act on the packed int directly, with no carry handling.

    w is `bound`'s bit length plus 2, rounded up to whole bytes, so every
    |c_j| <= bound lies in [-2**(w - 2), 2**(w - 2)); a value whose slots all
    do is *in range*.  The packing is one-to-one on polynomials whose
    coefficients are below 2**(w - 1) in absolute value.  `fits` checks a
    narrower range, the headroom a walk needs before its next steps.  A
    value moves into wider slots as `wider.pack(unpack(v))`, so every change
    of width is range-checked by `unpack`.
    """

    def __init__(self, bound: int, slots: int):
        self.w = -(-(bound.bit_length() + 2) // 8) * 8
        self.slots = slots
        # 2**(w - 1) in every slot; half of it is 2**(w - 2) in every slot.
        self._top = int.from_bytes((bytes(self.w // 8 - 1) + b"\x80") * slots, "little")
        self._checks: dict[int, tuple[int, int]] = {}

    def fits(self, v: int, h: int) -> bool:
        """Whether v is a value of at most `slots` slots, each in
        [-2**h, 2**h), for 0 <= h <= w - 2: biased by 2**h per slot, it must
        fit them with bits h + 1 to w - 1 of every slot clear.  Slots in that
        range carry nothing into their neighbours when biased, and biased
        fields f_j below 2**(h + 1) make v the sum of (f_j - 2**h) * 2**(j*w),
        so the check is exact."""
        check = self._checks.get(h)
        if check is None:
            bias = self._top >> (self.w - 1 - h)
            check = self._checks[h] = bias, (self._top - bias) << 1
        u = v + check[0]
        return not (u >> (self.slots * self.w) or u & check[1])

    def in_range(self, v: int) -> bool:
        """Whether v is an in-range value of at most `slots` slots."""
        return self.fits(v, self.w - 2)

    def bracket_mul(self, v: int, m: int) -> int:
        """v * (1 - q**m)."""
        return v - (v << (m * self.w))

    def split(self, v: int, k: int) -> tuple[int, int]:
        """(low, high) with v = low + high * 2**(k*w), k >= 1, and low in
        [-2**(k*w - 1), 2**(k*w - 1)), so high = floor(v / 2**(k*w) + 1/2):
        low is v's k lowest slots and high the rest whenever those k slots
        are below 2**(w - 1) in absolute value."""
        kw = k * self.w
        high = ((v >> (kw - 1)) + 1) >> 1
        return v - (high << kw), high

    def pack(self, c: Sequence[int]) -> int:
        """The value of a coefficient list of at most `slots` entries, each
        below 2**(w - 1) in absolute value: biased by 2**(w - 1), every
        coefficient is one unsigned w-bit field of a byte string."""
        size, top = self.w // 8, 1 << (self.w - 1)
        data = b"".join((v + top).to_bytes(size, "little") for v in c)
        return int.from_bytes(data, "little") - (self._top >> ((self.slots - len(c)) * self.w))

    def unpack(self, v: int, trim: bool = False) -> list[int]:
        """The coefficient list of an in-range value, all `slots` of it, or
        with `trim` only up to its top nonzero slot; SlotOverflow otherwise.

        An in-range v != 0 with top nonzero slot j has
        2**(j*w - 1) < |v| < 2**((j + 1)*w - 1), as its slots are at most
        2**(w - 2) and its lower slots add up to less than 2**(j*w - 1) in
        absolute value, so j is bits(|v|) // w.
        """
        if not self.in_range(v):
            raise SlotOverflow(f"packed value does not fit {self.slots} slots of {self.w} bits")
        k = self.slots
        if trim:
            k = abs(v).bit_length() // self.w + 1 if v else 0
        size, half = self.w // 8, 1 << (self.w - 2)
        data = (v + (self._top >> ((self.slots - k) * self.w + 1))).to_bytes(k * size, "little")
        return [int.from_bytes(data[i : i + size], "little") - half for i in range(0, len(data), size)]


def u_fold(c: Sequence[int], n: int, k: int) -> list[int]:
    """c mod u**k with u = q**n - 1, from the first k digits of c in base u.

    Cut c into m rows of n coefficients, c = sum_i P_i x**i with x = q**n
    and each P_i of degree < n.  With x = 1 + u, c = sum_j T_j u**j where
    T_j = sum_i binom(i, j) P_i (a Taylor shift to x = 1; von zur Gathen and
    Gerhard, "Fast algorithms for Taylor shifts and certain difference
    equations", ISSAC 1997), so c mod u**k = sum_{j<k} T_j u**j, of degree
    < k*n.  Synthetic division by x - 1 leaves the remainder T_0 = sum_i P_i
    and the quotient rows sum_{i' > i} P_i', whose own digits are T_1,
    T_2, ...: each digit is one pass of suffix sums over the rows.  Each row
    is one packed int (`Packing`), and the remainder is rebuilt by Horner in
    u, where v*u = v*q**n - v is one shift and one subtract.

    The slot width: with |c_i| <= B, every slot of T_j is at most
    B * sum_{i<m} binom(i, j) = B * binom(m, j + 1).  T_j u**j is
    sum_l binom(j, l) (-1)**(j - l) T_j x**l, whose terms fill disjoint runs
    of slots, so no coefficient of the remainder exceeds
    B * sum_{j<k} binom(m, j + 1) * 2**j.  The rows and the remainder are
    packed at the width of that bound, and the remainder's unpack checks it
    (SlotOverflow).
    """
    if not c or k < 1:
        return []
    m = -(-len(c) // n)
    bound = max(map(abs, c)) * sum(math.comb(m, j + 1) << j for j in range(k))
    pack = Packing(bound, k * n)
    # The rows top first: their running sums are the suffix sums, the last
    # is the digit, and the others are the quotient's rows, top first.
    rows = [pack.pack(c[i : i + n]) for i in range((m - 1) * n, -1, -n)]
    digits = []
    for _ in range(k):
        rows = list(accumulate(rows))
        digits.append(rows.pop() if rows else 0)
    r = 0
    for t in reversed(digits):
        r = (r << (n * pack.w)) - r + t
    return pack.unpack(r, trim=True)


def _bracket_changes(em: Mapping[int, int], prev: Mapping[int, int]) -> list[tuple[int, int, int]]:
    """(m, e, p) for each bracket m whose exponent goes from p in `prev` to
    e != p in `em`; a bracket missing from a map has exponent 0, and neither
    map holds a zero exponent."""
    return [(m, em.get(m, 0), prev.get(m, 0)) for m in {m for m, _ in em.items() ^ prev.items()}]


def _join(pack: Packing, left, right):
    """The node of two adjacent nodes of `sum_terms`: each side times its
    copies of each bracket above the joint minimum, the side with the larger
    offset shifted up to it, and the two added."""
    (v, low, o), (v2, low2, o2) = left, right
    low = dict(low)
    for m, e, p in _bracket_changes(low2, low):
        if e > p:
            for _ in range(e - p):
                v2 = pack.bracket_mul(v2, m)
        else:
            for _ in range(p - e):
                v = pack.bracket_mul(v, m)
            if e:
                low[m] = e
            else:
                del low[m]
    if o > o2:
        v, o = v << ((o - o2) * pack.w), o2
    else:
        v2 <<= (o2 - o) * pack.w
    return v + v2, low, o


def sum_terms(terms: Iterable[FactorList]) -> FactoredSum:
    """Exact sum of factor lists over their least common denominator.

    Each nonzero list is read as its change from the one before
    (`_term_changes`, with the zero contract of both walks): the ratios
    multiply up to its term t_i's coefficient and q-power, and the changes
    (m, e, p) sum to t_i's bracket count and degree.

    With e_im the exponent of bracket m in t_i (0 if t_i has none) and min_m
    its minimum over all terms, each cofactor t_i / prefactor is
    c_i * q**o_i * B_i with an integer c_i and
    B_i = prod_m (1 - q**m)**(e_im - min_m).  The sum of the cofactors is
    built by binary splitting, with no division (Haible and Papanikolaou,
    "Fast multiprecision evaluation of series of rational numbers", 1998).
    A node over a run of adjacent terms is (v, low, o), with low_m and o
    the least e_im and o_i over the run, and

        v = sum_i c_i * q**(o_i - o) * prod_m (1 - q**m)**(e_im - low_m),

    a polynomial.  Term i is the node (c_i, e_i, o_i), e_i its exponent
    map.  Two adjacent nodes join (`_join`) into the node over both runs:
    each side is multiplied by its low_m - min(low_m, low'_m) copies of each
    bracket above the joint minimum, the side with the larger offset times
    q to the difference, and the two are added.  Nodes pair off level by
    level, left to right, and the root's low is min_m and its offset 0, so
    its v is the sum.  min_m is read off the changes too: e_im takes the
    values e_0m and the e of each later change of m.

    Every v is packed (`Packing`) with one slot width w.  Evaluation at
    2**w is a ring homomorphism and every step above is a ring operation,
    so each packed v is exact in Z whatever its slots hold; only the final
    sum needs a bound to unpack.  A product of R brackets has l1-norm at
    most 2**R (each bracket's is 2), so with R_i = sum_m (e_im - min_m) no
    coefficient of the sum exceeds sum_i |c_i| * 2**R_i.  So
    w = bits(sum_i |c_i| * 2**R_i) + 2, rounded up to whole bytes, and the
    root is unpacked once, up to its top nonzero slot.
    """
    read = []
    min_exps: dict[int, int] = {}
    coeff, shift, size, deg = 1, 0, 0, 0
    for ratio, q_shift, changes, exps in _term_changes(terms):
        coeff *= ratio
        shift += q_shift
        for m, e, p in changes:
            size += e - p
            deg += m * (e - p)
            # Absent from t_0, m has e_0m = 0.
            if not read or e < min_exps.get(m, 0):
                min_exps[m] = e
        read.append((coeff, shift, dict(exps), size, deg))
    if not read:
        return FactoredSum(BracketProduct.one(), [])
    coeffs, shifts, maps, sizes, degs = zip(*read)
    min_shift = min(shifts)
    content, int_coeffs = content_split(coeffs)
    prefactor = BracketProduct.make(content, min_shift, min_exps)

    offsets = [s - min_shift for s in shifts]
    min_size = sum(min_exps.values())
    min_deg = sum(m * e for m, e in min_exps.items())
    bound = sum(abs(c) << (size - min_size) for c, size in zip(int_coeffs, sizes))
    top = max(o + deg for o, deg in zip(offsets, degs)) - min_deg
    pack = Packing(bound, top + 1)

    nodes = list(zip(int_coeffs, maps, offsets))
    while len(nodes) > 1:
        pairs = [_join(pack, a, b) for a, b in zip(nodes[::2], nodes[1::2])]
        nodes = pairs + nodes[len(pairs) * 2 :]
    return FactoredSum(prefactor, pack.unpack(nodes[0][0], trim=True))


# ---------------------------------------------------------------------------
# The same accumulation carried out modulo a monic integer polynomial M that
# divides S = (1 - q**n)**2, as both supercongruence moduli Phi_n**2 and
# [n] Phi_n do.  Denominators are never inverted: the sum is maintained as
# A / D with both residues updated multiplicatively, so a congruence whose
# right side is summed as one more term holds iff A == 0 (mod M) once D is
# coprime to M, and D gets only denominator brackets.  A and D accumulate in
# Z[q]/(S), where S = u**2 with u = q**n - 1, each as a pair of n-slot packed
# ints (X, Y) standing for X + u*Y: as q**n = 1 + u, a q-power or a bracket
# rotates the slots and adds a small multiple, with no division.  The
# canonical residue mod S is rebuilt once, and reduced by the dense M once.
# Reduction mod M is a ring homomorphism Z[q]/(S) -> Z[q]/(M) and remainders
# by a monic M are unique, so the residues are those of accumulating in
# Z[q]/(M) throughout.  The walk needs only each term's ratio to the one
# before (`_term_changes`).
# ---------------------------------------------------------------------------

#: The slot width, in bits, at which `sum_terms_mod` starts checking its
#: values when the proven width is more than twice as wide.  Below that, the
#: checks cost more than the narrower slots save: J2 at p = 19 to 31 (proven
#: widths 72 to 104 bits) ran 10-20% slower checked from 64 bits.
_START_WIDTH = 64


def _ratio_walk(state, ratios, step, lin):
    """The state (term, A, D) after the term-ratio recurrence over `ratios`:
    term / D is the current summand and A / D the partial sum, each ratio
    multiplies term by its numerator and A, D by its denominator, and the
    first ratio of a whole walk is t_0 itself, applied to (1, 0, 1).  A
    ratio is (brackets, shift, coeff, passing): pairs (m, e) for
    (1 - q**m)**e, and each m whose 1 - q**m multiplies only the copy of
    term added into A.  Values are (X, Y) pairs; step(v, m, bracket) is
    v * (1 - q**m) if bracket else v * q**m, lin(c, v, v2) is c*v + v2."""
    zero, (term, acc, den) = (0, 0), state
    for brackets, shift, coeff, passing in ratios:
        for m, e in brackets:
            for _ in range(e):
                term = step(term, m, True)
            for _ in range(-e):
                acc, den = step(acc, m, True), step(den, m, True)
        if shift > 0:
            term = step(term, shift, False)
        elif shift < 0:
            acc, den = step(acc, -shift, False), step(den, -shift, False)
        c, d = coeff.numerator, coeff.denominator
        if c != 1:
            term = lin(c, term, zero)
        out = term
        for m in passing:
            out = step(out, m, True)
        acc = lin(d, acc, out)
        if d != 1:
            den = lin(d, den, zero)
    return term, acc, den


def sum_terms_mod(
    terms: Iterable[FactorList], mod: Sequence[int], n: int
) -> tuple[list[int], list[int], dict[int, int]]:
    """Residues (A, D) with sum(terms) = A / D in Q[q]/(mod), plus the bracket
    multiset of D.  `mod` must be monic and divide (1 - q**n)**2.

    Each term is a factor list (coeff, shift, factors), the value of
    `BracketProduct.from_pochhammers(coeff, shift, factors)`, which is never
    built: the walk takes each term's ratio to the one before, as the
    changes (m, e, p) of its brackets with a coefficient and a shift, from
    `_term_changes`, which states the zero contract of both walks.

    Passing.  With e_im the exponent of m in the i-th nonzero term (0 if
    absent), any excess over keep_i(m), the least max(e_jm, 0) over j > i,
    *passes*: it multiplies only the copy of term i added into A, and the
    ratio walk runs over the kept exponents min(e_im, keep_i(m)), which never
    fall from k > 0.  So D is an integer, a q-power and the brackets of the
    terms' negative exponents, perhaps more often than in their LCD: Phi_d
    divides D iff d divides a returned m.  Only a bracket whose exponent
    falls somewhere from p > max(e, 0) can pass, since for any other
    max(e_im, 0) never decreases in i.  On a run of terms where e_im = e is
    constant, with K the least max(e_jm, 0) after the run, keep_i(m) is K
    at the run's last term and min(K, max(e, 0)) before it, so the kept
    exponent is min(e, K) and the excess max(e - K, 0) all along the run.
    The analysis therefore walks back over the changes of the falling
    brackets only: each change (m, e, p) at term i ends a run of p, whose K
    is min(K, max(e, 0)), and the kept exponents change only there.

    The walk keeps the term, A and D as pairs (X, Y) of n-slot packed ints
    (`Packing`), X + u*Y in Z[q]/(u**2) with u = q**n - 1.  Write
    m = a*n + r with 0 <= r < n.  Then q**m = q**r (1 + a*u) mod u**2, and
    q**r X = rot_r(X) + u*wrap_r(X), where rot_r rotates the n slots up by r
    and wrap_r(X) is X's top r slots moved to the bottom.  So

        q**m (X + u*Y) = rot_r(X) + u*(rot_r(Z) + wrap_r(X)),  Z = Y + a*X,

    and a bracket subtracts this from the pair.  Bounds (bx, by) on the
    coefficients of X and Y go through the same steps:

    - times q**m: (bx, by + (a + 1)*bx), which also bounds Z;
    - times 1 - q**m: the pair plus its q**m image, (2*bx, 2*by + (a + 1)*bx);
    - c*v + v2: |c| times v's bounds plus v2's.

    No map lowers a bound, |c| >= 1, and A receives each term's last value
    times its passing brackets, so the bounds at the end of a ratio bound
    every coefficient the ratio splits or computes.  Walked over all ratios
    from the start values, A's and D's final bx + by bound every coefficient
    of the walk; a `Packing` for that bound has the *proven* width.  As the
    bounds double with every bracket, it grows linearly with the bracket
    count, much faster than the values, so it is only a cap.

    The walk runs at a width w that follows the values.  The maps are linear
    with nonnegative coefficients, so over ratio i alone, from unit bounds on
    all six ints, they give G_i: if every slot is at most B in absolute value
    when ratio i starts, every value inside it is at most G_i * B.  With
    g = bits(G_i), ratio i runs at w only once every slot lies in
    [-2**h, 2**h), h = w - 2 - g (`Packing.fits`): its values then stay below
    G_i * 2**h < 2**(w - 2), so every split is exact and the state is in
    range when the ratio ends.  On a miss, each of the state's six ints is
    unpacked and packed again at max(1.5*w, w + g) bits in whole bytes, at
    most the proven width: `Packing.unpack` checks that it is in range, and
    an in-range state passes the check at w + g.  By induction from the
    exact start state, every ratio runs in range, nothing is re-run, and the
    residues are those of any wider packing: they rest on the checks, not on
    the global bound.  The walk starts at `_START_WIDTH` when the proven
    width is more than twice that, else at the proven width, and stops
    checking once it reaches the proven width, where the global bound covers
    the rest of a walk whose earlier steps were exact.

    The residue X - Y + q**n * Y is rebuilt once from X and Y unpacked
    apart, as X - Y need not be in range at a fitted width, through
    `Packing.unpack`, whose SlotOverflow would report a flaw in the argument
    above, and reduced by `mod` once.  The steps' bounds are linear maps
    that commute and the steps are exact, so neither depends on the order of
    a ratio's or a term's passing brackets.
    """
    if len(mod) < 2 or mod[-1] != 1:
        raise ValueError("modulus must be monic, degree >= 1")
    if n < 1:
        raise ValueError("working modulus index n must be >= 1")
    # A modulus that does not divide S would silently get wrong residues.
    if list_mod_monic(expand_bracket_powers({n: 2}), mod):
        raise ValueError(f"modulus does not divide (1 - q^{n})^2")

    # Each ratio's changes (m, e, p), coefficient and shift, for the nonzero terms.
    changes, heads = [], []
    for coeff, shift, ch, _ in _term_changes(terms):
        changes.append(ch)
        heads.append((shift, coeff))
    if not changes:
        return [], [1], {}

    # Walk back over the falling brackets' changes.  For each such m, `keep`
    # holds K of the run that holds the current term (absent: the last run)
    # and `excess` what passes along it, when positive.
    falls = {m for ch in changes for m, e, p in ch if p > max(e, 0)}  # all that can pass
    passing = [[] for _ in changes]
    if falls:
        keep: dict[int, int] = {}
        excess: dict[int, int] = {}
        for i in range(len(changes) - 1, -1, -1):
            passing[i] = [m for m, x in excess.items() for _ in range(x)]
            kept = []
            for m, e, p in changes[i]:
                if m in falls:
                    k = keep.get(m)
                    if k is not None and e > k:
                        e = k
                    # The earlier run's K: min(K, max(e, 0)) is the kept e's.
                    keep[m] = k = max(e, 0)
                    if p > k:
                        excess[m] = p - k
                    else:
                        excess.pop(m, None)
                    p = min(p, k)
                if e != p:
                    kept.append((m, e, p))
            changes[i] = kept

    # Each ratio t / prev, from its kept changes.  Its brackets are sorted:
    # the order of den_brackets picks the bracket that an error on a
    # non-invertible denominator names, and must not follow set order.
    ratios, den_brackets = [], {}
    for ch, (shift, coeff), pas in zip(changes, heads, passing):
        brackets = sorted((m, e - p) for m, e, p in ch)
        for m, e in brackets:
            if e < 0:
                den_brackets[m] = den_brackets.get(m, 0) - e
        ratios.append((brackets, shift, coeff, pas))

    def lin(c, v, v2):
        return c * v[0] + v2[0], c * v[1] + v2[1]

    def step_bound(b, m, bracket):
        by = b[1] + (m // n + 1) * b[0]
        return (2 * b[0], b[1] + by) if bracket else (b[0], by)

    def lin_bound(c, b, b2):
        return lin(abs(c), b, b2)

    def packing(w):
        """n slots of w bits, rounded up to whole bytes."""
        return Packing((1 << (w - 2)) - 1, n)

    start = ((1, 0), (0, 0), (1, 0))
    _, acc, den = _ratio_walk(start, ratios, step_bound, lin_bound)
    pack = Packing(max(sum(acc), sum(den)), n)
    cap = pack.w
    if cap > 2 * _START_WIDTH:
        pack = packing(_START_WIDTH)
    w = pack.w

    def step(v, m, bracket):
        x, y = v
        a, r = divmod(m, n)
        z = y + a * x
        if r:
            (xl, xh), (zl, zh) = pack.split(x, n - r), pack.split(z, n - r)
            x2, y2 = (xl << (r * w)) + xh, (zl << (r * w)) + zh + xh
        else:
            x2, y2 = x, z
        return (x - x2, y - y2) if bracket else (x2, y2)

    state, i = start, 0
    while w < cap and i < len(ratios):
        one = ratios[i : i + 1]
        # From unit bounds, A's end bounds are the largest: D takes the same
        # steps, and A adds the term's last value to them.
        g = max(_ratio_walk(((1, 1),) * 3, one, step_bound, lin_bound)[1]).bit_length()
        h = w - 2 - g
        if h < 0 or not all(map(pack.fits, [*state[0], *state[1], *state[2]], [h] * 6)):
            wider = packing(min(cap, max(w * 3 // 2, w + g)))
            state = tuple(tuple(wider.pack(pack.unpack(x)) for x in v) for v in state)
            pack, w = wider, wider.w
        state, i = _ratio_walk(state, one, step, lin), i + 1
    state = _ratio_walk(state, ratios[i:], step, lin)

    def residue(v):
        x, y = pack.unpack(v[0]), pack.unpack(v[1])
        return list_mod_monic([a - b for a, b in zip(x, y)] + y, mod)

    _, acc, den = state
    return residue(acc), residue(den), den_brackets
