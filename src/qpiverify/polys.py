"""Exact arithmetic in one variable q: integer coefficient-list kernels,
cyclotomic polynomials, and the dense Poly type over the rationals.

The kernels work on plain lists of ints, index i holding the coefficient of
q**i; trailing zeros are allowed and trimmed lazily, and the zero polynomial
is any all-zero list (canonically []).  The moduli, the cyclotomic cache,
the bracket expansions, the reductions by a modulus and the witness residues
run on them.  The two summation kernels, the binary splitting of
`factored.sum_terms` and the ratio walk of `factored.sum_terms_mod`, do not:
they pack each polynomial into one int (`factored.Packing`) and return lists
only at the end.

Rationals reach the kernels through one scaling, `content_split`, which
writes them as a content times integers with gcd 1: the `Poly` product (one
integer convolution times the product of the contents), `poly_gcd`, the
coefficients of `sum_terms` and the witness residues all use it.

A power of a cyclotomic Phi_d enters or leaves a polynomial only through
`cyclo_powers`, as its Moebius bracket product, one O(length) step per
bracket (1 - q**t); nothing divides by a Phi_d densely.

A `Poly` is a tuple of Fraction coefficients with nonzero trailing
coefficient; the zero polynomial is the empty tuple.  Values with negative
q-exponents are `RatFunc`s with a q-power in the denominator.

Everything here is immutable and pure; the cyclotomic cache is the only
shared state and lru_cache keeps it safe under the GIL.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

Scalar = int | Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class InexactDivision(ArithmeticError):
    pass


def list_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def list_is_zero(c: Sequence[int]) -> bool:
    return not any(c)


def list_bracket_mul(c: Sequence[int], m: int) -> list[int]:
    """c * (1 - q**m)."""
    if not c:
        return []
    out = list(c) + [0] * m
    for i, v in enumerate(c):
        if v:
            out[i + m] -= v
    return out


def list_bracket_div(c: Sequence[int], m: int) -> list[int]:
    """Exact division by (1 - q**m); raises InexactDivision otherwise."""
    c = list(c)
    list_trim(c)
    if not c:
        return []
    if len(c) <= m:
        raise InexactDivision(f"not divisible by 1 - q^{m}")
    out = [0] * (len(c) - m)
    for i in range(len(out)):
        out[i] = c[i] + (out[i - m] if i >= m else 0)
    for i in range(len(out), len(c)):
        carry = out[i - m] if i >= m else 0
        if c[i] + carry != 0:
            raise InexactDivision(f"not divisible by 1 - q^{m}")
    return out


def list_scale(c: Sequence[int], k: int) -> list[int]:
    if k == 1:
        return list(c)
    return [v * k for v in c]


def content_split(cs: Sequence[Scalar]) -> tuple[Fraction, list[int]]:
    """Write rationals as content * integers whose gcd is 1; all zeros (or
    none) have content 1.  The one scaling of rationals to integers."""
    lcm = math.lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (lcm // c.denominator) for c in cs]
    g = math.gcd(*ints) or 1
    if g > 1:
        ints = [v // g for v in ints]
    return Fraction(g, lcm), ints


def list_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Convolution of two integer coefficient lists."""
    if list_is_zero(a) or list_is_zero(b):
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def list_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return out


def list_divmod_monic(c: Sequence[int], d: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder by a monic integer polynomial.

    Only the divisor's nonzero coefficients are visited, so a sparse divisor
    such as (1 - q**n)**2 costs a few operations per coefficient of c.
    """
    if not d or d[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(c)
    dn = len(d)
    if len(rem) < dn:
        return [], list_trim(rem)
    tail = [(j, v) for j, v in enumerate(d[:-1]) if v]
    quot = [0] * (len(rem) - dn + 1)
    for i in range(len(quot) - 1, -1, -1):
        f = rem[i + dn - 1]
        if f:
            quot[i] = f
            for j, v in tail:
                rem[i + j] -= f * v
    return quot, list_trim(rem[: dn - 1])


def list_mod_monic(c: Sequence[int], d: Sequence[int]) -> list[int]:
    """Remainder by a monic integer polynomial."""
    return list_divmod_monic(c, d)[1]


def list_inv_mod_p(c: Sequence[int], d: Sequence[int], p: int) -> list[int] | None:
    """Inverse of c modulo the monic integer polynomial d and the prime p, by
    the extended Euclid over Z/p; None when gcd(c, d) mod p is not constant."""
    r0, r1 = [v % p for v in d], list_trim([v % p for v in c])
    t0, t1 = [], [1]
    # Invariant: t_i * c == r_i (mod d, p).
    while len(r1) > 1:
        inv = pow(r1[-1], -1, p)
        rem, quot = list(r0), [0] * (len(r0) - len(r1) + 1)
        for i in range(len(quot) - 1, -1, -1):
            f = quot[i] = rem[i + len(r1) - 1] * inv % p
            for j, v in enumerate(r1 if f else ()):
                rem[i + j] = (rem[i + j] - f * v) % p
        t = list_add(t0, list_scale(list_mul(quot, t1), -1))
        r0, r1 = r1, list_trim(rem[: len(r1) - 1])
        t0, t1 = t1, list_trim([v % p for v in t])
    if not r1:
        return None
    inv = pow(r1[0], -1, p)
    return [v * inv % p for v in t1]


def expand_bracket_powers(exps: Mapping[int, int], c: Sequence[int] = (1,)) -> list[int]:
    """c * prod_m (1 - q**m)**exps[m], multiplying first and then dividing
    exactly; a power that does not divide raises InexactDivision."""
    out = list(c)
    for m, e in sorted(exps.items()):
        for _ in range(e):
            out = list_bracket_mul(out, m)
    for m, e in sorted(exps.items()):
        for _ in range(-e):
            out = list_bracket_div(out, m)
    return out


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 by trial division: (p, e) pairs, p ascending."""
    if n < 1:
        raise ValueError("only integers n >= 1 are factored")
    found: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        found[n] = 1
    return tuple(found.items())


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return tuple(sorted(ds))


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    fs = factorize(n)
    return 0 if any(e > 1 for _, e in fs) else (-1) ** len(fs)


def cyclo_powers(c: Sequence[int], mults: Mapping[int, int]) -> list[int]:
    """c * prod_d Phi_d(q)**mults[d] for integer multiplicities; a negative
    power that does not divide c raises InexactDivision.  Each Phi_d is the
    Moebius product prod_{t | d} (q**t - 1)**mu(d/t), so this is one bracket
    product, applied to c by `expand_bracket_powers`."""
    brackets: dict[int, int] = {}
    sign = 1
    for d, e in mults.items():
        # q**t - 1 = -(1 - q**t), and sum_{t | d} mu(d/t) is 1 for d = 1 only.
        if d == 1 and e % 2:
            sign = -sign
        for t in divisors(d):
            mu = mobius(d // t)
            if mu:
                brackets[t] = brackets.get(t, 0) + mu * e
    return list_scale(expand_bracket_powers(brackets, c), sign)


def expand_cyclo_powers(mults: Mapping[int, int]) -> list[int]:
    """Expand prod_d Phi_d(q)**mults[d]; monic.  A negative multiplicity
    leaves no polynomial and raises InexactDivision."""
    out = cyclo_powers([1], mults)
    if not out or out[-1] != 1:
        raise ArithmeticError("cyclotomic product must be monic")
    return out


@lru_cache(maxsize=None)
def cyclotomic_int(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    return tuple(expand_cyclo_powers({n: 1}))


def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial as a Poly.

    >>> cyclotomic(1)
    Poly('q - 1')
    >>> cyclotomic(6)
    Poly('q^2 - q + 1')
    """
    return Poly(cyclotomic_int(n))


class Poly:
    """Dense univariate polynomial over Fraction.

    >>> Poly([1, 1]) * Poly([1, -1])
    Poly('-q^2 + 1')
    >>> divmod(Poly([-1, 0, 0, 1]), Poly([-1, 1]))
    (Poly('q^2 + q + 1'), Poly('0'))
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        self.coeffs = tuple(list_trim(cs))

    @staticmethod
    def zero() -> Poly:
        return Poly()

    @staticmethod
    def one() -> Poly:
        return Poly([1])

    @staticmethod
    def monomial(coeff: Scalar, exp: int) -> Poly:
        if exp < 0:
            raise ValueError("Poly exponents must be nonnegative; use RatFunc.q_power")
        if coeff == 0:
            return Poly()
        return Poly([0] * exp + [coeff])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> Poly:
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Poly([c / lead for c in self.coeffs])

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __add__(self, other) -> Poly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(
            a + b
            for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=_ZERO)
        )

    __radd__ = __add__

    def __sub__(self, other) -> Poly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other) -> Poly:
        return -(self - other)

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly()
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        # Convolution over int is much cheaper than over Fraction.
        (ca, a), (cb, b) = content_split(self.coeffs), content_split(other.coeffs)
        c, prod = ca * cb, list_mul(a, b)
        return Poly(prod if c == 1 else [v * c for v in prod])

    __rmul__ = __mul__

    def __truediv__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of Poly by zero scalar")
            inv = _ONE / Fraction(other)
            return Poly([c * inv for c in self.coeffs])
        return NotImplemented

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative power of a Poly")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly(), self
        rem = list(self.coeffs)
        dcs = other.coeffs
        dn = len(dcs)
        inv_lead = _ONE / dcs[-1]
        quot = [_ZERO] * (len(rem) - dn + 1)
        for i in range(len(quot) - 1, -1, -1):
            f = rem[i + dn - 1] * inv_lead
            if f:
                quot[i] = f
                for j in range(dn):
                    rem[i + j] -= f * dcs[j]
        return Poly(quot), Poly(rem[: dn - 1])

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def __repr__(self) -> str:
        return f"Poly('{format_poly(self.coeffs)}')"


def _coerce(other):
    if isinstance(other, Poly):
        return other
    if isinstance(other, (int, Fraction)):
        return Poly([other])
    return NotImplemented


def format_poly(coeffs, var: str = "q") -> str:
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        sign = " - " if c < 0 else (" + " if parts else "")
        mag = abs(c)
        if i == 0:
            body = f"{mag}"
        else:
            term = var if i == 1 else f"{var}^{i}"
            if mag == 1:
                body = term
            elif isinstance(mag, Fraction) and mag.denominator != 1:
                body = f"({mag}){term}"
            else:
                body = f"{mag}{term}"
        if not parts and c < 0:
            sign = "-"
        parts.append(sign + body)
    return "".join(parts)


def _primitive(c: list[int]) -> list[int]:
    if not list_trim(c):
        return c
    g = 0
    for v in c:
        g = math.gcd(g, v)
    if c[-1] < 0:
        g = -g
    return [v // g for v in c]


def _int_pseudo_rem(u: list[int], v: list[int]) -> list[int]:
    """Remainder of u by v over the integers, u scaled by powers of lc(v)."""
    u = list(u)
    dv = len(v) - 1
    lv = v[-1]
    while len(u) - 1 >= dv:
        top = u[-1]
        u = [lv * c for c in u]
        off = len(u) - 1 - dv
        for j in range(len(v)):
            u[off + j] -= top * v[j]
        u.pop()
        if not list_trim(u):
            break
    return u


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd, computed by a primitive pseudo-remainder sequence over the
    integers (the rational remainder sequence suffers coefficient blow-up
    already at desk-scale degrees)."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    u = _primitive(content_split(a.coeffs)[1])
    v = _primitive(content_split(b.coeffs)[1])
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, _primitive(_int_pseudo_rem(u, v))
    return Poly(u).monic()


def poly_gcd_ext(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns monic g and s, t with g = s*a + t*b."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    r0, r1 = a, b
    s0, s1 = Poly.one(), Poly.zero()
    t0, t1 = Poly.zero(), Poly.one()
    while not r1.is_zero():
        quot, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quot * s1
        t0, t1 = t1, t0 - quot * t1
    lead = r0.leading()
    g, s, t = r0 / lead, s0 / lead, t0 / lead
    if g != s * a + t * b:
        raise ArithmeticError("extended gcd certificate failed")
    return g, s, t
