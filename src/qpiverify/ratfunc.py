"""Reduced rational functions in q.

A RatFunc is a fully reduced quotient num/den with a monic denominator.
Negative powers of q are represented by a q-power factor in the denominator,
so a single type covers the Laurent-valued summands as well (the minimum
exponent is recoverable from the q-adic valuations of num and den).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polys import Poly, format_poly, poly_gcd


class ZeroDenominator(ZeroDivisionError):
    pass


@dataclass(frozen=True)
class RatFunc:
    num: Poly
    den: Poly

    def __post_init__(self):
        num, den = self.num, self.den
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly.zero(), Poly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
            lead = den.leading()
            if lead != 1:
                num = num / lead
                den = den / lead
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _from_reduced(cls, num: Poly, den: Poly) -> RatFunc:
        """Trusted constructor for inputs already coprime with monic den."""
        self = object.__new__(cls)
        if num.is_zero():
            num, den = Poly.zero(), Poly.one()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @staticmethod
    def zero() -> RatFunc:
        return RatFunc._from_reduced(Poly.zero(), Poly.one())

    @staticmethod
    def one() -> RatFunc:
        return RatFunc._from_reduced(Poly.one(), Poly.one())

    @staticmethod
    def from_poly(p: Poly) -> RatFunc:
        return RatFunc._from_reduced(p, Poly.one())

    @staticmethod
    def q_power(e: int) -> RatFunc:
        """q**e for any integer e."""
        if e >= 0:
            return RatFunc._from_reduced(Poly.monomial(1, e), Poly.one())
        return RatFunc._from_reduced(Poly.one(), Poly.monomial(1, -e))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __neg__(self) -> RatFunc:
        return RatFunc._from_reduced(-self.num, self.den)

    def __add__(self, other) -> RatFunc:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other) -> RatFunc:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other) -> RatFunc:
        return -(self - other)

    def __mul__(self, other) -> RatFunc:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDenominator("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> RatFunc:
        return _coerce(other) / self

    def evaluate(self, x) -> Fraction:
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.evaluate(x) / d

    def __str__(self) -> str:
        if self.den == Poly.one():
            return format_poly(self.num.coeffs)
        return f"({format_poly(self.num.coeffs)}) / ({format_poly(self.den.coeffs)})"

    def __repr__(self) -> str:
        return f"RatFunc('{self}')"


def _coerce(other):
    if isinstance(other, RatFunc):
        return other
    if isinstance(other, Poly):
        return RatFunc.from_poly(other)
    if isinstance(other, (int, Fraction)):
        return RatFunc.from_poly(Poly([other]))
    return NotImplemented
