"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A value is an integer coefficient vector in the power basis of
Q[x]/(Phi_m(x)) over one positive common denominator.  The pair is kept
canonical (the gcd of the denominator and all numerators is 1), so
equality of character values is exact tuple comparison.  Working modulo
the cyclotomic polynomial (rather than x^m - 1) keeps the representation
faithful; reduction walks only the nonzero coefficients of Phi_m.

Rationals live at conductor 1 and embed into every conductor by
zero-padding; values at two different conductors above 1 do not mix, and
combining them raises ConductorMismatch.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConductorMismatch

_CYCLO_CACHE: dict[int, tuple[int, ...]] = {}
# m -> (deg Phi_m, ((j - deg, c_j) for each nonzero non-leading coefficient c_j))
_REDUCERS: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending (trial division)."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


def _divide_by_x_e_minus_1(poly: list[int], e: int) -> list[int]:
    """The quotient poly / (x^e - 1), which must be exact over the integers."""
    n = len(poly) - e
    quot = [0] * e  # quot[e + i] is the coefficient of x^i
    for i in range(n):
        quot.append(quot[i] - poly[i])
    if quot[n:] != poly[n:]:
        raise ArithmeticError(f"x^{e} - 1 does not divide the polynomial")
    return quot[e:]


def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial.

    Computed once per m as the Moebius product
    Phi_m = prod over squarefree d | m of (x^{m/d} - 1)^{mu(d)}: the factors
    with mu(d) = 1 are multiplied in first, then the others are divided out
    exactly, each step a linear pass over the coefficients.
    """
    if m < 1:
        raise ValueError("conductor must be >= 1")
    cached = _CYCLO_CACHE.get(m)
    if cached is not None:
        return cached
    mobius = [(1, 1)]  # (d, mu(d)) for the squarefree divisors d of m
    for r in prime_divisors(m):
        mobius += [(d * r, -mu) for d, mu in mobius]
    poly = [1]
    for e in (m // d for d, mu in mobius if mu == 1):
        poly = list(map(operator.sub, [0] * e + poly, poly + [0] * e))
    for e in (m // d for d, mu in mobius if mu == -1):
        poly = _divide_by_x_e_minus_1(poly, e)
    poly = tuple(poly)
    deg = len(poly) - 1
    _REDUCERS[m] = (deg, tuple((j - deg, c) for j, c in enumerate(poly[:-1]) if c))
    _CYCLO_CACHE[m] = poly
    return poly


def euler_phi(m: int) -> int:
    return len(cyclotomic_poly(m)) - 1


def _reduce(c: list[int], m: int) -> tuple[int, ...]:
    """Remainder of c (ascending, reduced in place) modulo the monic Phi_m."""
    cyclotomic_poly(m)  # fills _REDUCERS[m] on first use
    deg, terms = _REDUCERS[m]
    for i in range(len(c) - 1, deg - 1, -1):
        top = c[i]
        if top:
            for offset, pj in terms:
                c[i + offset] -= top * pj
    if len(c) < deg:
        c += [0] * (deg - len(c))
    return tuple(c[:deg])


def _canonical(m: int, num: tuple[int, ...], den: int) -> "CycNumber":
    """The value num/den at conductor m, with the common factor removed."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
    return CycNumber(m, num, den)


@dataclass(frozen=True, eq=False)
class CycNumber:
    """An element num/den of Q(zeta_m) in the reduced power basis.

    num holds integer coefficients and den > 0; gcd(den, *num) == 1.
    """

    m: int
    num: tuple[int, ...]
    den: int = 1

    @staticmethod
    def from_rational(r, m: int = 1) -> "CycNumber":
        r = Fraction(r)
        num = [0] * euler_phi(m)
        num[0] = r.numerator
        return CycNumber(m, tuple(num), r.denominator)

    @staticmethod
    def zero(m: int = 1) -> "CycNumber":
        return CycNumber.from_rational(0, m)

    @staticmethod
    def one(m: int = 1) -> "CycNumber":
        return CycNumber.from_rational(1, m)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def _values(self):
        """Power-basis coefficients: ints when den == 1, else Fractions."""
        if self.den == 1:
            return self.num
        return [Fraction(c, self.den) for c in self.num]

    def coefficient_strings(self) -> list[str]:
        """The coefficients as report strings ("3", "-1/2", ...)."""
        return list(map(str, self._values()))

    def promote(self, L: int) -> "CycNumber":
        """This value at conductor L; only a rational (conductor 1) moves."""
        if L == self.m:
            return self
        if self.m != 1:
            raise ConductorMismatch(f"conductor {self.m} does not embed into {L}")
        return CycNumber(L, self.num + (0,) * (euler_phi(L) - 1), self.den)

    def _pair(self, other: "CycNumber | int | Fraction"):
        if not isinstance(other, CycNumber):
            other = CycNumber.from_rational(other)
        if self.m == other.m:
            return self, other
        if self.m == 1:
            return self.promote(other.m), other
        return self, other.promote(self.m)

    def __add__(self, other) -> "CycNumber":
        a, b = self._pair(other)
        if a.den == b.den:
            return _canonical(a.m, tuple(map(operator.add, a.num, b.num)), a.den)
        da, db = a.den, b.den
        return _canonical(a.m, tuple(x * db + y * da for x, y in zip(a.num, b.num)), da * db)

    __radd__ = __add__

    def __sub__(self, other) -> "CycNumber":
        a, b = self._pair(other)
        if a.den == b.den:
            return _canonical(a.m, tuple(map(operator.sub, a.num, b.num)), a.den)
        da, db = a.den, b.den
        return _canonical(a.m, tuple(x * db - y * da for x, y in zip(a.num, b.num)), da * db)

    def __rsub__(self, other) -> "CycNumber":
        return CycNumber.from_rational(other) - self

    def __neg__(self) -> "CycNumber":
        return CycNumber(self.m, tuple(map(operator.neg, self.num)), self.den)

    def __mul__(self, other) -> "CycNumber":
        a, b = self._pair(other)
        nonzero_b = [(j, y) for j, y in enumerate(b.num) if y]
        prod = [0] * (2 * len(a.num) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in nonzero_b:
                    prod[i + j] += x * y
        return _canonical(a.m, _reduce(prod, a.m), a.den * b.den)

    __rmul__ = __mul__

    def scale(self, r) -> "CycNumber":
        r = Fraction(r)
        n = r.numerator
        return _canonical(self.m, tuple(c * n for c in self.num), self.den * r.denominator)

    def __pow__(self, n: int) -> "CycNumber":
        if n < 0:
            raise ValueError("negative powers not supported; use conjugate for roots")
        result = CycNumber.one(self.m)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "CycNumber":
        """Image under zeta_m -> zeta_m^{-1} (complex conjugation on values)."""
        flipped = [0] * self.m
        for i, c in enumerate(self.num):
            flipped[(self.m - i) % self.m] += c
        return _canonical(self.m, _reduce(flipped, self.m), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (CycNumber, int, Fraction)):
            return NotImplemented
        a, b = self._pair(other)
        return a.den == b.den and a.num == b.num

    __hash__ = None  # equality crosses to rationals; not intended as a dict key

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self._values()):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                z = f"z{self.m}" if i == 1 else f"z{self.m}^{i}"
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{c}*{z}")
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out

    def __repr__(self) -> str:
        return f"CycNumber({self})"


def root_of_unity(m: int, k: int) -> CycNumber:
    """The class of x^{k mod m} in Q[x]/(Phi_m)."""
    if m < 1:
        raise ValueError("conductor must be >= 1")
    k %= m
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    return CycNumber(m, _reduce(coeffs, m))
