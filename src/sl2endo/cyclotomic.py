"""Exact arithmetic in the cyclotomic integers Z[zeta_m].

Every value the verifier compares (character values, transfer factors,
the ADSS-15.2 values) is an integer of Z[zeta_m], so a value is a vector
of integer coefficients in the power basis of Z[x]/(Phi_m(x)), with no
denominator.  Only the nonzero coefficients are stored, as (index,
coefficient) pairs sorted by index, so a character value (a sum of a few
roots of unity) costs its number of terms, not phi(m).  No zero
coefficient is stored, so equality is exact tuple comparison.  Working
modulo the cyclotomic polynomial (rather than x^m - 1) keeps the
representation faithful; reduction walks only the nonzero coefficients
of Phi_m.  Scalars must be integers: any other number raises TypeError
(through operator.index) and is never stored as a coefficient.

Phi_m and its reducer are memoised per conductor, and root_of_unity(m, k)
per (conductor, exponent mod m), each filled on first use; the values are
immutable and shared.  At an even conductor x^{m/2} = -1, so a root of
exponent k >= m/2 is the negation of the root of k - m/2, and reduction
only walks exponents below m/2.

Integers live at conductor 1 and embed into every conductor unchanged
(an integer is at most a constant term); values at two different
conductors above 1 do not mix, and combining them raises
ConductorMismatch; _conductor is that rule, for every operation.  The one
sum is linear_combination, one pass and one result: rational integers (a
lone term at index 0, at any conductor) are summed as Python ints, any
other operands by merging their index-sorted terms.  +, -, unary - and
scale are each one call of it.
"""

from __future__ import annotations

import numbers
import operator
from bisect import bisect_left
from functools import lru_cache
from itertools import compress

from ._values import FrozenValue, store
from .errors import ConductorMismatch


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


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial.

    Computed once per m as the Moebius product
    Phi_m = prod over squarefree d | m of (x^{m/d} - 1)^{mu(d)}: the factors
    with mu(d) = 1 are multiplied in first, then the others are divided out
    exactly, each step a linear pass over the coefficients.
    """
    if m < 1:
        raise ValueError("conductor must be >= 1")
    mobius = [(1, 1)]  # (d, mu(d)) for the squarefree divisors d of m
    for r in prime_divisors(m):
        mobius += [(d * r, -mu) for d, mu in mobius]
    poly = [1]
    for e in (m // d for d, mu in mobius if mu == 1):
        poly = list(map(operator.sub, [0] * e + poly, poly + [0] * e))
    for e in (m // d for d, mu in mobius if mu == -1):
        poly = _divide_by_x_e_minus_1(poly, e)
    return tuple(poly)


def euler_phi(m: int) -> int:
    return len(cyclotomic_poly(m)) - 1


@lru_cache(maxsize=None)
def _reducer(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(deg Phi_m, the pairs (j - deg, c_j) of its nonzero non-leading coefficients)."""
    poly = cyclotomic_poly(m)
    deg = len(poly) - 1
    return deg, tuple((j - deg, c) for j, c in enumerate(poly[:-1]) if c)


def _reduce(c: list[int], m: int) -> tuple[tuple[int, int], ...]:
    """Remainder of c (ascending, reduced in place) modulo the monic Phi_m,
    as its nonzero (index, coefficient) pairs."""
    deg, terms = _reducer(m)
    for i in range(len(c) - 1, deg - 1, -1):
        top = c[i]
        if top:
            for offset, pj in terms:
                c[i + offset] -= top * pj
    return tuple((i, c[i]) for i in compress(range(deg), c))


def _conductor(m: int, n: int) -> int:
    """The conductor where values at m and n meet: an integer (conductor 1)
    moves, and two different conductors above 1 raise ConductorMismatch."""
    if m == n or n == 1:
        return m
    if m == 1:
        return n
    raise ConductorMismatch(f"conductor {n} does not embed into {m}")


def _lift(x: "CycNumber | int") -> "CycNumber":
    return x if isinstance(x, CycNumber) else CycNumber.from_int(x)


class CycNumber(FrozenValue):
    """An element of Z[zeta_m] in the reduced power basis.

    num holds the (index, coefficient) pairs of the nonzero integer
    coefficients, sorted by index, so zero is ().
    """

    _fields = ("m", "num")

    def __init__(self, m: int, num: tuple[tuple[int, int], ...]) -> None:
        store(self, "m", m)
        store(self, "num", num)

    @staticmethod
    def from_int(n, m: int = 1) -> "CycNumber":
        if m < 1:
            raise ValueError("conductor must be >= 1")
        n = operator.index(n)
        return CycNumber(m, ((0, n),) if n else ())

    @staticmethod
    def zero(m: int = 1) -> "CycNumber":
        return CycNumber.from_int(0, m)

    @staticmethod
    def one(m: int = 1) -> "CycNumber":
        return CycNumber.from_int(1, m)

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_rational(self) -> bool:
        return not any(i for i, _ in self.num)

    def as_int(self) -> int:
        if not self.is_rational:
            raise ValueError(f"{self} is not an integer")
        return self.num[0][1] if self.num else 0

    def promote(self, L: int) -> "CycNumber":
        """This value at conductor L; only an integer (conductor 1) moves."""
        if L == self.m:
            return self
        if L == 1:
            raise ConductorMismatch(f"conductor {self.m} does not embed into 1")
        return CycNumber(_conductor(L, self.m), self.num)

    def __add__(self, other) -> "CycNumber":
        return linear_combination(((1, self), (1, _lift(other))))

    __radd__ = __add__

    def __sub__(self, other) -> "CycNumber":
        return linear_combination(((1, self), (-1, _lift(other))))

    def __rsub__(self, other) -> "CycNumber":
        return linear_combination(((1, CycNumber.from_int(other)), (-1, self)))

    def __neg__(self) -> "CycNumber":
        return linear_combination(((-1, self),))

    def __mul__(self, other) -> "CycNumber":
        other = _lift(other)
        m = _conductor(self.m, other.m)
        size = self.num[-1][0] + other.num[-1][0] + 1 if self.num and other.num else 0
        prod = [0] * size
        for i, x in self.num:
            for j, y in other.num:
                prod[i + j] += x * y
        return CycNumber(m, _reduce(prod, m))

    __rmul__ = __mul__

    def scale(self, n) -> "CycNumber":
        return linear_combination(((n, self),))

    def __eq__(self, other) -> bool:
        """Exact equality; it crosses to integers, so a CycNumber has no hash."""
        if not isinstance(other, (CycNumber, numbers.Number)):
            return NotImplemented
        other = _lift(other)
        _conductor(self.m, other.m)  # raises unless the conductors meet
        return self.num == other.num

    def __str__(self) -> str:
        """The value as a sum of terms c*z{m}^i, e.g. "3 - z12 + 2*z12^3"."""
        if not self.num:
            return "0"
        z, parts = f"z{self.m}", []
        for i, c in self.num:
            if c < 0:
                sign, c = " - ", -c
            else:
                sign = " + "
            if i > 1:
                parts.append(f"{sign}{z}^{i}" if c == 1 else f"{sign}{c}*{z}^{i}")
            elif i:
                parts.append(f"{sign}{z}" if c == 1 else f"{sign}{c}*{z}")
            else:
                parts.append(f"{sign}{c}")
        text = "".join(parts)
        return text[3:] if text[1] == "+" else "-" + text[3:]


def linear_combination(terms) -> CycNumber:
    """sum of c*v over the (integer c, CycNumber v) pairs of terms, in one pass.

    The result sits at the common conductor above 1 of the operands (zero
    ones included), else at 1, and two different conductors above 1 raise
    ConductorMismatch (_conductor).  A zero coefficient or value adds
    nothing, and a lone surviving term with coefficient 1 keeps its terms.
    When every surviving value is a rational integer (its one term has
    index 0) the sum is taken in Python ints; otherwise the scaled terms
    of the operands are merged by index, one operand at a time (_merged).
    """
    m, live = 1, []
    for c, v in terms:
        c = operator.index(c)
        if v.m != m:
            m = _conductor(m, v.m)
        if c and v.num:
            live.append((c, v))
    if len(live) == 1 and live[0][0] == 1:
        v = live[0][1]
        return v if v.m == m else CycNumber(m, v.num)
    total = 0
    for c, v in live:
        if v.num[-1][0]:  # a term above index 0: not a rational integer
            break
        total += c * v.num[0][1]
    else:
        return CycNumber(m, ((0, total),) if total else ())
    acc = ()
    for c, v in live:
        terms = v.num if c == 1 else [(i, c * x) for i, x in v.num]
        acc = _merged(acc, terms) if acc else terms
    return CycNumber(m, tuple(acc))


def _merged(a, b) -> list:
    """The index-sorted terms of a + b, for index-sorted term sequences a and
    b, with the zero sums dropped.  The shorter is walked term by term; each
    run of the longer below the next index is found by bisection and copied
    whole, so adding a few terms to a long value costs a few bisections."""
    if len(a) < len(b):
        a, b = b, a
    out, i, n = [], 0, len(a)
    for t in b:
        j = t[0]
        if i < n and a[i][0] < j:
            k = bisect_left(a, (j,), i + 1)  # (j,) sorts before every (j, c)
            out += a[i:k]
            i = k
        if i < n and a[i][0] == j:
            s = a[i][1] + t[1]
            if s:
                out.append((j, s))
            i += 1
        else:
            out.append(t)
    out += a[i:]
    return out


def root_of_unity(m: int, k: int) -> CycNumber:
    """The class of x^{k mod m} in Q[x]/(Phi_m), memoised per (m, k mod m)."""
    if m < 1:
        raise ValueError("conductor must be >= 1")
    return _root(m, k % m)


@lru_cache(maxsize=None)
def _root(m: int, k: int) -> CycNumber:
    """The class of x^k, for 0 <= k < m.  For even m, x^{m/2} = -1 (zeta_m^{m/2}
    is the primitive square root of unity), so x^k = -x^{k - m/2} above m/2."""
    if m % 2 == 0 and k >= m // 2:
        return linear_combination(((-1, _root(m, k - m // 2)),))
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    return CycNumber(m, _reduce(coeffs, m))
