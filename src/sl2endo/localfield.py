"""Truncated p-adic arithmetic over Q_p (p odd) with quadratic sign characters.

Elements of the ring of integers are stored as residues modulo p^N for a
fixed working precision N.  Arithmetic is exact modulo p^N; any operation
that needs the valuation of a residue that is 0 mod p^N raises
PrecisionExhausted instead of guessing (``hensel_sqrt``, which answers
whether a root exists at precision, answers None there).  On top of the
ring we provide the two quadratic characters of the multiplicative group
that the character formulas need:

* ``sgn_eps``: the unramified character (-1)^{v(x)}, trivial exactly on
  norms from the unramified quadratic extension.
* ``sgn_pi``: the character trivial exactly on norms from the ramified
  extension obtained by adjoining a square root of the uniformizer.

The uniformizer is fixed to p and the residue field has q = p elements,
so everything residue-field-sized is an honest small integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import NotASquare, PrecisionExhausted, ZeroInput

# Primes from this on are refused before any work: the per-prime tables (the
# q + 1 residue torus points, Phi_{q+1}) and the primality test grow with p.
PRIME_BOUND = 1 << 20


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def legendre(u: int, p: int) -> int:
    """Legendre symbol of u mod p, as +1 or -1.

    Raises ZeroInput when p divides u (the symbol would be 0; callers in
    this package always mean a unit).
    """
    if u % p == 0:
        raise ZeroInput(f"{u} is divisible by {p}")
    e = pow(u % p, (p - 1) // 2, p)
    return 1 if e == 1 else -1


@lru_cache(maxsize=None)
def smallest_nonresidue(p: int) -> int:
    u = 2
    while legendre(u, p) == 1:
        u += 1
    return u


def _tonelli_shanks(a: int, p: int) -> "int | None":
    """The smaller square root of the unit a (reduced mod p), or None for a nonresidue.

    Tonelli-Shanks with a deterministic nonresidue, so repeated runs agree.
    Writing p - 1 = 2^s * t with t odd, the chain starts from w = a^t, and
    w^(2^(s-1)) = a^((p-1)/2) is Euler's criterion: the one square test.
    """
    s = ((p - 1) & (1 - p)).bit_length() - 1
    t = (p - 1) >> s
    w = pow(a, t, p)
    if pow(w, 1 << (s - 1), p) != 1:
        return None
    r = pow(a, (t + 1) // 2, p)
    if w != 1:
        c, m = pow(smallest_nonresidue(p), t, p), s
        while w != 1:
            k, x = 0, w
            while x != 1:
                x = x * x % p
                k += 1
            b = pow(c, 1 << (m - k - 1), p)
            r = r * b % p
            c = b * b % p
            w = w * c % p
            m = k
    return min(r, p - r)


def sqrt_mod_p(a: int, p: int) -> int:
    """Canonical square root of a unit square mod p: the smaller of the two roots.

    Raises ZeroInput when p divides a and NotASquare for a nonresidue.
    """
    a %= p
    if a == 0:
        raise ZeroInput(f"{a} is divisible by {p}")
    r = _tonelli_shanks(a, p)
    if r is None:
        raise NotASquare(f"{a} is not a square mod {p}")
    return r


@dataclass(frozen=True)
class FieldConfig:
    """The base field Q_p at working precision N, with fixed square-class data.

    eps, the canonical non-square unit, is the smallest positive nonresidue
    mod p, and the uniformizer is p itself, so the residue field has q = p
    elements.
    """

    p: int
    N: int = 8

    def __post_init__(self) -> None:
        if self.p >= PRIME_BOUND:
            raise ValueError(f"p must be below 2^20 = {PRIME_BOUND}, got {self.p}")
        if not is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.N < 4:
            raise ValueError(f"precision N must be >= 4, got {self.N}")

    @property
    def q(self) -> int:
        return self.p

    @property
    def pi(self) -> int:
        return self.p

    @cached_property
    def eps(self) -> int:
        return smallest_nonresidue(self.p)

    @cached_property
    def modulus(self) -> int:
        return self.p**self.N

    def padic(self, value: int) -> "PadicNumber":
        return PadicNumber(value % self.modulus, self)


@dataclass(frozen=True)
class PadicNumber:
    """A residue mod p^N standing for an element of the ring of integers."""

    residue: int
    config: FieldConfig

    def __post_init__(self) -> None:
        if not 0 <= self.residue < self.config.modulus:
            object.__setattr__(self, "residue", self.residue % self.config.modulus)

    @property
    def is_zero_at_precision(self) -> bool:
        return self.residue == 0

    def valuation(self) -> int:
        if self.residue == 0:
            raise PrecisionExhausted(
                f"residue is 0 mod {self.config.p}^{self.config.N}"
            )
        v, r = 0, self.residue
        while r % self.config.p == 0:
            r //= self.config.p
            v += 1
        return v

    def _coerce(self, other: "PadicNumber | int") -> "PadicNumber":
        if isinstance(other, PadicNumber):
            if other.config != self.config:
                raise ValueError("mixed field configurations")
            return other
        return self.config.padic(other)

    def __add__(self, other: "PadicNumber | int") -> "PadicNumber":
        o = self._coerce(other)
        return PadicNumber((self.residue + o.residue) % self.config.modulus, self.config)

    __radd__ = __add__

    def __sub__(self, other: "PadicNumber | int") -> "PadicNumber":
        o = self._coerce(other)
        return PadicNumber((self.residue - o.residue) % self.config.modulus, self.config)

    def __rsub__(self, other: int) -> "PadicNumber":
        return self._coerce(other) - self

    def __mul__(self, other: "PadicNumber | int") -> "PadicNumber":
        o = self._coerce(other)
        return PadicNumber(self.residue * o.residue % self.config.modulus, self.config)

    __rmul__ = __mul__

    def __neg__(self) -> "PadicNumber":
        return PadicNumber(-self.residue % self.config.modulus, self.config)

    def __truediv__(self, other: "PadicNumber | int") -> "PadicNumber":
        o = self._coerce(other)
        if o.valuation() != 0:
            raise ValueError("division is only defined by units (valuation 0)")
        inv = pow(o.residue, -1, self.config.modulus)
        return PadicNumber(self.residue * inv % self.config.modulus, self.config)

    def __repr__(self) -> str:
        return f"PadicNumber({self.residue} mod {self.config.p}^{self.config.N})"


def sgn_eps(x: PadicNumber) -> int:
    """The unramified quadratic character: (-1)^{v(x)}."""
    return -1 if x.valuation() % 2 else 1


def sgn_pi(x: PadicNumber) -> int:
    """The quadratic character trivial exactly on norms from F(sqrt(pi)).

    For x = u * p^n with u a unit this is legendre(u) * legendre(-1)^n.
    The norm group downstairs is generated by -p together with the unit
    squares, and the formula is checked against that description by the
    norm oracle in the test suite.
    """
    p = x.config.p
    n = x.valuation()
    value = legendre(x.residue // p**n, p)
    if n % 2:
        value *= legendre(p - 1, p)
    return value


def hensel_sqrt(x: int, config: FieldConfig) -> "int | None":
    """A square root of x mod p^N, found by lifting the canonical root mod p, or None.

    x is read as a residue mod p^N and the root comes back as one.  None
    means x has no square root at precision: x is 0 mod p^N, its valuation
    is odd, or its unit part is a nonresidue mod p.  The second root is the
    negative of the returned one.  Deterministic: the lift starts from the
    smaller square root of the unit part mod p.
    """
    p, modulus = config.p, config.modulus
    u = x % modulus
    if u == 0:
        return None
    v = 0
    while u % p == 0:
        u //= p
        v += 1
    if v % 2:
        return None
    s = _tonelli_shanks(u % p, p)  # the one Euler test of the unit part
    if s is None:
        return None
    # Newton lift of r = 1/sqrt(u): r <- r(3 - u r^2)/2 doubles the exact
    # precision each pass with no modular inverse, and ceil(log2 N) passes
    # reach p^N; (modulus + 1) // 2 is 1/2 mod the odd modulus.  Then u*r is
    # the root of u that is s mod p, which Hensel's lemma makes unique.
    r, half = pow(s, -1, p), (modulus + 1) // 2
    for _ in range((config.N - 1).bit_length()):
        r = r * (3 - u * r * r) * half % modulus
    return p ** (v // 2) * u * r % modulus
