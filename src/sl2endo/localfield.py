"""Truncated p-adic arithmetic over Q_p (p odd) with quadratic sign characters.

Elements of the ring of integers are stored as residues modulo p^N for a
fixed working precision N.  Arithmetic is exact modulo p^N; any operation
that needs the valuation of a residue that is 0 mod p^N raises
PrecisionExhausted instead of guessing.  On top of the ring we provide
the two quadratic characters of the multiplicative group that the
character formulas need:

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


def sqrt_mod_p(a: int, p: int) -> int:
    """Canonical square root of a unit square mod p: the smaller of the two roots.

    Tonelli-Shanks with a deterministic nonresidue, so repeated runs agree.
    """
    a %= p
    if legendre(a, p) == -1:
        raise NotASquare(f"{a} is not a square mod {p}")
    # write p - 1 = 2^s * t with t odd
    t, s = p - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    z = pow(smallest_nonresidue(p), t, p)
    r = pow(a, (t + 1) // 2, p)
    c, w, m = z, pow(a, t, p), s
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


def hensel_sqrt(x: PadicNumber) -> PadicNumber:
    """A square root of x mod p^N, found by lifting the canonical root mod p.

    Requires even valuation and a square unit part; the second root is the
    negative of the returned one.  Deterministic: the lift starts from the
    smaller square root of the unit part mod p.
    """
    cfg = x.config
    p = cfg.p
    v = x.valuation()
    if v % 2:
        raise NotASquare(f"odd valuation {v}")
    u = x.residue // p**v
    try:
        s = sqrt_mod_p(u, p)  # the one Euler test of the unit part
    except NotASquare:
        raise NotASquare(f"unit part {u % p} is a nonresidue mod {p}") from None
    # Newton lift: s <- (s + u/s)/2, doubling the exact precision each pass;
    # (mod + 1) // 2 is 1/2 mod the odd modulus.
    k = 1
    while k < cfg.N:
        k = min(2 * k, cfg.N)
        mod = p**k
        s = (s + u * pow(s, -1, mod)) * ((mod + 1) // 2) % mod
    return cfg.padic(p ** (v // 2) * s)
