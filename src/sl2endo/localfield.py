"""p-adic integers of Q_p (p odd) as residues mod p^N, with quadratic sign characters.

An element of the ring of integers is its canonical residue, an int in
[0, p^N) for a fixed working precision N, read together with the one
``FieldConfig`` that fixes p and N; callers do their ring arithmetic on
those ints mod ``config.modulus``.  Any function that needs the valuation
of a residue that is 0 mod p^N raises PrecisionExhausted instead of
guessing (``hensel_sqrt``, which answers whether a root exists at
precision, answers None there).  On top of the ring we provide the two
quadratic characters of the multiplicative group that the character
formulas need:

* ``sgn_eps``: the unramified character (-1)^{v(x)}, trivial exactly on
  norms from the unramified quadratic extension.
* ``sgn_pi``: the character trivial exactly on norms from the ramified
  extension obtained by adjoining a square root of the uniformizer.

The uniformizer is fixed to p and the residue field has q = p elements,
so everything residue-field-sized is an honest small integer.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import PrecisionExhausted, ZeroInput

# Primes from this on are refused before any work: the per-prime tables (the
# q + 1 residue torus points, Phi_{q+1}, the square roots mod p at 4 bytes
# per residue) and the primality test grow with p.
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


@lru_cache(maxsize=None)
def _square_roots(p: int) -> array:
    """The square-root table mod p: roots[u] is the smaller root of the unit u, 0 if none.

    One pass over s = 1 .. (p-1)/2 writes s at s^2 mod p; the two roots of a
    square are s and p - s, so the smaller is the s that lands there.  4
    bytes per residue (4 MiB at the bound), one table per prime.
    """
    roots = array("i", [0]) * p
    for s in range(1, (p + 1) // 2):
        roots[s * s % p] = s
    return roots


def legendre(u: int, p: int) -> int:
    """Legendre symbol of u mod p, as +1 or -1.

    Raises ZeroInput when p divides u (the symbol would be 0; callers in
    this package always mean a unit).
    """
    if u % p == 0:
        raise ZeroInput(f"{u} is divisible by {p}")
    return 1 if _square_roots(p)[u % p] else -1


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
        return _square_roots(self.p).index(0, 2)

    @cached_property
    def modulus(self) -> int:
        return self.p**self.N


def _split(x: int, config: FieldConfig) -> tuple[int, int]:
    """(v, u) with x = p^v * u mod p^N and u a unit, for x read as a residue.

    Raises PrecisionExhausted when x is 0 mod p^N: its valuation is then
    undefined at precision.
    """
    p = config.p
    u = x % config.modulus
    if u == 0:
        raise PrecisionExhausted(f"residue is 0 mod {p}^{config.N}")
    v = 0
    while u % p == 0:
        u //= p
        v += 1
    return v, u


def valuation(x: int, config: FieldConfig) -> int:
    """v(x) of x read as a residue mod p^N; PrecisionExhausted when it is 0."""
    return _split(x, config)[0]


def sgn_eps(x: int, config: FieldConfig) -> int:
    """The unramified quadratic character: (-1)^{v(x)}."""
    return -1 if valuation(x, config) % 2 else 1


def sgn_pi(x: int, config: FieldConfig) -> int:
    """The quadratic character trivial exactly on norms from F(sqrt(pi)).

    For x = u * p^n with u a unit this is legendre(u) * legendre(-1)^n.
    The norm group downstairs is generated by -p together with the unit
    squares, and the formula is checked against that description by the
    norm oracle in the test suite.
    """
    p = config.p
    n, u = _split(x, config)
    value = legendre(u, p)
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
    if x % modulus == 0:
        return None
    v, u = _split(x, config)
    if v % 2:
        return None
    s = _square_roots(p)[u % p]  # the one square test of the unit part
    if s == 0:
        return None
    # Newton lift of r = 1/sqrt(u): r <- r(3 - u r^2)/2 doubles the exact
    # precision each pass with no modular inverse, and ceil(log2 N) passes
    # reach p^N; (modulus + 1) // 2 is 1/2 mod the odd modulus.  Then u*r is
    # the root of u that is s mod p, which Hensel's lemma makes unique.
    r, half = pow(s, -1, p), (modulus + 1) // 2
    for _ in range((config.N - 1).bit_length()):
        r = r * (3 - u * r * r) * half % modulus
    return p ** (v // 2) * u * r % modulus
