"""The residue-field side of the elliptic torus.

Over the residue field F_p, the points (a, b) with a^2 - eps*b^2 = 1 form
a cyclic group of order q + 1 (the norm-one subgroup of F_{p^2}^x written
in the basis 1, sqrt(eps)).  Depth-zero characters of the p-adic torus
factor through this group, so a character is named by an integer level k
mod q+1 relative to a deterministic generator.  A residue point is the
pair of ints (a, b).
"""

from __future__ import annotations

import functools

from ._values import FrozenValue, store
from .cyclotomic import CycNumber, prime_divisors, root_of_unity
from .localfield import FieldConfig, _square_roots


class CharacterLevel(FrozenValue):
    """A depth-zero character of the torus, named by its exponent mod q+1."""

    _fields = ("k", "modulus")

    def __init__(self, k: int, modulus: int) -> None:
        store(self, "k", k % modulus)
        store(self, "modulus", modulus)

    @property
    def is_quadratic(self) -> bool:
        return self.k == self.modulus // 2

    @property
    def is_regular(self) -> bool:
        """True when the character differs from its inverse (k != 0, (q+1)/2)."""
        return not (self.k == 0 or self.is_quadratic)


class NormOneGroup:
    """The order-(q+1) group of residue torus points, with dlog bookkeeping.

    A point (a, b) of a^2 - eps*b^2 = 1 has b^2 = (a^2 - 1)/eps, so the
    square-root table mod p gives the smaller b of each a, or 0 if none.  The
    generator is the first point in lexicographic order of exact order q+1,
    tested by x^((q+1)/r) != 1 for each prime r dividing q+1, which makes
    character levels canonical across runs with the same configuration.
    Scanning a upward over the smaller roots finds it: (a, b) and its inverse
    (a, -b) share an order, and the points +-1 with b = 0 have order <= 2.
    Walking the powers of the generator gives the points in walk order,
    points[e] = g^e, and dlog is its inverse.  Construction costs
    O(p log p) field operations.  Of its configuration the group reads only
    p and eps, never the precision N.
    """

    def __init__(self, p: int, eps: int):
        self.p, self.eps = p, eps
        roots, inv_eps = _square_roots(p), pow(eps, -1, p)
        self.order = p + 1
        self.identity = (1, 0)
        cofactors = [self.order // r for r in prime_divisors(self.order)]
        self.generator = next(
            pt
            for pt in ((a, roots[(a * a - 1) * inv_eps % p]) for a in range(p))
            if pt[1] and all(self.power(pt, e) != self.identity for e in cofactors)
        )
        self._dlog: dict[tuple[int, int], int] = {}
        pt = self.identity
        for e in range(self.order):
            self._dlog[pt] = e
            pt = self.mul(pt, self.generator)
        self.points: tuple[tuple[int, int], ...] = tuple(self._dlog)

    def mul(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        p, eps = self.p, self.eps
        (xa, xb), (ya, yb) = x, y
        return ((xa * ya + eps * xb * yb) % p, (xa * yb + xb * ya) % p)

    def power(self, x: tuple[int, int], e: int) -> tuple[int, int]:
        """x^e for e >= 0, by square-and-multiply."""
        result = self.identity
        while e:
            if e & 1:
                result = self.mul(result, x)
            x = self.mul(x, x)
            e >>= 1
        return result

    def inverse(self, x: tuple[int, int]) -> tuple[int, int]:
        a, b = x
        return (a, -b % self.p)

    def dlog(self, point: tuple[int, int]) -> int:
        return self._dlog[point]

    def reduce(self, element) -> tuple[int, int]:
        """Residue-field image of a torus element: its residues a and b, reduced mod p."""
        p = self.p
        return (element.a % p, element.b % p)

    def character_value(self, level: CharacterLevel, point: tuple[int, int]) -> CycNumber:
        if level.modulus != self.order:
            raise ValueError(
                f"level lives mod {level.modulus}, group has order {self.order}"
            )
        return root_of_unity(self.order, level.k * self.dlog(point))


# The group of each prime, by (p, eps): it does not depend on the precision N.
_groups = functools.lru_cache(maxsize=None)(NormOneGroup)


def norm_one_group(config: FieldConfig) -> NormOneGroup:
    """The norm-one group of config's prime, built on first use, once per prime."""
    return _groups(config.p, config.eps)


def quadratic_level(config: FieldConfig) -> CharacterLevel:
    """The level of the unique order-2 character (q+1 is even for odd q)."""
    return CharacterLevel((config.q + 1) // 2, config.q + 1)


def regular_levels(config: FieldConfig) -> list[CharacterLevel]:
    m = config.q + 1
    levels = (CharacterLevel(k, m) for k in range(m))
    return [level for level in levels if level.is_regular]
