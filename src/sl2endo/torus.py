"""Elements of the unramified elliptic torus and its conjugate.

A torus element is stored as its field configuration and the pair (a, b)
of residues mod p^N with a^2 - eps*b^2 = 1 at precision (the avatar
a + b*sqrt(eps) of the norm-one group), tagged with which of the two
conjugacy classes of the torus it belongs to; a Lie algebra element is its
configuration and the residue y.  Every map between them computes on those
residues.  The 2x2 matrix forms are reconstructible views; every formula
downstream consumes only (a, b, v(b)).  An element computes v(b) and its
class once, on first read, and every formula reads them from it.

Regular elements split into three classes: far from the identity
(v(b) = 0), near the identity (v(b) >= 1 and a = 1 mod p), and the
central twist of near (a = -1 mod p).  The last class is classified but
carries no character formula, so evaluation on it fails loudly.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .errors import NotNear, SamplingBudgetExceeded
from .localfield import FieldConfig, cached_fact, hensel_sqrt, sgn_eps, valuation

# Draws sample_regular makes before it gives up on a class.
_SAMPLING_BUDGET = 256


class TorusVariant(enum.Enum):
    UNRAMIFIED = "unramified"     # entries (a, b; eps*b, a)
    CONJUGATED = "conjugated"     # entries (a, b/pi; eps*pi*b, a)


class Classification(enum.Enum):
    NEAR = "near"
    ANTI_NEAR = "anti-near"
    FAR = "far"


@dataclass(frozen=True)
class TorusElement:
    """The avatar a + b*sqrt(eps), a and b residues mod p^N; element() reduces ints."""

    config: FieldConfig
    a: int
    b: int
    variant: TorusVariant = TorusVariant.UNRAMIFIED

    def __post_init__(self) -> None:
        cfg, a, b = self.config, self.a, self.b
        modulus = cfg.modulus
        if not (0 <= a < modulus and 0 <= b < modulus):
            raise ValueError(f"({a}, {b}) are not residues mod {cfg.p}^{cfg.N}")
        if (a * a - cfg.eps * b * b) % modulus != 1:
            raise ValueError(f"({a}, {b}) is not norm-one at precision")

    @cached_fact
    def valuation_b(self) -> int:
        """v(b), computed on first read.

        An element with b = 0 at precision still builds; reading this then
        raises PrecisionExhausted, every time, and nothing is cached.
        """
        return valuation(self.b, self.config)

    @cached_fact
    def classification(self) -> "Classification":
        """Near / anti-near / far trichotomy for regular elements.

        Far is v(b) = 0.  Otherwise b is in the maximal ideal, which forces
        a = +-1 mod p (a^2 = 1 + eps*b^2), splitting the remainder into near
        and its central twist.
        """
        if self.valuation_b == 0:
            return Classification.FAR
        p = self.config.p
        a_mod_p = self.a % p
        if a_mod_p == 1:
            return Classification.NEAR
        if a_mod_p == p - 1:
            return Classification.ANTI_NEAR
        raise AssertionError("norm-one element with b in (p) must have a = +-1 mod p")


@dataclass(frozen=True)
class LieElement:
    """Trace-zero torus Lie algebra element with off-diagonal avatar y, a residue mod p^N."""

    config: FieldConfig
    y: int
    variant: TorusVariant = TorusVariant.UNRAMIFIED

    def __post_init__(self) -> None:
        cfg = self.config
        if not 0 <= self.y < cfg.modulus:
            raise ValueError(f"{self.y} is not a residue mod {cfg.p}^{cfg.N}")


def element(config: FieldConfig, a: int, b: int,
            variant: TorusVariant = TorusVariant.UNRAMIFIED) -> TorusElement:
    """The torus element with avatar (a mod p^N, b mod p^N)."""
    modulus = config.modulus
    return TorusElement(config, a % modulus, b % modulus, variant)


def f_direct(gamma: TorusElement) -> int:
    """The function (-q)^{v(b)} as an exact integer."""
    return (-gamma.config.q) ** gamma.valuation_b


def f_via_disc(gamma: TorusElement) -> int:
    """The same function computed from its defining quotient.

    sgn_eps(b) divided by the normalized Weyl discriminant |b| = q^{-v(b)},
    i.e. sgn_eps(b) * q^{v(b)}.
    """
    return sgn_eps(gamma.b, gamma.config) * gamma.config.q ** gamma.valuation_b


def weyl_DG(gamma: TorusElement) -> int:
    """Weyl discriminant (trace)^2 - 4 of the matrix form, a residue; equals 4*eps*b^2."""
    two_a = 2 * gamma.a
    return (two_a * two_a - 4) % gamma.config.modulus


def weyl_D_lie(Y: LieElement) -> int:
    """Lie-algebra discriminant, a residue: char-poly discriminant 4*eps*y^2."""
    return 4 * Y.config.eps * Y.y * Y.y % Y.config.modulus


def invert(gamma: TorusElement) -> TorusElement:
    """Inverse = Galois conjugate for norm-one elements: (a, -b)."""
    cfg = gamma.config
    return TorusElement(cfg, gamma.a, -gamma.b % cfg.modulus, gamma.variant)


def g_conjugate(gamma: TorusElement) -> TorusElement:
    """Transport between the two torus conjugacy classes.

    Conjugation by diag(1, pi) moves the matrix entries but fixes the
    avatar (a, b), so the stored data only toggles the variant tag.
    """
    other = (
        TorusVariant.CONJUGATED
        if gamma.variant is TorusVariant.UNRAMIFIED
        else TorusVariant.UNRAMIFIED
    )
    return TorusElement(gamma.config, gamma.a, gamma.b, other)


def cayley_inverse(gamma: TorusElement) -> LieElement:
    """Inverse Cayley transform X = 2(gamma - 1)/(gamma + 1) for near elements.

    In avatar coordinates y = 4b / ((a+1)^2 - eps*b^2), computed on the
    residues mod p^N; the denominator is a unit (= 4 mod p) precisely
    because gamma is near the identity, and the modular inverse of one that
    is not raises ValueError.
    """
    if gamma.classification is not Classification.NEAR:
        raise NotNear("inverse Cayley transform is only taken near the identity")
    cfg = gamma.config
    a, b, modulus = gamma.a, gamma.b, cfg.modulus
    inv = pow((a + 1) * (a + 1) - cfg.eps * b * b, -1, modulus)
    return LieElement(cfg, 4 * b * inv % modulus, gamma.variant)


def cayley(Y: LieElement) -> TorusElement:
    """Cayley transform (1 + X/2)/(1 - X/2) back to the torus.

    In avatar coordinates, with t = eps*y^2/4, a = (1 + t)/(1 - t) and
    b = y/(1 - t); scaled by 4 these are a = (4 + eps*y^2)/(4 - eps*y^2) and
    b = 4y/(4 - eps*y^2), computed on the residues mod p^N with one modular
    inverse.  The denominator is 4 mod p because v(y) >= 1; the modular
    inverse of one that is not a unit raises ValueError.
    """
    cfg, y = Y.config, Y.y
    if valuation(y, cfg) < 1:
        raise ValueError("Cayley transform requires v(y) >= 1")
    modulus, eps_y2 = cfg.modulus, cfg.eps * y * y
    inv = pow(4 - eps_y2, -1, modulus)
    return TorusElement(cfg, (4 + eps_y2) * inv % modulus, 4 * y * inv % modulus, Y.variant)


def sample_regular(
    config: FieldConfig,
    classification: Classification,
    v_target: int,
    seed: "int | str | random.Random",
) -> TorusElement:
    """Draw a pseudo-random regular element of the requested class.

    b is p^{v_target} times a random unit; a is the Hensel square root of
    1 + eps*b^2 with its sign forced by the class (random for far, where
    the sign carries no information).  Near/anti-near draws always
    succeed; far draws are accepted only when 1 + eps*b^2 is a square,
    which happens for a positive fraction of units that can drop to ~1/8
    at p = 3, hence the generous retry budget.  A rejected draw raises
    nothing: hensel_sqrt answers None and the next draw follows.  The unit's
    digits are the draws of randrange(1, p) and randrange(p^(N-v-1)), taken
    from getrandbits by randrange's rule on CPython 3.10-3.13.
    """
    if classification is Classification.FAR:
        if v_target != 0:
            raise ValueError("far elements have v(b) = 0")
    else:
        if v_target < 1:
            raise ValueError("near elements need v(b) >= 1")
    if v_target >= config.N - 2:
        raise ValueError(f"v_target={v_target} leaves too little precision (N={config.N})")

    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    getrandbits = rng.getrandbits
    p, eps, modulus = config.p, config.eps, config.modulus
    shift, high = p**v_target, p ** (config.N - v_target - 1)
    low_bits, high_bits = (p - 1).bit_length(), high.bit_length()
    for _ in range(_SAMPLING_BUDGET):
        # unit by construction: nonzero low digit plus arbitrary higher digits;
        # each digit below n is bit_length(n) bits, redrawn while >= n
        low = getrandbits(low_bits)
        while low >= p - 1:
            low = getrandbits(low_bits)
        rest = getrandbits(high_bits)
        while rest >= high:
            rest = getrandbits(high_bits)
        b = shift * (1 + low + p * rest) % modulus
        a = hensel_sqrt(eps * b * b + 1, config)
        if a is None:
            continue
        # for v(b) >= 1 hensel_sqrt lifts the smaller root of 1, so a = 1 mod p:
        # near draws keep a, anti-near draws negate it, far draws flip a coin
        if classification is Classification.ANTI_NEAR or (
            classification is Classification.FAR and getrandbits(1)
        ):
            a = -a % modulus
        gamma = TorusElement(config, a, b)
        if gamma.classification is classification:
            return gamma
    raise SamplingBudgetExceeded(
        f"no {classification.value} element with v(b)={v_target} in {_SAMPLING_BUDGET} draws"
    )
