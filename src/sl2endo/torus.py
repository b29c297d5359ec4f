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
from dataclasses import dataclass
from hashlib import blake2b

from .errors import NotNear
from .localfield import FieldConfig, cached_fact, hensel_sqrt, sgn_eps, valuation


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


def _block(key: bytes, j: int) -> bytes:
    """Block j of a draw's digits: the 64-byte blake2b digest of its key, salted
    with the counter j (block 0 is the unsalted digest)."""
    return blake2b(key, salt=j.to_bytes(16, "little")).digest()


def _uniform(key: bytes, m: int) -> int:
    """A uniform int in [0, m), read from the blocks of key.

    The first m.bit_length() + 64 bits (in whole bytes) of the next unread
    blocks are an int y, and the draw is y mod m unless y lies in the top
    incomplete multiple of m, a chance below 2^-64; then y is read again
    from the blocks after it.  So the law is exactly uniform.
    """
    size = (m.bit_length() + 71) // 8
    span = 1 << 8 * size
    cut = span - span % m
    j = 0
    while True:
        data = _block(key, j)
        j += 1
        while len(data) < size:
            data += _block(key, j)
            j += 1
        y = int.from_bytes(data[:size], "little")
        if y < cut:
            return y % m


def _signed_root(x: int, residue: int, config: FieldConfig) -> int:
    """The square root of the unit square x mod p^N that is residue mod p."""
    root = hensel_sqrt(x, config)
    return root if root % config.p == residue else config.modulus - root


def _element_of(
    config: FieldConfig, classification: Classification, v_target: int, x: int
) -> TorusElement:
    """The element that the digits x in [0, (p-1) p^(N-v-1)) draw, for
    v = v_target: one to one onto the elements of the class with v(b) = v
    mod p^N, with one hensel_sqrt call.  Write x = low + (p-1) rest.

    Far: t = 1 + low runs over F_p^x, and the conic's rational
    parametrisation (1 + eps t^2, 2t)/(1 - eps t^2) maps it onto the p - 1
    residue points (a0, b0) with b0 != 0.  The torus is etale over the
    coordinate that is a unit there, so rest lifts that coordinate and the
    other is the root that reduces to the point: b = b0 + p rest when
    a0 != 0, else (only when p = 3 mod 4) a = p rest.
    Near and anti-near: b = p^v (1 + low + p rest), p^v times a unit mod
    p^(N-v), and a is the root = +1 or -1 mod p.
    """
    p, eps, modulus = config.p, config.eps, config.modulus
    rest, low = divmod(x, p - 1)
    if classification is Classification.FAR:
        t = low + 1
        d = pow(1 - eps * t * t, -1, p)
        a0, b0 = (1 + eps * t * t) * d % p, 2 * t * d % p
        if a0:
            b = b0 + p * rest
            a = _signed_root(eps * b * b + 1, a0, config)
        else:
            a = p * rest
            b = _signed_root((a * a - 1) * pow(eps, -1, modulus), b0, config)
    else:
        b = p**v_target * (1 + low + p * rest)
        residue = 1 if classification is Classification.NEAR else p - 1
        a = _signed_root(eps * b * b + 1, residue, config)
    gamma = TorusElement(config, a, b)
    if gamma.classification is not classification:
        raise AssertionError(f"digits {x} drew an element of class"
                             f" {gamma.classification.value}, not {classification.value}")
    return gamma


def sample_regular(
    config: FieldConfig,
    classification: Classification,
    v_target: int,
    seed: "int | str",
) -> TorusElement:
    """Draw a pseudo-random regular element of the requested class.

    The draw hashes its key str(seed) with blake2b and reads from the
    digest one uniform x in [0, (p-1) p^(N-v-1)), v = v_target (_uniform);
    _element_of maps x one to one onto the elements of the class with
    v(b) = v mod p^N.  So every draw succeeds, makes one hensel_sqrt call,
    and is exactly uniform on its class of T(Z/p^N), which is Haar.
    """
    if classification is Classification.FAR:
        if v_target != 0:
            raise ValueError("far elements have v(b) = 0")
    else:
        if v_target < 1:
            raise ValueError("near elements need v(b) >= 1")
    if v_target >= config.N - 2:
        raise ValueError(f"v_target={v_target} leaves too little precision (N={config.N})")
    p = config.p
    x = _uniform(str(seed).encode(), (p - 1) * p ** (config.N - v_target - 1))
    return _element_of(config, classification, v_target, x)
