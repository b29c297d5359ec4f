"""Character values of the depth-zero supercuspidal packets on the elliptic torus.

The trusted engine exposes:

* the member characters of the regular-level packet (two members),
* the member characters of the quadratic-level packet far from the
  identity, but only the member sums near the identity (the published
  individual near-identity values are unreliable; see ``adss152_theta``),
* the virtual characters assembled from the component-group tables,
* the orbital-integral route to the near-identity sums (via the inverse
  Cayley transform), used as an independent cross-check,
* the inner-form character and, with both Kottwitz signs, the value the
  stable character must take for stability across the two inner forms.

The values from Theorem 15.2 of Adler-DeBacker-Sally-Spice (2011), which
go back to the seventh line of Sally-Shalika's Table 3, are quarantined
behind the explicitly named ``adss152_*`` API: they are exposed solely so
the falsification harness can exhibit their clash with the endoscopic
identity, and the trusted engine never consults them.

Member formulas return the whole member vector, in the row order of the
component group's character table in ``packets``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclotomic import CycNumber, linear_combination
from .errors import AntiNearUnsupported, NonRegularLevel, NotFar, NotNear, Undetermined
from .localfield import FieldConfig, legendre, sgn_pi, valuation
from .packets import KLEIN4, Z2, virtual_coeffs
from .residue import CharacterLevel, norm_one_group, quadratic_level
from .torus import (
    Classification,
    LieElement,
    TorusElement,
    TorusVariant,
    f_direct,
    g_conjugate,
)

# Constant term of the near-identity germ expansion of the generic member.
NEAR_CONSTANT_TERM = -1
# Sign of the depth-zero additive character's Weil-type constant for the
# unramified quadratic extension; enters the eps-orbit Fourier coefficient.
UNRAMIFIED_ADDITIVE_SIGN = -1
# Kottwitz signs of the two inner forms of SL(2).
KOTTWITZ_SIGN_SPLIT = 1
KOTTWITZ_SIGN_ANISOTROPIC = -1


@dataclass(frozen=True)
class PacketSpec:
    """A depth-zero supercuspidal packet, named by its torus character level.

    Regular levels give the two-member packet; the quadratic level gives
    the four-member packet, and the trivial level names none.  kind, read
    off the level, is the packet string of the reports.  The generic member
    comes first in both member vectors (the fixed genericity convention).
    """

    level: CharacterLevel
    kind: str = field(init=False)

    def __post_init__(self) -> None:
        if self.level.k == 0:
            raise NonRegularLevel(f"the trivial level mod {self.level.modulus} names no packet")
        object.__setattr__(self, "kind", "regular" if self.level.is_regular else "nonregular")

    @staticmethod
    def regular(config: FieldConfig, k: int) -> "PacketSpec":
        level = CharacterLevel(k, config.q + 1)
        if not level.is_regular:
            raise NonRegularLevel(f"level {k} mod {config.q + 1} is not regular")
        return PacketSpec(level)

    @staticmethod
    def nonregular(config: FieldConfig) -> "PacketSpec":
        return PacketSpec(quadratic_level(config))


def _classify_supported(gamma: TorusElement) -> Classification:
    cls = gamma.classification
    if cls is Classification.ANTI_NEAR:
        raise AntiNearUnsupported(
            "no character formula on central twists of near elements"
        )
    return cls


def _unramified_class(gamma: TorusElement) -> Classification:
    if gamma.variant is not TorusVariant.UNRAMIFIED:
        raise ValueError("formula applies to elements of the unramified-class torus")
    return _classify_supported(gamma)


def psi0(gamma: TorusElement) -> int:
    """The unique quadratic character of the norm-one torus, as +-1.

    Computed through sgn_pi(2(a+1)) away from the identity (with the
    lambda = -1 branch handled separately); near elements short-circuit to
    1 since the character has depth zero.  Agreement with the quadratic
    character level through the residue discrete log is a verified
    property, not an assumption.
    """
    cfg = gamma.config
    if gamma.b == 0:
        # a^2 = 1 exactly at precision forces the avatar to be +-1.
        if gamma.a == 1:
            return 1
        return -legendre(cfg.p - 1, cfg.p)
    if gamma.classification is Classification.NEAR:
        return 1
    return sgn_pi(2 * (gamma.a + 1), cfg)


def psi0_via_level(gamma: TorusElement) -> int:
    """The same character evaluated through the residue dlog route."""
    cfg = gamma.config
    group = norm_one_group(cfg)
    return group.character_value(quadratic_level(cfg), group.reduce(gamma)).as_int()


def psi0_on_residue_point(config: FieldConfig, point: tuple[int, int]) -> int:
    """The defining formula evaluated on a residue point.

    On the residue curve a = -1 forces b = 0, so away from that single
    point the argument 2(a+1) is a unit and the character is a Legendre
    symbol.
    """
    p, (a, b) = config.p, point
    if b == 0 and a == p - 1:
        return -legendre(p - 1, p)
    return legendre(2 * (a + 1) % p, p)


def _near_germ(gamma: TorusElement) -> tuple[CycNumber, CycNumber]:
    """The near-identity germ values (-1 - f, -1 + f) at gamma."""
    f = f_direct(gamma)
    return (
        CycNumber.from_int(NEAR_CONSTANT_TERM - f),
        CycNumber.from_int(NEAR_CONSTANT_TERM + f),
    )


def theta_regular(level: CharacterLevel, gamma: TorusElement) -> tuple[CycNumber, CycNumber]:
    """Characters (theta+, theta-) of the regular-level packet at gamma in T^eps.

    Far from the identity the generic member takes -psi(gamma) - psi(1/gamma)
    and the other member vanishes; near the identity the values are
    -1 -+ f(gamma).
    """
    if _unramified_class(gamma) is Classification.NEAR:
        return _near_germ(gamma)
    group = norm_one_group(gamma.config)
    pt = group.reduce(gamma)
    value = group.character_value(level, pt)
    value_inv = group.character_value(level, group.inverse(pt))
    return (linear_combination(((-1, value), (-1, value_inv))), CycNumber.zero(level.modulus))


def theta_nonregular_far(gamma: TorusElement) -> tuple[CycNumber, ...]:
    """Member characters (theta1..theta4) of the quadratic-level packet far
    from the identity.

    Members 1 and 2 take -psi0(gamma); members 3 and 4 live on the other
    vertex and vanish on this torus.
    """
    if _unramified_class(gamma) is not Classification.FAR:
        raise NotFar("individual member values are only trusted far from the identity")
    value, zero = CycNumber.from_int(-psi0(gamma)), CycNumber.zero()
    return (value, value, zero, zero)


def theta_nonregular_near_sums(gamma: TorusElement) -> tuple[CycNumber, CycNumber]:
    """Near the identity only the two member sums are pinned down.

    Returns (theta_1 + theta_2, theta_3 + theta_4) = (-1 - f, -1 + f).
    Individual members are deliberately not exposed here.
    """
    if _unramified_class(gamma) is not Classification.NEAR:
        raise NotNear("member sums are the near-identity values")
    return _near_germ(gamma)


def theta_virtual(packet: PacketSpec, s: str, gamma: TorusElement) -> CycNumber:
    """The s-weighted virtual character sum_j <pi_j, s> theta_j of the packet at gamma.

    The signs <pi_j, s> are column s of the component group's character
    table (Z/2 for the two-member packet, Klein four for the four-member
    one), read from ``virtual_coeffs``.  Near the identity the four-member
    packet exposes only the pair sums theta_1 + theta_2 and theta_3 +
    theta_4, so the combination is determined, and taken on the sums,
    exactly when both members of each pair get the same sign; otherwise it
    raises Undetermined.

    Elements of the conjugated-class torus are evaluated by pullback: the
    transporting conjugation swaps the two halves of the member list
    (1 <-> 3, 2 <-> 4 for the four-member packet, + <-> - for the
    two-member one) and fixes the avatar, so the value is read off the
    unramified avatar with the members swapped.
    """
    cls = _classify_supported(gamma)
    swapped = gamma.variant is TorusVariant.CONJUGATED
    base = g_conjugate(gamma) if swapped else gamma
    if packet.level.is_regular:
        coeffs = virtual_coeffs(Z2, s)
        values = theta_regular(packet.level, base)
    else:
        coeffs = virtual_coeffs(KLEIN4, s)
        if cls is Classification.FAR:
            values = theta_nonregular_far(base)
        elif coeffs[0] != coeffs[1] or coeffs[2] != coeffs[3]:
            raise Undetermined(
                "near the identity only the member sums are known, which do not"
                f" pin down the s={s} combination"
            )
        else:
            coeffs, values = coeffs[::2], theta_nonregular_near_sums(base)
    if swapped:
        half = len(values) // 2
        values = values[half:] + values[:half]
    return linear_combination(zip(coeffs, values))


def mu_hat_orbital(Y: LieElement) -> CycNumber:
    """Orbital-integral Fourier transform value on a topologically nilpotent Y.

    Evaluates  NEAR_CONSTANT_TERM + q^{-1} * (1/D(Y)) * b_eps(eta^{-1} * y)
    with 1/D(Y) = q^{v(y)} and the eps-orbit coefficient b_eps = -q * sgn_eps,
    an integer since v(y) >= 1.  eta is read off Y.variant: 1 on the
    unramified-class torus and the uniformizer on its conjugate, where the
    twist flips the sign character.
    """
    cfg = Y.config
    vy = valuation(Y.y, cfg)
    if vy < 1:
        raise ValueError("the expansion applies for v(y) >= 1")
    # sgn_eps(eta^{-1} y) = (-1)^{v(y) - v(eta)}, read off the one v(y)
    v_eta = 1 if Y.variant is TorusVariant.CONJUGATED else 0
    sgn = -1 if (vy - v_eta) % 2 else 1
    b_eps = UNRAMIFIED_ADDITIVE_SIGN * cfg.q * sgn
    return CycNumber.from_int(NEAR_CONSTANT_TERM + cfg.q ** (vy - 1) * b_eps)


def adss152_theta(gamma: TorusElement) -> tuple[CycNumber, ...]:
    """Near-identity member values (theta1..theta4) as published in ADSS
    Theorem 15.2.

    Quarantined: these values ((-f-1)/2, (f-1)/2, (f-1)/2, (-f-1)/2)
    contradict both the orbital-integral route and the endoscopic
    identity, and exist here only for the falsification harness.  Nothing
    in the trusted engine calls this.  They are integers, since
    f = (-q)^{v(b)} is odd; an even f raises ArithmeticError rather than
    rounding.
    """
    if _unramified_class(gamma) is not Classification.NEAR:
        raise NotNear("the disputed values concern the near-identity regime")
    f = f_direct(gamma)
    numerator = -f - 1  # f - 1 differs by 2f, so both halves are exact or neither
    half, odd = divmod(numerator, 2)
    if odd:
        raise ArithmeticError(f"the ADSS-15.2 value {numerator}/2 is not an integer")
    outer, inner = CycNumber.from_int(half), CycNumber.from_int(half + f)
    return (outer, inner, inner, outer)


def theta5(gamma: TorusElement) -> CycNumber:
    """Character of the inner-form member at the transfer of gamma.

    Equals psi0(gamma); in particular 1 near the identity since the
    character has depth zero.
    """
    _classify_supported(gamma)  # no value on anti-near elements or an unsettled class
    return CycNumber.from_int(psi0(gamma))


def inner_form_side(gamma: TorusElement) -> CycNumber:
    """The value the split group's stable character sum_j theta_j must take at gamma.

    Stability across the two inner forms says e(G) sum_j theta_j(gamma) =
    e(G') 2 theta5(gamma), with the Kottwitz signs e(G) of the split form
    and e(G') of the anisotropic one.  Since e(G)^2 = 1, the split side is
    e(G) e(G') 2 theta5(gamma), which is returned.
    """
    return theta5(gamma).scale(2 * KOTTWITZ_SIGN_SPLIT * KOTTWITZ_SIGN_ANISOTROPIC)
