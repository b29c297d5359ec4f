"""The algebraic side checks, one function per property.

Each check takes a field configuration and already-sampled torus elements,
keeps the far or near ones itself where it needs them, and returns whether
every identity it tests holds exactly.  ``sl2endo properties`` runs the
checks in ``PROPERTIES`` order; the acceptance suite calls the same
functions for criteria 3 and 5-9.  The independent routes (two to f, two
to psi0, the orbital integral against the near sums, the inner form
against the stable sum) are compared here, never merged.
"""

from __future__ import annotations

from .charformulas import (
    PacketSpec,
    inner_form_side,
    mu_hat_orbital,
    psi0,
    psi0_on_residue_point,
    psi0_via_level,
    theta5,
    theta_nonregular_far,
    theta_nonregular_near_sums,
    theta_virtual,
)
from .cyclotomic import CycNumber
from .endoscopy import related_elements, transfer_factor
from .localfield import FieldConfig, valuation
from .packets import (
    KLEIN4,
    NONREGULAR_IMAGE,
    PROJ_S1,
    PROJ_S2,
    PROJ_S3,
    Q8,
    Z2,
    centralizes,
    regular_image_generators,
    row_orthogonality,
)
from .residue import CharacterLevel, norm_one_group, quadratic_level, regular_levels
from .torus import (
    Classification,
    cayley,
    cayley_inverse,
    f_direct,
    f_via_disc,
    g_conjugate,
    invert,
    weyl_DG,
    weyl_D_lie,
)


def _far(gammas) -> list:
    return [g for g in gammas if g.classification is Classification.FAR]


def _near(gammas) -> list:
    return [g for g in gammas if g.classification is Classification.NEAR]


def f_and_discriminant_identities(config: FieldConfig, gammas) -> bool:
    """The two routes to f agree, f is invariant under inversion and
    g-conjugation, v(D_G) = 2 v(b), and f = 1 far from the identity."""
    return all(
        f_direct(g) == f_via_disc(g)
        and f_direct(invert(g)) == f_direct(g)
        and f_direct(g_conjugate(g)) == f_direct(g)
        and valuation(weyl_DG(g), config) == 2 * valuation(g.b, config)
        and (g.classification is not Classification.FAR or f_direct(g) == 1)
        for g in gammas
    )


def transfer_factor_equals_minus_f(config: FieldConfig, gammas) -> bool:
    """The constituent-built transfer factor at both related elements is -f."""
    return all(
        transfer_factor(delta) == -f_direct(g)
        for g in gammas
        for delta in related_elements(g)
    )


def psi0_dual_route_and_uniqueness(config: FieldConfig, gammas) -> bool:
    """psi0 through sgn_pi equals psi0 through the quadratic level, on the far
    elements and on every residue point, and brute force over all levels
    finds that level as the only character of order two.  The group is
    cyclic with generator g, so chi_k(g^e) = chi_k(g)^e and a level has
    order two exactly when its value v at g has v^2 = 1 and v != 1."""
    if not all(psi0(g) == psi0_via_level(g) for g in _far(gammas)):
        return False
    group = norm_one_group(config)
    quadratic = quadratic_level(config)
    if not all(
        psi0_on_residue_point(config, pt) == group.character_value(quadratic, pt).as_int()
        for pt in group.points
    ):
        return False
    m = config.q + 1
    at_g = (group.character_value(CharacterLevel(k, m), group.generator) for k in range(m))
    return [k for k, v in enumerate(at_g) if v * v == 1 and v != 1] == [quadratic.k]


def orbital_cayley_consistency(config: FieldConfig, gammas) -> bool:
    """On near elements the orbital-integral route gives the member sums
    -1 - f at gamma and -1 + f at its conjugate, the Lie discriminant has
    the group's valuation, and the Cayley transform inverts the inverse
    Cayley transform."""
    for g in _near(gammas):
        f, Y = f_direct(g), cayley_inverse(g)
        if not (
            mu_hat_orbital(Y) == CycNumber.from_int(-1 - f)
            and mu_hat_orbital(cayley_inverse(g_conjugate(g))) == CycNumber.from_int(-1 + f)
            and valuation(weyl_D_lie(Y), config) == valuation(weyl_DG(g), config)
            and cayley(Y) == g
        ):
            return False
    return True


def inner_form_stability(config: FieldConfig, gammas) -> bool:
    """The stable character of the four-member packet is the Kottwitz-signed
    inner-form side, and the doubled inner-form character is minus the
    four-member sum."""
    packet = PacketSpec.nonregular(config)
    for g in gammas:
        if theta_virtual(packet, "1", g) != inner_form_side(g):
            return False
        far = g.classification is Classification.FAR
        members = theta_nonregular_far(g) if far else theta_nonregular_near_sums(g)
        if theta5(g).scale(2) != -sum(members, CycNumber.zero()):
            return False
    return True


def structure_tables(config: FieldConfig, gammas) -> bool:
    """Character tables are orthogonal with sum of squared dimensions equal
    to the order; s1 s2 = s3 and the Klein-four image is abelian mod scalars;
    s1 centralizes every regular image at this prime and s2 none of them.
    The elements are not used."""
    for group in (Z2, KLEIN4, Q8):
        if not row_orthogonality(group):
            return False
        if sum(row[0] ** 2 for row in group.table) != group.order:
            return False
    if (PROJ_S1 @ PROJ_S2) != PROJ_S3:
        return False
    if not all(centralizes(x, NONREGULAR_IMAGE) for x in NONREGULAR_IMAGE):
        return False
    for level in regular_levels(config):
        gens = regular_image_generators(level)
        if not centralizes(PROJ_S1, gens) or centralizes(PROJ_S2, gens):
            return False
    return True


# (name, check, detail): the order and the strings of the properties stream.
PROPERTIES = (
    ("f-and-discriminant-identities", f_and_discriminant_identities,
     lambda gammas: f"{len(gammas)} elements"),
    ("transfer-factor-equals-minus-f", transfer_factor_equals_minus_f,
     lambda gammas: f"{len(gammas)} elements"),
    ("psi0-dual-route-and-uniqueness", psi0_dual_route_and_uniqueness,
     lambda gammas: f"{len(_far(gammas))} far elements"),
    ("orbital-cayley-consistency", orbital_cayley_consistency,
     lambda gammas: f"{len(_near(gammas))} near elements"),
    ("inner-form-stability", inner_form_stability,
     lambda gammas: f"{len(gammas)} elements"),
    ("structure-tables", structure_tables,
     lambda gammas: "exact matrix checks"),
)
