"""The algebraic side checks, one function per property.

Each check takes a field configuration and already-sampled torus elements,
keeps the far or near ones itself where it needs them, and returns whether
every identity it tests holds exactly.  ``sl2endo properties`` runs the
checks in ``PROPERTIES`` order; the acceptance suite calls the same
functions for criteria 3 and 5-9.  The independent routes (two to f, two
to psi0, the orbital integral against the near sums, the inner form
against the stable sum) are compared here, never merged.

The structure tables' data lives here too, since nothing else reads it:
the quaternion group, the pull-back of the Klein-four group to the simply
connected dual, of which only the character table is used, and the
parameter images, handled as exact 2x2 matrices over cyclotomic numbers
considered modulo nonzero scalars.  The testable content of the
centralizer statements is pure commutation.
"""

from __future__ import annotations

from ._values import FrozenValue, store
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
from .cyclotomic import CycNumber, _lift, root_of_unity
from .endoscopy import related_elements, transfer_factor
from .errors import NonRegularLevel
from .localfield import FieldConfig, valuation
from .packets import KLEIN4, Z2, ComponentGroup
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


# Quaternion group by conjugacy class: four linear characters and the
# 2-dimensional representation.
Q8 = ComponentGroup(
    "Q8",
    ("1", "-1", "i", "j", "k"),
    (1, 1, 2, 2, 2),
    (
        (1, 1, 1, 1, 1),
        (1, 1, 1, -1, -1),
        (1, 1, -1, 1, -1),
        (1, 1, -1, -1, 1),
        (2, -2, 0, 0, 0),
    ),
)


def row_orthogonality(group: ComponentGroup) -> bool:
    """Check sum_s size(s) * chi_i(s) * chi_j(s) = |S| * delta_ij exactly."""
    for i, row_i in enumerate(group.table):
        for j, row_j in enumerate(group.table):
            total = sum(
                size * x * y for size, x, y in zip(group.class_sizes, row_i, row_j)
            )
            if total != (group.order if i == j else 0):
                return False
    return True


class ProjMatrix(FrozenValue):
    """A 2x2 matrix over cyclotomic numbers, considered modulo scalars."""

    _fields = ("entries",)

    def __init__(
        self, entries: tuple[tuple[CycNumber, CycNumber], tuple[CycNumber, CycNumber]]
    ) -> None:
        store(self, "entries", entries)
        if self.det().is_zero:
            raise ValueError("projective matrix must be invertible")

    @staticmethod
    def from_int_rows(rows) -> "ProjMatrix":
        return ProjMatrix(tuple(tuple(_lift(x) for x in row) for row in rows))

    def det(self) -> CycNumber:
        e = self.entries
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]

    def __matmul__(self, other: "ProjMatrix") -> "ProjMatrix":
        a, b = self.entries, other.entries
        return ProjMatrix(
            tuple(
                tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1))
                for i in (0, 1)
            )
        )

    def __eq__(self, other) -> bool:
        """Equality in PGL_2: the entry vectors are parallel."""
        if not isinstance(other, ProjMatrix):
            return NotImplemented
        x, y = self.entries[0] + self.entries[1], other.entries[0] + other.entries[1]
        for i in range(4):
            for j in range(i + 1, 4):
                if x[i] * y[j] != x[j] * y[i]:
                    return False
        return True


PROJ_IDENTITY = ProjMatrix.from_int_rows(((1, 0), (0, 1)))
PROJ_S1 = ProjMatrix.from_int_rows(((1, 0), (0, -1)))
PROJ_S2 = ProjMatrix.from_int_rows(((0, 1), (-1, 0)))
PROJ_S3 = ProjMatrix.from_int_rows(((0, 1), (1, 0)))
# Image of the biquadratic parameter mod scalars: {1, s1, s2, s1*s2}.
NONREGULAR_IMAGE = (PROJ_IDENTITY, PROJ_S1, PROJ_S2, PROJ_S1 @ PROJ_S2)


def regular_image_generators(level: CharacterLevel) -> tuple[ProjMatrix, ProjMatrix]:
    """Generators of the image of a regular parameter mod scalars.

    The inertia part acts through diag(zeta^k, 1) and Frobenius through the
    coordinate swap.
    """
    if not level.is_regular:
        raise NonRegularLevel(f"level {level.k} mod {level.modulus} is not regular")
    zeta_k = root_of_unity(level.modulus, level.k)
    one = CycNumber.one(level.modulus)
    zero = CycNumber.zero(level.modulus)
    diag = ProjMatrix(((zeta_k, zero), (zero, one)))
    return (diag, PROJ_S3)


def centralizes(x: ProjMatrix, gens) -> bool:
    return all(x @ g == g @ x for g in gens)


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
