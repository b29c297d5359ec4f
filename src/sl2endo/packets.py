"""Component groups, character tables, and parameter-image matrices.

The two depth-zero supercuspidal packet shapes of SL(2) have component
groups Z/2 (regular character level) and Klein four (quadratic level);
the quaternion group appears as the pull-back of the Klein-four group to
the simply connected dual and only its character table is used.

Parameter images are handled as exact 2x2 matrices over cyclotomic
numbers considered modulo nonzero scalars; the testable content of the
centralizer statements is pure commutation, checked here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .cyclotomic import CycNumber, _lift, root_of_unity
from .errors import NonRegularLevel
from .residue import CharacterLevel


@dataclass(frozen=True, eq=False)
class ComponentGroup:
    """A component group with its character table.

    table has one row per irreducible character.  For Z/2 and the Klein
    four group the rows are in member order: row j is <pi_j, ->, so column
    s is the sign schedule of the s-virtual character.  Column 0 is the
    identity, i.e. the dimension.  Groups hash by identity, which keeps
    the ``virtual_coeffs`` cache cheap.
    """

    kind: str
    elements: tuple[str, ...]      # one per conjugacy class
    class_sizes: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return sum(self.class_sizes)


# The two-member packet: trivial and sign character.
Z2 = ComponentGroup("Z2", ("1", "s1"), (1, 1), ((1, 1), (1, -1)))
# The four-member packet: rows rho1..rho4.
KLEIN4 = ComponentGroup(
    "Klein4",
    ("1", "s1", "s2", "s3"),
    (1, 1, 1, 1),
    ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)),
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


@functools.lru_cache(maxsize=None)
def virtual_coeffs(group: ComponentGroup, s: str) -> tuple[int, ...]:
    """Signs <pi_j, s> weighting the packet members in the s-virtual character.

    Column s of the character table of the packet's component group (Z2
    for the two-member packet, KLEIN4 for the four-member one), in member
    order: member j enters with coefficient rho_j(s).  The only source of
    member signs.
    """
    if s not in group.elements:
        raise ValueError(f"s must be one of {group.elements} for {group.kind}, got {s!r}")
    col = group.elements.index(s)
    return tuple(row[col] for row in group.table)


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


@dataclass(frozen=True, eq=False)
class ProjMatrix:
    """A 2x2 matrix over cyclotomic numbers, considered modulo scalars."""

    entries: tuple[tuple[CycNumber, CycNumber], tuple[CycNumber, CycNumber]]

    def __post_init__(self) -> None:
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

