"""Component groups and their character tables.

The two depth-zero supercuspidal packet shapes of SL(2) have component
groups Z/2 (regular character level) and Klein four (quadratic level).
The quaternion group, the pull-back of the Klein-four group to the simply
connected dual, and the parameter-image matrices are read only by the
structure checks, and live in ``checks``.
"""

from __future__ import annotations

import functools

from ._values import FrozenValue, store


class ComponentGroup(FrozenValue):
    """A component group with its character table.

    table has one row per irreducible character.  For Z/2 and the Klein
    four group the rows are in member order: row j is <pi_j, ->, so column
    s is the sign schedule of the s-virtual character.  Column 0 is the
    identity, i.e. the dimension.  Groups hash by identity, which keeps
    the ``virtual_coeffs`` cache cheap.
    """

    _fields = ("kind", "elements", "class_sizes", "table")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        kind: str,
        elements: tuple[str, ...],  # one per conjugacy class
        class_sizes: tuple[int, ...],
        table: tuple[tuple[int, ...], ...],
    ) -> None:
        store(self, "kind", kind)
        store(self, "elements", elements)
        store(self, "class_sizes", class_sizes)
        store(self, "table", table)

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
