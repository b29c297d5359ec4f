"""Each comparison of a property in sl2endo.checks can fail it.

A case breaks one name that a property reads in the checks namespace (a
route, a table or a matrix) and asserts that the property, true on the
same elements before, is then false.
"""

import dataclasses

import pytest

from sl2endo import checks
from sl2endo.localfield import FieldConfig
from sl2endo.packets import NONREGULAR_IMAGE, PROJ_S1, ProjMatrix
from sl2endo.torus import Classification, invert, sample_regular

CONFIG = FieldConfig(7)
# far elements for the psi0 routes, near ones (v(b) = 1, 2) for the orbital route
GAMMAS = [
    sample_regular(CONFIG, Classification.FAR, 0, seed=f"checks:far:{i}") for i in range(3)
] + [sample_regular(CONFIG, Classification.NEAR, v, seed=f"checks:near:{v}") for v in (1, 2)]


def negated(fn):
    return lambda *args: -fn(*args)


def times_p(fn):
    """A residue with valuation one higher (v + 1 < N for these elements)."""
    return lambda x: fn(x) * CONFIG.p


# (property, name patched in sl2endo.checks, the original -> its broken stand-in)
BREAKS = [
    ("f_and_discriminant_identities", "f_via_disc", negated),
    ("f_and_discriminant_identities", "weyl_DG", times_p),
    ("transfer_factor_equals_minus_f", "transfer_factor", negated),
    ("psi0_dual_route_and_uniqueness", "psi0_via_level", negated),
    ("psi0_dual_route_and_uniqueness", "psi0_on_residue_point", negated),
    ("orbital_cayley_consistency", "mu_hat_orbital", negated),
    ("orbital_cayley_consistency", "weyl_D_lie", times_p),
    ("orbital_cayley_consistency", "cayley", lambda fn: lambda Y: invert(fn(Y))),
    ("inner_form_stability", "inner_form_side", negated),
    ("inner_form_stability", "theta5", negated),
    ("structure_tables", "row_orthogonality", lambda fn: lambda group: not fn(group)),
    # the linear characters alone: orthogonal rows, but squared dimensions sum to 4 < 8
    ("structure_tables", "Q8", lambda q8: dataclasses.replace(q8, table=q8.table[:4])),
    ("structure_tables", "PROJ_S3", lambda s3: PROJ_S1),
    # a unipotent matrix commutes with no involution of the image mod scalars
    ("structure_tables", "NONREGULAR_IMAGE",
     lambda image: image + (ProjMatrix.from_int_rows(((1, 1), (0, 1))),)),
    # an abelian image: s2 centralizes it too
    ("structure_tables", "regular_image_generators", lambda fn: lambda level: NONREGULAR_IMAGE),
]


@pytest.mark.parametrize("prop, name, broken", BREAKS, ids=[f"{p}-{n}" for p, n, _ in BREAKS])
def test_a_broken_comparison_fails_its_property(monkeypatch, prop, name, broken):
    check = getattr(checks, prop)
    assert check(CONFIG, GAMMAS)
    monkeypatch.setattr(checks, name, broken(getattr(checks, name)))
    assert not check(CONFIG, GAMMAS)
