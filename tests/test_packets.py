"""Tests for component-group tables and parameter-image matrices."""

import dataclasses

import pytest

from sl2endo.cyclotomic import CycNumber, root_of_unity
from sl2endo.errors import NonRegularLevel
from sl2endo.localfield import FieldConfig
from sl2endo.packets import (
    KLEIN4,
    NONREGULAR_IMAGE,
    PROJ_IDENTITY,
    PROJ_S1,
    PROJ_S2,
    PROJ_S3,
    Q8,
    Z2,
    ProjMatrix,
    centralizes,
    regular_image_generators,
    row_orthogonality,
    virtual_coeffs,
)
from sl2endo.residue import CharacterLevel, regular_levels


def klein4_value(j, s):
    """rho_j(s) read from the table; the s-virtual coefficients are its columns."""
    assert KLEIN4.table[j - 1][KLEIN4.elements.index(s)] == virtual_coeffs(KLEIN4, s)[j - 1]
    return virtual_coeffs(KLEIN4, s)[j - 1]


class TestKlein4Table:
    def test_trivial_row(self):
        assert KLEIN4.table[0] == (1, 1, 1, 1)
        assert all(virtual_coeffs(KLEIN4, s)[0] == 1 for s in KLEIN4.elements)

    def test_spec_entries(self):
        assert klein4_value(3, "s1") == -1
        assert klein4_value(4, "s3") == 1  # s3 = s1*s2

    def test_rows_are_characters(self):
        # each row is multiplicative for the Klein-four product
        product = {
            ("1", "1"): "1", ("1", "s1"): "s1", ("1", "s2"): "s2", ("1", "s3"): "s3",
            ("s1", "s1"): "1", ("s1", "s2"): "s3", ("s1", "s3"): "s2",
            ("s2", "s2"): "1", ("s2", "s3"): "s1", ("s3", "s3"): "1",
        }
        table = {(a, b): c for (a, b), c in product.items()}
        table.update({(b, a): c for (a, b), c in product.items()})
        for j in (1, 2, 3, 4):
            for (a, b), c in table.items():
                assert klein4_value(j, a) * klein4_value(j, b) == klein4_value(j, c)


class TestVirtualCoeffs:
    def test_rows(self):
        assert virtual_coeffs(KLEIN4, "1") == (1, 1, 1, 1)
        assert virtual_coeffs(KLEIN4, "s1") == (1, 1, -1, -1)
        assert virtual_coeffs(KLEIN4, "s2") == (1, -1, 1, -1)
        assert virtual_coeffs(KLEIN4, "s3") == (1, -1, -1, 1)

    def test_z2_columns(self):
        # members +, -: the trivial and the sign character of Z/2
        assert virtual_coeffs(Z2, "1") == (1, 1)
        assert virtual_coeffs(Z2, "s1") == (1, -1)
        for col, s in enumerate(Z2.elements):
            assert virtual_coeffs(Z2, s) == tuple(row[col] for row in Z2.table)

    def test_cached_per_group_and_element(self):
        # groups hash by identity, so a repeated lookup is a cache hit
        assert virtual_coeffs(KLEIN4, "s1") is virtual_coeffs(KLEIN4, "s1")
        assert hash(KLEIN4) != hash(dataclasses.replace(KLEIN4))

    @pytest.mark.parametrize(
        "group,s", [(Z2, "s2"), (Z2, "s3"), (KLEIN4, "s4")], ids=["Z2-s2", "Z2-s3", "Klein4-s4"]
    )
    def test_element_outside_the_group_rejected(self, group, s):
        with pytest.raises(ValueError):
            virtual_coeffs(group, s)


class TestOrthogonality:
    @pytest.mark.parametrize("group", [Z2, KLEIN4, Q8], ids=["Z2", "Klein4", "Q8"])
    def test_row_orthogonality(self, group):
        assert row_orthogonality(group)

    def test_q8_dimensions(self):
        dims = tuple(row[0] for row in Q8.table)  # identity column
        assert dims == (1, 1, 1, 1, 2)
        assert sum(d * d for d in dims) == Q8.order == 8
        assert Q8.table[4] == (2, -2, 0, 0, 0)

    def test_orthogonality_detects_corruption(self):
        bad_table = (KLEIN4.table[0], (1, 1, 1, -1)) + KLEIN4.table[2:]
        assert not row_orthogonality(dataclasses.replace(KLEIN4, table=bad_table))


class TestProjMatrices:
    def test_s1_s2_product_is_s3_mod_scalars(self):
        assert (PROJ_S1 @ PROJ_S2) == PROJ_S3

    def test_involutions_mod_scalars(self):
        for s in (PROJ_S1, PROJ_S2, PROJ_S3):
            assert (s @ s) == PROJ_IDENTITY

    def test_s1_s2_commute_mod_scalars(self):
        # the matrices anticommute, and -1 is a scalar
        assert (PROJ_S1 @ PROJ_S2) == (PROJ_S2 @ PROJ_S1)

    def test_nonregular_image_is_klein_four(self):
        image = NONREGULAR_IMAGE
        assert len(image) == 4
        for x in image:
            for y in image:
                assert any((x @ y) == z for z in image)
        for x in image[1:]:
            assert (x @ x) == PROJ_IDENTITY
            assert not x == PROJ_IDENTITY

    def test_singular_matrix_rejected(self):
        one = CycNumber.one()
        with pytest.raises(ValueError):
            ProjMatrix(((one, one), (one, one)))

    def test_equality_with_a_non_matrix_is_false(self):
        # __eq__ answers NotImplemented, so Python falls back to identity
        assert PROJ_S1.__eq__(1) is NotImplemented
        assert (PROJ_S1 == 1) is False and (1 != PROJ_S1) is True

    def test_unhashable(self):
        # equality is equality in PGL_2, which a hash of the entries would not respect
        with pytest.raises(TypeError):
            hash(PROJ_S1)

    def test_proportional_scaling(self):
        scaled = ProjMatrix.from_int_rows(((3, 0), (0, -3)))
        assert scaled == PROJ_S1
        assert not scaled == PROJ_S2


class TestRegularImage:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_s1_centralizes_everything_in_scope(self, p):
        cfg = FieldConfig(p)
        assert centralizes(PROJ_S1, NONREGULAR_IMAGE)
        for lv in regular_levels(cfg):
            assert centralizes(PROJ_S1, regular_image_generators(lv))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_s2_fails_on_regular_image(self, p):
        cfg = FieldConfig(p)
        for lv in regular_levels(cfg):
            gens = regular_image_generators(lv)
            assert not centralizes(PROJ_S2, gens)

    def test_nonregular_level_rejected(self):
        with pytest.raises(NonRegularLevel):
            regular_image_generators(CharacterLevel(0, 6))
        with pytest.raises(NonRegularLevel):
            regular_image_generators(CharacterLevel(3, 6))

    def test_quadratic_diagonal_squares_to_scalar(self):
        # why the quadratic level is excluded: its diagonal generator has
        # projective order two, collapsing the image
        m = 6
        z = root_of_unity(m, m // 2)
        diag = ProjMatrix(((z, CycNumber.zero(m)), (CycNumber.zero(m), CycNumber.one(m))))
        assert (diag @ diag) == PROJ_IDENTITY

    def test_diagonal_not_scalar_for_regular_level(self):
        gens = regular_image_generators(CharacterLevel(1, 6))
        assert not gens[0] == PROJ_IDENTITY

