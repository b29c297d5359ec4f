"""Tests for the residue norm-one group, dlog, and depth-zero characters."""

import random

import pytest

from sl2endo.cyclotomic import CycNumber, root_of_unity
from sl2endo.localfield import FieldConfig
from sl2endo.residue import (
    CharacterLevel,
    ResTorusPoint,
    character_level,
    dlog,
    enumerate_norm_one,
    eval_character,
    find_generator,
    norm_one_group,
    quadratic_level,
    regular_levels,
)

PRIMES = [3, 5, 7, 11, 13]


class TestEnumeration:
    def test_p3_points(self):
        pts = set(enumerate_norm_one(FieldConfig(3)))
        assert pts == {
            ResTorusPoint(1, 0),
            ResTorusPoint(2, 0),
            ResTorusPoint(0, 1),
            ResTorusPoint(0, 2),
        }

    def test_p5_count(self):
        assert len(enumerate_norm_one(FieldConfig(5))) == 6

    @pytest.mark.parametrize("p", PRIMES)
    def test_count_is_q_plus_1_by_brute_force(self, p):
        cfg = FieldConfig(p)
        count = sum(
            1
            for a in range(p)
            for b in range(p)
            if (a * a - cfg.eps * b * b) % p == 1
        )
        assert count == p + 1
        assert len(enumerate_norm_one(cfg)) == p + 1

    @pytest.mark.parametrize("p", PRIMES)
    def test_contains_both_central_points(self, p):
        pts = enumerate_norm_one(FieldConfig(p))
        assert ResTorusPoint(1, 0) in pts
        assert ResTorusPoint(p - 1, 0) in pts

    @pytest.mark.parametrize("p", PRIMES)
    def test_closed_under_group_law(self, p):
        group = norm_one_group(FieldConfig(p))
        pts = set(group.points)
        for x in pts:
            for y in pts:
                assert group.mul(x, y) in pts


class TestGenerator:
    def test_p3(self):
        assert find_generator(FieldConfig(3)) == ResTorusPoint(0, 1)

    def test_p5(self):
        cfg = FieldConfig(5)
        g = find_generator(cfg)
        assert g == ResTorusPoint(3, 2)
        group = norm_one_group(cfg)
        sq = group.mul(g, g)
        assert sq == ResTorusPoint(2, 2)
        assert group.element_order(sq) == 3
        cube = group.mul(sq, g)
        assert cube == ResTorusPoint(4, 0)

    @pytest.mark.parametrize("p", PRIMES)
    def test_half_power_is_minus_one(self, p):
        group = norm_one_group(FieldConfig(p))
        pt = group.identity
        for _ in range((p + 1) // 2):
            pt = group.mul(pt, group.generator)
        assert pt == ResTorusPoint(p - 1, 0)

    @pytest.mark.parametrize("p", PRIMES)
    def test_deterministic(self, p):
        assert find_generator(FieldConfig(p)) == find_generator(FieldConfig(p, 10))


class TestDlog:
    def test_identity(self):
        assert dlog(FieldConfig(3), ResTorusPoint(1, 0)) == 0

    def test_p5_examples(self):
        cfg = FieldConfig(5)
        assert dlog(cfg, ResTorusPoint(4, 0)) == 3
        assert dlog(cfg, ResTorusPoint(2, 2)) == 2

    @pytest.mark.parametrize("p", PRIMES)
    def test_bijection_and_generator_dlog(self, p):
        cfg = FieldConfig(p)
        group = norm_one_group(cfg)
        assert group.dlog(group.generator) == 1
        assert sorted(group.dlog(pt) for pt in group.points) == list(range(p + 1))


class TestCharacterLevel:
    def test_regular_and_quadratic_flags(self):
        m = 6
        assert not CharacterLevel(0, m).is_regular
        assert not CharacterLevel(3, m).is_regular
        assert CharacterLevel(3, m).is_quadratic
        assert CharacterLevel(1, m).is_regular

    def test_normalization(self):
        assert CharacterLevel(7, 6).k == 1

    def test_regular_levels_p5(self):
        assert [lv.k for lv in regular_levels(FieldConfig(5))] == [1, 2, 4, 5]


class TestEvalCharacter:
    def test_trivial_level(self):
        cfg = FieldConfig(5)
        for pt in enumerate_norm_one(cfg):
            assert eval_character(cfg, character_level(cfg, 0), pt) == 1

    def test_quadratic_level_p3(self):
        cfg = FieldConfig(3)
        assert eval_character(cfg, CharacterLevel(2, 4), ResTorusPoint(0, 1)) == -1

    def test_identity_point(self):
        cfg = FieldConfig(7)
        for k in range(8):
            assert eval_character(cfg, character_level(cfg, k), ResTorusPoint(1, 0)) == 1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_homomorphism_on_random_triples(self, p):
        cfg = FieldConfig(p)
        group = norm_one_group(cfg)
        rng = random.Random(f"hom-{p}")
        for _ in range(60):
            k = character_level(cfg, rng.randrange(p + 1))
            x = group.points[rng.randrange(len(group.points))]
            y = group.points[rng.randrange(len(group.points))]
            lhs = eval_character(cfg, k, group.mul(x, y))
            rhs = eval_character(cfg, k, x) * eval_character(cfg, k, y)
            assert lhs == rhs

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_inverse_gives_conjugate(self, p):
        cfg = FieldConfig(p)
        group = norm_one_group(cfg)
        for k in range(p + 1):
            level = character_level(cfg, k)
            for pt in group.points:
                lhs = eval_character(cfg, level, group.inverse(pt))
                assert lhs == eval_character(cfg, level, pt).conjugate()

    @pytest.mark.parametrize("p", PRIMES)
    def test_unique_quadratic_character(self, p):
        # brute force over all levels: exactly one has order two
        cfg = FieldConfig(p)
        group = norm_one_group(cfg)
        one = CycNumber.one()
        quadratic = []
        for k in range(p + 1):
            level = character_level(cfg, k)
            values = [eval_character(cfg, level, pt) for pt in group.points]
            if all(v * v == one for v in values) and any(v != one for v in values):
                quadratic.append(k)
        assert quadratic == [(p + 1) // 2]
        assert quadratic_level(cfg).k == (p + 1) // 2

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_values_are_roots_of_unity(self, p):
        cfg = FieldConfig(p)
        group = norm_one_group(cfg)
        for pt in group.points:
            v = eval_character(cfg, character_level(cfg, 1), pt)
            assert v == root_of_unity(p + 1, group.dlog(pt))
