"""Tests for the residue norm-one group, dlog, and depth-zero characters."""

import random

import pytest

from sl2endo import residue
from sl2endo.cyclotomic import CycNumber, prime_divisors, root_of_unity
from sl2endo.localfield import FieldConfig, is_odd_prime
from sl2endo.residue import (
    CharacterLevel,
    NormOneGroup,
    norm_one_group,
    quadratic_level,
    regular_levels,
)

from oracles import ParametrizedNormOneGroup

PRIMES = [3, 5, 7, 11, 13]


def brute_force_group(config):
    """The original O(p^2) construction, kept as a reference.

    Returns the points of a^2 - eps*b^2 = 1 from a scan of all p^2 pairs, the
    first of them whose orbit has length q+1, and the dlog map built by
    walking the powers of that generator, all as plain (a, b) pairs.
    """
    p, eps = config.p, config.eps
    points = [(a, b) for a in range(p) for b in range(p) if (a * a - eps * b * b) % p == 1]

    def mul(x, y):
        return ((x[0] * y[0] + eps * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)

    def order(x):
        n, pt = 1, x
        while pt != (1, 0):
            pt = mul(pt, x)
            n += 1
        return n

    generator = next(pt for pt in points if order(pt) == len(points))
    dlog, pt = {}, (1, 0)
    for e in range(len(points)):
        dlog[pt] = e
        pt = mul(pt, generator)
    return points, generator, dlog


def assert_walk_order(group):
    """points[e] is g^e, and dlog inverts it."""
    g = group.generator
    for e, pt in enumerate(group.points):
        assert pt == group.power(g, e)
        assert group.dlog(pt) == e


class TestAgainstBruteForce:
    @pytest.mark.parametrize("p", [p for p in range(3, 200) if is_odd_prime(p)] + [1009])
    def test_points_generator_and_dlog_match(self, p):
        config = FieldConfig(p)
        group = norm_one_group(config)
        points, generator, dlog = brute_force_group(config)
        assert sorted(group.points) == points
        assert group.generator == generator
        assert {pt: group.dlog(pt) for pt in points} == dlog
        assert_walk_order(group)

    def test_large_prime(self):
        group = norm_one_group(FieldConfig(10007))
        assert group.order == 10008
        g = group.generator
        assert group.power(g, 10008) == group.identity
        assert all(group.power(g, 10008 // r) != group.identity for r in prime_divisors(10008))
        assert sorted(group.dlog(pt) for pt in group.points) == list(range(10008))

    @pytest.mark.parametrize("p", [10007, 65537, 100003])
    def test_matches_the_parametrized_group(self, p):
        # the table scan against the conic parametrization it replaced, past the
        # brute force's reach; built uncached, so the groups are not kept
        config = FieldConfig(p)
        group = NormOneGroup(config.p, config.eps)
        reference = ParametrizedNormOneGroup(config)
        assert tuple(sorted(group.points)) == reference.points
        assert group.generator == reference.generator
        assert [group.dlog(pt) for pt in reference.points] == [
            reference.dlog(pt) for pt in reference.points
        ]
        assert_walk_order(group)


class TestEnumeration:
    def test_p3_points(self):
        pts = set(norm_one_group(FieldConfig(3)).points)
        assert pts == {(1, 0), (2, 0), (0, 1), (0, 2)}

    def test_p5_count(self):
        assert len(norm_one_group(FieldConfig(5)).points) == 6

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
        assert len(norm_one_group(cfg).points) == p + 1

    @pytest.mark.parametrize("p", PRIMES)
    def test_contains_both_central_points(self, p):
        pts = norm_one_group(FieldConfig(p)).points
        assert (1, 0) in pts
        assert (p - 1, 0) in pts

    @pytest.mark.parametrize("p", PRIMES)
    def test_closed_under_group_law(self, p):
        group = norm_one_group(FieldConfig(p))
        pts = set(group.points)
        for x in pts:
            for y in pts:
                assert group.mul(x, y) in pts


class TestGenerator:
    def test_p3(self):
        assert norm_one_group(FieldConfig(3)).generator == (0, 1)

    def test_p5(self):
        group = norm_one_group(FieldConfig(5))
        g = group.generator
        assert g == (3, 2)
        sq = group.mul(g, g)
        assert sq == (2, 2)
        assert sq != group.identity and group.power(sq, 3) == group.identity  # order 3
        cube = group.mul(sq, g)
        assert cube == (4, 0)

    @pytest.mark.parametrize("p", PRIMES)
    def test_half_power_is_minus_one(self, p):
        group = norm_one_group(FieldConfig(p))
        pt = group.identity
        for _ in range((p + 1) // 2):
            pt = group.mul(pt, group.generator)
        assert pt == (p - 1, 0)

    @pytest.mark.parametrize("p", PRIMES)
    def test_deterministic(self, p):
        # an uncached group at another precision: the cached one is shared across N
        cfg = FieldConfig(p, 10)
        assert norm_one_group(FieldConfig(p)).generator == NormOneGroup(cfg.p, cfg.eps).generator


class TestCachedPerPrime:
    @pytest.mark.parametrize("p", [13, 1009])
    def test_one_group_per_prime(self, p, monkeypatch):
        # the group reads p and eps, never N: every precision gets the one
        # group of its prime, built on first use
        builds, init = [], NormOneGroup.__init__

        def counted(self, p, eps):
            builds.append((p, eps))
            init(self, p, eps)

        monkeypatch.setattr(NormOneGroup, "__init__", counted)
        residue._groups.cache_clear()
        groups = [norm_one_group(FieldConfig(p, N)) for N in (4, 8, 12)]
        assert groups[0] is groups[1] is groups[2]
        assert builds == [(p, FieldConfig(p).eps)]
        info = residue._groups.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


class TestDlog:
    def test_identity(self):
        assert norm_one_group(FieldConfig(3)).dlog((1, 0)) == 0

    def test_p5_examples(self):
        group = norm_one_group(FieldConfig(5))
        assert group.dlog((4, 0)) == 3
        assert group.dlog((2, 2)) == 2

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
        group = norm_one_group(cfg)
        for pt in group.points:
            assert group.character_value(CharacterLevel(0, cfg.q + 1), pt) == 1

    def test_quadratic_level_p3(self):
        group = norm_one_group(FieldConfig(3))
        assert group.character_value(CharacterLevel(2, 4), (0, 1)) == -1

    def test_level_of_another_modulus_refused(self):
        group = norm_one_group(FieldConfig(5))
        with pytest.raises(ValueError, match="^level lives mod 4, group has order 6$"):
            group.character_value(CharacterLevel(1, 4), group.generator)

    def test_identity_point(self):
        cfg = FieldConfig(7)
        group = norm_one_group(cfg)
        for k in range(8):
            assert group.character_value(CharacterLevel(k, cfg.q + 1), (1, 0)) == 1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_homomorphism_on_random_triples(self, p):
        cfg = FieldConfig(p)
        group = norm_one_group(cfg)
        rng = random.Random(f"hom-{p}")
        for _ in range(60):
            k = CharacterLevel(rng.randrange(p + 1), cfg.q + 1)
            x = group.points[rng.randrange(len(group.points))]
            y = group.points[rng.randrange(len(group.points))]
            lhs = group.character_value(k, group.mul(x, y))
            rhs = group.character_value(k, x) * group.character_value(k, y)
            assert lhs == rhs

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_inverse_gives_conjugate(self, p):
        # chi(x^-1) * chi(x) = 1: the value at the inverse is the inverse root
        # of unity, i.e. the complex conjugate
        cfg = FieldConfig(p)
        group = norm_one_group(cfg)
        for k in range(p + 1):
            level = CharacterLevel(k, cfg.q + 1)
            for pt in group.points:
                inv = group.character_value(level, group.inverse(pt))
                assert inv * group.character_value(level, pt) == 1

    @pytest.mark.parametrize("p", PRIMES)
    def test_unique_quadratic_character(self, p):
        # brute force over all levels: exactly one has order two
        cfg = FieldConfig(p)
        group = norm_one_group(cfg)
        one = CycNumber.one()
        quadratic = []
        for k in range(p + 1):
            level = CharacterLevel(k, cfg.q + 1)
            values = [group.character_value(level, pt) for pt in group.points]
            if all(v * v == one for v in values) and any(v != one for v in values):
                quadratic.append(k)
        assert quadratic == [(p + 1) // 2]
        assert quadratic_level(cfg).k == (p + 1) // 2

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_values_are_roots_of_unity(self, p):
        cfg = FieldConfig(p)
        group = norm_one_group(cfg)
        for pt in group.points:
            v = group.character_value(CharacterLevel(1, cfg.q + 1), pt)
            assert v == root_of_unity(p + 1, group.dlog(pt))
