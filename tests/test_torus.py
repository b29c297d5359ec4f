"""Tests for torus elements: classification, f, discriminants, Cayley, sampling."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2endo import torus
from sl2endo.errors import NotNear, PrecisionExhausted
from sl2endo.localfield import FieldConfig, hensel_sqrt, sgn_eps, valuation
from sl2endo.torus import (
    Classification,
    LieElement,
    TorusElement,
    TorusVariant,
    cayley,
    cayley_inverse,
    element,
    f_direct,
    f_via_disc,
    g_conjugate,
    invert,
    sample_regular,
    weyl_DG,
    weyl_D_lie,
)

import oracles
from oracles import PadicNumber, padic, shift_down

PRIMES = [3, 5, 7, 11, 13]


def near_example(cfg):
    """The element (sqrt(1 + eps*9), 3): near with v(b) = 1."""
    return element(cfg, hensel_sqrt(1 + cfg.eps * 9, cfg), 3)


def in_first_filtration(gamma):
    """Membership in the first congruence subgroup: a = 1 mod p, b = 0 mod p.

    The definitional near-the-identity test, the oracle for TorusElement.classification.
    """
    p = gamma.config.p
    return gamma.a % p == 1 and gamma.b % p == 0


def mixed_samples(cfg, n, tag=""):
    out = []
    for i in range(n):
        key = f"torus-{cfg.p}-{tag}|{i}"
        if i % 2 == 0:
            out.append(sample_regular(cfg, Classification.FAR, 0, key))
        else:
            out.append(sample_regular(cfg, Classification.NEAR, 1 + i % 3, key))
    return out


class TestConstruction:
    def test_norm_one_invariant_enforced(self):
        cfg = FieldConfig(3)
        with pytest.raises(ValueError):
            element(cfg, 2, 1)  # 4 - 2 = 2 != 1

    def test_far_example_is_valid(self):
        g = element(FieldConfig(3), 3, -2)  # 9 - 2*4 = 1 exactly
        assert g.b != 0

    def test_identity_not_regular(self):
        assert element(FieldConfig(5), 1, 0).b == 0

    def test_residues_out_of_range_rejected(self):
        # element() is the one constructor that reduces arbitrary ints
        cfg = FieldConfig(3)
        with pytest.raises(ValueError, match=r"^\(1, -1\) are not residues mod 3\^8$"):
            TorusElement(cfg, 1, -1)
        with pytest.raises(ValueError, match="not residues"):
            TorusElement(cfg, 1 + cfg.modulus, 0)
        with pytest.raises(ValueError, match=r"^6561 is not a residue mod 3\^8$"):
            LieElement(cfg, cfg.modulus)
        assert element(cfg, 1 + cfg.modulus, -cfg.modulus) == TorusElement(cfg, 1, 0)

    def test_repr_shows_every_field(self):
        g = element(FieldConfig(3, 12), 3, -2)
        assert repr(g) == (
            "TorusElement(config=FieldConfig(p=3, N=12), a=3, b=531439,"
            " variant=<TorusVariant.UNRAMIFIED: 'unramified'>)"
        )

    def test_norm_checked_by_invert_and_g_conjugate(self):
        # both build through the constructor, so a corrupted element is caught
        g = element(FieldConfig(3), 3, -2)
        object.__setattr__(g, "a", 4)
        for fn in (invert, g_conjugate):
            with pytest.raises(ValueError, match="not norm-one"):
                fn(g)


def builds(config, a, b):
    try:
        TorusElement(config, a, b)
    except ValueError:
        return False
    return True


class TestNormCheckAgainstReference:
    @pytest.mark.parametrize("p", [3, 5])
    def test_every_pair_mod_p4(self, p):
        # the reference is the norm in PadicNumber arithmetic (oracles),
        # (a*a - b*b*eps).residue == 1, with both squares hoisted out of the grid
        cfg = FieldConfig(p, 4)
        xs = [padic(cfg, r) for r in range(cfg.modulus)]
        squares = [x * x for x in xs]
        eps_squares = [x * x * cfg.eps for x in xs]
        expected = [
            (a, b)
            for a, aa in enumerate(squares)
            for b, bb in enumerate(eps_squares)
            if (aa - bb).residue == 1
        ]
        accepted = [(a, b) for a in range(cfg.modulus) for b in range(cfg.modulus)
                    if builds(cfg, a, b)]
        assert accepted == expected
        assert len(expected) == (p + 1) * p**3  # the order of the norm-one group mod p^4

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from(PRIMES), data=st.data())
    def test_random_pairs_mod_p8(self, p, data):
        cfg = FieldConfig(p, 8)
        residues = st.integers(min_value=0, max_value=cfg.modulus - 1)
        b = padic(cfg, data.draw(residues))
        candidates = [padic(cfg, data.draw(residues))]
        root = hensel_sqrt((b * b * cfg.eps + 1).residue, cfg)
        if root is not None:  # both roots, and a root moved by p^k
            root = padic(cfg, root)
            k = data.draw(st.integers(min_value=0, max_value=cfg.N - 1))
            candidates += [root, -root, root + p**k]
        for a in candidates:
            assert builds(cfg, a.residue, b.residue) == ((a * a - b * b * cfg.eps).residue == 1)


class TestImEps:
    """b is the coefficient of sqrt(eps) in the avatar a + b*sqrt(eps)."""

    def test_identity(self):
        assert element(FieldConfig(5), 1, 0).b == 0

    def test_far_example(self):
        cfg = FieldConfig(3)
        assert element(cfg, 3, -2).b == cfg.modulus - 2

    def test_invariant_under_g_conjugation(self):
        cfg = FieldConfig(3)
        g = element(cfg, 3, -2)
        assert g_conjugate(g).b == g.b


class TestClassify:
    def test_far(self):
        assert element(FieldConfig(3), 3, -2).classification is Classification.FAR

    def test_near_from_hensel_example(self):
        cfg = FieldConfig(3)
        g = near_example(cfg)
        assert g.a % 27 == 10  # the canonical sqrt of 19 lifts 10 mod 27
        assert g.classification is Classification.NEAR

    def test_anti_near_is_negated_near(self):
        cfg = FieldConfig(3)
        g = near_example(cfg)
        h = element(cfg, -g.a, g.b)
        assert h.classification is Classification.ANTI_NEAR

    def test_precision_exhausted(self):
        with pytest.raises(PrecisionExhausted):
            element(FieldConfig(3), 1, 0).classification

    def test_facts_kept_once_and_exhausted_precision_raised_every_read(self):
        g = near_example(FieldConfig(3))
        assert (g.valuation_b, g.classification) == (1, Classification.NEAR)
        assert vars(g)["valuation_b"] == 1 and vars(g)["classification"] is Classification.NEAR
        exhausted = element(FieldConfig(3), 1, 0)
        for _ in range(2):
            with pytest.raises(PrecisionExhausted):
                exhausted.valuation_b
            with pytest.raises(PrecisionExhausted):
                exhausted.classification
        assert "valuation_b" not in vars(exhausted) and "classification" not in vars(exhausted)

    @pytest.mark.parametrize("p", PRIMES)
    def test_agrees_with_filtration_definition(self, p):
        cfg = FieldConfig(p)
        for g in mixed_samples(cfg, 40, "cls"):
            cls = g.classification
            minus_g = element(cfg, -g.a, -g.b)
            assert (cls is Classification.NEAR) == in_first_filtration(g)
            assert (cls is Classification.ANTI_NEAR) == in_first_filtration(minus_g)
            assert (cls is Classification.FAR) == (
                not in_first_filtration(g) and not in_first_filtration(minus_g)
            )


class TestF:
    def test_far_gives_one(self):
        assert f_direct(element(FieldConfig(3), 3, -2)) == 1

    def test_valuation_one(self):
        cfg = FieldConfig(3)
        assert f_direct(near_example(cfg)) == -3

    def test_valuation_two(self):
        cfg = FieldConfig(5)
        g = sample_regular(cfg, Classification.NEAR, 2, seed="v2")
        assert f_direct(g) == 25

    @pytest.mark.parametrize("p", PRIMES)
    def test_two_routes_agree(self, p):
        cfg = FieldConfig(p)
        for g in mixed_samples(cfg, 40, "f"):
            assert f_direct(g) == f_via_disc(g)

    @pytest.mark.parametrize("p", [3, 7])
    def test_invariances(self, p):
        cfg = FieldConfig(p)
        for g in mixed_samples(cfg, 20, "inv"):
            assert f_direct(invert(g)) == f_direct(g)
            assert f_direct(g_conjugate(g)) == f_direct(g)

    @pytest.mark.parametrize("p", PRIMES)
    def test_far_always_one(self, p):
        cfg = FieldConfig(p)
        for i in range(20):
            g = sample_regular(cfg, Classification.FAR, 0, f"far-{p}|{i}")
            assert f_direct(g) == 1


class TestWeylDiscriminant:
    def test_identity_element(self):
        assert weyl_DG(element(FieldConfig(5), 1, 0)) == 0

    def test_far_example(self):
        cfg = FieldConfig(3)
        assert weyl_DG(element(cfg, 3, -2)) == 32

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_equals_4_eps_b_squared(self, p):
        cfg = FieldConfig(p)
        for g in mixed_samples(cfg, 20, "weyl"):
            assert weyl_DG(g) == g.b * g.b * (4 * cfg.eps) % cfg.modulus

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_norm_relation(self, p):
        # |D_G|^{1/2} = q^{-v(b)}, i.e. v(D_G) = 2 v(b)
        cfg = FieldConfig(p)
        for g in mixed_samples(cfg, 20, "norm"):
            assert valuation(weyl_DG(g), cfg) == 2 * valuation(g.b, cfg)


class TestInvertAndConjugate:
    def test_identity_fixed(self):
        g = element(FieldConfig(5), 1, 0)
        assert invert(g) == g

    def test_involution(self):
        g = element(FieldConfig(3), 3, -2)
        assert invert(invert(g)) == g

    def test_im_negates(self):
        g = element(FieldConfig(3), 3, -2)
        assert invert(g).b == -g.b % g.config.modulus

    def test_inverse_is_group_inverse(self):
        # (a + b sqrt(eps))(a - b sqrt(eps)) = a^2 - eps b^2 = 1
        cfg = FieldConfig(7)
        g = sample_regular(cfg, Classification.FAR, 0, seed="inv")
        h = invert(g)
        prod_a = (g.a * h.a + g.b * h.b * cfg.eps) % cfg.modulus
        prod_b = (g.a * h.b + g.b * h.a) % cfg.modulus
        assert prod_a == 1 and prod_b == 0

    def test_g_conjugate_toggles_variant_and_fixes_avatar(self):
        g = element(FieldConfig(3), 3, -2)
        h = g_conjugate(g)
        assert h.variant is TorusVariant.CONJUGATED
        assert (h.a, h.b) == (g.a, g.b)
        assert g_conjugate(h).variant is TorusVariant.UNRAMIFIED

    def test_sign_flip_consequence(self):
        # sgn_eps(pi^{-1} * Im(g.gamma)) = -sgn_eps(Im(gamma)) for v(b) >= 1
        cfg = FieldConfig(5)
        for v in (1, 2):
            g = sample_regular(cfg, Classification.NEAR, v, seed=f"flip{v}")
            shifted = shift_down(padic(cfg, g_conjugate(g).b))
            assert oracles.sgn_eps(shifted) == -sgn_eps(g.b, cfg)


class TestCayley:
    def test_degenerate_identity_rejected(self):
        with pytest.raises(PrecisionExhausted):
            cayley_inverse(element(FieldConfig(3), 1, 0))

    def test_far_rejected(self):
        with pytest.raises(NotNear):
            cayley_inverse(element(FieldConfig(3), 3, -2))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_valuation_preserved(self, p):
        cfg = FieldConfig(p)
        for v in (1, 2, 3):
            g = sample_regular(cfg, Classification.NEAR, v, seed=f"cay{v}")
            Y = cayley_inverse(g)
            assert valuation(Y.y, cfg) == valuation(g.b, cfg) == v

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_roundtrip(self, p):
        cfg = FieldConfig(p)
        for v in (1, 2):
            g = sample_regular(cfg, Classification.NEAR, v, seed=f"rt{v}")
            assert cayley(cayley_inverse(g)) == g

    @pytest.mark.parametrize("p", [3, 5])
    def test_discriminant_norms_agree(self, p):
        cfg = FieldConfig(p)
        for v in (1, 2):
            g = sample_regular(cfg, Classification.NEAR, v, seed=f"disc{v}")
            Y = cayley_inverse(g)
            assert valuation(weyl_D_lie(Y), cfg) == valuation(weyl_DG(g), cfg)

    @staticmethod
    def reference_cayley_inverse(gamma):
        """The PadicNumber expression cayley_inverse evaluated before it moved to residues."""
        cfg = gamma.config
        a, b = PadicNumber(gamma.a, cfg), PadicNumber(gamma.b, cfg)
        denom = (a + 1) * (a + 1) - b * b * cfg.eps
        return LieElement(cfg, ((b * 4) / denom).residue, gamma.variant)

    @pytest.mark.parametrize("p,N", [(3, 8), (3, 12), (5, 8), (7, 8), (11, 8), (13, 8),
                                     (101, 8), (1009, 8)])
    def test_matches_padic_expression(self, p, N):
        cfg = FieldConfig(p, N)
        for v in range(1, N - 2):
            for i in range(4):
                g = sample_regular(cfg, Classification.NEAR, v, seed=f"cayref{v}:{i}")
                for gamma in (g, g_conjugate(g)):
                    assert cayley_inverse(gamma) == self.reference_cayley_inverse(gamma)

    def test_non_unit_denominator_raises(self):
        # an anti-near element forced to read as near: (a+1)^2 - eps*b^2 is then 0 mod p
        cfg = FieldConfig(5)
        g = sample_regular(cfg, Classification.ANTI_NEAR, 1, seed="unit")
        g.__dict__["classification"] = Classification.NEAR
        with pytest.raises(ValueError):
            self.reference_cayley_inverse(g)
        with pytest.raises(ValueError):
            cayley_inverse(g)

    def test_denominator_is_four_mod_p(self):
        cfg = FieldConfig(7)
        g = sample_regular(cfg, Classification.NEAR, 1, seed="denom")
        denom = (g.a + 1) * (g.a + 1) - g.b * g.b * cfg.eps
        assert denom % cfg.p == 4


class TestSampler:
    @pytest.mark.parametrize("p", PRIMES)
    def test_far_contract(self, p):
        cfg = FieldConfig(p)
        g = sample_regular(cfg, Classification.FAR, 0, seed=f"far{p}")
        assert g.classification is Classification.FAR
        assert valuation(g.b, cfg) == 0
        assert g.a % p not in (1, p - 1)

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("v", [1, 2, 3])
    def test_near_contract(self, p, v):
        cfg = FieldConfig(p)
        g = sample_regular(cfg, Classification.NEAR, v, seed=f"n{p}:{v}")
        assert g.classification is Classification.NEAR
        assert valuation(g.b, cfg) == v

    def test_anti_near_contract(self):
        cfg = FieldConfig(5)
        g = sample_regular(cfg, Classification.ANTI_NEAR, 1, seed="anti")
        assert g.classification is Classification.ANTI_NEAR

    def test_determinism(self):
        cfg = FieldConfig(7)
        g1 = sample_regular(cfg, Classification.FAR, 0, seed="same")
        g2 = sample_regular(cfg, Classification.FAR, 0, seed="same")
        assert g1 == g2

    def test_precision_guard(self):
        cfg = FieldConfig(3, 6)
        with pytest.raises(ValueError):
            sample_regular(cfg, Classification.NEAR, 6, seed=0)
        with pytest.raises(ValueError):
            sample_regular(cfg, Classification.NEAR, 4, seed=0)  # N - 2
        with pytest.raises(ValueError):
            sample_regular(cfg, Classification.FAR, 1, seed=0)

    @pytest.mark.parametrize("N", [4, 8])
    def test_refuses_what_the_getrandbits_sampler_refused(self, N):
        # the same (class, v(b)) refused with the same message; every other one drawn
        cfg = FieldConfig(5, N)
        for cls in Classification:
            for v in range(N):
                new, old = (sampled(fn, cfg, cls, v, "key")
                            for fn in (sample_regular, oracles.getrandbits_sample_regular))
                if old[0] is ValueError:
                    assert new == old
                else:
                    assert new[2] is TorusVariant.UNRAMIFIED

    def test_key_is_the_seed_as_text(self):
        cfg = FieldConfig(7)
        assert sample_regular(cfg, Classification.FAR, 0, 5) == sample_regular(
            cfg, Classification.FAR, 0, "5")
        assert sample_regular(cfg, Classification.FAR, 0, 5) != sample_regular(
            cfg, Classification.FAR, 0, 6)

    def test_one_hensel_sqrt_per_draw(self, monkeypatch):
        # the rejection sampler made about 9 calls per far draw here
        roots = []

        def counting_sqrt(x, config, _sqrt=torus.hensel_sqrt):
            roots.append(_sqrt(x, config))
            return roots[-1]

        monkeypatch.setattr(torus, "hensel_sqrt", counting_sqrt)
        cfg = FieldConfig(3, 4)
        for i in range(1000):
            sample_regular(cfg, Classification.FAR, 0, f"far-draws|{i}")
        assert len(roots) == 1000 and None not in roots

    def test_class_check_is_an_invariant_error(self, monkeypatch):
        # a root of the wrong sign makes a norm-one element of the other class
        def wrong_sign(x, residue, config, _root=torus._signed_root):
            return config.modulus - _root(x, residue, config)

        monkeypatch.setattr(torus, "_signed_root", wrong_sign)
        with pytest.raises(AssertionError, match="drew an element of class anti-near, not near$"):
            sample_regular(FieldConfig(5), Classification.NEAR, 1, seed=0)


class TestExactLaw:
    """The digits x in [0, (p-1) p^(N-v-1)) map one to one onto the elements of
    their class with v(b) = v mod p^N, so a uniform x draws a uniform element;
    and the digit reader reads a uniform x.  Checked by enumeration, with no
    statistics."""

    CASES = [(Classification.FAR, 0), (Classification.NEAR, 1), (Classification.ANTI_NEAR, 1)]

    @staticmethod
    def torus_points(cfg):
        """Every element of T(Z/p^N) with b != 0, by the square roots mod p^N."""
        modulus, roots = cfg.modulus, {}
        for a in range(modulus):
            roots.setdefault(a * a % modulus, []).append(a)
        return [TorusElement(cfg, a, b) for b in range(1, modulus)
                for a in roots.get((1 + cfg.eps * b * b) % modulus, [])]

    @pytest.mark.parametrize("p", [3, 5, 7])  # p = 3 and 7 reach the a = 0 mod p branch
    def test_digits_hit_each_element_of_the_class_equally(self, p):
        cfg = FieldConfig(p, 4)
        points = self.torus_points(cfg)
        assert len(points) == (p + 1) * p**3 - 2  # all but (+-1, 0)
        for cls, v in self.CASES:
            m = (p - 1) * p ** (cfg.N - v - 1)
            hits = Counter(torus._element_of(cfg, cls, v, x) for x in range(m))
            klass = {g for g in points if g.classification is cls and g.valuation_b == v}
            assert set(hits) == klass
            assert len(set(hits.values())) == 1
        if p % 4 == 3:  # some far element has a = 0 mod p
            assert any(g.a % p == 0 for g in points)

    def test_redraw_above_the_cut(self, monkeypatch):
        # a first block whose bytes are all 0xff lies above the cut, so the
        # draw is read again from the next block
        key, m = b"redraw", (7 - 1) * 7**5
        size = (m.bit_length() + 71) // 8
        assert (1 << 8 * size) % m  # the range has an incomplete top multiple
        real = torus._block
        blocks = []

        def injected(key, j):
            blocks.append(j)
            return b"\xff" * 64 if j == 0 else real(key, j)

        monkeypatch.setattr(torus, "_block", injected)
        x = torus._uniform(key, m)
        assert blocks == [0, 1]
        assert x == int.from_bytes(real(key, 1)[:size], "little") % m

    def test_a_range_wider_than_a_block_reads_the_next_blocks(self):
        # 600 digits at p = 3 need 127 bytes: blocks 0 and 1, with no redraw
        key, m = b"wide", 2 * 3**600
        size = (m.bit_length() + 71) // 8
        assert 64 < size <= 128
        data = torus._block(key, 0) + torus._block(key, 1)
        assert torus._uniform(key, m) == int.from_bytes(data[:size], "little") % m


def sampled(sample, config, classification, v, seed):
    """sample(...) as (a, b, variant), or the class and message of the exception it raises."""
    try:
        g = sample(config, classification, v, seed)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return g.a, g.b, g.variant


class TestSamplerAgainstReference:
    """The getrandbits sampler that wrote the old pinned streams against the
    sampler whose rejected draws raised (both in oracles): the same elements,
    the same exceptions and the same random stream."""

    @pytest.mark.parametrize("N", [4, 8])
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1009, 65537])
    def test_same_draws(self, p, N):
        cfg = FieldConfig(p, N)
        # one generator over many calls, as the property battery draws
        shared = [random.Random(f"differential-{p}-{N}") for _ in range(2)]
        for cls in Classification:
            for v in range(N):  # every allowed v(b), and the refused ones
                for seed in (*range(4), *(f"{cls.value}|{v}|{i}" for i in range(4))):
                    assert sampled(oracles.getrandbits_sample_regular, cfg, cls, v, seed) == (
                        sampled(oracles.sample_regular, cfg, cls, v, seed)
                    ), seed
                for _ in range(16):
                    samplers = (oracles.getrandbits_sample_regular, oracles.sample_regular)
                    outcomes = [sampled(fn, cfg, cls, v, rng) for fn, rng in zip(samplers, shared)]
                    assert outcomes[0] == outcomes[1]
                    assert shared[0].getstate() == shared[1].getstate()


def drawn(sample, config, classification, v, seed):
    """sample(...) as (a, b, class)."""
    g = sample(config, classification, v, seed)
    return g.a, g.b, g.classification


class TestExactDraws:
    """The getrandbits sampler against the sampler that drew its digits through
    randrange (both in oracles): the same (a, b, class), key by key and along
    one shared generator."""

    CASES = [(Classification.FAR, 0)] + [
        (cls, v) for cls in (Classification.NEAR, Classification.ANTI_NEAR) for v in (1, 2, 3)
    ]

    @pytest.mark.parametrize("N", [8, 12])
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 1009])
    def test_same_draws_as_randrange(self, p, N):
        cfg = FieldConfig(p, N)
        shared = [random.Random(f"exact-{p}-{N}") for _ in range(2)]
        for cls, v in self.CASES:
            for i in range(500):
                key = f"exact|{cls.value}|{v}|{i}"
                assert drawn(oracles.getrandbits_sample_regular, cfg, cls, v, key) == drawn(
                    oracles.randrange_sample_regular, cfg, cls, v, key
                ), key
            for _ in range(100):
                assert drawn(oracles.getrandbits_sample_regular, cfg, cls, v, shared[0]) == drawn(
                    oracles.randrange_sample_regular, cfg, cls, v, shared[1]
                )
            assert shared[0].getstate() == shared[1].getstate()
