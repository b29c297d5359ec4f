"""Tests for the character-evaluation engine."""

import dataclasses
from fractions import Fraction

import pytest

from sl2endo.charformulas import (
    PacketSpec,
    adss152_theta,
    inner_form_side,
    mu_hat_orbital,
    psi0,
    psi0_on_residue_point,
    psi0_via_level,
    theta5,
    theta_nonregular_far,
    theta_nonregular_near_sums,
    theta_regular,
    theta_virtual,
)
from sl2endo.checks import inner_form_stability, psi0_dual_route_and_uniqueness
from sl2endo.cyclotomic import CycNumber, root_of_unity
from sl2endo.errors import (
    AntiNearUnsupported,
    NonRegularLevel,
    NotFar,
    NotNear,
    PrecisionExhausted,
    Undetermined,
)
from sl2endo.localfield import FieldConfig, is_odd_prime, legendre, valuation
from sl2endo.residue import CharacterLevel, NormOneGroup, norm_one_group, regular_levels
from sl2endo.torus import (
    Classification,
    LieElement,
    TorusVariant,
    cayley_inverse,
    element,
    f_direct,
    g_conjugate,
    invert,
    sample_regular,
)

import oracles
from oracles import padic, shift_down

PRIMES = [3, 5, 7, 11, 13]


def far_p3():
    return element(FieldConfig(3), 3, -2)


def near_sample(p, v, tag=""):
    return sample_regular(FieldConfig(p), Classification.NEAR, v, seed=f"cf{p}:{v}:{tag}")


def far_sample(p, tag=""):
    return sample_regular(FieldConfig(p), Classification.FAR, 0, seed=f"cf{p}:far:{tag}")


def anti_near(p):
    g = near_sample(p, 1, "anti")
    return element(g.config, -g.a, g.b)


class TestPacketSpec:
    def test_regular_requires_regular_level(self):
        cfg = FieldConfig(5)
        with pytest.raises(NonRegularLevel):
            PacketSpec.regular(cfg, 0)
        with pytest.raises(NonRegularLevel):
            PacketSpec.regular(cfg, 3)
        assert PacketSpec.regular(cfg, 2).level.k == 2

    def test_nonregular_forces_quadratic_level(self):
        pk = PacketSpec.nonregular(FieldConfig(7))
        assert pk.kind == "nonregular"
        assert pk.level.is_quadratic

    @pytest.mark.parametrize("p", [3, 7, 13])
    def test_the_level_names_the_packet(self, p):
        # k is regular when k != -k mod q+1, and quadratic when k = -k != 0
        m = p + 1
        with pytest.raises(NonRegularLevel):
            PacketSpec(CharacterLevel(0, m))
        for k in range(1, m):
            packet = PacketSpec(CharacterLevel(k, m))
            assert packet.kind == ("nonregular" if 2 * k == m else "regular")
            if packet.kind == "regular":
                assert packet == PacketSpec.regular(FieldConfig(p), k)
            else:
                assert packet == PacketSpec.nonregular(FieldConfig(p))

    def test_the_level_is_the_one_init_field(self):
        assert [f.name for f in dataclasses.fields(PacketSpec) if f.init] == ["level"]


class TestPsi0:
    def test_far_example(self):
        assert psi0(far_p3()) == -1  # sgn_pi(2(a+1)) = sgn_pi(8)

    def test_near_is_one(self):
        for p in (3, 5, 7):
            assert psi0(near_sample(p, 1)) == 1

    @pytest.mark.parametrize("p", PRIMES)
    def test_dual_route_on_far_samples(self, p):
        for i in range(25):
            g = far_sample(p, str(i))
            assert psi0(g) == psi0_via_level(g)

    @pytest.mark.parametrize("p", PRIMES)
    def test_residue_route_matches_level_route_everywhere(self, p):
        cfg = FieldConfig(p)
        group = norm_one_group(cfg)
        lv = CharacterLevel((p + 1) // 2, p + 1)
        for pt in group.points:
            expected = group.character_value(lv, pt).as_int()
            assert psi0_on_residue_point(cfg, pt) == expected

    @pytest.mark.parametrize("p", PRIMES)
    def test_minus_one_branch(self, p):
        cfg = FieldConfig(p)
        minus_one = element(cfg, -1, 0)
        assert psi0(minus_one) == -legendre(p - 1, p)
        group = norm_one_group(cfg)
        lv = CharacterLevel((p + 1) // 2, p + 1)
        via_level = group.character_value(lv, group.reduce(minus_one)).as_int()
        assert psi0(minus_one) == via_level

    @pytest.mark.parametrize("p", [p for p in range(3, 102) if is_odd_prime(p)])
    def test_uniqueness_at_the_generator_matches_every_point(self, p):
        cfg = FieldConfig(p)
        gammas = [far_sample(p, f"u{i}") for i in range(3)] + [near_sample(p, 1, "u")]
        assert psi0_dual_route_and_uniqueness(cfg, gammas)
        assert oracles.psi0_dual_route_and_uniqueness(cfg, gammas)

    def test_uniqueness_reads_each_level_once(self, monkeypatch):
        # q + 1 residue points, q + 1 levels at the generator, one per far element
        cfg = FieldConfig(101)
        far = [far_sample(101, f"n{i}") for i in range(4)]
        calls, value = [], NormOneGroup.character_value

        def counted(group, level, point):
            calls.append(point)
            return value(group, level, point)

        monkeypatch.setattr(NormOneGroup, "character_value", counted)
        assert psi0_dual_route_and_uniqueness(cfg, far + [near_sample(101, 1, "n")])
        assert len(calls) <= 2 * (cfg.q + 1) + len(far)

    def test_quadratic(self):
        for p in (3, 5, 7):
            for i in range(10):
                g = far_sample(p, f"q{i}")
                assert psi0(g) in (1, -1)
                assert psi0(g) * psi0(invert(g)) == 1  # psi0 = psi0^{-1}


class TestThetaRegular:
    def test_far_generic_value_via_dlog(self):
        cfg = FieldConfig(5)
        g = far_sample(5)
        group = norm_one_group(cfg)
        m = group.dlog(group.reduce(g))
        for lv in regular_levels(cfg):
            got = theta_regular(lv, g)[0]
            expected = -root_of_unity(6, lv.k * m) - root_of_unity(6, -lv.k * m)
            assert got == expected

    def test_far_other_member_vanishes(self):
        cfg = FieldConfig(5)
        g = far_sample(5)
        for lv in regular_levels(cfg):
            assert theta_regular(lv, g)[1] == 0

    def test_near_values(self):
        g = near_sample(3, 1)  # f = -3
        lv = CharacterLevel(1, 4)
        assert theta_regular(lv, g) == (2, -4)  # -1 -+ (-3)

    def test_anti_near_unsupported(self):
        with pytest.raises(AntiNearUnsupported):
            theta_regular(CharacterLevel(1, 4), anti_near(3))

    def test_conjugated_variant_rejected(self):
        with pytest.raises(ValueError):
            theta_regular(CharacterLevel(1, 4), g_conjugate(far_p3()))


class TestThetaNonRegularFar:
    def test_spec_example(self):
        assert theta_nonregular_far(far_p3()) == (1, 1, 0, 0)  # -psi0 = -(-1)

    def test_near_rejected(self):
        with pytest.raises(NotFar):
            theta_nonregular_far(near_sample(3, 1))


class TestThetaNonRegularNearSums:
    def test_p3_v1(self):
        sums = theta_nonregular_near_sums(near_sample(3, 1))
        assert sums[0] == 2 and sums[1] == -4

    def test_total_and_difference(self):
        for p in (3, 5, 7):
            g = near_sample(p, 2)
            f = f_direct(g)
            s12, s34 = theta_nonregular_near_sums(g)
            assert s12 + s34 == -2
            assert s12 - s34 == -2 * f

    def test_far_rejected(self):
        with pytest.raises(NotNear):
            theta_nonregular_near_sums(far_p3())


UNRAMIFIED_ONLY = (ValueError, "formula applies to elements of the unramified-class torus")
ANTI_NEAR_REFUSED = (AntiNearUnsupported, "no character formula on central twists of near elements")


class TestMemberFormulaGuards:
    """Each member formula refuses a conjugated element before it classifies
    it, then an anti-near element, an element with b = 0 and the class it
    does not cover, each with its own exception type and message."""

    FORMULAS = {
        "theta_regular": (lambda g: theta_regular(CharacterLevel(1, g.config.p + 1), g),
                          "anti_near", ANTI_NEAR_REFUSED),
        "theta_nonregular_far": (theta_nonregular_far, "near",
                                 (NotFar, "individual member values are only trusted"
                                  " far from the identity")),
        "theta_nonregular_near_sums": (theta_nonregular_near_sums, "far",
                                       (NotNear, "member sums are the near-identity values")),
        "adss152_theta": (adss152_theta, "far",
                          (NotNear, "the disputed values concern the near-identity regime")),
    }

    @staticmethod
    def outcome(formula, gamma):
        try:
            formula(gamma)
        except Exception as exc:
            return type(exc), str(exc)
        return "value"

    @pytest.mark.parametrize("name", FORMULAS)
    @pytest.mark.parametrize("p", [3, 7])
    def test_refusals(self, name, p):
        formula, refused, refusal = self.FORMULAS[name]
        cfg = FieldConfig(p)
        near, far = near_sample(p, 1, "guard"), far_sample(p, "guard")
        zero_b = element(cfg, 1, 0)
        inputs = {
            "anti_near": element(cfg, -near.a, near.b), "near": near, "far": far,
        }
        expected = [
            (g_conjugate(far), UNRAMIFIED_ONLY),
            (g_conjugate(near), UNRAMIFIED_ONLY),
            (g_conjugate(zero_b), UNRAMIFIED_ONLY),  # refused before v(b) is read
            (inputs["anti_near"], ANTI_NEAR_REFUSED),
            (zero_b, (PrecisionExhausted, f"residue is 0 mod {p}^8")),
            (inputs[refused], refusal),
        ]
        for gamma, refusal_of_gamma in expected:
            assert self.outcome(formula, gamma) == refusal_of_gamma, gamma
        accepted = [g for cls, g in inputs.items() if cls not in (refused, "anti_near")]
        assert accepted and all(self.outcome(formula, g) == "value" for g in accepted)


class TestThetaVirtual:
    def test_nonregular_far_s1(self):
        pk = PacketSpec.nonregular(FieldConfig(3))
        assert theta_virtual(pk, "s1", far_p3()) == 2  # -2 psi0 = 2

    def test_nonregular_near_s1(self):
        pk = PacketSpec.nonregular(FieldConfig(3))
        assert theta_virtual(pk, "s1", near_sample(3, 1)) == 6  # -2f = 6

    def test_nonregular_far_s2_s3_vanish(self):
        pk = PacketSpec.nonregular(FieldConfig(3))
        assert theta_virtual(pk, "s2", far_p3()) == 0
        assert theta_virtual(pk, "s3", far_p3()) == 0

    def test_nonregular_near_s2_s3_undetermined(self):
        pk = PacketSpec.nonregular(FieldConfig(3))
        for s in ("s2", "s3"):
            with pytest.raises(Undetermined):
                theta_virtual(pk, s, near_sample(3, 1))

    def test_nonregular_stable_values(self):
        pk = PacketSpec.nonregular(FieldConfig(3))
        g = far_p3()
        assert theta_virtual(pk, "1", g) == CycNumber.from_int(-2 * psi0(g))
        assert theta_virtual(pk, "1", near_sample(3, 1)) == -2

    def test_regular_assembly(self):
        cfg = FieldConfig(5)
        pk = PacketSpec.regular(cfg, 1)
        g = far_sample(5)
        vp = theta_regular(pk.level, g)[0]
        assert theta_virtual(pk, "s1", g) == vp  # minus member vanishes far
        assert theta_virtual(pk, "1", g) == vp
        n = near_sample(5, 1)
        assert theta_virtual(pk, "s1", n) == -2 * f_direct(n)
        assert theta_virtual(pk, "1", n) == -2

    def test_regular_rejects_klein_elements(self):
        pk = PacketSpec.regular(FieldConfig(5), 1)
        with pytest.raises(ValueError):
            theta_virtual(pk, "s2", far_sample(5))

    def test_anti_near_unsupported(self):
        pk = PacketSpec.nonregular(FieldConfig(3))
        with pytest.raises(AntiNearUnsupported):
            theta_virtual(pk, "s1", anti_near(3))

    def test_conjugated_pullback_nonregular(self):
        pk = PacketSpec.nonregular(FieldConfig(3))
        for g in (far_p3(), near_sample(3, 1)):
            h = g_conjugate(g)
            assert theta_virtual(pk, "1", h) == theta_virtual(pk, "1", g)
            assert theta_virtual(pk, "s1", h) == -theta_virtual(pk, "s1", g)

    def test_conjugated_pullback_regular(self):
        cfg = FieldConfig(5)
        pk = PacketSpec.regular(cfg, 2)
        g = far_sample(5)
        h = g_conjugate(g)
        assert theta_virtual(pk, "1", h) == theta_virtual(pk, "1", g)
        assert theta_virtual(pk, "s1", h) == -theta_virtual(pk, "s1", g)

    def test_single_expression_reproduces_both_branches(self):
        # -f(gamma) * (psi(gamma) + psi(1/gamma)) specializes to the far and
        # near closed forms
        cfg = FieldConfig(7)
        group = norm_one_group(cfg)
        for lv in regular_levels(cfg):
            pk = PacketSpec.regular(cfg, lv.k)
            for g in (far_sample(7), near_sample(7, 1), near_sample(7, 2)):
                unified = (
                    group.character_value(lv, group.reduce(g))
                    + group.character_value(lv, group.reduce(invert(g)))
                ).scale(-f_direct(g))
                assert theta_virtual(pk, "s1", g) == unified


# The Klein-four sign columns, written out independently of the packet tables.
REFERENCE_KLEIN4_SIGNS = {
    "1": (1, 1, 1, 1),
    "s1": (1, 1, -1, -1),
    "s2": (1, -1, 1, -1),
    "s3": (1, -1, -1, 1),
}


def reference_theta_virtual(packet, s, gamma):
    """theta_virtual as it was hand-coded branch by branch: plus +- minus, a
    signed sum of the four far members, and sum12 +- sum34 near the identity
    with s2 and s3 undetermined there."""
    cls = gamma.classification
    swapped = gamma.variant is TorusVariant.CONJUGATED
    base = g_conjugate(gamma) if swapped else gamma

    if packet.kind == "regular":
        if s not in ("1", "s1"):
            raise ValueError(f"the two-member packet has s in {{1, s1}}, got {s!r}")
        v_plus, v_minus = theta_regular(packet.level, base)
        if swapped:
            v_plus, v_minus = v_minus, v_plus
        return v_plus + v_minus if s == "1" else v_plus - v_minus

    coeffs = REFERENCE_KLEIN4_SIGNS[s]
    if cls is Classification.FAR:
        values = theta_nonregular_far(base)
        if swapped:
            values = [values[2], values[3], values[0], values[1]]
        total = CycNumber.zero()
        for c, v in zip(coeffs, values):
            total = total + v.scale(c)
        return total
    if s in ("s2", "s3"):
        raise Undetermined("the member sums do not pin down the s2/s3 combinations")
    sum12, sum34 = theta_nonregular_near_sums(base)
    if swapped:
        sum12, sum34 = sum34, sum12
    return sum12 + sum34 if s == "1" else sum12 - sum34


def virtual_outcome(fn, packet, s, gamma):
    """The value with its conductor (reports print both), or the error class."""
    try:
        value = fn(packet, s, gamma)
    except (Undetermined, ValueError) as exc:
        return type(exc)
    return (value.m, oracles.coefficient_strings(value))


class TestThetaVirtualAgainstReference:
    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_the_hand_coded_combination(self, p):
        cfg = FieldConfig(p)
        packets = [PacketSpec.nonregular(cfg)]
        packets += [PacketSpec.regular(cfg, lv.k) for lv in regular_levels(cfg)]
        gammas = [far_sample(p, f"diff{i}") for i in range(3)]
        gammas += [near_sample(p, v, "diff") for v in (1, 2, 3)]
        gammas += [g_conjugate(g) for g in gammas]
        outcomes = set()
        for packet in packets:
            for gamma in gammas:
                for s in ("1", "s1", "s2", "s3"):
                    expected = virtual_outcome(reference_theta_virtual, packet, s, gamma)
                    assert virtual_outcome(theta_virtual, packet, s, gamma) == expected
                    outcomes.add(expected if isinstance(expected, type) else "value")
        assert outcomes == {"value", Undetermined, ValueError}


class TestMuHatOrbital:
    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("v", [1, 2])
    def test_matches_near_sums(self, p, v):
        g = near_sample(p, v)
        assert mu_hat_orbital(cayley_inverse(g)) == theta_nonregular_near_sums(g)[0]
        assert mu_hat_orbital(cayley_inverse(g_conjugate(g))) == theta_nonregular_near_sums(g)[1]

    def test_p3_value(self):
        Y = cayley_inverse(near_sample(3, 1))
        assert mu_hat_orbital(Y) == 2

    def test_eta_follows_variant(self):
        # eta is 1 on the unramified torus and the uniformizer on its
        # conjugate: the same y gives -1 - f on one and -1 + f on the other
        g = near_sample(3, 1)  # f = -3
        y = cayley_inverse(g).y
        cfg = g.config
        assert mu_hat_orbital(LieElement(cfg, y)) == 2
        assert mu_hat_orbital(LieElement(cfg, y, TorusVariant.CONJUGATED)) == -4
        assert cayley_inverse(g_conjugate(g)) == LieElement(cfg, y, TorusVariant.CONJUGATED)

    @pytest.mark.parametrize("variant", list(TorusVariant))
    def test_unit_y_refused(self, variant):
        # the expansion needs Y topologically nilpotent, v(y) >= 1
        with pytest.raises(ValueError, match=r"^the expansion applies for v\(y\) >= 1$"):
            mu_hat_orbital(LieElement(FieldConfig(3), 1, variant))


class TestAdss152:
    def test_p3_v1_values(self):
        g = near_sample(3, 1)  # f = -3
        assert adss152_theta(g) == (1, -2, -2, 1)

    def test_half_integers_appear(self):
        g = near_sample(5, 1)  # f = -5: (-f-1)/2 = 2, (f-1)/2 = -3
        assert adss152_theta(g)[0] == 2
        g2 = near_sample(5, 2)  # f = 25: (-f-1)/2 = -13
        assert adss152_theta(g2)[0] == -13
        # the halves (+-f - 1)/2 are integers, since f is odd, and stay exact ints
        assert [type(theta.as_int()) for theta in adss152_theta(g)] == [int] * 4
        assert [theta.as_int() for theta in adss152_theta(g2)] == [-13, 12, 12, -13]

    def test_even_f_raises_instead_of_rounding(self, monkeypatch):
        # f is odd for every odd q; were it even, (+-f - 1)/2 would not be an
        # integer, and the value must be refused, not rounded (also under -O)
        import sl2endo.charformulas as charformulas

        g = near_sample(3, 1)
        monkeypatch.setattr(charformulas, "f_direct", lambda gamma: 4)
        with pytest.raises(ArithmeticError):
            adss152_theta(g)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("v", [1, 2, 3])
    def test_match_their_fraction_formulas(self, p, v):
        # differential against the rational formulas the values had when
        # CycNumber held fractions: each is an integer, and the same one
        cfg = FieldConfig(p)
        g = near_sample(p, v)
        f = f_direct(g)
        for j, theta in enumerate(adss152_theta(g), 1):
            expected = Fraction(-f - 1 if j in (1, 4) else f - 1, 2)
            assert expected.denominator == 1
            assert theta.as_int() == expected
        y = padic(cfg, cayley_inverse(g).y)
        for Y, arg in (
            (cayley_inverse(g), y),  # eta = 1
            (cayley_inverse(g_conjugate(g)), shift_down(y)),  # eta = pi
        ):
            vy = valuation(Y.y, cfg)
            b_eps = -cfg.q * oracles.sgn_eps(arg)
            expected = Fraction(-1) + Fraction(cfg.q**vy, cfg.q) * b_eps
            assert expected.denominator == 1
            assert mu_hat_orbital(Y).as_int() == expected

    def test_sum_matches_stable_value(self):
        for p in (3, 5):
            g = near_sample(p, 1)
            total = sum(adss152_theta(g), CycNumber.zero())
            assert total == -2

    def test_s1_combination_vanishes(self):
        for p in (3, 5):
            g = near_sample(p, 2)
            t1, t2, t3, t4 = adss152_theta(g)
            assert t1 + t2 - t3 - t4 == 0

    def test_far_rejected(self):
        with pytest.raises(NotNear):
            adss152_theta(far_p3())


class TestTheta5:
    def test_near_is_one(self):
        assert theta5(near_sample(3, 1)) == 1

    def test_far_example(self):
        assert theta5(far_p3()) == -1

    def test_doubling_identity_far(self):
        for p in (3, 5, 7):
            g = far_sample(p)
            total = sum(theta_nonregular_far(g), CycNumber.zero())
            assert theta5(g).scale(2) == -total

    def test_doubling_identity_near(self):
        for p in (3, 5, 7):
            g = near_sample(p, 1)
            s12, s34 = theta_nonregular_near_sums(g)
            assert theta5(g).scale(2) == -(s12 + s34)

    def test_anti_near_unsupported(self):
        with pytest.raises(AntiNearUnsupported):
            theta5(anti_near(3))


class TestKottwitzStable:
    """The stable character of the four-member packet against the
    Kottwitz-signed inner-form side, the one stable comparison."""

    def test_far_example(self):
        g = far_p3()
        stable = theta_virtual(PacketSpec.nonregular(g.config), "1", g)
        assert stable == inner_form_side(g) == 2  # -2 psi0 with psi0 = -1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_equal_everywhere(self, p):
        key = f"kw{p}"
        cfg = FieldConfig(p)
        packet = PacketSpec.nonregular(cfg)
        for i in range(10):
            cls = Classification.FAR if i % 2 == 0 else Classification.NEAR
            v = 0 if cls is Classification.FAR else 1 + i % 3
            g = sample_regular(cfg, cls, v, f"{key}|{i}")
            side0, side1 = theta_virtual(packet, "1", g), inner_form_side(g)
            assert side0 == side1
            if cls is Classification.NEAR:
                assert side0 == -2


def stable_outcome(fn, *args):
    """The values with their conductors, a bool as it is, or the error class."""
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc)
    if isinstance(result, bool):
        return result
    values = result if isinstance(result, tuple) else (result,)
    return [(v.m, oracles.coefficient_strings(v)) for v in values]


class TestStableComparisonAgainstOld:
    """theta5, inner_form_side and inner_form_stability against the two
    implementations of the stable comparison they replaced (kept verbatim
    in oracles): inner_form_side with only the anisotropic sign, and
    kottwitz_stable with the split sign on the stable sum."""

    @staticmethod
    def grid(p):
        """Two far draws, near draws with v(b) = 1..3, their anti-near twists,
        the two b = 0 elements, and the g-conjugates of the far and near draws."""
        cfg = FieldConfig(p)
        far = [far_sample(p, f"old{i}") for i in range(2)]
        near = [near_sample(p, v, "old") for v in (1, 2, 3)]
        anti = [element(cfg, -g.a, g.b) for g in near]
        zero_b = [element(cfg, 1, 0), element(cfg, -1, 0)]
        return far + near + anti + zero_b + [g_conjugate(g) for g in far + near]

    @pytest.mark.parametrize("p", PRIMES)
    def test_theta5_and_inner_form_side(self, p):
        outcomes = set()
        for g in self.grid(p):
            for new, old in ((theta5, oracles.theta5), (inner_form_side, oracles.inner_form_side)):
                expected = stable_outcome(old, g)
                assert stable_outcome(new, g) == expected, (new.__name__, g)
                outcomes.add(expected if isinstance(expected, type) else "value")
        assert outcomes == {"value", AntiNearUnsupported, PrecisionExhausted}

    @pytest.mark.parametrize("p", PRIMES)
    def test_both_sides_of_kottwitz_stable(self, p):
        packet = PacketSpec.nonregular(FieldConfig(p))

        def sides(g):
            return (theta_virtual(packet, "1", g), inner_form_side(g))

        for g in self.grid(p):
            assert stable_outcome(sides, g) == stable_outcome(oracles.kottwitz_stable, g), g

    @pytest.mark.parametrize("p", PRIMES)
    def test_inner_form_stability(self, p):
        cfg = FieldConfig(p)
        grid = self.grid(p)
        outcomes = set()
        for g in grid:
            expected = stable_outcome(oracles.inner_form_stability, cfg, [g])
            assert stable_outcome(inner_form_stability, cfg, [g]) == expected, g
            outcomes.add(expected)
        assert outcomes == {True, AntiNearUnsupported, PrecisionExhausted, ValueError}
        assert inner_form_stability(cfg, grid[:5]) is oracles.inner_form_stability(cfg, grid[:5])
