"""Tests for exact cyclotomic arithmetic."""

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2endo.cyclotomic import (
    CycNumber,
    _divide_by_x_e_minus_1,
    _reduce,
    cyclotomic_poly,
    euler_phi,
    linear_combination,
    prime_divisors,
    root_of_unity,
)
from sl2endo.errors import ConductorMismatch

from oracles import accumulator_linear_combination, coefficient_strings


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_div_exact(num, den):
    # den is monic; the division must be exact over the integers
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        quot[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    assert not any(num)
    return quot


@functools.lru_cache(maxsize=None)
def reference_cyclotomic_poly(m):
    """The original construction: x^m - 1 divided by the product of Phi_d, d | m, d < m."""
    if m == 1:
        return (-1, 1)
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = poly_mul(den, list(reference_cyclotomic_poly(d)))
    return tuple(poly_div_exact([-1] + [0] * (m - 1) + [1], den))


class TestCyclotomicPoly:
    @pytest.mark.parametrize("m", range(1, 31))
    def test_product_over_divisors_is_x_m_minus_1(self, m):
        # independent oracle: multiplying the factors back must give x^m - 1
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = poly_mul(prod, list(cyclotomic_poly(d)))
        assert prod == [-1] + [0] * (m - 1) + [1]

    @pytest.mark.parametrize("m", [*range(1, 301), 1010, 2004])
    def test_matches_divisor_product_reference(self, m):
        assert cyclotomic_poly(m) == reference_cyclotomic_poly(m)

    def test_inexact_division_raises(self):
        # x^2 + 1 is not a multiple of x - 1; this must raise even under python -O
        with pytest.raises(ArithmeticError):
            _divide_by_x_e_minus_1([1, 0, 1], 1)
        assert _divide_by_x_e_minus_1([-1, 0, 0, 0, 1], 2) == [1, 0, 1]

    def test_prime_divisors(self):
        assert [prime_divisors(n) for n in (1, 2, 12, 1010, 2004, 10008)] == [
            [], [2], [2, 3], [2, 5, 101], [2, 3, 167], [2, 3, 139],
        ]

    def test_known_small_cases(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)

    def test_euler_phi(self):
        assert [euler_phi(m) for m in (1, 2, 3, 4, 6, 12, 14)] == [1, 1, 2, 2, 2, 4, 6]


class TestRootOfUnity:
    def test_i_squared(self):
        assert root_of_unity(4, 2) == -1

    def test_trivial_conductor(self):
        assert root_of_unity(1, 0) == 1

    def test_sixth_root_relation(self):
        z6 = root_of_unity(6, 1)
        assert z6 * z6 == z6 - 1  # reduction by x^2 - x + 1

    @pytest.mark.parametrize("m", range(1, 31))
    def test_order_is_exactly_m(self, m):
        z, power = root_of_unity(m, 1), CycNumber.one(m)
        for k in range(1, m + 1):
            power = power * z  # z^k
            assert (power == 1) == (k == m)

    @pytest.mark.parametrize("m", range(2, 31))
    def test_all_roots_sum_to_zero(self, m):
        total = CycNumber.zero(m)
        for k in range(m):
            total = total + root_of_unity(m, k)
        assert total == 0

    def test_exponent_wraps_mod_m(self):
        assert root_of_unity(6, 7) == root_of_unity(6, 1)
        assert root_of_unity(6, -1) == root_of_unity(6, 5)


@pytest.mark.parametrize("build", [
    lambda: cyclotomic_poly(0),
    lambda: CycNumber.from_int(1, 0),
    lambda: root_of_unity(0, 1),
], ids=["cyclotomic_poly", "from_int", "root_of_unity"])
def test_conductor_below_one_refused(build):
    with pytest.raises(ValueError, match="^conductor must be >= 1$"):
        build()


class TestRingOps:
    def test_i_times_i(self):
        z4 = root_of_unity(4, 1)
        assert z4 * z4 == -1

    def test_phi5_relation(self):
        total = CycNumber.one(5)
        for k in range(1, 5):
            total = total + root_of_unity(5, k)
        assert total == 0

    def test_rational_scalars_embed(self):
        # integer scalars embed at every conductor, on either side of an operator
        z = root_of_unity(6, 1)
        assert z + 3 - 3 == z
        assert 3 + z == z + 3 and 3 - z == -(z - 3) and 3 * z == z * 3
        assert z.scale(2) == z + z

    def test_cross_conductor_promotion(self):
        # zeta_4^2 and the rational -1 agree across conductors
        assert root_of_unity(4, 2) == CycNumber.from_int(-1)
        # an integer embeds unchanged, as its constant term
        three = CycNumber.from_int(-3).promote(6)
        assert (three.m, three.num) == (6, ((0, -3),))
        assert root_of_unity(6, 1) * CycNumber.from_int(2) == root_of_unity(6, 1).scale(2)

    def test_conductors_above_one_do_not_mix(self):
        # only conductor 1 moves: two conductors above 1 never mix, even when one divides the other
        with pytest.raises(ConductorMismatch):
            root_of_unity(4, 1).promote(6)
        with pytest.raises(ConductorMismatch):
            CycNumber.one(3).promote(4)
        with pytest.raises(ConductorMismatch):
            root_of_unity(2, 1).promote(4)
        with pytest.raises(ConductorMismatch, match="^conductor 4 does not embed into 1$"):
            root_of_unity(4, 1).promote(1)
        with pytest.raises(ConductorMismatch):
            root_of_unity(2, 1) == root_of_unity(4, 2)
        with pytest.raises(ConductorMismatch):
            root_of_unity(4, 1) * root_of_unity(6, 1)

    def test_zero_and_is_rational(self):
        z = root_of_unity(8, 1)
        assert (z - z).is_zero
        assert not z.is_rational
        z8 = root_of_unity(8, 4) * root_of_unity(8, 4)  # z^8
        assert z8.is_rational and z8.as_int() == 1
        assert type(z8.as_int()) is int
        with pytest.raises(ValueError):
            z.as_int()

    def test_coefficient_strings(self):
        assert coefficient_strings(CycNumber.from_int(-3, 4)) == ["-3", "0"]
        assert coefficient_strings(root_of_unity(6, 2)) == ["-1", "1"]
        assert coefficient_strings(root_of_unity(6, 1).scale(-2) + 5) == ["5", "-2"]

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5])
    def test_non_integer_scalars_raise(self, bad):
        # values live in Z[zeta_m]: no operation may store a Fraction or a float
        z = root_of_unity(6, 1)
        for op in (
            lambda: CycNumber.from_int(bad),
            lambda: CycNumber.from_int(bad, 6),
            lambda: z.scale(bad),
            lambda: z + bad,
            lambda: bad + z,
            lambda: z - bad,
            lambda: bad - z,
            lambda: z * bad,
            lambda: z == bad,
            lambda: bad == z,
        ):
            with pytest.raises(TypeError):
                op()

    def test_repr_shows_the_conductor_and_rebuilds_the_value(self):
        three, three_at_14 = CycNumber.from_int(3), CycNumber.from_int(3, 14)
        assert repr(three) != repr(three_at_14)
        for v in (three, three_at_14, CycNumber.zero(6), root_of_unity(12, 5) - 2):
            rebuilt = eval(repr(v))
            assert (rebuilt.m, rebuilt.num) == (v.m, v.num)
            assert rebuilt == v

    def test_unhashable(self):
        # equality crosses to integers (3 == CycNumber.from_int(3, 14)), so no hash
        with pytest.raises(TypeError):
            hash(CycNumber.from_int(3))


# A dense Fraction reference with the semantics CycNumber had when it held
# rationals: one Fraction per power-basis coefficient, reduced against every
# coefficient of Phi_m, rendered with str().  Fed integers, it must agree with
# the integer-only CycNumber on every operation.


def ref_reduce(coeffs, m):
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    c = list(coeffs)
    for i in range(len(c) - 1, deg - 1, -1):
        top = c[i]
        if top:
            for j, pj in enumerate(phi):
                c[i - deg + j] -= top * pj
    c = c[:deg]
    return tuple(c + [Fraction(0)] * (deg - len(c)))


@dataclass(frozen=True)
class Ref:
    m: int
    coeffs: tuple

    @staticmethod
    def root(m, k):
        k %= m
        c = [Fraction(0)] * (k + 1)
        c[k] = Fraction(1)
        return Ref(m, ref_reduce(c, m))

    def promote(self, L):
        step = L // self.m
        lifted = [Fraction(0)] * (step * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            lifted[i * step] = c
        return Ref(L, ref_reduce(lifted, L))

    def pair(self, other):
        L = math.lcm(self.m, other.m)
        return self.promote(L), other.promote(L)

    def __add__(self, other):
        a, b = self.pair(other)
        return Ref(a.m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __sub__(self, other):
        a, b = self.pair(other)
        return Ref(a.m, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self):
        return Ref(self.m, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        a, b = self.pair(other)
        prod = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                if x and y:
                    prod[i + j] += x * y
        return Ref(a.m, ref_reduce(prod, a.m))

    def scale(self, r):
        return Ref(self.m, tuple(c * r for c in self.coeffs))

    def equals(self, other):
        a, b = self.pair(other)
        return a.coeffs == b.coeffs

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                z = f"z{self.m}" if i == 1 else f"z{self.m}^{i}"
                parts.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
        if not parts:
            return "0"
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out


def assert_canonical(value):
    """The sparse canonical form: sorted (index, int) pairs with nonzero coefficients."""
    indices = [i for i, _ in value.num]
    assert all(type(i) is int and type(c) is int for i, c in value.num)
    assert indices == sorted(set(indices))
    assert all(0 <= i < euler_phi(value.m) for i in indices)
    assert all(c for _, c in value.num)


def assert_matches(value, ref):
    assert value.m == ref.m
    assert_canonical(value)
    assert coefficient_strings(value) == [str(c) for c in ref.coeffs]
    assert str(value) == str(ref)
    if all(c == 0 for c in ref.coeffs[1:]):
        assert value.as_int() == ref.coeffs[0]
    else:
        with pytest.raises(ValueError):
            value.as_int()


FAMILIES = (1, 4, 6, 12, 102, 1010)
integers = st.integers(min_value=-6, max_value=6)


@st.composite
def elements(draw, family):
    """A CycNumber and its reference, built alike at the family's conductor or at 1."""
    m = draw(st.sampled_from(sorted({1, family})))
    terms = draw(
        st.lists(st.tuples(st.integers(0, m - 1), integers), min_size=1, max_size=3)
    )
    value, ref = CycNumber.zero(m), Ref(m, (Fraction(0),) * euler_phi(m))
    for k, c in terms:
        value = value + root_of_unity(m, k).scale(c)
        ref = ref + Ref.root(m, k).scale(c)
    return value, ref


class TestAgainstFractionReference:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ops_match_dense_fraction_reference(self, data):
        family = data.draw(st.sampled_from(FAMILIES))
        (z, zr), (w, wr) = data.draw(elements(family)), data.draw(elements(family))
        r = data.draw(integers)
        assert_matches(z + w, zr + wr)
        assert_matches(z - w, zr - wr)
        assert_matches(-z, -zr)
        assert_matches(z * w, zr * wr)
        assert_matches(z.scale(r), zr.scale(r))
        assert_matches(z.promote(family), zr.promote(family))
        assert (z == w) == zr.equals(wr)
        assert z == z.promote(family) and z - z == 0
        if z.is_rational:
            assert z == z.as_int()

    @pytest.mark.parametrize("ks,ls", [
        ((), (399,)), ((0,), ()), ((1, 399), (399,)), ((398, 399), (200, 398, 505)),
        ((250, 399, 1009), (0,)), ((250, 399, 1009), (200, 398, 505)),
    ])
    def test_products_at_1010_match(self, ks, ls):
        # zero operands, and top degrees summing past phi(1010) = 400
        def build(exponents, signs):
            value, ref = CycNumber.zero(1010), Ref(1010, (Fraction(0),) * 400)
            for k, c in zip(exponents, signs):
                value = value + root_of_unity(1010, k).scale(c)
                ref = ref + Ref.root(1010, k).scale(c)
            return value, ref

        (z, zr), (w, wr) = build(ks, (1, -2, 3)), build(ls, (-1, 5, 2))
        assert_matches(z * w, zr * wr)
        assert_matches(w * z, wr * zr)
        assert_matches(z * z, zr * zr)
        assert_matches(z * CycNumber.zero(), zr * Ref(1, (Fraction(0),)))

    @pytest.mark.parametrize("m,stride", [(1, 1), (4, 1), (6, 1), (12, 1), (102, 1), (1010, 23)])
    def test_roots_of_unity_match(self, m, stride):
        for k in range(0, m, stride):
            assert_matches(root_of_unity(m, k), Ref.root(m, k))


def dense_powers(m):
    """x^k mod Phi_m for k = 0, 1, ..., m-1 as dense lists, by stepping x^k -> x^{k+1}.

    Independent of the package's reduction: each step shifts by one degree
    and, when the degree reaches deg Phi_m, subtracts the top coefficient
    times every lower coefficient of Phi_m.
    """
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    c = [1] + [0] * (deg - 1)
    for _ in range(m):
        yield c
        top, c = c[-1], [0] + c[:-1]
        if top:
            c = [x - top * pj for x, pj in zip(c, phi)]


def dense(value):
    out = [0] * euler_phi(value.m)
    for i, c in value.num:
        out[i] = c
    return out


class TestRootTable:
    @pytest.mark.parametrize("m", [1, 2, 4, 6, 12, 30, 102, 1010, 10008])
    def test_table_matches_dense_stepping_for_every_exponent(self, m):
        for k, ref in enumerate(dense_powers(m)):
            value = root_of_unity(m, k)
            assert_canonical(value)
            assert dense(value) == ref, (m, k)

    def test_entries_are_shared(self):
        assert root_of_unity(1010, 7) is root_of_unity(1010, 1017)
        assert root_of_unity(1010, -3) is root_of_unity(1010, 1007)


class TestSparseCanonicalForm:
    def test_zero_is_empty_over_one(self):
        # zero is the empty tuple at every conductor, conductor 1 included
        z = root_of_unity(12, 5)
        for zero in (CycNumber.zero(), CycNumber.zero(12), z - z, z.scale(0),
                     (z.scale(3) - z.scale(3)), z * 0,
                     CycNumber.from_int(0, 12).promote(12)):
            assert zero.num == ()
            assert zero.is_zero and zero.is_rational and zero.as_int() == 0
            assert coefficient_strings(zero) == ["0"] * euler_phi(zero.m)
            assert str(zero) == "0"

    def test_rational_is_one_pair_at_index_zero(self):
        r = CycNumber.from_int(-6, 12)
        assert r.num == ((0, -6),)
        assert r.promote(12) is r
        assert CycNumber.from_int(5).promote(1010).num == ((0, 5),)

    def test_cancellation_drops_zero_terms_only(self):
        # 2z + 2z^2 - (2z^2 - 6) -> 2z + 6: the cancelled term is dropped and the
        # common factor 2 stays, since no denominator absorbs it
        a = root_of_unity(12, 1).scale(2) + root_of_unity(12, 2).scale(2)
        b = root_of_unity(12, 2).scale(2) - 6
        diff = a - b
        assert diff.num == ((0, 6), (1, 2))
        assert diff != root_of_unity(12, 1) + 3
        assert diff == (root_of_unity(12, 1) + 3).scale(2)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_operation_returns_the_canonical_form(self, data):
        family = data.draw(st.sampled_from(FAMILIES))
        (z, _), (w, _) = data.draw(elements(family)), data.draw(elements(family))
        r = data.draw(integers)
        for value in (z, w, z + w, z - w, w - z, -z, z * w, z.scale(r),
                      z.promote(family), r - z, z + r):
            assert_canonical(value)


# The operators as written before they became linear_combination calls: a
# conductor pairing (_pair) and a two-operand sparse sum (_combine).  They are
# the reference for linear_combination and for the operators that now call it.


def ref_promote(v, L):
    if L == v.m:
        return v
    if v.m != 1:
        raise ConductorMismatch(f"conductor {v.m} does not embed into {L}")
    return CycNumber(L, v.num)


def ref_pair(a, b):
    if not isinstance(b, CycNumber):
        b = CycNumber.from_int(b)
    if a.m == b.m:
        return a, b
    if a.m == 1:
        return ref_promote(a, b.m), b
    return a, ref_promote(b, a.m)


def ref_combine(x, y, sign):
    acc = dict(x)
    for i, c in y:
        acc[i] = acc.get(i, 0) + sign * c
    return tuple(sorted([t for t in acc.items() if t[1]]))


def ref_add(x, y):
    a, b = ref_pair(x, y)
    if not b.num:
        return a
    if not a.num:
        return b
    return CycNumber(a.m, ref_combine(a.num, b.num, 1))


def ref_sub(x, y):
    a, b = ref_pair(x, y)
    if not b.num:
        return a
    return CycNumber(a.m, ref_combine(a.num, b.num, -1))


def ref_rsub(n, x):
    return ref_sub(CycNumber.from_int(n), x)


def ref_neg(x):
    return CycNumber(x.m, tuple((i, -c) for i, c in x.num))


def ref_mul(x, y):
    a, b = ref_pair(x, y)
    prod = [0] * (2 * euler_phi(a.m) - 1)
    for i, c in a.num:
        for j, d in b.num:
            prod[i + j] += c * d
    return CycNumber(a.m, _reduce(prod, a.m))


def ref_scale(x, n):
    return CycNumber(x.m, tuple((i, c * n) for i, c in x.num) if n else ())


def ref_eq(x, y):
    a, b = ref_pair(x, y)
    return a.num == b.num


def chained(terms):
    """The sum as built before linear_combination: + for 1, - for -1, else + of a scale."""
    total = CycNumber.zero()
    for c, v in terms:
        if c == 1:
            total = ref_add(total, v)
        elif c == -1:
            total = ref_sub(total, v)
        else:
            total = ref_add(total, ref_scale(v, c))
    return total


def outcome(fn, *args):
    """(conductor, pairs) of fn(*args), a bool, or the ConductorMismatch it
    raises with its message."""
    try:
        value = fn(*args)
    except ConductorMismatch as exc:
        return ConductorMismatch, str(exc)
    if isinstance(value, bool):
        return value
    assert_canonical(value)
    return value.m, value.num


@st.composite
def combination_terms(draw):
    """(c, v) pairs at a family's conductor and at 1, zeros and zero coefficients
    included, now and then with a value at a second conductor above 1."""
    family = draw(st.sampled_from(FAMILIES))
    stray = draw(st.sampled_from(FAMILIES)) if draw(st.booleans()) else family
    values = st.one_of(
        elements(family).map(lambda pair: pair[0]),
        st.sampled_from([CycNumber.zero(), CycNumber.zero(family), CycNumber.one()]),
        elements(stray).map(lambda pair: pair[0]),
    )
    coeffs = st.one_of(st.sampled_from([0, 1, -1]), integers, st.integers(-(10**20), 10**20))
    return draw(st.lists(st.tuples(coeffs, values), max_size=5))


class TestLinearCombination:
    """linear_combination against chained reference +, - and scale."""

    @settings(max_examples=200, deadline=None)
    @given(terms=combination_terms())
    def test_matches_chained_operators(self, terms):
        assert outcome(linear_combination, terms) == outcome(chained, terms)

    @pytest.mark.parametrize(
        "terms",
        [
            [],
            [(0, root_of_unity(12, 1))],
            [(5, CycNumber.zero(12))],
            [(3, CycNumber.from_int(2)), (-1, CycNumber.from_int(7)), (0, CycNumber.one())],
            [(1, root_of_unity(12, 5))],
            [(-1, root_of_unity(12, 5))],
            [(1, root_of_unity(12, 1)), (-1, root_of_unity(12, 1))],
            [(2, CycNumber.from_int(3)), (1, root_of_unity(1010, 700)), (-3, CycNumber.one())],
            [(1, CycNumber.from_int(-4)), (1, CycNumber.zero(1010))],
            [(0, CycNumber.zero(1010)), (1, CycNumber.from_int(6))],
            [(1, root_of_unity(1010, 3)), (-1, CycNumber.zero(1010))],
            [(1, CycNumber.zero(1010)), (-1, root_of_unity(1010, 3))],
            [(1, root_of_unity(4, 1)), (0, root_of_unity(6, 1))],
            [(0, CycNumber.zero(4)), (1, CycNumber.zero(6))],
            [(1, root_of_unity(102, 1)), (1, CycNumber.one()), (1, root_of_unity(1010, 1))],
        ],
        ids=["empty", "zero-coefficient", "zero-value", "integers-only", "single-term",
             "single-negated", "cancelling", "q+1-mixed-with-1", "integer-plus-zero-at-q+1",
             "zero-at-q+1-first", "theta-plus-minus-zero", "zero-minus-root",
             "mismatch-zero-coefficient", "mismatch-zero-values", "mismatch-after-integer"],
    )
    def test_edge_cases(self, terms):
        assert outcome(linear_combination, terms) == outcome(chained, terms)

    def test_lone_unit_term_is_kept(self):
        theta = root_of_unity(1010, 777)
        assert linear_combination([(1, theta), (-1, CycNumber.zero(1010))]) is theta
        moved = linear_combination([(1, CycNumber.from_int(4)), (3, CycNumber.zero(1010))])
        assert (moved.m, moved.num) == (1010, ((0, 4),))

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, Fraction(0)])
    def test_non_integer_coefficient_raises(self, bad):
        with pytest.raises(TypeError):
            linear_combination([(bad, root_of_unity(6, 1))])


def differential(make_terms):
    """linear_combination and the accumulator it replaced, each on its own
    terms from make_terms(): the conductor and terms of each result, or the
    class and message of the exception each raises."""
    outcomes = []
    for fn in (linear_combination, accumulator_linear_combination):
        try:
            value = fn(make_terms())
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            assert_canonical(value)
            outcomes.append((value.m, value.num))
    return outcomes


@st.composite
def integer_path_terms(draw):
    """(c, v) pairs, mostly rational integers at 1 and at a conductor q + 1 in
    {14, 1010}, with now and then a root of unity there, a zero value, or a
    value at the other conductor above 1."""
    m = draw(st.sampled_from([14, 1010]))
    stray = 1010 if m == 14 else 14
    big = st.integers(-(10**20), 10**20)
    values = st.one_of(
        st.one_of(integers, big).map(CycNumber.from_int),
        st.one_of(integers, big).map(lambda n: CycNumber.from_int(n, m)),
        st.integers(0, m - 1).map(lambda k: root_of_unity(m, k)),
        st.sampled_from([CycNumber.zero(), CycNumber.zero(m), CycNumber.one(stray)]),
    )
    coeffs = st.one_of(st.sampled_from([0, 1, -1]), integers, big)
    return draw(st.lists(st.tuples(coeffs, values), max_size=6))


ROOT_242 = root_of_unity(1010, 402)  # one of the four powers of z1010 with 242 terms


class TestIntegerPath:
    """linear_combination, which sums rational integers as Python ints,
    against the one-accumulator version it replaced: the same conductor and
    terms, or the same exception with the same message."""

    @settings(max_examples=300, deadline=None)
    @given(terms=integer_path_terms())
    def test_matches_accumulator(self, terms):
        new, old = differential(lambda: terms)
        assert new == old
        assert differential(lambda: iter(terms)) == [new, old]

    @pytest.mark.parametrize(
        "make_terms",
        [
            lambda: [(3, CycNumber.from_int(2)), (-1, CycNumber.from_int(7))],
            lambda: [(-1, CycNumber.from_int(1, 14)), (-1, CycNumber.from_int(-1, 14))],
            lambda: [(2, CycNumber.from_int(-5, 1010)), (1, CycNumber.from_int(4)),
                     (-1, CycNumber.one(1010))],
            lambda: [(1, CycNumber.from_int(5, 14)), (-1, CycNumber.from_int(5))],
            lambda: [(10**30, CycNumber.from_int(10**30)), (-1, CycNumber.one())],
            lambda: [(-1, root_of_unity(14, 3)), (-1, root_of_unity(14, 11))],
            lambda: [(2, CycNumber.from_int(3)), (1, root_of_unity(14, 1))],
            lambda: [(1, root_of_unity(14, 1)), (2, CycNumber.from_int(3, 14))],
            lambda: [(-1, ROOT_242), (1, root_of_unity(1010, 1007)), (2, CycNumber.from_int(3))],
            lambda: [(1, ROOT_242), (-1, ROOT_242)],
            lambda: [(0, root_of_unity(14, 1)), (3, CycNumber.zero(14)), (2, CycNumber.from_int(5))],
            lambda: [(0, CycNumber.from_int(3)), (5, CycNumber.zero())],
            lambda: [(1, CycNumber.from_int(7)), (0, root_of_unity(1010, 1))],
            lambda: [(-1, CycNumber.from_int(7, 14))],
            lambda: ((c, CycNumber.from_int(c, 14)) for c in range(-3, 5)),
            lambda: ((c, root_of_unity(1010, c)) for c in (1, 402, 907)),
            lambda: [(1, CycNumber.from_int(1, 14)), (1, CycNumber.from_int(1, 1010))],
            lambda: [(1, CycNumber.from_int(2)), (0, CycNumber.zero(14)), (1, ROOT_242)],
            lambda: [(Fraction(1, 2), CycNumber.from_int(2))],
        ],
        ids=["integers", "constants-at-q+1", "constants-and-integers-at-1010",
             "cancelling-at-14", "big-integers", "roots-at-14", "integer-then-root",
             "root-then-constant", "242-terms", "242-terms-cancelling",
             "zero-coefficient-and-values", "all-zero", "lone-unit-moved", "lone-negated",
             "generator-of-constants", "generator-of-roots", "mismatch-constants",
             "mismatch-zero-then-root", "fraction-coefficient"],
    )
    def test_edge_cases(self, make_terms):
        new, old = differential(make_terms)
        assert new == old

    def test_two_conductors_above_one_raise(self):
        terms = [(1, CycNumber.from_int(3, 14)), (1, CycNumber.from_int(4, 1010))]
        for fn in (linear_combination, accumulator_linear_combination):
            with pytest.raises(ConductorMismatch):
                fn(terms)

    def test_lone_unit_constant_is_kept(self):
        seven = CycNumber.from_int(7, 14)
        assert linear_combination([(1, seven), (3, CycNumber.zero())]) is seven


@st.composite
def operands(draw):
    """Two values at a family's conductor or at 1, now and then the second
    at another conductor above 1, and an integer."""
    family = draw(st.sampled_from(FAMILIES))
    stray = draw(st.sampled_from(FAMILIES)) if draw(st.booleans()) else family
    zeros = st.sampled_from([CycNumber.zero(), CycNumber.zero(family), CycNumber.one()])
    a = draw(st.one_of(elements(family).map(lambda pair: pair[0]), zeros))
    b = draw(st.one_of(elements(stray).map(lambda pair: pair[0]), zeros))
    n = draw(st.one_of(st.sampled_from([0, 1, -1]), integers, st.integers(-(10**20), 10**20)))
    return a, b, n


OPERATORS = [
    ("a + b", lambda a, b, n: a + b, lambda a, b, n: ref_add(a, b)),
    ("a - b", lambda a, b, n: a - b, lambda a, b, n: ref_sub(a, b)),
    ("a + n", lambda a, b, n: a + n, lambda a, b, n: ref_add(a, n)),
    ("n + a", lambda a, b, n: n + a, lambda a, b, n: ref_add(a, n)),
    ("a - n", lambda a, b, n: a - n, lambda a, b, n: ref_sub(a, n)),
    ("n - a", lambda a, b, n: n - a, lambda a, b, n: ref_rsub(n, a)),
    ("-a", lambda a, b, n: -a, lambda a, b, n: ref_neg(a)),
    ("a.scale(n)", lambda a, b, n: a.scale(n), lambda a, b, n: ref_scale(a, n)),
    ("a * b", lambda a, b, n: a * b, lambda a, b, n: ref_mul(a, b)),
    ("a * n", lambda a, b, n: a * n, lambda a, b, n: ref_mul(a, n)),
    ("a == b", lambda a, b, n: a == b, lambda a, b, n: ref_eq(a, b)),
    ("a == n", lambda a, b, n: a == n, lambda a, b, n: ref_eq(a, n)),
]


class TestOperatorsAgainstPairAndCombine:
    """Each operator, now one linear_combination call or one _conductor check,
    against the _pair/_combine operators it replaced: the same conductor and
    terms, or the same ConductorMismatch with the same message."""

    @settings(max_examples=200, deadline=None)
    @given(args=operands())
    def test_matches_reference(self, args):
        for name, op, ref in OPERATORS:
            assert outcome(op, *args) == outcome(ref, *args), name

    @pytest.mark.parametrize(
        "a,b",
        [
            (root_of_unity(4, 1), root_of_unity(6, 1)),
            (CycNumber.zero(1010), root_of_unity(102, 3)),
            (root_of_unity(2, 1), CycNumber.zero(4)),
        ],
        ids=["roots", "zero-first", "dividing-conductors"],
    )
    def test_mismatch_messages(self, a, b):
        for op in (operator.add, operator.sub, operator.mul, operator.eq):
            with pytest.raises(ConductorMismatch) as exc:
                op(a, b)
            assert str(exc.value) == f"conductor {b.m} does not embed into {a.m}"


def reference_text(value):
    """CycNumber.__str__ as written before the one-loop version: a sign
    part and a term part per coefficient, the leading sign fixed at the end."""
    if value.is_zero:
        return "0"
    m, parts = value.m, []
    for i, c in value.num:
        parts.append(" - " if c < 0 else " + ")
        c = abs(c)
        if i == 0:
            parts.append(str(c))
        else:
            z = f"z{m}" if i == 1 else f"z{m}^{i}"
            parts.append(z if c == 1 else f"{c}*{z}")
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


@st.composite
def text_values(draw):
    """A CycNumber at conductor 1, 4, 12 or 1010 whose terms sit at index 0,
    1 and above, with coefficients +-1 and larger (the leading one often
    negative)."""
    m = draw(st.sampled_from([1, 4, 12, 1010]))
    n = euler_phi(m)
    indices = draw(st.sets(st.sampled_from(sorted({0, min(1, n - 1), n - 1})))) | draw(
        st.sets(st.integers(0, n - 1), max_size=8)
    )
    coeff = st.sampled_from([1, -1]) | st.integers(-(10**25), 10**25).filter(bool)
    terms = [(i, draw(coeff)) for i in sorted(indices)]
    if terms and draw(st.booleans()):
        terms[0] = (terms[0][0], -abs(terms[0][1]))
    return CycNumber(m, tuple(terms))


class TestText:
    """str(CycNumber) is the text of the csv, table and jsonl formats."""

    @settings(max_examples=300, deadline=None)
    @given(value=text_values())
    def test_matches_reference(self, value):
        assert str(value) == reference_text(value)

    @pytest.mark.parametrize(
        "m,terms,text",
        [
            (1, (), "0"),
            (1, ((0, -7),), "-7"),
            (4, ((1, -1),), "-z4"),
            (12, ((0, 3), (1, -1), (3, 2)), "3 - z12 + 2*z12^3"),
            (12, ((1, -5), (2, 1), (3, -1)), "-5*z12 + z12^2 - z12^3"),
            (1010, ((399, -12),), "-12*z1010^399"),
        ],
    )
    def test_examples(self, m, terms, text):
        value = CycNumber(m, terms)
        assert str(value) == text == reference_text(value)
