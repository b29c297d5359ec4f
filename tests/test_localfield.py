"""Tests for p-adic integers as residues mod p^N and the quadratic sign characters."""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2endo.errors import PrecisionExhausted, ZeroInput
from sl2endo.localfield import (
    PRIME_BOUND,
    FieldConfig,
    _square_roots,
    cached_fact,
    hensel_sqrt,
    is_odd_prime,
    legendre,
    sgn_eps,
    sgn_pi,
    valuation,
)
from sl2endo.residue import _groups, norm_one_group

import oracles
from oracles import NotASquare, padic

PRIMES = [3, 5, 7, 11, 13]


class TestCachedFact:
    """cached_fact computes a value on first read and keeps it in the
    instance, a frozen dataclass's too; an exception keeps nothing."""

    @dataclass(frozen=True)
    class Holder:
        x: int
        calls: list

        @cached_fact
        def double(self):
            """twice x, or PrecisionExhausted at 0"""
            self.calls.append(self.x)
            if not self.x:
                raise PrecisionExhausted("x = 0")
            return 2 * self.x

    def test_computed_once(self):
        holder = self.Holder(3, [])
        assert holder.double == 6 and holder.double == 6
        assert holder.calls == [3] and vars(holder)["double"] == 6
        assert self.Holder.double.__doc__ == "twice x, or PrecisionExhausted at 0"

    def test_an_exception_raised_every_read(self):
        holder = self.Holder(0, [])
        for _ in range(2):
            with pytest.raises(PrecisionExhausted):
                holder.double
        assert holder.calls == [0, 0] and "double" not in vars(holder)

    def test_config_facts(self):
        cfg = FieldConfig(7, 5)
        assert (cfg.eps, cfg.modulus) == (3, 7**5)
        assert vars(cfg)["eps"] == 3 and vars(cfg)["modulus"] == 7**5
        assert cfg == FieldConfig(7, 5) and hash(cfg) == hash(FieldConfig(7, 5))


def brute_force_squares(p):
    return {i * i % p for i in range(1, p)}


class TestFieldConfig:
    def test_default_eps_is_smallest_nonresidue(self):
        assert FieldConfig(3).eps == 2
        assert FieldConfig(7).eps == 3
        assert FieldConfig(5).eps == 2

    def test_rejects_non_prime_and_even(self):
        with pytest.raises(ValueError):
            FieldConfig(9)
        with pytest.raises(ValueError):
            FieldConfig(2)

    def test_rejects_primes_from_the_bound_on(self):
        # 1048583 is the first prime above 2^20 and 1048573 the last below it;
        # the bound is checked before the trial-division primality test, which
        # would not finish on 10^20 + 39
        with pytest.raises(ValueError, match=r"^p must be below 2\^20 = 1048576, got 1048583$"):
            FieldConfig(1048583)
        with pytest.raises(ValueError, match=r"below 2\^20"):
            FieldConfig(10**20 + 39)
        assert FieldConfig(1048573).p == 1048573

    def test_rejects_low_precision(self):
        with pytest.raises(ValueError):
            FieldConfig(5, 3)

    def test_q_equals_p_and_pi_equals_p(self):
        cfg = FieldConfig(11, 5)
        assert cfg.q == 11 and cfg.pi == 11 and cfg.modulus == 11**5


class TestValuation:
    def test_unit(self):
        assert valuation(10, FieldConfig(3, 6)) == 0

    def test_eighteen(self):
        assert valuation(18, FieldConfig(3, 6)) == 2

    def test_zero_residue_raises(self):
        cfg = FieldConfig(5, 6)
        with pytest.raises(PrecisionExhausted, match=r"^residue is 0 mod 5\^6$"):
            valuation(0, cfg)
        with pytest.raises(PrecisionExhausted):
            valuation(cfg.modulus, cfg)  # read as its residue, 0

    def test_valuation_below_precision(self):
        cfg = FieldConfig(3, 5)
        for k in range(5):
            assert valuation(2 * 3**k, cfg) == k


class TestLegendre:
    @pytest.mark.parametrize("p", PRIMES + [7, 17, 19])
    def test_against_brute_force(self, p):
        squares = brute_force_squares(p)
        for u in range(1, p):
            assert legendre(u, p) == (1 if u in squares else -1)

    def test_spec_values_mod_7(self):
        assert legendre(1, 7) == 1
        assert legendre(3, 7) == -1
        assert legendre(2, 7) == 1  # 3^2 = 2 mod 7

    def test_zero_raises(self):
        with pytest.raises(ZeroInput):
            legendre(14, 7)

    @pytest.mark.parametrize("p", PRIMES)
    def test_smallest_nonresidue(self, p):
        nr = FieldConfig(p).eps
        squares = brute_force_squares(p)
        assert nr not in squares
        assert all(u in squares for u in range(1, nr))


class TestSgnEps:
    def test_unit_value(self):
        cfg = FieldConfig(5)
        assert sgn_eps(7, cfg) == 1

    def test_uniformizer(self):
        cfg = FieldConfig(5)
        assert sgn_eps(5, cfg) == -1

    def test_even_valuation(self):
        cfg = FieldConfig(5)
        assert sgn_eps(25 * 3, cfg) == 1

    @pytest.mark.parametrize("p", PRIMES)
    def test_multiplicative_and_trivial_on_squares(self, p):
        cfg = FieldConfig(p)
        rng = random.Random(f"sgn-eps-{p}")
        for _ in range(200):
            x = rng.randrange(1, cfg.modulus)
            y = rng.randrange(1, cfg.modulus)
            if x * y % cfg.modulus == 0:
                continue
            assert sgn_eps(x * y, cfg) == sgn_eps(x, cfg) * sgn_eps(y, cfg)
            if x * x % cfg.modulus != 0:
                assert sgn_eps(x * x, cfg) == 1


class TestSgnPi:
    def test_spec_values(self):
        cfg = FieldConfig(3)
        assert sgn_pi(8, cfg) == -1   # unit 8 = 2 mod 3, a nonresidue
        assert sgn_pi(-3, cfg) == 1   # -pi is a norm from F(sqrt(pi))
        assert sgn_pi(1, cfg) == 1

    @pytest.mark.parametrize("p", PRIMES)
    def test_norm_oracle(self, p):
        # sgn_pi must be trivial on norms a^2 - pi*b^2 from the ramified extension
        cfg = FieldConfig(p)
        rng = random.Random(f"norm-{p}")
        checked = 0
        while checked < 1000:
            a = rng.randrange(cfg.modulus)
            b = rng.randrange(cfg.modulus)
            x = (a * a - p * b * b) % cfg.modulus
            if x == 0:
                continue
            assert sgn_pi(x, cfg) == 1
            checked += 1

    @pytest.mark.parametrize("p", PRIMES)
    def test_constant_minus_one_on_non_norm_classes(self, p):
        # representatives 1, eps, p, eps*p of the four square classes: the norms
        # 1 and -p have sign 1, and exactly the other two classes have sign -1
        cfg = FieldConfig(p)
        assert sgn_pi(1, cfg) == 1 and sgn_pi(-p, cfg) == 1
        reps = (1, cfg.eps, p, cfg.eps * p)
        # -p lies in the class of p when -1 is a square mod p, else in that of eps*p
        minus_p_rep = p if legendre(p - 1, p) == 1 else cfg.eps * p
        signs = {rep: sgn_pi(rep, cfg) for rep in reps}
        assert signs == {rep: 1 if rep in (1, minus_p_rep) else -1 for rep in reps}
        assert list(signs.values()).count(-1) == 2

    @pytest.mark.parametrize("p", PRIMES)
    def test_multiplicative(self, p):
        cfg = FieldConfig(p)
        rng = random.Random(f"sgn-pi-mult-{p}")
        for _ in range(200):
            x = rng.randrange(1, cfg.modulus)
            y = rng.randrange(1, cfg.modulus)
            if x * y % cfg.modulus == 0:
                continue
            assert sgn_pi(x * y, cfg) == sgn_pi(x, cfg) * sgn_pi(y, cfg)


class TestHenselSqrt:
    def test_spec_example_mod_27(self):
        # computed at full precision, the root is determined mod 27 already
        cfg = FieldConfig(3, 6)
        a = hensel_sqrt(19, cfg)
        assert a % 27 == 10
        assert a * a % cfg.modulus == 19

    def test_one(self):
        assert hensel_sqrt(1, FieldConfig(7)) == 1

    def test_nonresidue_rejected(self):
        assert hensel_sqrt(2, FieldConfig(5)) is None  # squares mod 5 are {1, 4}

    def test_odd_valuation_rejected(self):
        assert hensel_sqrt(5, FieldConfig(5)) is None

    def test_zero_rejected(self):
        cfg = FieldConfig(5)
        assert hensel_sqrt(0, cfg) is None
        assert hensel_sqrt(cfg.modulus, cfg) is None  # read as its residue, 0

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from(PRIMES),
        seed=st.integers(min_value=0, max_value=10**6),
        shift=st.integers(min_value=0, max_value=2),
    )
    def test_square_roundtrip(self, p, seed, shift):
        cfg = FieldConfig(p)
        rng = random.Random(seed)
        u = rng.randrange(1, cfg.modulus)
        x = u * u * p ** (2 * shift) % cfg.modulus
        if x == 0:
            return
        a = hensel_sqrt(x, cfg)
        assert 0 <= a < cfg.modulus and a * a % cfg.modulus == x

    def test_even_valuation_square(self):
        cfg = FieldConfig(3, 8)
        x = 9 * 7  # v = 2, unit part 7 = 1 mod 3 is a square
        a = hensel_sqrt(x, cfg)
        assert a * a % cfg.modulus == x
        assert valuation(a, cfg) == 1


def reference_hensel_sqrt(x):
    """hensel_sqrt as it was before its single Euler test: a Legendre test of
    the unit part, then sqrt_mod_p (which tests again), then Newton steps
    with 1/2 from pow(2, -1, mod).  It takes and returns a PadicNumber and
    raises NotASquare or PrecisionExhausted where there is no root; its
    sqrt_mod_p is the verbatim one in oracles, so it shares no code with
    hensel_sqrt (its legendre is the oracle's Euler test too)."""
    cfg = x.config
    v = x.valuation()
    if v % 2:
        raise NotASquare(f"odd valuation {v}")
    u = x.residue // cfg.p**v
    if oracles.legendre(u % cfg.p, cfg.p) == -1:
        raise NotASquare(f"unit part {u % cfg.p} is a nonresidue mod {cfg.p}")
    s = oracles.sqrt_mod_p(u % cfg.p, cfg.p)
    k = 1
    while k < cfg.N:
        k = min(2 * k, cfg.N)
        mod = cfg.p**k
        s = (s + u * pow(s, -1, mod)) * pow(2, -1, mod) % mod
    return padic(cfg, cfg.p ** (v // 2) * s)


def reference_root(r, cfg):
    """The reference's root of the residue r, or None where it raises."""
    try:
        return reference_hensel_sqrt(padic(cfg, r)).residue
    except (NotASquare, PrecisionExhausted):
        return None


class TestHenselSqrtAgainstReference:
    @pytest.mark.parametrize("p", PRIMES)
    def test_every_nonzero_residue_mod_p4(self, p):
        cfg = FieldConfig(p, 4)
        for r in range(1, cfg.modulus):
            assert hensel_sqrt(r, cfg) == reference_root(r, cfg), r

    @pytest.mark.parametrize("p, N", [(3, 6), (5, 5)])
    def test_every_residue(self, p, N):
        # residues of even valuation >= 2 are where far draws at p = 3 land
        cfg = FieldConfig(p, N)
        for r in range(cfg.modulus):
            assert hensel_sqrt(r, cfg) == reference_root(r, cfg), r

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from(PRIMES), data=st.data())
    def test_random_residues_mod_p8(self, p, data):
        cfg = FieldConfig(p, 8)
        r = data.draw(st.integers(min_value=1, max_value=cfg.modulus - 1))
        assert hensel_sqrt(r, cfg) == reference_root(r, cfg)

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from([7681, 65537, 1048573]), square=st.booleans(), data=st.data())
    def test_long_two_power_chains(self, p, square, data):
        # p - 1 = 2^s * t with s = 9, 16 and 2: the reference's Tonelli-Shanks
        # loop runs long at the first two, while hensel_sqrt reads its root from
        # the table (built once per prime, 4 MiB at 1048573)
        cfg = FieldConfig(p, 8)
        r = data.draw(st.integers(min_value=1, max_value=cfg.modulus - 1))
        if square:
            r = r * r % cfg.modulus
        assert hensel_sqrt(r, cfg) == reference_root(r, cfg)


def test_smallest_nonresidue_is_eps_and_cached():
    # the norm-one group, eps, legendre and hensel_sqrt read one table per
    # prime, built on first use; the group, built first, is the one that builds it
    _square_roots.cache_clear()
    _groups.cache_clear()
    for p in PRIMES:
        cfg = FieldConfig(p)
        assert norm_one_group(cfg).order == p + 1
        assert cfg.eps == oracles.smallest_nonresidue(p)
        assert legendre(cfg.eps, p) == -1
        assert hensel_sqrt(1, cfg) == 1
    info = _square_roots.cache_info()
    assert info.misses == info.currsize == len(PRIMES)
    assert info.hits == 3 * len(PRIMES)


def reference_sqrt_mod_p(a, p):
    """The reference square root of the unit a, or None where it raises NotASquare."""
    try:
        return oracles.sqrt_mod_p(a, p)
    except NotASquare:
        return None


def test_sqrt_mod_p_rejects_zero_and_nonresidues():
    # the table holds 0 exactly at 0 and the nonresidues
    for p in filter(is_odd_prime, range(3, 200)):
        squares = brute_force_squares(p)
        roots = _square_roots(p)
        assert roots[0] == 0
        for a in range(1, p):
            assert (roots[a] == 0) == (a not in squares), (a, p)


def test_sqrt_mod_p_is_the_smaller_root():
    # primes of both classes mod 4, against the reference square root on every unit
    for p in filter(is_odd_prime, range(3, 200)):
        roots = _square_roots(p)
        for a in range(1, p):
            r = roots[a] or None
            assert r == reference_sqrt_mod_p(a, p), (a, p)
            assert r is None or (r * r % p == a and r <= p - r), (a, p)


SMALL_ODD_PRIMES = list(filter(is_odd_prime, range(3, 2000)))


class TestSquareRootTable:
    """The table against the parent's Euler test, smallest nonresidue and
    Tonelli-Shanks chain, kept verbatim in oracles."""

    def test_every_unit_below_2000(self):
        for p in SMALL_ODD_PRIMES:
            roots = _square_roots(p)
            for u in range(1, p):
                assert (roots[u] or None) == oracles._tonelli_shanks(u, p), (u, p)
                assert legendre(u, p) == oracles.legendre(u, p), (u, p)

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from([7681, 65537, 1048573]), data=st.data())
    def test_long_two_power_chains(self, p, data):
        u = data.draw(st.integers(min_value=1, max_value=p - 1))
        assert (_square_roots(p)[u] or None) == oracles._tonelli_shanks(u, p)
        assert legendre(u, p) == oracles.legendre(u, p)

    def test_eps_is_the_smallest_nonresidue_below_10_4(self):
        try:
            for p in filter(is_odd_prime, range(3, 10**4)):
                assert FieldConfig(p).eps == oracles.smallest_nonresidue(p), p
        finally:
            _square_roots.cache_clear()  # about 23 MB of tables

    def test_size_at_the_bound(self):
        # 4 bytes per residue; a list of ints would take about 30 MB here
        p = 1048573
        roots = _square_roots(p)
        assert roots.typecode == "i" and len(roots) == p
        assert roots.itemsize * len(roots) <= 4 << 20


def test_is_odd_prime():
    assert [n for n in range(2, 20) if is_odd_prime(n)] == [3, 5, 7, 11, 13, 17, 19]


def test_is_odd_prime_answers_as_the_divisor_loop():
    # every small n, the top of the admissible range, the largest admissible
    # prime and products of two primes near 1009 (a divisor found only at sqrt(n))
    top = range(PRIME_BOUND - 2000, PRIME_BOUND)
    for n in [*range(-5, 20_000), *top, 1_048_573, 1009 * 1013, 1019 * 1021, 1021**2]:
        assert is_odd_prime(n) == oracles.is_odd_prime(n), n
    assert is_odd_prime(1_048_573) and not is_odd_prime(1021**2)

