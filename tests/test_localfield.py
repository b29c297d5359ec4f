"""Tests for truncated p-adic arithmetic and the quadratic sign characters."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2endo.errors import NotASquare, PrecisionExhausted, ZeroInput
from sl2endo.localfield import (
    FieldConfig,
    hensel_sqrt,
    is_odd_prime,
    legendre,
    sgn_eps,
    sgn_pi,
    smallest_nonresidue,
    sqrt_mod_p,
)

import oracles

PRIMES = [3, 5, 7, 11, 13]


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
        assert FieldConfig(3, 6).padic(10).valuation() == 0

    def test_eighteen(self):
        assert FieldConfig(3, 6).padic(18).valuation() == 2

    def test_zero_residue_raises(self):
        with pytest.raises(PrecisionExhausted):
            FieldConfig(5, 6).padic(0).valuation()

    def test_valuation_below_precision(self):
        cfg = FieldConfig(3, 5)
        for k in range(5):
            x = cfg.padic(2 * 3**k)
            assert x.valuation() == k


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
        nr = smallest_nonresidue(p)
        squares = brute_force_squares(p)
        assert nr not in squares
        assert all(u in squares for u in range(1, nr))


class TestSgnEps:
    def test_unit_value(self):
        cfg = FieldConfig(5)
        assert sgn_eps(cfg.padic(7)) == 1

    def test_uniformizer(self):
        cfg = FieldConfig(5)
        assert sgn_eps(cfg.padic(5)) == -1

    def test_even_valuation(self):
        cfg = FieldConfig(5)
        assert sgn_eps(cfg.padic(25 * 3)) == 1

    @pytest.mark.parametrize("p", PRIMES)
    def test_multiplicative_and_trivial_on_squares(self, p):
        cfg = FieldConfig(p)
        rng = random.Random(f"sgn-eps-{p}")
        for _ in range(200):
            x = cfg.padic(rng.randrange(1, cfg.modulus))
            y = cfg.padic(rng.randrange(1, cfg.modulus))
            if x.residue == 0 or y.residue == 0 or (x * y).residue == 0:
                continue
            assert sgn_eps(x * y) == sgn_eps(x) * sgn_eps(y)
            if (x * x).residue != 0:
                assert sgn_eps(x * x) == 1


class TestSgnPi:
    def test_spec_values(self):
        cfg = FieldConfig(3)
        assert sgn_pi(cfg.padic(8)) == -1   # unit 8 = 2 mod 3, a nonresidue
        assert sgn_pi(cfg.padic(-3)) == 1   # -pi is a norm from F(sqrt(pi))
        assert sgn_pi(cfg.padic(1)) == 1

    @pytest.mark.parametrize("p", PRIMES)
    def test_norm_oracle(self, p):
        # sgn_pi must be trivial on norms a^2 - pi*b^2 from the ramified extension
        cfg = FieldConfig(p)
        rng = random.Random(f"norm-{p}")
        checked = 0
        while checked < 1000:
            a = rng.randrange(cfg.modulus)
            b = rng.randrange(cfg.modulus)
            x = cfg.padic(a * a - p * b * b)
            if x.residue == 0:
                continue
            assert sgn_pi(x) == 1
            checked += 1

    @pytest.mark.parametrize("p", PRIMES)
    def test_constant_minus_one_on_non_norm_classes(self, p):
        # representatives 1, eps, p, eps*p of the four square classes: the norms
        # 1 and -p have sign 1, and exactly the other two classes have sign -1
        cfg = FieldConfig(p)
        assert sgn_pi(cfg.padic(1)) == 1 and sgn_pi(cfg.padic(-p)) == 1
        reps = (1, cfg.eps, p, cfg.eps * p)
        # -p lies in the class of p when -1 is a square mod p, else in that of eps*p
        minus_p_rep = p if legendre(p - 1, p) == 1 else cfg.eps * p
        signs = {rep: sgn_pi(cfg.padic(rep)) for rep in reps}
        assert signs == {rep: 1 if rep in (1, minus_p_rep) else -1 for rep in reps}
        assert list(signs.values()).count(-1) == 2

    @pytest.mark.parametrize("p", PRIMES)
    def test_multiplicative(self, p):
        cfg = FieldConfig(p)
        rng = random.Random(f"sgn-pi-mult-{p}")
        for _ in range(200):
            x = cfg.padic(rng.randrange(1, cfg.modulus))
            y = cfg.padic(rng.randrange(1, cfg.modulus))
            if x.residue == 0 or y.residue == 0 or (x * y).residue == 0:
                continue
            assert sgn_pi(x * y) == sgn_pi(x) * sgn_pi(y)


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
        assert cfg.padic(a).valuation() == 1


def reference_hensel_sqrt(x):
    """hensel_sqrt as it was before its single Euler test: a Legendre test of
    the unit part, then sqrt_mod_p (which tests again), then Newton steps
    with 1/2 from pow(2, -1, mod).  It takes and returns a PadicNumber and
    raises NotASquare or PrecisionExhausted where there is no root; its
    sqrt_mod_p is the verbatim one in oracles, so it shares no code with
    hensel_sqrt."""
    cfg = x.config
    v = x.valuation()
    if v % 2:
        raise NotASquare(f"odd valuation {v}")
    u = x.residue // cfg.p**v
    if legendre(u % cfg.p, cfg.p) == -1:
        raise NotASquare(f"unit part {u % cfg.p} is a nonresidue mod {cfg.p}")
    s = oracles.sqrt_mod_p(u % cfg.p, cfg.p)
    k = 1
    while k < cfg.N:
        k = min(2 * k, cfg.N)
        mod = cfg.p**k
        s = (s + u * pow(s, -1, mod)) * pow(2, -1, mod) % mod
    return cfg.padic(cfg.p ** (v // 2) * s)


def reference_root(r, cfg):
    """The reference's root of the residue r, or None where it raises."""
    try:
        return reference_hensel_sqrt(cfg.padic(r)).residue
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
        # p - 1 = 2^s * t with s = 9, 16 and 2: the Tonelli-Shanks loop runs
        cfg = FieldConfig(p, 8)
        r = data.draw(st.integers(min_value=1, max_value=cfg.modulus - 1))
        if square:
            r = r * r % cfg.modulus
        assert hensel_sqrt(r, cfg) == reference_root(r, cfg)


def test_smallest_nonresidue_is_eps_and_cached():
    for p in PRIMES:
        assert smallest_nonresidue(p) == FieldConfig(p).eps
    hits = smallest_nonresidue.cache_info().hits
    smallest_nonresidue(13)
    assert smallest_nonresidue.cache_info().hits == hits + 1


def test_sqrt_mod_p_rejects_zero_and_nonresidues():
    with pytest.raises(ZeroInput, match="^0 is divisible by 7$"):
        sqrt_mod_p(14, 7)
    with pytest.raises(NotASquare, match="^3 is not a square mod 7$"):
        sqrt_mod_p(10, 7)


def test_sqrt_mod_p_is_the_smaller_root():
    # primes of both classes mod 4: Tonelli-Shanks with and without its loop
    for p in filter(is_odd_prime, range(3, 200)):
        for a in brute_force_squares(p):
            r = sqrt_mod_p(a, p)
            assert r * r % p == a and r <= p - r, (a, p)


def test_is_odd_prime():
    assert [n for n in range(2, 20) if is_odd_prime(n)] == [3, 5, 7, 11, 13, 17, 19]


def test_padic_arithmetic_basics():
    cfg = FieldConfig(5, 6)
    x, y = cfg.padic(7), cfg.padic(12)
    assert (x + y).residue == 19
    assert (x - y) == cfg.padic(-5)
    assert (x * y).residue == 84
    assert (y / x) * x == y
    with pytest.raises(ValueError):
        cfg.padic(1) / cfg.padic(5)  # non-unit divisor
    assert (cfg.padic(1) / x) * x == cfg.padic(1)  # x^-1 through division
