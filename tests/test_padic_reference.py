"""The functions on integer residues against the PadicNumber versions they replaced.

valuation, sgn_eps, sgn_pi, weyl_DG, weyl_D_lie, cayley and psi0 once took
and returned the PadicNumber wrapper; oracles keeps that wrapper verbatim
and the bodies that used it.  Each function here must give the same value,
or raise the same exception with the same message, on every residue mod p^4
for p in {3, 5} (every norm-one element mod p^4 for the torus functions),
and on hypothesis draws mod p^8 for p <= 13.  The norm check of TorusElement
is compared with the same reference in test_torus.TestNormCheckAgainstReference.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2endo.charformulas import psi0
from sl2endo.localfield import FieldConfig, hensel_sqrt, sgn_eps, sgn_pi, valuation
from sl2endo.torus import (
    LieElement,
    TorusElement,
    TorusVariant,
    cayley,
    weyl_D_lie,
    weyl_DG,
)

import oracles
from oracles import padic

PRIMES = [3, 5, 7, 11, 13]


def outcome(fn, *args):
    """fn(*args), or the class and message of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def avatar(gamma):
    return gamma.a, gamma.b, gamma.variant


def check_residue(cfg, r):
    """Every one-argument function at the residue r, against the reference."""
    x = padic(cfg, r)
    assert outcome(valuation, r, cfg) == outcome(x.valuation), r
    assert outcome(sgn_eps, r, cfg) == outcome(oracles.sgn_eps, x), r
    assert outcome(sgn_pi, r, cfg) == outcome(oracles.sgn_pi, x), r
    assert weyl_D_lie(LieElement(cfg, r)) == oracles.weyl_D_lie(x).residue, r
    reference = outcome(oracles.cayley, x)
    for variant in TorusVariant:
        expected = reference
        if isinstance(reference[0], oracles.PadicNumber):
            expected = (reference[0].residue, reference[1].residue, variant)
        assert outcome(lambda: avatar(cayley(LieElement(cfg, r, variant)))) == expected, r


def check_element(gamma):
    """Every torus-element function at gamma, against the reference."""
    assert weyl_DG(gamma) == oracles.weyl_DG(padic(gamma.config, gamma.a)).residue, gamma
    assert outcome(psi0, gamma) == outcome(oracles.psi0, gamma), gamma


def norm_one_elements(cfg):
    """Every (a, b) with a^2 - eps*b^2 = 1 mod p^N, as torus elements."""
    m = cfg.modulus
    roots = defaultdict(list)
    for a in range(m):
        roots[a * a % m].append(a)
    return [
        TorusElement(cfg, a, b)
        for b in range(m)
        for a in roots[(1 + cfg.eps * b * b) % m]
    ]


class TestEveryResidueModP4:
    @pytest.mark.parametrize("p", [3, 5])
    def test_residue_functions(self, p):
        cfg = FieldConfig(p, 4)
        for r in range(cfg.modulus):
            check_residue(cfg, r)

    @pytest.mark.parametrize("p", [3, 5])
    def test_torus_functions(self, p):
        cfg = FieldConfig(p, 4)
        gammas = norm_one_elements(cfg)
        assert len(gammas) == (p + 1) * p**3  # the order of the norm-one group mod p^4
        for gamma in gammas:
            check_element(gamma)

    def test_precision_message(self):
        # the one PrecisionExhausted message, word for word
        cfg = FieldConfig(3, 4)
        assert outcome(valuation, 81, cfg) == outcome(padic(cfg, 0).valuation)
        assert outcome(valuation, 0, cfg)[1] == "residue is 0 mod 3^4"


class TestRandomResiduesModP8:
    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from(PRIMES), data=st.data())
    def test_residue_functions(self, p, data):
        cfg = FieldConfig(p, 8)
        k = data.draw(st.integers(min_value=0, max_value=cfg.N))
        u = data.draw(st.integers(min_value=0, max_value=cfg.modulus - 1))
        check_residue(cfg, p**k * u % cfg.modulus)

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from(PRIMES), data=st.data())
    def test_torus_functions(self, p, data):
        cfg = FieldConfig(p, 8)
        k = data.draw(st.integers(min_value=0, max_value=cfg.N))
        u = data.draw(st.integers(min_value=0, max_value=cfg.modulus - 1))
        b = p**k * u % cfg.modulus
        a = hensel_sqrt(1 + cfg.eps * b * b, cfg)
        if a is None:
            return
        if data.draw(st.booleans()):
            a = -a % cfg.modulus
        check_element(TorusElement(cfg, a, b))
