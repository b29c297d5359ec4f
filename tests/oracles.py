"""Reference helpers that several test modules share (not collected: no test_ prefix)."""

import operator
import random
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

from sl2endo.charformulas import (
    KOTTWITZ_SIGN_ANISOTROPIC,
    KOTTWITZ_SIGN_SPLIT,
    PacketSpec,
    _classify_supported,
    adss152_theta,
    mu_hat_orbital,
    psi0_on_residue_point,
    psi0_via_level,
    theta_nonregular_far,
    theta_nonregular_near_sums,
    theta_virtual,
)
from sl2endo import checks, endoscopy, localfield
from sl2endo.checks import _far
from sl2endo.cli import Emitter, SweepConfig, _packets
from sl2endo.cyclotomic import (
    CycNumber,
    _conductor,
    _reducer,
    euler_phi,
    linear_combination,
    prime_divisors,
)
from sl2endo.endoscopy import (
    FALSIFY_CHECKS,
    REPORT_FIELDS,
    VerificationReport,
    rhs_endoscopic,
)
from sl2endo.errors import NotNear, PrecisionExhausted, Undetermined, ZeroInput
from sl2endo.localfield import FieldConfig
from sl2endo.packets import KLEIN4, virtual_coeffs
from sl2endo.residue import CharacterLevel, NormOneGroup, norm_one_group, quadratic_level
from sl2endo.torus import Classification, TorusElement, cayley_inverse


# The residue-field square machinery as it was before the square-root
# table: Euler's criterion, the smallest nonresidue found by a loop over it,
# and the Tonelli-Shanks chain, kept verbatim as the reference for the table
# that legendre, FieldConfig.eps and hensel_sqrt now read.  sqrt_mod_p,
# sgn_pi and psi0 below call these copies, so no oracle shares the table.

def legendre(u: int, p: int) -> int:
    """Legendre symbol of u mod p, as +1 or -1.

    Raises ZeroInput when p divides u (the symbol would be 0; callers in
    this package always mean a unit).
    """
    if u % p == 0:
        raise ZeroInput(f"{u} is divisible by {p}")
    e = pow(u % p, (p - 1) // 2, p)
    return 1 if e == 1 else -1


@lru_cache(maxsize=None)
def smallest_nonresidue(p: int) -> int:
    u = 2
    while legendre(u, p) == 1:
        u += 1
    return u


def _tonelli_shanks(a: int, p: int) -> "int | None":
    """The smaller square root of the unit a (reduced mod p), or None for a nonresidue.

    Tonelli-Shanks with a deterministic nonresidue, so repeated runs agree.
    Writing p - 1 = 2^s * t with t odd, the chain starts from w = a^t, and
    w^(2^(s-1)) = a^((p-1)/2) is Euler's criterion: the one square test.
    """
    s = ((p - 1) & (1 - p)).bit_length() - 1
    t = (p - 1) >> s
    w = pow(a, t, p)
    if pow(w, 1 << (s - 1), p) != 1:
        return None
    r = pow(a, (t + 1) // 2, p)
    if w != 1:
        c, m = pow(smallest_nonresidue(p), t, p), s
        while w != 1:
            k, x = 0, w
            while x != 1:
                x = x * x % p
                k += 1
            b = pow(c, 1 << (m - k - 1), p)
            r = r * b % p
            c = b * b % p
            w = w * c % p
            m = k
    return min(r, p - r)


class NotASquare(Exception):
    """The reference square roots' answer for an element with no square root."""


# The rejection samplers below give up after this many draws, as src's did.
_SAMPLING_BUDGET = 256


class SamplingBudgetExceeded(Exception):
    """Rejection sampling did not find an admissible element within budget."""


# The norm-one group's construction as it was before it read the square-root
# table: the rational parametrization of the conic from (-1, 0), with one
# modular inverse per t, and a sort of the q + 1 points.  __init__ is kept
# verbatim as the reference for the table scan, but for its first line, which
# stores the p and eps that mul reads; mul, power and dlog are the group's own.

class ParametrizedNormOneGroup(NormOneGroup):
    def __init__(self, config: FieldConfig):
        self.p, self.eps = p, eps = config.p, config.eps
        pairs = [(p - 1, 0)]
        for t in range(p):
            et2 = eps * t * t
            inv = pow(1 - et2, -1, p)
            pairs.append(((1 + et2) * inv % p, 2 * t * inv % p))
        self.points: tuple[tuple[int, int], ...] = tuple(sorted(pairs))
        self.order = len(self.points)
        self.identity = (1, 0)
        cofactors = [self.order // r for r in prime_divisors(self.order)]
        self.generator = next(
            pt
            for pt in self.points
            if all(self.power(pt, e) != self.identity for e in cofactors)
        )
        self._dlog: dict[tuple[int, int], int] = {}
        pt = self.identity
        for e in range(self.order):
            self._dlog[pt] = e
            pt = self.mul(pt, self.generator)


# The p-adic integer as it was while the package wrapped every residue,
# kept verbatim (FieldConfig.padic, which its _coerce called, is padic
# below) as the reference for the functions that now compute on the plain
# residues, and the functions that took and returned it.

def padic(config: FieldConfig, value: int) -> "PadicNumber":
    return PadicNumber(value % config.modulus, config)


@dataclass(frozen=True)
class PadicNumber:
    """A residue mod p^N standing for an element of the ring of integers."""

    residue: int
    config: FieldConfig

    def __post_init__(self) -> None:
        if not 0 <= self.residue < self.config.modulus:
            object.__setattr__(self, "residue", self.residue % self.config.modulus)

    @property
    def is_zero_at_precision(self) -> bool:
        return self.residue == 0

    def valuation(self) -> int:
        if self.residue == 0:
            raise PrecisionExhausted(
                f"residue is 0 mod {self.config.p}^{self.config.N}"
            )
        v, r = 0, self.residue
        while r % self.config.p == 0:
            r //= self.config.p
            v += 1
        return v

    def _coerce(self, other: "PadicNumber | int") -> "PadicNumber":
        if isinstance(other, PadicNumber):
            if other.config != self.config:
                raise ValueError("mixed field configurations")
            return other
        return padic(self.config, other)

    def __add__(self, other: "PadicNumber | int") -> "PadicNumber":
        o = self._coerce(other)
        return PadicNumber((self.residue + o.residue) % self.config.modulus, self.config)

    __radd__ = __add__

    def __sub__(self, other: "PadicNumber | int") -> "PadicNumber":
        o = self._coerce(other)
        return PadicNumber((self.residue - o.residue) % self.config.modulus, self.config)

    def __rsub__(self, other: int) -> "PadicNumber":
        return self._coerce(other) - self

    def __mul__(self, other: "PadicNumber | int") -> "PadicNumber":
        o = self._coerce(other)
        return PadicNumber(self.residue * o.residue % self.config.modulus, self.config)

    __rmul__ = __mul__

    def __neg__(self) -> "PadicNumber":
        return PadicNumber(-self.residue % self.config.modulus, self.config)

    def __truediv__(self, other: "PadicNumber | int") -> "PadicNumber":
        o = self._coerce(other)
        if o.valuation() != 0:
            raise ValueError("division is only defined by units (valuation 0)")
        inv = pow(o.residue, -1, self.config.modulus)
        return PadicNumber(self.residue * inv % self.config.modulus, self.config)

    def __repr__(self) -> str:
        return f"PadicNumber({self.residue} mod {self.config.p}^{self.config.N})"


def sgn_eps(x: PadicNumber) -> int:
    """The unramified quadratic character: (-1)^{v(x)}."""
    return -1 if x.valuation() % 2 else 1


def sgn_pi(x: PadicNumber) -> int:
    """The quadratic character trivial exactly on norms from F(sqrt(pi))."""
    p = x.config.p
    n = x.valuation()
    value = legendre(x.residue // p**n, p)
    if n % 2:
        value *= legendre(p - 1, p)
    return value


def weyl_DG(a: PadicNumber) -> PadicNumber:
    """Weyl discriminant (trace)^2 - 4 of the torus element with first entry a."""
    two_a = a + a
    return two_a * two_a - 4


def weyl_D_lie(y: PadicNumber) -> PadicNumber:
    """Lie-algebra discriminant 4*eps*y^2."""
    return y * y * (4 * y.config.eps)


def cayley(y: PadicNumber) -> "tuple[PadicNumber, PadicNumber]":
    """Cayley transform (1 + X/2)/(1 - X/2): the avatar (a, b) of the image of y."""
    if y.valuation() < 1:
        raise ValueError("Cayley transform requires v(y) >= 1")
    quarter_eps_y2 = y * y * y.config.eps / 4
    denom = 1 - quarter_eps_y2
    return (1 + quarter_eps_y2) / denom, y / denom


def psi0(gamma: TorusElement) -> int:
    """The quadratic character of the norm-one torus, through sgn_pi(2(a+1))."""
    cfg = gamma.config
    a, b = padic(cfg, gamma.a), padic(cfg, gamma.b)
    if b.is_zero_at_precision:
        if a.residue == 1:
            return 1
        return -legendre(cfg.p - 1, cfg.p)
    if gamma.classification is Classification.NEAR:
        return 1
    return sgn_pi((a + 1) * 2)


# The psi0 check as it was while its brute force evaluated every level at
# every residue point, O(q^2) character values, kept verbatim as the
# reference for the check that reads each level at the generator.  Its psi0
# is the reference psi0 above.

def psi0_dual_route_and_uniqueness(config: FieldConfig, gammas) -> bool:
    """psi0 through sgn_pi equals psi0 through the quadratic level, on the far
    elements and on every residue point, and brute force over all levels
    finds that level as the only character of order two."""
    if not all(psi0(g) == psi0_via_level(g) for g in _far(gammas)):
        return False
    group = norm_one_group(config)
    quadratic = quadratic_level(config)
    if not all(
        psi0_on_residue_point(config, pt) == group.character_value(quadratic, pt).as_int()
        for pt in group.points
    ):
        return False
    one = CycNumber.one()
    order_two = []
    for k in range(config.q + 1):
        values = [
            group.character_value(CharacterLevel(k, config.q + 1), pt)
            for pt in group.points
        ]
        if all(v * v == one for v in values) and any(v != one for v in values):
            order_two.append(k)
    return order_two == [quadratic.k]


def shift_down(x: PadicNumber, k: int = 1) -> PadicNumber:
    """Exact division of x by p^k; x must have valuation >= k.

    The top k digits of the result are not determined by x, so only
    valuation-level facts about it (such as its sgn_eps) may be read.
    """
    if x.valuation() < k:
        raise ValueError(f"cannot divide by p^{k}: valuation too small")
    return PadicNumber(x.residue // x.config.p**k, x.config)


# The sampler as it was while a rejected draw raised: sqrt_mod_p, hensel_sqrt
# on PadicNumber (NotASquare or PrecisionExhausted for "no root") and
# sample_regular catching both, kept verbatim as the reference of the
# integer sampler's tests.

def sqrt_mod_p(a: int, p: int) -> int:
    """Canonical square root of a unit square mod p: the smaller of the two roots.

    Tonelli-Shanks with a deterministic nonresidue, so repeated runs agree.
    """
    a %= p
    if legendre(a, p) == -1:
        raise NotASquare(f"{a} is not a square mod {p}")
    # write p - 1 = 2^s * t with t odd
    t, s = p - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    z = pow(smallest_nonresidue(p), t, p)
    r = pow(a, (t + 1) // 2, p)
    c, w, m = z, pow(a, t, p), s
    while w != 1:
        k, x = 0, w
        while x != 1:
            x = x * x % p
            k += 1
        b = pow(c, 1 << (m - k - 1), p)
        r = r * b % p
        c = b * b % p
        w = w * c % p
        m = k
    return min(r, p - r)


def hensel_sqrt(x: PadicNumber) -> PadicNumber:
    """A square root of x mod p^N, found by lifting the canonical root mod p.

    Requires even valuation and a square unit part; the second root is the
    negative of the returned one.  Deterministic: the lift starts from the
    smaller square root of the unit part mod p.
    """
    cfg = x.config
    p = cfg.p
    v = x.valuation()
    if v % 2:
        raise NotASquare(f"odd valuation {v}")
    u = x.residue // p**v
    try:
        s = sqrt_mod_p(u, p)  # the one Euler test of the unit part
    except NotASquare:
        raise NotASquare(f"unit part {u % p} is a nonresidue mod {p}") from None
    # Newton lift: s <- (s + u/s)/2, doubling the exact precision each pass;
    # (mod + 1) // 2 is 1/2 mod the odd modulus.
    k = 1
    while k < cfg.N:
        k = min(2 * k, cfg.N)
        mod = p**k
        s = (s + u * pow(s, -1, mod)) * ((mod + 1) // 2) % mod
    return padic(cfg, p ** (v // 2) * s)


def sample_regular(
    config: FieldConfig,
    classification: Classification,
    v_target: int,
    seed: "int | str | random.Random",
) -> TorusElement:
    """Draw a pseudo-random regular element of the requested class.

    b is p^{v_target} times a random unit; a is the Hensel square root of
    1 + eps*b^2 with its sign forced by the class (random for far, where
    the sign carries no information).  Near/anti-near draws always
    succeed; far draws are accepted only when 1 + eps*b^2 is a square,
    which happens for a positive fraction of units that can drop to ~1/8
    at p = 3, hence the generous retry budget.
    """
    if classification is Classification.FAR:
        if v_target != 0:
            raise ValueError("far elements have v(b) = 0")
    else:
        if v_target < 1:
            raise ValueError("near elements need v(b) >= 1")
    if v_target >= config.N - 2:
        raise ValueError(f"v_target={v_target} leaves too little precision (N={config.N})")

    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    p, eps, modulus = config.p, config.eps, config.modulus
    shift, high = p**v_target, p ** (config.N - v_target - 1)
    for _ in range(_SAMPLING_BUDGET):
        # unit by construction: nonzero low digit plus arbitrary higher digits
        u = rng.randrange(1, p) + p * rng.randrange(high)
        b = shift * u % modulus
        try:
            a = hensel_sqrt(PadicNumber((eps * b * b + 1) % modulus, config)).residue
        except (NotASquare, PrecisionExhausted):
            continue
        if classification is Classification.NEAR:
            if a % p != 1:
                a = -a % modulus
        elif classification is Classification.ANTI_NEAR:
            if a % p != p - 1:
                a = -a % modulus
        elif rng.getrandbits(1):
            a = -a % modulus
        gamma = TorusElement(config, a, b)
        if gamma.classification is classification:
            return gamma
    raise SamplingBudgetExceeded(
        f"no {classification.value} element with v(b)={v_target} in {_SAMPLING_BUDGET} draws"
    )


# The integer sampler as it was while it drew both digits of the unit through
# randrange, kept verbatim but for its root, which it takes from the package's
# hensel_sqrt (localfield.hensel_sqrt, beside the PadicNumber one above), as
# the reference of the sampler that draws them from getrandbits by
# randrange's rule.

def randrange_sample_regular(
    config: FieldConfig,
    classification: Classification,
    v_target: int,
    seed: "int | str | random.Random",
) -> TorusElement:
    """Draw a pseudo-random regular element of the requested class.

    b is p^{v_target} times a random unit; a is the Hensel square root of
    1 + eps*b^2 with its sign forced by the class (random for far, where
    the sign carries no information).  Near/anti-near draws always
    succeed; far draws are accepted only when 1 + eps*b^2 is a square,
    which happens for a positive fraction of units that can drop to ~1/8
    at p = 3, hence the generous retry budget.  A rejected draw raises
    nothing: hensel_sqrt answers None and the next draw follows.
    """
    if classification is Classification.FAR:
        if v_target != 0:
            raise ValueError("far elements have v(b) = 0")
    else:
        if v_target < 1:
            raise ValueError("near elements need v(b) >= 1")
    if v_target >= config.N - 2:
        raise ValueError(f"v_target={v_target} leaves too little precision (N={config.N})")

    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    p, eps, modulus = config.p, config.eps, config.modulus
    shift, high = p**v_target, p ** (config.N - v_target - 1)
    for _ in range(_SAMPLING_BUDGET):
        # unit by construction: nonzero low digit plus arbitrary higher digits
        u = rng.randrange(1, p) + p * rng.randrange(high)
        b = shift * u % modulus
        a = localfield.hensel_sqrt(eps * b * b + 1, config)
        if a is None:
            continue
        # for v(b) >= 1 hensel_sqrt lifts the smaller root of 1, so a = 1 mod p:
        # near draws keep a, anti-near draws negate it, far draws flip a coin
        if classification is Classification.ANTI_NEAR or (
            classification is Classification.FAR and rng.getrandbits(1)
        ):
            a = -a % modulus
        gamma = TorusElement(config, a, b)
        if gamma.classification is classification:
            return gamma
    raise SamplingBudgetExceeded(
        f"no {classification.value} element with v(b)={v_target} in {_SAMPLING_BUDGET} draws"
    )


# The integer sampler as it was while it drew both digits of the unit from
# getrandbits by randrange's rule, before each draw read one keyed blake2b
# digest, kept verbatim but for its root, which it takes from the package's
# hensel_sqrt (localfield.hensel_sqrt), as the reference of the pinned streams
# that it wrote (tests/test_cli.py) and of the older samplers above.

def getrandbits_sample_regular(
    config: FieldConfig,
    classification: Classification,
    v_target: int,
    seed: "int | str | random.Random",
) -> TorusElement:
    """Draw a pseudo-random regular element of the requested class.

    b is p^{v_target} times a random unit; a is the Hensel square root of
    1 + eps*b^2 with its sign forced by the class (random for far, where
    the sign carries no information).  Near/anti-near draws always
    succeed; far draws are accepted only when 1 + eps*b^2 is a square,
    which happens for a positive fraction of units that can drop to ~1/8
    at p = 3, hence the generous retry budget.  A rejected draw raises
    nothing: hensel_sqrt answers None and the next draw follows.  The unit's
    digits are the draws of randrange(1, p) and randrange(p^(N-v-1)), taken
    from getrandbits by randrange's rule on CPython 3.10-3.13.
    """
    if classification is Classification.FAR:
        if v_target != 0:
            raise ValueError("far elements have v(b) = 0")
    else:
        if v_target < 1:
            raise ValueError("near elements need v(b) >= 1")
    if v_target >= config.N - 2:
        raise ValueError(f"v_target={v_target} leaves too little precision (N={config.N})")

    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    getrandbits = rng.getrandbits
    p, eps, modulus = config.p, config.eps, config.modulus
    shift, high = p**v_target, p ** (config.N - v_target - 1)
    low_bits, high_bits = (p - 1).bit_length(), high.bit_length()
    for _ in range(_SAMPLING_BUDGET):
        # unit by construction: nonzero low digit plus arbitrary higher digits;
        # each digit below n is bit_length(n) bits, redrawn while >= n
        low = getrandbits(low_bits)
        while low >= p - 1:
            low = getrandbits(low_bits)
        rest = getrandbits(high_bits)
        while rest >= high:
            rest = getrandbits(high_bits)
        b = shift * (1 + low + p * rest) % modulus
        a = localfield.hensel_sqrt(eps * b * b + 1, config)
        if a is None:
            continue
        # for v(b) >= 1 hensel_sqrt lifts the smaller root of 1, so a = 1 mod p:
        # near draws keep a, anti-near draws negate it, far draws flip a coin
        if classification is Classification.ANTI_NEAR or (
            classification is Classification.FAR and getrandbits(1)
        ):
            a = -a % modulus
        gamma = TorusElement(config, a, b)
        if gamma.classification is classification:
            return gamma
    raise SamplingBudgetExceeded(
        f"no {classification.value} element with v(b)={v_target} in {_SAMPLING_BUDGET} draws"
    )


# The report constructor and the two report builders as they were while
# reports were built with an unevaluated verdict and then filled in, and
# verify_identity settled the precision and anti-near skips from the
# classification string before it called any formula, kept verbatim as the
# reference for the one-constructor rewrite.

def _report(
    packet: PacketSpec,
    s: str,
    config: FieldConfig,
    drawn: "TorusElement | Classification",
    verdict: str = "skipped(unevaluated)",
) -> VerificationReport:
    """The one constructor of reports, with lhs and rhs unset.

    drawn is the sampled element, or the class of a draw that exceeded its
    sampling budget: then there is no element, so a, b and v(b) are null.
    An element whose class precision cannot settle is classed "unknown".
    """
    a = b = vb = None
    if isinstance(drawn, Classification):
        cls_name = drawn.value
    else:
        a, b = drawn.a, drawn.b
        try:
            vb, cls_name = drawn.valuation_b, drawn.classification.value
        except PrecisionExhausted:
            cls_name = "unknown"
    return VerificationReport(
        config.p, config.N, config.eps, packet.kind, packet.level.k, s,
        a, b, vb, cls_name, None, None, verdict,
    )


def _decide(report: VerificationReport, lhs: CycNumber, rhs: CycNumber) -> VerificationReport:
    """Set both sides of report and its verdict: equal iff they agree exactly."""
    report.lhs, report.rhs = lhs, rhs
    report.verdict = "equal" if lhs == rhs else "unequal"
    return report


def verify_identity(packet: PacketSpec, s: str, gamma: TorusElement) -> VerificationReport:
    """Check the endoscopic character identity at gamma, exactly.

    The left-hand side is the virtual character assembled from the trusted
    member formulas; the right-hand side is the two-term transfer sum.
    For the four-member packet with s the trivial element, the comparison
    is instead against the inner-form stable value (the doubled inner-form
    character with its Kottwitz sign), the only trusted route to that side.
    Anti-near elements, precision failures, and combinations the engine
    cannot determine yield skipped reports rather than guesses.
    """
    report = _report(packet, s, gamma.config, gamma)
    if report.classification == "unknown":
        report.verdict = "skipped(precision exhausted)"
        return report
    if report.classification == Classification.ANTI_NEAR.value:
        report.verdict = "skipped(anti-near: no character formula)"
        return report

    try:
        report.lhs = theta_virtual(packet, s, gamma)
    except Undetermined:
        report.verdict = "skipped(undetermined near-identity combination)"
        return report

    if s == "s1":
        rhs = rhs_endoscopic(packet, gamma)
    elif s == "1" and packet.kind == "nonregular":
        rhs = inner_form_side(gamma)
    else:
        report.verdict = f"skipped(no endoscopic comparison for s={s})"
        return report
    return _decide(report, report.lhs, rhs)


def falsify_adss152(
    packet: PacketSpec, gamma: TorusElement
) -> tuple[VerificationReport, VerificationReport]:
    """Exhibit the clash between the ADSS-15.2 values and the trusted routes.

    packet is the four-member packet at gamma's configuration, as in
    verify_identity; a regular packet raises ValueError.  Report one
    compares the s1 virtual character assembled from the 15.2 member values
    (identically zero) with the endoscopic right-hand side (-2f, never zero
    near the identity).  Report two compares the 15.2 member sum theta_1 +
    theta_2 (identically -1) with the orbital-integral route (-1 - f).  Both
    are unequal for every near regular element.
    """
    if packet.kind != "nonregular":
        raise ValueError("the ADSS-15.2 values concern the four-member packet")
    if gamma.classification is not Classification.NEAR:
        raise NotNear("the disputed values concern the near-identity regime")
    cfg = gamma.config

    thetas = adss152_theta(gamma)
    lhs1 = linear_combination(zip(virtual_coeffs(KLEIN4, "s1"), thetas))
    report1 = _decide(
        _report(packet, FALSIFY_CHECKS[0], cfg, gamma), lhs1, rhs_endoscopic(packet, gamma)
    )

    lhs2 = thetas[0] + thetas[1]
    rhs2 = mu_hat_orbital(cayley_inverse(gamma))
    report2 = _decide(_report(packet, FALSIFY_CHECKS[1], cfg, gamma), lhs2, rhs2)
    return (report1, report2)


# The stable comparison as it was while it had two implementations:
# inner_form_side applied only the anisotropic Kottwitz sign (verify_identity
# above compares with it), and kottwitz_stable, which the property battery
# called, applied the split sign to the stable sum.  Kept verbatim, with
# theta5's near branch, as the reference for the one signed comparison;
# psi0 here is the reference psi0 above.

def theta5(gamma: TorusElement) -> CycNumber:
    """Character of the inner-form member at the transfer of gamma.

    Equals psi0(gamma); in particular 1 near the identity since the
    character has depth zero.
    """
    cls = _classify_supported(gamma)
    if cls is Classification.NEAR:
        return CycNumber.one()
    return CycNumber.from_int(psi0(gamma))


def inner_form_side(gamma: TorusElement) -> CycNumber:
    """The anisotropic side of the inner-form comparison: the Kottwitz-signed
    doubled inner-form character."""
    return theta5(gamma).scale(2 * KOTTWITZ_SIGN_ANISOTROPIC)


def kottwitz_stable(gamma: TorusElement) -> tuple[CycNumber, CycNumber]:
    """Both sides of the inner-form stability comparison, computed independently.

    The split side is the Kottwitz-signed stable sum of the four-member
    packet; the anisotropic side is the Kottwitz-signed doubled inner-form
    character.  The contract is that they agree.
    """
    packet = PacketSpec.nonregular(gamma.config)
    split_side = theta_virtual(packet, "1", gamma).scale(KOTTWITZ_SIGN_SPLIT)
    return (split_side, inner_form_side(gamma))


def inner_form_stability(config: FieldConfig, gammas) -> bool:
    """The Kottwitz-signed stable characters of the two inner forms agree, and
    the doubled inner-form character is minus the four-member sum."""
    for g in gammas:
        side0, side1 = kottwitz_stable(g)
        if side0 != side1:
            return False
        far = g.classification is Classification.FAR
        members = theta_nonregular_far(g) if far else theta_nonregular_near_sums(g)
        if theta5(g).scale(2) != -sum(members, CycNumber.zero()):
            return False
    return True


# The report record as it was while VerificationReport.to_record built the
# dense dict itself through CycNumber.coefficient_strings, kept verbatim (as
# functions of the value and of the report) as the reference for the line
# that to_json writes and for the parsed line that to_record now returns.

def coefficient_strings(self) -> list[str]:
    """All phi(m) power-basis coefficients as report strings ("3", "-1", "0", ...)."""
    dense = ["0"] * euler_phi(self.m)
    for i, c in self.num:
        dense[i] = str(c)
    return dense


def to_record(self) -> dict:
    """JSON-ready dict with exactly the report schema's fields, in order."""
    record = {name: getattr(self, name) for name in REPORT_FIELDS}
    for side in ("lhs", "rhs"):
        value = record[side]
        if value is not None:
            record[side] = {
                "conductor": value.m,
                "coeffs": coefficient_strings(value),
                "text": str(value),
            }
    return record


def cold_memo(monkeypatch, budget=None):
    """Empty endoscopy's process-wide memo of rendered values for one test
    (and set its byte budget); monkeypatch restores the memo afterwards."""
    monkeypatch.setattr(endoscopy, "_memo", {})
    monkeypatch.setattr(endoscopy, "_memo_bytes", 0)
    if budget is not None:
        monkeypatch.setattr(endoscopy, "_MEMO_BUDGET", budget)


# The renderer of a report value as it was before the memo in front of it,
# kept verbatim as the reference for endoscopy._json_value cold and warm.

_ZERO = '"0", '


def _json_value(value: "CycNumber | None") -> str:
    """json.dumps of a side of the report record: null, or the record dict
    {"coeffs": [...], "conductor": m, "text": "..."} in one pass over the
    nonzero terms, with one repeated '"0", ' string per run of zero
    coefficients.  Coefficients and the text hold only digits, signs, "z",
    "^", "*" and spaces, so they need no escaping."""
    if value is None:
        return "null"
    parts, start = [], 0
    for i, c in value.num:
        parts.append(f'{_ZERO * (i - start)}"{c}", ')
        start = i + 1
    parts.append(_ZERO * (euler_phi(value.m) - start))
    coeffs = "".join(parts)[:-2]  # phi(m) >= 1 items, each followed by ", "
    return f'{{"coeffs": [{coeffs}], "conductor": {value.m}, "text": "{value}"}}'


# The three draw loops as they were before the one element source
# (cli._draws), kept verbatim with their schedule as the reference for it,
# less the records of a draw over the sampling budget, which went with the
# budget: verify and falsify drew one element per string key, and the
# property battery drew from one shared generator.  They read this module's
# names, so sample_regular, verify_identity and falsify_adss152 are the
# reference copies above until a test puts cli's (or an injected sampler) in
# their place.

def _sample_plan(
    samples: int, sample_class: str, near_vals
) -> Iterator[tuple[Classification, int]]:
    """The deterministic (class, v(b)) schedule of every sweep's draws, yielded one
    at a time: draw i is near under "near", and under "both" when i is odd; near
    draws cycle through near_vals."""
    near_i = 0
    for i in range(samples):
        if sample_class == "near" or (sample_class == "both" and i % 2 == 1):
            yield Classification.NEAR, near_vals[near_i % len(near_vals)]
            near_i += 1
        else:
            yield Classification.FAR, 0


def run_verify(sweep: SweepConfig, out, err) -> int:
    emitter = Emitter(sweep.fmt, out)
    verdicts = Counter()
    near_vals = sweep.near_valuations
    for p in sweep.primes:
        config = FieldConfig(p, sweep.precision)
        for packet in _packets(p, sweep.precision, sweep.packet, sweep.level):
            plan = _sample_plan(sweep.samples, sweep.sample_class, near_vals)
            for i, (cls, v) in enumerate(plan):
                key = (
                    f"{sweep.seed}|{p}|{packet.kind}|{packet.level.k}"
                    f"|{sweep.s}|{cls.value}|{v}|{i}"
                )
                gamma = sample_regular(config, cls, v, seed=key)
                report = verify_identity(packet, sweep.s, gamma)
                emitter.emit(report)
                verdicts[report.verdict] += 1
    emitter.close()
    n_equal = verdicts["equal"]
    n_skipped = sum(n for verdict, n in verdicts.items() if verdict.startswith("skipped"))
    n_unequal = verdicts.total() - n_equal - n_skipped
    if n_skipped:
        err.write(f"warning: {n_skipped} check(s) skipped\n")
    err.write(f"verify: {n_equal} equal, {n_unequal} unequal, {n_skipped} skipped\n")
    return 0 if n_unequal == 0 else 1


def run_falsify(sweep: SweepConfig, out, err) -> int:
    emitter = Emitter(sweep.fmt, out)
    verdicts = Counter()
    near_vals = sweep.near_valuations
    for p in sweep.primes:
        config = FieldConfig(p, sweep.precision)
        packet = PacketSpec.nonregular(config)
        for i, (cls, v) in enumerate(_sample_plan(sweep.samples, "near", near_vals)):
            key = f"{sweep.seed}|{p}|falsify|{v}|{i}"
            gamma = sample_regular(config, cls, v, seed=key)
            for report in falsify_adss152(packet, gamma):
                emitter.emit(report)
                verdicts[report.verdict] += 1
    emitter.close()
    n_total = verdicts.total()
    n_unexpected = n_total - verdicts["unequal"]
    err.write(
        f"falsify: {n_total} checks, {n_total - n_unexpected} unequal as expected,"
        f" {n_unexpected} unexpectedly equal\n"
    )
    return 0 if n_unexpected == 0 else 1


def _property_battery(config: FieldConfig, sweep: SweepConfig) -> list[tuple[str, bool, str]]:
    """Per-prime algebraic identity checks; each entry is (name, ok, detail)."""
    rng = random.Random(f"{sweep.seed}|{config.p}|properties")
    near_vals = range(1, min(3, (config.N - 1) // 2) + 1)  # v(D_G) = 2v < N
    plan = _sample_plan(max(10, sweep.samples), "both", near_vals)
    gammas = [sample_regular(config, cls, v, rng) for cls, v in plan]
    return [
        (name, check(config, gammas), detail(gammas))
        for name, check, detail in checks.PROPERTIES
    ]


# linear_combination as it was while every operand list went through the one
# dict accumulator, before rational integers were summed as Python ints, kept
# verbatim as the reference for the integer path and for the merge of sorted
# terms that replaced the accumulator.

def accumulator_linear_combination(terms) -> CycNumber:
    """sum of c*v over the (integer c, CycNumber v) pairs of terms, in one pass.

    The result sits at the common conductor above 1 of the operands (zero
    ones included), else at 1, and two different conductors above 1 raise
    ConductorMismatch (_conductor).  A zero coefficient or value adds
    nothing, and a lone surviving term with coefficient 1 keeps its terms.
    """
    m, live = 1, []
    for c, v in terms:
        c = operator.index(c)
        if v.m != m:
            m = _conductor(m, v.m)
        if c and v.num:
            live.append((c, v))
    if len(live) == 1 and live[0][0] == 1:
        v = live[0][1]
        return v if v.m == m else CycNumber(m, v.num)
    acc = {}
    get = acc.get
    for c, v in live:
        for i, x in v.num:
            acc[i] = get(i, 0) + c * x
    return CycNumber(m, tuple(sorted([t for t in acc.items() if t[1]])))


# The primality test as it was while it ran its own loop over odd divisors,
# before it read cyclotomic.prime_divisors, kept verbatim as the reference
# for localfield.is_odd_prime.

def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# The root table's reduction as it was while every exponent was reduced as a
# monomial, x^k walked down from k to deg Phi_m, before even conductors used
# x^{m/2} = -1; kept verbatim (the table's name aside, and uncached) as the
# reference for cyclotomic.root_of_unity.

def _reduce(c: list[int], m: int) -> tuple[tuple[int, int], ...]:
    """Remainder of c (ascending, reduced in place) modulo the monic Phi_m,
    as its nonzero (index, coefficient) pairs."""
    deg, terms = _reducer(m)
    for i in range(len(c) - 1, deg - 1, -1):
        top = c[i]
        if top:
            for offset, pj in terms:
                c[i + offset] -= top * pj
    return tuple((i, c[i]) for i in compress(range(deg), c))


def monomial_root(m: int, k: int) -> CycNumber:
    """The class of x^k, for 0 <= k < m."""
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    return CycNumber(m, _reduce(coeffs, m))
