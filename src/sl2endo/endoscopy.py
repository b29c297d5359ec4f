"""Transfer factors, the endoscopic right-hand side, and the identity verifier.

The endoscopic group for both packet shapes is the norm-one unramified
torus itself, attached to the diagonal order-2 element of the component
group; only the transported character differs (a regular level for the
two-member packet, the quadratic level for the four-member one), and it
is the packet's own level.

The transfer factor is assembled from its constituents (the local epsilon
factor of the unramified quadratic character, the kappa term, and the
inverted Weyl-discriminant norm) rather than from the closed form -f, and
the right-hand side of the identity is always the literal two-term sum
over related elements.  Every check is exact cyclotomic equality.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from ._values import Value
from .charformulas import (
    PacketSpec,
    adss152_theta,
    inner_form_side,
    mu_hat_orbital,
    theta_virtual,
)
from .cyclotomic import CycNumber, euler_phi, linear_combination
from .errors import AntiNearUnsupported, NotNear, PrecisionExhausted, Undetermined
from .localfield import FieldConfig, field_config, sgn_eps
from .packets import KLEIN4, virtual_coeffs
from .residue import norm_one_group
from .torus import Classification, TorusElement, cayley_inverse, invert

# The s field of the two falsify reports of one near element.
FALSIFY_CHECKS = ("s1", "theta1+theta2")


@lru_cache(maxsize=None)
def epsilon_factor(p: int) -> int:
    """Local epsilon factor of the unramified quadratic character at p, always -1.

    Computed as the inverse of that character's value at the uniformizer
    (a level-one additive character is understood), once per prime: it does
    not depend on the precision N.
    """
    config = field_config(p, FieldConfig.N)
    return sgn_eps(config.pi, config)  # of order <= 2, the character is its own inverse


def kappa_term(gamma: TorusElement) -> int:
    """The kappa constituent: the unramified character at (c - cbar)/(2*sqrt(eps)) = b,
    that is sgn_eps(b) = (-1)^{v(b)}."""
    return -1 if gamma.valuation_b % 2 else 1


def related_elements(gamma: TorusElement) -> tuple[TorusElement, TorusElement]:
    """The two transfers of gamma under the two admissible isomorphisms."""
    return (gamma, invert(gamma))


def transfer_factor(gamma: TorusElement) -> int:
    """The normalized transfer factor at (delta, gamma), constituent by constituent.

    epsilon factor times kappa term times the inverted discriminant norm
    q^{v(b)}; the same for both related elements, since they share v(b).
    """
    cfg = gamma.config
    return epsilon_factor(cfg.p) * kappa_term(gamma) * cfg.q ** gamma.valuation_b


def rhs_endoscopic(packet: PacketSpec, gamma: TorusElement) -> CycNumber:
    """The literal two-term sum over related elements of factor times character.

    The transported stable character is evaluated at the packet's level
    through the residue dlog route, independently of the member formulas on
    the left-hand side: each related element is reduced into the norm-one
    group of gamma's prime, looked up once per check, and read there.
    """
    if gamma.classification is Classification.ANTI_NEAR:
        raise AntiNearUnsupported("right-hand side undefined on anti-near elements")
    factor, group = transfer_factor(gamma), norm_one_group(gamma.config)
    return linear_combination(
        (factor, group.character_value(packet.level, group.reduce(delta)))
        for delta in related_elements(gamma)
    )


class VerificationReport(Value):
    """Structured outcome of one identity check (exact values throughout)."""

    _fields = ("p", "N", "eps", "packet", "level", "s", "a", "b", "valuation_b",
               "classification", "lhs", "rhs", "verdict")

    def __init__(self, p: int, N: int, eps: int, packet: str, level: int, s: str, a: int,
                 b: int, valuation_b: "int | None", classification: str,
                 lhs: "CycNumber | None", rhs: "CycNumber | None", verdict: str) -> None:
        self.p = p
        self.N = N
        self.eps = eps
        self.packet = packet
        self.level = level
        self.s = s
        self.a = a
        self.b = b
        self.valuation_b = valuation_b
        self.classification = classification
        self.lhs = lhs
        self.rhs = rhs
        self.verdict = verdict

    def to_record(self) -> dict:
        """The jsonl line of this report parsed, with its keys in schema order."""
        record = json.loads(self.to_json())
        return {name: record[name] for name in REPORT_FIELDS}

    def to_json(self) -> str:
        """The jsonl line of this report: json.dumps(record, sort_keys=True) of its
        13 fields, each side as _json_value writes it, in one pass from the
        sparse values, a value that both sides share rendered once."""
        lhs, rhs = self.lhs, self.rhs
        lhs_json = _json_value(lhs)
        if rhs is not None and lhs is not None and rhs.m == lhs.m and rhs.num == lhs.num:
            rhs_json = lhs_json
        else:
            rhs_json = _json_value(rhs)
        vb = self.valuation_b
        return (
            f'{{"N": {self.N}, "a": {self.a}, "b": {self.b},'
            f' "classification": {encode_basestring_ascii(self.classification)},'
            f' "eps": {self.eps}, "level": {self.level}, "lhs": {lhs_json}, "p": {self.p},'
            f' "packet": {encode_basestring_ascii(self.packet)}, "rhs": {rhs_json},'
            f' "s": {encode_basestring_ascii(self.s)},'
            f' "valuation_b": {"null" if vb is None else vb},'
            f' "verdict": {encode_basestring_ascii(self.verdict)}}}'
        )


# The report schema: the fields of VerificationReport, in declaration order.
REPORT_FIELDS = VerificationReport._fields

_ZERO = '"0", '

# The renderings _json_value has written, by (conductor, terms): a value
# already written is reused.  The memo is filled until it holds _MEMO_BUDGET
# bytes and then stops growing; nothing is evicted.  A rendering is dense in
# phi(m), so it is bounded by bytes, not by entries: 2 MiB holds every
# distinct value of a p <= 13 sweep (about 10 KB) and of a level sweep at
# p = 1009 (its 510 far and near values, about 1.7 MiB), while
# adding at most 8 % to the 26 MiB that a p = 1009 sweep peaks at.  It is
# less than the one 2.6 MB rendering at conductor 1,048,574, which is
# therefore written but never kept.
_MEMO_BUDGET = 2 << 20
# Bytes a key's term costs: a pair tuple and two int objects.
_TERM_BYTES = sys.getsizeof((0, 0)) + 2 * sys.getsizeof(1 << 30)
_memo: dict[tuple[int, tuple], str] = {}
_memo_bytes = 0


def _json_value(value: "CycNumber | None") -> str:
    """json.dumps of a side of the report record, through the memo."""
    global _memo_bytes
    if value is None:
        return "null"
    key = (value.m, value.num)
    text = _memo.get(key)
    if text is None:
        text = _render(value)
        held = sys.getsizeof(text) + sys.getsizeof(value.num) + len(value.num) * _TERM_BYTES
        if _memo_bytes + held <= _MEMO_BUDGET:
            _memo[key] = text
            _memo_bytes += held
    return text


def _render(value: CycNumber) -> str:
    """The record dict {"coeffs": [...], "conductor": m, "text": "..."} of a
    value as json.dumps writes it, in one pass over the nonzero terms, with
    one repeated '"0", ' string per run of zero coefficients.  Coefficients
    and the text hold only digits, signs, "z", "^", "*" and spaces, so they
    need no escaping."""
    parts, start = [], 0
    for i, c in value.num:
        parts.append(f'{_ZERO * (i - start)}"{c}", ')
        start = i + 1
    parts.append(_ZERO * (euler_phi(value.m) - start))
    coeffs = "".join(parts)[:-2]  # phi(m) >= 1 items, each followed by ", "
    return f'{{"coeffs": [{coeffs}], "conductor": {value.m}, "text": "{value}"}}'


# The verdict of a check whose left-hand side has no trusted value, by the
# exception theta_virtual raises: an element whose class precision cannot
# settle, a central twist of a near element, and a near-identity
# combination that the member sums do not pin down.
SKIP_VERDICTS = {
    PrecisionExhausted: "skipped(precision exhausted)",
    AntiNearUnsupported: "skipped(anti-near: no character formula)",
    Undetermined: "skipped(undetermined near-identity combination)",
}


def _report(
    packet: PacketSpec,
    s: str,
    gamma: TorusElement,
    verdict: str,
    lhs: "CycNumber | None" = None,
    rhs: "CycNumber | None" = None,
) -> VerificationReport:
    """The one constructor of reports, each built complete.

    An element whose class precision cannot settle is classed "unknown".
    """
    config, vb = gamma.config, None
    try:
        vb, cls_name = gamma.valuation_b, gamma.classification.value
    except PrecisionExhausted:
        cls_name = "unknown"
    return VerificationReport(
        config.p, config.N, config.eps, packet.kind, packet.level.k, s,
        gamma.a, gamma.b, vb, cls_name, lhs, rhs, verdict,
    )


def _compared(
    packet: PacketSpec, s: str, gamma: TorusElement, lhs: CycNumber, rhs: CycNumber
) -> VerificationReport:
    """The report of a check that compared both sides: equal iff they agree exactly."""
    verdict = "equal" if lhs == rhs else "unequal"
    return _report(packet, s, gamma, verdict, lhs, rhs)


def verify_identity(packet: PacketSpec, s: str, gamma: TorusElement) -> VerificationReport:
    """Check the endoscopic character identity at gamma, exactly.

    The left-hand side is the virtual character assembled from the trusted
    member formulas; the right-hand side is the two-term transfer sum.
    For the four-member packet with s the trivial element, the comparison
    is instead against ``inner_form_side`` (the doubled inner-form
    character with both Kottwitz signs): the value that stability across
    the two inner forms gives the split group's stable character, and the
    only trusted route to that side.
    Where the member formulas give no value they raise, and the exception
    names the skip verdict (SKIP_VERDICTS) rather than a guess; an exception
    from the right-hand side propagates.  An s with no trusted comparison
    (s2, s3, or 1 for the two-member packet) is skipped with the left-hand
    side kept and a null right-hand side.
    """
    try:
        lhs = theta_virtual(packet, s, gamma)
    except tuple(SKIP_VERDICTS) as exc:
        return _report(packet, s, gamma, SKIP_VERDICTS[type(exc)])
    if s == "s1":
        rhs = rhs_endoscopic(packet, gamma)
    elif s == "1" and packet.level.is_quadratic:
        rhs = inner_form_side(gamma)
    else:
        verdict = f"skipped(no endoscopic comparison for s={s})"
        return _report(packet, s, gamma, verdict, lhs)
    return _compared(packet, s, gamma, lhs, rhs)


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
    if not packet.level.is_quadratic:
        raise ValueError("the ADSS-15.2 values concern the four-member packet")
    if gamma.classification is not Classification.NEAR:
        raise NotNear("the disputed values concern the near-identity regime")
    thetas = adss152_theta(gamma)
    lhs1 = linear_combination(zip(virtual_coeffs(KLEIN4, "s1"), thetas))
    report1 = _compared(packet, FALSIFY_CHECKS[0], gamma, lhs1, rhs_endoscopic(packet, gamma))
    lhs2 = thetas[0] + thetas[1]
    rhs2 = mu_hat_orbital(cayley_inverse(gamma))
    report2 = _compared(packet, FALSIFY_CHECKS[1], gamma, lhs2, rhs2)
    return (report1, report2)
