"""Reference helpers that several test modules share (not collected: no test_ prefix)."""

from sl2endo.localfield import PadicNumber


def shift_down(x: PadicNumber, k: int = 1) -> PadicNumber:
    """Exact division of x by p^k; x must have valuation >= k.

    The top k digits of the result are not determined by x, so only
    valuation-level facts about it (such as its sgn_eps) may be read.
    """
    if x.valuation() < k:
        raise ValueError(f"cannot divide by p^{k}: valuation too small")
    return PadicNumber(x.residue // x.config.p**k, x.config)
