"""Exception types shared across the package.

Everything failure-related is loud and specific: a p-adic valuation
refuses to guess when precision runs out, and character
evaluation refuses to answer where no formula is available.
"""


class Sl2EndoError(Exception):
    """Base class for all package-specific errors."""


class ZeroInput(Sl2EndoError):
    """A quadratic-residue test received an argument divisible by p."""


class ConductorMismatch(Sl2EndoError):
    """Cyclotomic values at two different conductors above 1 were combined."""


class PrecisionExhausted(Sl2EndoError):
    """A valuation was needed of a residue that is 0 mod p^N, so undefined at precision."""


class NotNear(Sl2EndoError):
    """Operation requires an element near the identity."""


class NotFar(Sl2EndoError):
    """Operation requires an element far from the identity."""


class AntiNearUnsupported(Sl2EndoError):
    """No character formula is available on Z(G)-twists of near elements."""


class Undetermined(Sl2EndoError):
    """The requested combination is not pinned down by any trusted formula."""


class NonRegularLevel(Sl2EndoError):
    """A regular character level was required."""
