"""Exact verification of endoscopic character identities for SL(2) over Q_p.

The package evaluates the depth-zero supercuspidal characters of SL(2) on
its unramified elliptic torus in exact cyclotomic arithmetic, assembles
the Langlands-Shelstad transfer factor from first principles, and checks
(or, for one unreliable published variant, refutes) the endoscopic
character identities across sweeps of primes, character levels, and torus
elements.
"""

from .charformulas import PacketSpec
from .cyclotomic import CycNumber, root_of_unity
from .endoscopy import VerificationReport, verify_identity
from .localfield import FieldConfig
from .residue import CharacterLevel
from .torus import Classification, TorusElement, TorusVariant

__version__ = "0.1.0"

__all__ = [
    "CharacterLevel",
    "Classification",
    "CycNumber",
    "FieldConfig",
    "PacketSpec",
    "TorusElement",
    "TorusVariant",
    "VerificationReport",
    "root_of_unity",
    "verify_identity",
    "__version__",
]
