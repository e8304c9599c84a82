"""Maximum (k,l)-sum-free sets in finite abelian groups.

Closed-form values and bounds, explicit certificate-carrying witness
constructions, and an exhaustive-search oracle that verifies the formulas
at desk scale.  Every name in the __all__ of abelian, formulas, oracle,
sumset and witness is importable from the package.
"""

from .abelian import *
from .formulas import *
from .oracle import *
from .sumset import *
from .witness import *

__version__ = "0.1.0"
