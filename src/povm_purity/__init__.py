"""Purity (extremality) analysis for finite-outcome quantum measurements.

The package decides whether a POVM is extremal in the convex set of
measurements with its outcome set, produces explicit convex splits when it is
not, builds minimal projective dilations, constructs and feasibility-checks
pre-processing channels between measurements, and carries one-sided purity
certificates for polynomial and trigonometric outcome families.

Each module's ``__all__`` is its public surface; the package re-exports them
all, so every public name is declared once, in its own module.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import channels, dilation, extremality, fixtures, linalg, phase, polycert, povm
from .channels import *  # noqa: F403
from .dilation import *  # noqa: F403
from .errors import PovmError
from .extremality import *  # noqa: F403
from .fixtures import *  # noqa: F403
from .linalg import *  # noqa: F403
from .phase import *  # noqa: F403
from .polycert import *  # noqa: F403
from .povm import *  # noqa: F403

__all__ = [
    "__version__",
    "PovmError",
    *linalg.__all__,
    *povm.__all__,
    *dilation.__all__,
    *extremality.__all__,
    *channels.__all__,
    *polycert.__all__,
    *phase.__all__,
    *fixtures.__all__,
]
