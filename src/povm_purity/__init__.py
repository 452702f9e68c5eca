"""Purity (extremality) analysis for finite-outcome quantum measurements.

The package decides whether a POVM is extremal in the convex set of
measurements with its outcome set, produces explicit convex splits when it is
not, builds minimal projective dilations, constructs and feasibility-checks
pre-processing channels between measurements, and carries one-sided purity
certificates for polynomial and trigonometric outcome families.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .channels import (
    ChoiMatrix,
    FeasibilityResult,
    KrausChannel,
    apply_dual,
    choi_dual_apply,
    choi_from_kraus,
    connection_feasible,
    kraus_channel,
    preprocess_from_pvm,
)
from .dilation import (
    NaimarkDilation,
    build_dilation,
    dilation_is_unitary,
    reconstruct,
)
from .errors import PovmError
from .extremality import (
    BlockHermitian,
    ConvexSplit,
    PerturbationMap,
    PurityVerdict,
    build_perturbation_map,
    convex_split,
    purity_verdict,
)
from .fixtures import FIXTURE_NAMES, fixture
from .linalg import (
    DEFAULT_TOL,
    EigenResult,
    Tolerance,
    herm_eig,
    is_psd,
    numeric_rank,
    project_psd,
)
from .phase import (
    FourierFamily,
    GramVectors,
    PhaseDemoReport,
    fourier_family,
    fourier_span_certificate,
    geometric_tail_family,
    phase_truncation_demo,
    single_mode_family,
    truncate_family,
)
from .polycert import (
    PolyFamily,
    PurityCertificate,
    orthonormal_family,
    product_span_certificate,
)
from .povm import (
    Povm,
    is_pvm,
    mix,
    povm_from_dict,
    povm_to_dict,
    support_dominates,
    validate,
)

__all__ = [
    "__version__",
    "PovmError",
    # linalg
    "Tolerance",
    "DEFAULT_TOL",
    "EigenResult",
    "herm_eig",
    "numeric_rank",
    "is_psd",
    "project_psd",
    # povm
    "Povm",
    "validate",
    "is_pvm",
    "mix",
    "support_dominates",
    "povm_to_dict",
    "povm_from_dict",
    # dilation
    "NaimarkDilation",
    "build_dilation",
    "reconstruct",
    "dilation_is_unitary",
    # extremality
    "BlockHermitian",
    "PerturbationMap",
    "PurityVerdict",
    "ConvexSplit",
    "build_perturbation_map",
    "purity_verdict",
    "convex_split",
    # channels
    "KrausChannel",
    "ChoiMatrix",
    "FeasibilityResult",
    "kraus_channel",
    "apply_dual",
    "preprocess_from_pvm",
    "choi_from_kraus",
    "choi_dual_apply",
    "connection_feasible",
    # polynomial / trigonometric certificates
    "PolyFamily",
    "PurityCertificate",
    "orthonormal_family",
    "product_span_certificate",
    "FourierFamily",
    "GramVectors",
    "PhaseDemoReport",
    "fourier_family",
    "single_mode_family",
    "geometric_tail_family",
    "truncate_family",
    "fourier_span_certificate",
    "phase_truncation_demo",
    # fixtures
    "FIXTURE_NAMES",
    "fixture",
]
