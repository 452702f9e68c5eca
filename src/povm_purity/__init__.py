"""Purity (extremality) analysis for finite-outcome quantum measurements.

The package decides whether a POVM is extremal in the convex set of
measurements with its outcome set, produces explicit convex splits when it is
not, builds minimal projective dilations, constructs and feasibility-checks
pre-processing channels between measurements, and carries one-sided purity
certificates for polynomial and trigonometric outcome families.

Each module's ``__all__`` is its public surface; the package re-exports them
all, so every public name is declared once, in its own module.  Nothing is
imported with the package: a submodule loads on first access (PEP 562), so
``python -m povm_purity`` pays only for the modules its subcommand runs.
The first re-exported name asked for, or a listing of them (``__all__``,
``dir``), imports the eight exporting modules, whose ``__all__`` lists say
which module owns each name; so does asking for a name that does not exist.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# the modules whose __all__ the package re-exports, in this order
_EXPORTING = ("linalg", "povm", "dilation", "extremality", "channels", "polycert", "phase", "fixtures")
_SUBMODULES = frozenset(_EXPORTING + ("bases", "cli", "errors", "rand", "wire"))
_owners: dict[str, str] = {}


def _owner_of() -> dict[str, str]:
    """Each re-exported name -> the submodule that declares it, in ``__all__`` order."""
    if not _owners:  # filled at once, so a failed import leaves it empty
        names = {name: module for module in _EXPORTING for name in importlib.import_module(f"{__name__}.{module}").__all__}
        _owners.update({"PovmError": "errors", **names})
    return _owners


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = ["__version__", *_owner_of()]
    elif name in _owner_of():
        value = getattr(importlib.import_module(f"{__name__}.{_owners[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *_owner_of()})
