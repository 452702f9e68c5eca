"""Purity (extremality) analysis for finite-outcome quantum measurements.

The package decides whether a POVM is extremal in the convex set of
measurements with its outcome set, produces explicit convex splits when it is
not, builds minimal projective dilations, constructs and feasibility-checks
pre-processing channels between measurements, and carries one-sided purity
certificates for polynomial and trigonometric outcome families.

Each module's ``__all__`` is its public surface; the package re-exports them
all, so every public name is declared once, in its own module.  Nothing is
imported with the package: a submodule, and each name it exports, loads on
first access (PEP 562), so ``python -m povm_purity`` pays only for the
modules its subcommand runs.  Listing the names (``__all__``, ``dir``) or
asking for one that does not exist imports no submodule: the names are read
from the ``__all__`` literals in the modules' source.
"""

from __future__ import annotations

import importlib
import os

__version__ = "0.1.0"

# the modules whose __all__ the package re-exports, in this order
_EXPORTING = ("linalg", "povm", "dilation", "extremality", "channels", "polycert", "phase", "fixtures")
_SUBMODULES = frozenset(_EXPORTING + ("bases", "cli", "errors", "rand", "wire"))
_owners: dict[str, str] = {}


def _declared(module: str) -> list[str]:
    """The ``__all__`` literal of a submodule, read without importing it."""
    try:
        with open(os.path.join(__path__[0], f"{module}.py"), encoding="utf-8") as f:
            text = f.read()
    except OSError:  # no source to read: the module says itself
        return importlib.import_module(f"{__name__}.{module}").__all__
    import ast

    start = text.index("[", text.index("\n__all__ = ") + 1)
    return ast.literal_eval(text[start : text.index("]", start) + 1])


def _owner_of() -> dict[str, str]:
    """Each re-exported name -> the submodule that declares it, in ``__all__`` order."""
    if not _owners:
        _owners["PovmError"] = "errors"
        for module in _EXPORTING:
            _owners.update(dict.fromkeys(_declared(module), module))
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
