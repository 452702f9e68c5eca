import importlib
import pkgutil

import pytest

import povm_purity

MODULES = sorted(m.name for m in pkgutil.iter_modules(povm_purity.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"povm_purity.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_package_all_resolves():
    missing = [n for n in povm_purity.__all__ if not hasattr(povm_purity, n)]
    assert missing == []
    assert len(set(povm_purity.__all__)) == len(povm_purity.__all__)
