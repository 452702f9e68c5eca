import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import povm_purity
from povm_purity import (
    build_dilation,
    build_perturbation_map,
    choi_from_kraus,
    connection_feasible,
    convex_split,
    fixture,
    herm_eig,
    kraus_channel,
    orthonormal_family,
    phase_truncation_demo,
    purity_verdict,
    single_mode_family,
)

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


def test_package_all_is_the_module_lists():
    """Each public name is declared once, in its module; the package adds two."""
    modules = ["linalg", "povm", "dilation", "extremality", "channels", "polycert", "phase", "fixtures"]
    lists = [importlib.import_module(f"povm_purity.{m}").__all__ for m in modules]
    assert povm_purity.__all__ == ["__version__", "PovmError"] + [n for names in lists for n in names]


ROLE = re.compile(r":(?:func|class|meth):`([\w.]+)`")


def _docstring_references() -> list[tuple[str, str]]:
    refs = []
    for path in sorted(Path(povm_purity.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                refs += [(path.name, name) for name in ROLE.findall(ast.get_docstring(node) or "")]
    return refs


def test_docstring_references_resolve():
    """Every :func:/:class:/:meth: target is a package-level name or a class attribute."""
    modules = [povm_purity] + [importlib.import_module(f"povm_purity.{m}") for m in MODULES]
    classes = {
        obj for mod in modules for obj in vars(mod).values()
        if inspect.isclass(obj) and obj.__module__.startswith("povm_purity")
    }
    namespaces = [vars(mod) for mod in modules]
    namespaces += [{**vars(c), **getattr(c, "__dataclass_fields__", {})} for c in classes]

    def resolves(name: str) -> bool:
        head, *rest = name.split(".")
        for ns in namespaces:
            obj = ns.get(head)
            for part in rest:
                obj = getattr(obj, part, None)
            if obj is not None:
                return True
        return False

    refs = _docstring_references()
    assert len(refs) >= 10
    assert [r for r in refs if not resolves(r[1])] == []


def _array_dataclass_instances():
    coin = fixture("coin")
    verdict = purity_verdict(coin)
    channel = kraus_channel(2, 2, [np.eye(2)])
    demo = phase_truncation_demo(single_mode_family(2), 2, 1024)
    return [
        herm_eig(np.eye(2)),
        coin,
        build_dilation(coin),
        verdict.witness,
        build_perturbation_map(coin),
        verdict,
        convex_split(coin, verdict),
        channel,
        choi_from_kraus(channel),
        connection_feasible(coin, coin, max_iter=10),
        demo,
        orthonormal_family("hermite", 3),
    ]


def test_array_dataclasses_compare_without_raising():
    """Two separately computed values compare (by identity) instead of raising."""
    for a, b in zip(_array_dataclass_instances(), _array_dataclass_instances()):
        assert type(a) is type(b) and type(a).__eq__ is object.__eq__
        assert a == a
        assert (a == b) is False
        assert a != b
