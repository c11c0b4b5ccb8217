"""Every exported name resolves, so a deletion cannot leave a stale ``__all__``."""

import importlib
import pkgutil

import pytest

import renewalops

# ``__main__`` runs the CLI on import
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(renewalops.__path__)
                    if m.name != "__main__")


@pytest.mark.parametrize("name", [""] + SUBMODULES)
def test_all_names_resolve_and_star_import(name):
    path = "renewalops" + (f".{name}" if name else "")
    module = importlib.import_module(path)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), path
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, (path, missing)
    namespace = {}
    exec(f"from {path} import *", namespace)
    assert set(exported) <= set(namespace), path
