"""Every exported name of the package and of each of its modules resolves."""

import importlib
import pkgutil

import pytest

import ehrelay

MODULES = sorted(info.name for info in pkgutil.iter_modules(ehrelay.__path__, "ehrelay."))


def test_every_module_is_listed():
    assert {"ehrelay.auglag", "ehrelay.channel", "ehrelay.cli", "ehrelay.experiment"} <= set(MODULES)


@pytest.mark.parametrize("name", ["ehrelay", *MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
