"""Every export list names only what its module defines."""

import importlib
import pkgutil

import pytest

import lrsdp

MODULES = sorted(m.name for m in pkgutil.iter_modules(lrsdp.__path__))


def test_every_module_is_checked():
    # an empty module list would make the parametrized check below vacuous
    assert {"certification", "cli", "factorization", "model", "oracle", "solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_module_attributes(name):
    module = importlib.import_module(f"lrsdp.{name}")
    stale = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert stale == [], f"lrsdp.{name}.__all__ names missing attributes: {stale}"
