"""Every name a module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import ltlim

MODULES = sorted(info.name for info in pkgutil.iter_modules(ltlim.__path__))


def test_the_modules_are_found():
    assert {"declare", "generators", "measures", "oracle", "semantics"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_each_exported_name_exists(name):
    module = importlib.import_module(f"ltlim.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
