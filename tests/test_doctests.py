"""The doctests in every resolvedk module run as part of the suite."""

import doctest
import importlib
import pkgutil

import pytest

import resolvedk

MODULES = ["resolvedk"] + sorted(
    f"resolvedk.{info.name}" for info in pkgutil.iter_modules(resolvedk.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} doctests failed"
