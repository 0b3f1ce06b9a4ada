"""Every name a `wsdetect` subpackage exports in `__all__` resolves, so a
re-export left behind by a deleted function fails here, at import."""

import importlib
import pkgutil

import pytest

import wsdetect

SUBPACKAGES = sorted(info.name for info in pkgutil.iter_modules(wsdetect.__path__)
                     if info.ispkg)


def test_subpackages_found():
    assert {"flowmeter", "inspector", "rulelang", "tensornet"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(f"wsdetect.{name}")
    exported = package.__all__
    assert len(set(exported)) == len(exported), "a name is listed twice"
    assert [n for n in exported if not hasattr(package, n)] == []
