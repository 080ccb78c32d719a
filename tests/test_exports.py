"""Every name a `fourbody` module exports resolves, and star-import works."""

import importlib
import pkgutil

import pytest

import fourbody

EXPORTING = sorted(
    m.name for m in pkgutil.iter_modules(fourbody.__path__)
    if hasattr(importlib.import_module("fourbody." + m.name), "__all__"))


def test_exporting_modules_found():
    assert {"model", "numerics", "opbound", "radii", "seeding", "stages", "table"} <= set(
        EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_all_names_resolve(name):
    exported = importlib.import_module("fourbody." + name).__all__
    assert len(set(exported)) == len(exported)
    ns = {}
    exec("from fourbody.%s import *" % name, ns)
    missing = [n for n in exported if n not in ns]
    assert not missing, missing
