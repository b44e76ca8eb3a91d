"""The package's public surface: every exported name exists."""

import ipicn


def test_every_exported_name_resolves():
    missing = [name for name in ipicn.__all__ if not hasattr(ipicn, name)]
    assert missing == []
    assert len(set(ipicn.__all__)) == len(ipicn.__all__)


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from ipicn import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(ipicn.__all__)
