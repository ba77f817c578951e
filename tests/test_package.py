"""The package's public surface: every exported name resolves."""

from __future__ import annotations

import adinkra


def test_every_exported_name_resolves() -> None:
    assert len(set(adinkra.__all__)) == len(adinkra.__all__)
    for name in adinkra.__all__:
        assert getattr(adinkra, name) is not None, name


def test_star_import_exposes_verify_presentation() -> None:
    namespace: dict = {}
    exec("from adinkra import *", namespace)
    assert namespace["verify_presentation"] is adinkra.verify_presentation
    assert set(adinkra.__all__) <= set(namespace)
