"""The package's public names: everything in ``scoremux.__all__`` is importable."""

from __future__ import annotations

import scoremux


def test_every_exported_name_resolves():
    missing = [name for name in scoremux.__all__ if not hasattr(scoremux, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from scoremux import *", namespace)
    assert set(scoremux.__all__) <= set(namespace)


def test_cross_entropy_is_the_numerics_op():
    from scoremux import numerics

    assert scoremux.cross_entropy is numerics.cross_entropy
