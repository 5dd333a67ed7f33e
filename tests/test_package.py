"""The package namespace: ``cedkit`` exports exactly the names in ``__all__``."""

from __future__ import annotations

import types

import cedkit


def test_public_attributes_equal_all():
    # submodules (cedkit.detector, ...) are attributes once imported; they are
    # reached by module path, not listed in __all__
    public = {name for name, value in vars(cedkit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(cedkit.__all__)
    assert len(cedkit.__all__) == len(public)
