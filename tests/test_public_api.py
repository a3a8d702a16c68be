"""The package's public names: its imports, listed once."""

from types import ModuleType

import rctrs


def test_all_lists_every_public_name_that_is_not_a_module():
    public = {
        name for name, value in vars(rctrs).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(rctrs.__all__) == sorted(public)
    assert all(hasattr(rctrs, name) for name in rctrs.__all__)

