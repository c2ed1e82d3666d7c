"""Fixtures shared by the test modules."""

import pytest

from demflag import characters, demazure, flags, lspath

_MODULES = (characters, demazure, flags, lspath)
_NAMES = {m.__name__ for m in _MODULES}


def _clear_memos():
    """Clear every memo defined in the math modules.  The datum builders
    of ``root_data`` keep theirs, so a datum built at import stays the one
    every later call returns."""
    for module in _MODULES:
        for obj in vars(module).values():
            if (hasattr(obj, "cache_clear")
                    and getattr(obj, "__module__", None) in _NAMES):
                obj.cache_clear()


@pytest.fixture
def cold_memos():
    """Start the test with no memo entry kept; the value clears them all
    again, for a test that starts cold more than once."""
    _clear_memos()
    return _clear_memos
