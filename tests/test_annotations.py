"""Every annotation in the package names something its module can reach.

Under ``from __future__ import annotations`` an annotation is a string
that nothing evaluates at run time, so a name that no import provides
would go unnoticed.  ``typing.get_type_hints`` evaluates each one."""

import importlib
import pkgutil
import typing
from functools import cached_property

import pytest

import demflag

MODULES = [importlib.import_module(f"demflag.{info.name}")
           for info in pkgutil.iter_modules(demflag.__path__)]


def _annotated(module):
    """The module, and every function, method and class it defines, as
    ``(name, object)`` pairs; a property counts as its getter."""
    yield module.__name__, module
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, classmethod):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                elif isinstance(member, cached_property):
                    member = member.func
                if callable(member) and hasattr(member, "__annotations__"):
                    yield f"{name}.{attr}", member
        elif callable(obj) and hasattr(obj, "__annotations__"):
            yield name, obj


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_annotation_resolves(module):
    unresolved = []
    for name, obj in _annotated(module):
        try:
            typing.get_type_hints(obj)
        except Exception as e:
            unresolved.append(f"{name}: {type(e).__name__}: {e}")
    assert not unresolved

