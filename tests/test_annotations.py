"""Every annotation in src/qbell resolves.

typing.get_type_hints evaluates a function's or class's annotations in
its module's namespace, as documentation tools and type checkers that run
the code do.  A name that only a function-local import binds (such as a
deferred module) cannot be resolved there, so the annotation must not use
it.
"""

import importlib
import inspect
import os
import typing

import pytest

from helpers import SRC

MODULES = sorted(f"qbell.{f[:-3]}".removesuffix(".__init__")
                 for f in os.listdir(os.path.join(SRC, "qbell")) if f.endswith(".py"))


def _annotated(module):
    """(qualified name, object) for each function and class the module
    defines, and each function a class defines in its body."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module_name", MODULES)
def test_every_annotation_resolves(module_name):
    module = importlib.import_module(module_name)
    unresolved = {}
    for name, obj in _annotated(module):
        try:
            typing.get_type_hints(obj)
        except NameError as e:
            unresolved[name] = str(e)
    assert not unresolved
