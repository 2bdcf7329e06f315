"""Every entry point the benchmark's tracer wraps still resolves.

``perfbench/trace.py`` patches its ``LAYERS`` targets by name, the way
``Tracer._targets`` looks them up: a ``module:Class.attr`` target must
be defined in that class's own body (its ``__dict__``, not inherited),
and a ``module:function`` target must be a module attribute. A refactor
that deletes or moves one makes every traced benchmark run raise; this
test catches it without installing any shim.
"""

import importlib

import pytest

from perfbench.trace import LAYERS

TARGETS = sorted({target for _, targets, _, _ in LAYERS for target in targets})


@pytest.mark.parametrize("target", TARGETS)
def test_trace_target_resolves(target):
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name)
        assert attr in owner.__dict__, (
            f"{target}: {attr} is not defined in {cls_name}'s own body"
        )
    else:
        assert hasattr(module, qualname), f"{target}: no such module attribute"
