"""Every exported name resolves.

Callers (and the benchmark tracer, which wraps each name of every layer
module's ``__all__``) look exports up by name, so one stale entry breaks
them all.
"""

import importlib
import pkgutil

import pytest

import monoport

LAYER_MODULES = sorted(info.name for info in pkgutil.iter_modules(monoport.__path__))


def test_package_exports_resolve():
    missing = [name for name in monoport.__all__ if not hasattr(monoport, name)]
    assert missing == []


@pytest.mark.parametrize("module", LAYER_MODULES)
def test_layer_exports_resolve(module):
    mod = importlib.import_module(f"monoport.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_plan_inclusion_is_exported():
    """The inclusion plan is public next to the solve that applies it."""
    from monoport import relations

    for mod in (monoport, relations):
        assert {"plan_inclusion", "solve_inclusion"} <= set(mod.__all__)
    assert monoport.plan_inclusion is relations.plan_inclusion
