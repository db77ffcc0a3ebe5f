"""The lazy package roots resolve every public name to its definition.

``repro``, ``repro.core`` and ``repro.dynamic`` import their modules on
first attribute access (PEP 562), so a mistyped home or a stale name
would only fail when someone reads it.  Every name in each root's
``__all__`` must resolve to the very object its defining module holds,
appear in ``dir()``, and survive ``from ... import *``.
"""

import importlib
import sys
import types

import pytest

#: Each lazy root and one of its submodules.
ROOTS = {"repro": "graphs", "repro.core": "flat", "repro.dynamic": "delta"}


def _homes(root_name, name, value):
    """The modules under *root_name* that define *value*: a class's or
    function's own module, or every loaded submodule that binds *name*
    to this very constant."""
    if isinstance(value, (type, types.FunctionType)):
        return [sys.modules[value.__module__]]
    return [
        module for module_name, module in list(sys.modules.items())
        if module_name.startswith(root_name + ".")
        and getattr(module, name, None) is value
    ]


@pytest.mark.parametrize("root_name", sorted(ROOTS))
def test_every_public_name_is_its_defining_modules_object(root_name):
    root = importlib.import_module(root_name)
    assert len(set(root.__all__)) == len(root.__all__)
    for name in root.__all__:
        value = getattr(root, name)
        assert name in dir(root)
        if name == "__version__":
            assert isinstance(value, str)
            continue
        homes = _homes(root_name, name, value)
        assert homes, (root_name, name)
        for home in homes:
            assert home is not root and home.__name__.startswith("repro.")
            assert getattr(home, name) is value, (root_name, name, home.__name__)


@pytest.mark.parametrize("root_name", sorted(ROOTS))
def test_star_import_submodules_and_unknown_names(root_name):
    root = importlib.import_module(root_name)
    namespace = {}
    exec(f"from {root_name} import *", namespace)
    assert set(root.__all__) <= set(namespace)
    submodule = ROOTS[root_name]
    assert importlib.import_module(f"{root_name}.{submodule}") is getattr(
        root, submodule
    )
    with pytest.raises(AttributeError, match="no_such_name"):
        root.no_such_name
