"""Package roots whose public names are imported on first access.

A root that re-exports its modules' names eagerly makes every import
of any one of its modules pay for all of them: importing the label
core through ``repro.core`` used to load the separator engines and
scipy.  :func:`lazy_attributes` gives a root the PEP 562 hooks that
import a name's module only when the name is first read.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_attributes(
    namespace: dict, homes: Dict[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    *namespace*: each name of ``homes[module]`` resolves to that
    module's attribute of the same name, imported on first read and
    then stored in *namespace*, so later reads are plain lookups.  Any
    other missing name raises :class:`AttributeError`, which also lets
    ``from package import submodule`` import the submodule."""
    home_of = {name: home for home, names in homes.items() for name in names}
    package = namespace["__name__"]

    def __getattr__(name: str):
        home = home_of.get(name)
        if home is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(home), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home_of))

    return __getattr__, __dir__
