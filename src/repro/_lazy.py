"""Lazy package surfaces (PEP 562).

A package that re-exports its submodules' names pays, on import, for
every submodule and every third-party dependency behind them.  With
:func:`lazy_surface` a submodule is imported on the first access to
one of its names instead.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Tuple


def lazy_surface(
    owner: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the module or package ``owner``.

    ``exports`` maps each public name to the module defining it,
    relative to ``owner``'s package.  A resolved name is stored in the
    namespace of ``owner``, so later lookups are plain attribute reads.
    """
    namespace = sys.modules[owner].__dict__
    anchor = namespace["__package__"]

    def __getattr__(name: str) -> object:
        if name not in exports:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{exports[name]}", anchor), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
