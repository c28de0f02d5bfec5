"""Module attributes imported on first use.

Only SimPoint needs numpy, and numpy is most of a cell's import time.
The packages that re-export SimPoint names (and the figure builders
that use them) therefore resolve those names through a module
``__getattr__`` built here, so every public name stays importable from
where it always was while cells that never touch SimPoint never import
numpy.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable


def lazy_attributes(package: str,
                    modules: Dict[str, Iterable[str]]) -> Callable:
    """A module ``__getattr__`` for ``package``: each name listed under
    a module (relative to ``package``) is imported from it on first
    access and then cached in the package namespace."""
    owners = {name: module for module, names in modules.items()
              for name in names}

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
