"""Lazy package exports (PEP 562).

Every ``repro`` package ``__init__`` declares its public names as a
``{module: names}`` map and hands it to :func:`lazy_exports` instead of
importing its submodules up front.  Importing one submodule (say
``repro.service.server``) therefore runs only the package ``__init__``
files on its path, not every sibling they used to re-export; a name's
module is imported on first attribute access, and the value is cached
in the package namespace so later lookups are plain attribute hits.
``from repro import simulate`` and ``from repro.obs import *`` work as
before.  See "Import layering" in ``docs/RUNTIME.md``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]],
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """Build ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps each absolute module name to the public names the
    package re-exports from it.
    """
    owner: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | owner.keys())

    return __getattr__, __dir__, sorted(owner)
