"""Lazy package exports (PEP 562).

A package ``__init__`` declares one export table, mapping each submodule
(relative to the package) to the public names it supplies::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "bounds": ("Box", "MinMaxScaler"),
        "nostop": ("NoStopController",),
    })

Nothing is imported until a name is first read; the value is then cached
in the package namespace, so later reads are plain attribute hits.  The
key ``""`` lists names the package holds itself: values its ``__init__``
defines, or its own submodules (``"core"`` under ``repro``).  Reading any
other name raises :class:`AttributeError`, which keeps ``hasattr`` and
``from pkg import submodule`` working.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` from ``table``."""
    owner: Dict[str, str] = {}
    for module, names in table.items():
        for name in names:
            if name in owner:
                raise ValueError(f"{package} exports {name!r} twice")
            owner[name] = module

    def __getattr__(name: str) -> Any:
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        if module:
            value = getattr(import_module(f"{package}.{module}"), name)
        else:
            value = import_module(f"{package}.{name}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__, list(owner)
