"""Package roots whose public names are imported on first use.

``import repro`` used to import every layer to fill ``__all__`` — the
daemon and ``asyncio`` for a batch run, the engine for a ``repro
request`` client — and that start-up cost more than the work it
preceded.  A root now declares where each name lives and resolves it
through the module-level ``__getattr__`` of PEP 562.
"""

from __future__ import annotations

import importlib

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict, where: dict[str, str]):
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    ``namespace``: ``where`` maps each public name to the submodule
    (relative, dotted) that defines it.  A name is imported once and
    then lives in ``namespace`` like an eagerly imported one."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
