"""Package exports resolved on first use (PEP 562).

A package ``__init__`` that imports every name it re-exports makes any
``import repro.<x>`` import all of its siblings, numpy, sqlite3 and the
process pool included.  :func:`lazy_exports` gives such a package one
name → submodule table instead: a name is imported from its submodule
on first access and then kept in the package namespace, so a run loads
only the modules it uses.  The package also imports its names under
``TYPE_CHECKING`` (``from .x import Name as Name``), which is what type
checkers and linters read; ``tests/integration/test_api_surface.py``
checks that those imports and the table agree.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], table: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` of a package.

    ``namespace`` is the package's ``globals()``; ``table`` maps each
    relative submodule (``".space"``) to the public names it provides.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *where})

    return sorted(where), __getattr__, __dir__
