"""Lazy package exports (PEP 562), shared by the ``repro`` package ``__init__``\\s.

A package names the submodule each public name lives in; the submodule is
imported the first time the name is read — as ``pkg.name``, by
``from pkg import name`` or by ``from pkg import *`` — so importing a
package costs nothing until something it exports is used, and
``repro-bisect run`` loads only the modules that run executes.

Nothing is cached on the package: the submodule's ``sys.modules`` entry is
the cache, so no module state changes at run time and fork and spawn
workers resolve names the same way.

A name that equals a submodule of its package cannot be exported lazily:
importing that submodule binds the module object over the name, and the
package ``__getattr__`` is never consulted again.  Such names are bound
eagerly by the package (``graphs.generators`` does this for ``gnp``), and
:func:`lazy_exports` refuses to declare them.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Mapping
from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``.

    ``exports`` maps a submodule, relative to ``package`` (``".kl"``), to
    the public names it defines.  Use it at the foot of an ``__init__``::

        __getattr__, __dir__ = lazy_exports(__name__, {".kl": ("kernighan_lin",)})
    """
    source = {name: module for module, names in exports.items() for name in names}
    submodules = {module.lstrip(".").partition(".")[0] for module in exports}
    shadowed = sorted(submodules.intersection(source))
    if shadowed:
        raise ValueError(
            f"{package}: {', '.join(shadowed)} name(s) a submodule; bind eagerly"
        )

    def __getattr__(name: str) -> object:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(module, package), name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])).union(source))

    return __getattr__, __dir__
