"""Load-on-first-use exports for the ``repro`` packages (PEP 562).

A package declares one table, public name -> defining module, and binds
the pair this module returns::

    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

``from repro.obs import AuditLog`` then imports ``repro.obs.audit`` on
that first access and caches the value in the package namespace, so a
process only compiles and runs the layers it uses. A name that is not in
the table but names a submodule (``repro.obs.report``) imports that
submodule; any other name raises ``AttributeError``.
"""

from __future__ import annotations

import importlib
import importlib.util
from typing import Any, Callable, List, Mapping, MutableMapping, Tuple


def lazy_exports(
    namespace: MutableMapping[str, Any], table: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of the package whose globals are
    ``namespace`` and whose public names ``table`` maps to their defining
    modules."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        module_name = table.get(name)
        if module_name is not None:
            value = getattr(importlib.import_module(module_name), name)
        elif not name.startswith("__") and importlib.util.find_spec(f"{package}.{name}"):
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        import pkgutil

        submodules = {info.name for info in pkgutil.iter_modules(namespace["__path__"])}
        return sorted(set(namespace) | set(table) | submodules)

    return __getattr__, __dir__
