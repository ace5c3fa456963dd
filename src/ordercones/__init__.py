"""Finite posets, isotone function cones, and matrix-algebra order structures.

Desk-scale computational order theory: finite posets with their cones of
order-preserving functions on the commutative side, small self-adjoint
matrix algebras with sphere-region membership cones on the other, and the
round trips between the two.

Importing the package runs none of its modules.  A submodule, a re-exported
name or ``__all__`` is imported the first time it is asked for (PEP 562), so
a CLI call runs only the modules its verb uses.
"""

import sys

__version__ = "0.1.0"

# The modules whose __all__ the package re-exports, in the order of its __all__.
_REEXPORTED = ("errors", "poset", "isotone_cone", "hermitian", "m2", "duality", "gps")


def _submodule(name: str):
    # The import statement's own path, which binds the module here and which -X importtime reports.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name == "__all__":
        value = [n for module in map(_submodule, _REEXPORTED) for n in module.__all__]
    elif name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        try:
            return _submodule(name)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
        # Modules are imported in __all__ order until one holds the name.
        module = next((m for m in map(_submodule, _REEXPORTED) if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
