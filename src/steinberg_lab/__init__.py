"""Exact-arithmetic lab for root systems, apartments and harmonic cochains."""

__all__ = ["RootSystem", "RootSystemType", "build"]
__version__ = "0.1.0"


def __getattr__(name):  # PEP 562: the root-system layer loads on first use
    if name in __all__:
        from . import rootsys
        return getattr(rootsys, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
