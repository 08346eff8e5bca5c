"""The out-of-order clustered core and top-level simulator."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.stats": ("SimStats",),
    "repro.core.fetch": ("FetchEngine", "StreamCursor"),
    "repro.core.pipeline": ("Pipeline",),
    "repro.core.result": ("SimResult",),
    "repro.core.simulator": ("Simulator", "simulate"),
})
