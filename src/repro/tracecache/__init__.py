"""Trace cache and fill unit.

The trace cache (Rotenberg et al.; Patel et al.) stores snapshots of the
dynamic instruction stream — *traces* of up to three basic blocks and up to
one fetch-width of instructions — so that multiple basic blocks can be
fetched per cycle.  The fill unit constructs traces from the retiring
stream and is the hook where retire-time cluster assignment happens: it
physically reorders instructions within the line (preserving logical
order) so they issue slot-based to the desired cluster.

This reproduction adds the paper's dynamic profiling fields to each trace
cache slot: a two-bit **chain cluster** and a two-bit **leader/follower**
marker, which carry inter-trace dependency feedback between dynamic
executions of the same instruction.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.tracecache.trace": ("TraceKey", "TraceLine", "TraceSlot"),
    "repro.tracecache.trace_cache": ("TraceCache",),
    "repro.tracecache.fill_unit": ("FillUnit", "PendingTrace"),
})
