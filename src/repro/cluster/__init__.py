"""Clustered execution resources: configuration, interconnect, clusters."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.cluster.config": ("MachineConfig",),
    "repro.cluster.interconnect": ("Interconnect",),
    "repro.cluster.functional_units": ("FunctionalUnit", "make_cluster_units"),
    "repro.cluster.reservation_station": ("ReservationStation",),
    "repro.cluster.cluster": ("Cluster",),
})
