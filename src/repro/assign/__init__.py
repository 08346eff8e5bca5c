"""Dynamic cluster assignment strategies (paper Section 2.3).

Four families are implemented:

* **base** — slot-based issue: an instruction's position in the fetched
  line determines its cluster; no reordering anywhere (the baseline).
* **issue-time** — dependency/balance steering performed in the issue
  stage, with configurable steering latency (0 = ideal, 4 = realistic).
* **friendly** — Friendly et al.'s retire-time fill-unit reordering based
  on intra-trace dependencies (slot-centric), with an optional
  middle-cluster-biased variant.
* **fdrt** — the paper's feedback-directed retire-time strategy: chain
  clusters from trace cache profile feedback combined with intra-trace
  analysis (Table 5), with leader pinning (Table 4) on or off, and an
  intra-trace-only ablation.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.assign.base": (
        "AssignmentContext", "RetireTimeStrategy", "StrategySpec",
        "make_strategy",
    ),
    "repro.assign.slot": ("SlotBaseline",),
    "repro.assign.friendly": ("FriendlyRetireTime",),
    "repro.assign.fdrt": ("FDRTStrategy",),
    "repro.assign.issue_time": ("IssueTimeSteering",),
    "repro.assign.static_pc": ("StaticAssignment", "train_static_assignment"),
})
