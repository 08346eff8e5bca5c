"""Front-end prediction structures: direction predictors, BTB and RAS."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.frontend.branch_predictor": (
        "BimodalPredictor", "BranchTargetBuffer", "GsharePredictor",
        "HybridPredictor", "ReturnAddressStack",
    ),
})
