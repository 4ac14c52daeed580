"""Stochastic-computing arithmetic elements and convolution engines."""

from .bipolar import BipolarDotProductEngine, BipolarDotProductResult, BipolarWeightBank
from .convolution import StochasticConv2D, StochasticConvResult
from .dotproduct import (
    MODES,
    DotProductResult,
    PreparedWeights,
    StochasticDotProductEngine,
    new_sc_engine,
    old_sc_engine,
    resolve_mode,
    split_weights,
    stochastic_dot_product,
    validate_mode,
)
from .elements import (
    AdderTree,
    MuxAdder,
    StochasticAdder,
    TffAdder,
    and_multiply,
    count_ones,
    mux_add,
    sign_from_counts,
    stochastic_to_binary,
    tff_add,
    toggle_states,
)

__all__ = [
    "and_multiply",
    "StochasticAdder",
    "TffAdder",
    "MuxAdder",
    "AdderTree",
    "tff_add",
    "mux_add",
    "toggle_states",
    "count_ones",
    "stochastic_to_binary",
    "sign_from_counts",
    "split_weights",
    "stochastic_dot_product",
    "MODES",
    "resolve_mode",
    "validate_mode",
    "BipolarDotProductEngine",
    "BipolarDotProductResult",
    "BipolarWeightBank",
    "DotProductResult",
    "PreparedWeights",
    "StochasticDotProductEngine",
    "new_sc_engine",
    "old_sc_engine",
    "StochasticConv2D",
    "StochasticConvResult",
]
