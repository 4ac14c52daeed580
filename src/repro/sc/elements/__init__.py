"""Stochastic arithmetic elements: the multiplier, adders, the TFF, converters."""

from .adders import AdderTree, MuxAdder, StochasticAdder, TffAdder, TreePlan, mux_add, tff_add
from .converters import count_ones, sign_from_counts, stochastic_to_binary
from .flipflops import toggle_states
from .multipliers import and_multiply

__all__ = [
    "and_multiply",
    "StochasticAdder",
    "TffAdder",
    "MuxAdder",
    "AdderTree",
    "TreePlan",
    "tff_add",
    "mux_add",
    "toggle_states",
    "count_ones",
    "stochastic_to_binary",
    "sign_from_counts",
]
