"""The bipolar stochastic dot product -- the design alternative the paper rejects.

Section IV-B explains why the hybrid design does *not* use bipolar stochastic
arithmetic even though the weights are signed: in the bipolar encoding the
sign-activation decision point maps to bit-streams of unipolar density 0.5,
which is exactly where stochastic fluctuation (and switching activity) is
maximal, so accuracy and power both suffer.  The paper's solution is the
positive/negative weight split implemented by
:class:`~repro.sc.dotproduct.StochasticDotProductEngine`.

This module implements the rejected alternative so the claim can be measured:
:class:`BipolarDotProductEngine` evaluates ``x . w`` with XNOR multipliers and
a scaled adder tree entirely in the bipolar domain.  The ablation benchmark
``benchmarks/test_ablation_bipolar.py`` compares the two designs' accuracy
near the decision point.

Like the unipolar engine, the bipolar engine simulates packed streams (64
stream bits per uint64 word, word-level XNOR / adder-tree kernels) and
evaluates through a filter bank (:class:`BipolarWeightBank`, built by
:meth:`BipolarDotProductEngine.prepare_weights`); its byte-per-bit reference
is :func:`repro.sc.dotproduct.bipolar_stochastic_dot_product`, which produces
the same counter values.  The tap axis is padded to a power of two with
alternating ``1010...`` streams, which encode bipolar zero.  The engine
honours the ``mode`` (:mod:`repro.sc.mode`): in count mode (the default,
exact for both its adder types) the XNOR products are popcounted once and
the tree is reduced in the count domain -- integer ``floor((cx + cy) / 2)``
halving for TFF trees (each pad stream counts exactly ``N / 2``), cached
select masks for MUX trees -- never materializing an adder-tree stream
tensor, bit-identically to stream mode.

Sign-tie contract
-----------------
The bipolar sign activation is a hardware comparator against the mid-scale
count ``N / 2`` and emits only +-1: the exact tie ``2 * count == length``
resolves to **+1** (the comparator's "not below the decision point" side).
This deliberately differs from the paper's split-weight unipolar design,
whose sign activation compares *two* counters and reports **0** when they
are exactly equal (see :func:`repro.sc.elements.converters.sign_from_counts`
and :class:`repro.sc.convolution.StochasticConv2D`): there a tie is a
representable "exactly zero" output, while a single mid-scale counter has no
zero code.  Both behaviours are pinned by regression tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..bitstream import bipolar_to_unipolar
from ..bitstream.packed import packed_alternating, packed_popcount, packed_xnor, words_for
from ..faults.spec import FaultSpec
from ..rng import ComparatorSNG, SobolSource, VanDerCorputSource
from .elements.adders import AdderTree, MuxAdder, TffAdder, TreePlan
from .dotproduct import FilterBank, resolve_mode, stream_length

__all__ = ["BipolarDotProductResult", "BipolarWeightBank", "BipolarDotProductEngine"]


@dataclass
class BipolarDotProductResult:
    """Outputs of one batch of bipolar stochastic dot products."""

    #: Ones-count of the adder-tree output stream.
    count: np.ndarray
    #: Stream length used.
    length: int
    #: Scale factor 2**depth of the adder tree.
    tree_scale: int

    @property
    def value(self) -> np.ndarray:
        """The reconstructed dot-product value ``x . w``."""
        bipolar = 2.0 * self.count.astype(np.float64) / self.length - 1.0
        return bipolar * self.tree_scale

    @property
    def sign(self) -> np.ndarray:
        """Sign activation: compare the counter against the mid-scale N/2.

        A hardware sign activation emits only +-1; the exact tie
        ``2 * count == length`` (counter at mid-scale) resolves to +1, the
        comparator's "not below the decision point" side.  This is
        intentionally asymmetric with the split-weight unipolar design,
        which compares two counters and emits 0 on an exact tie (see the
        module docstring's sign-tie contract).
        """
        count2 = self.count.astype(np.int64) * 2
        return np.where(count2 >= self.length, 1, -1).astype(np.int8)


class BipolarWeightBank(FilterBank):
    """A bipolar filter bank: ``(filters, taps)`` kernel streams plus one tree plan.

    Built by :meth:`BipolarDotProductEngine.prepare_weights`.  The engine
    restarts its MUX select seeds for every bank, so every kernel sees the
    same select streams: the bank holds one single-lane plan over the
    power-of-two padded tap count, broadcast over the filter axis -- the
    same counts as evaluating each kernel on its own.  The plan caches its
    select streams, so the tiled :meth:`evaluate` is bit-identical to one
    untiled pass.
    """

    def __init__(self, engine: "BipolarDotProductEngine", weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(
                f"weights must have shape (filters, taps), got {weights.shape}"
            )
        if weights.shape[0] == 0:
            raise ValueError("need at least one filter kernel")
        self.engine = engine
        self.filters, self.taps = weights.shape
        #: Kernel streams, ``(filters, taps, W)`` packed words.
        self.weight_streams = engine.weight_words(weights)
        self.plan: TreePlan = AdderTree(engine._adder_factory()).plan(
            1 << AdderTree().depth(self.taps)
        )

    @property
    def tree_scale(self) -> int:
        """Counter scale ``2**depth`` of the adder tree."""
        return self.plan.tree_scale

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """Tree-output counts ``(..., filters)`` for input values ``(..., taps)``.

        Values are bipolar, in ``[-1, 1]``; evaluated in bounded-memory tiles
        like :meth:`repro.sc.dotproduct.PreparedWeights.evaluate`.
        """
        return self._tiled(values)[0]

    def counts(self, prepared: np.ndarray) -> np.ndarray:
        """Tree-output counts ``(..., filters)`` for one tile of ``prepare_inputs`` output."""
        x = np.asarray(prepared)
        if x.ndim < 2 or x.shape[-2] != self.taps:
            raise ValueError(
                f"prepared inputs must have {self.taps} taps on axis -2, "
                f"got shape {x.shape}"
            )
        n_bits = self.engine.length
        products = packed_xnor(x[..., np.newaxis, :, :], self.weight_streams, n_bits)
        # Pad the tap axis with bipolar-zero (density 0.5) streams: an
        # all-zeros pad would encode -1 and bias the sum.
        pad = self.plan.count - self.taps
        if pad:
            products = np.concatenate(
                [
                    products,
                    np.broadcast_to(
                        packed_alternating(n_bits),
                        products.shape[:-2] + (pad, products.shape[-1]),
                    ),
                ],
                axis=-2,
            )
        if not self.engine._use_count_mode:
            return packed_popcount(self.plan.reduce_packed(products, n_bits))
        if self.plan.supports_count_reduction:
            return self.plan.reduce_counts(packed_popcount(products))
        return self.plan.masked_counts_packed(products, n_bits)

    def __repr__(self) -> str:
        return f"BipolarWeightBank(filters={self.filters}, taps={self.taps})"


@dataclass
class BipolarDotProductEngine:
    """Fully bipolar stochastic dot-product engine (XNOR multipliers).

    Parameters
    ----------
    precision:
        Binary precision in bits (stream length ``2**precision``).
    adder:
        ``"tff"`` or ``"mux"`` scaled adders for the reduction tree.
    seed:
        Seed for LFSR/MUX-select sources.
    mode:
        ``"counts"`` reduces the adder tree in the count domain (exact for
        both supported adders -- see the module docstring), ``"streams"``
        forces the reference stream reduction, ``"auto"`` (the default;
        ``None`` resolves to it) picks counts.  Bit-identical counter values
        either way.
    faults:
        Optional :class:`~repro.faults.FaultSpec`.  Stream-level faults are
        injected into the input streams (by :meth:`BipolarWeightBank.evaluate`
        via :meth:`apply_faults`, at each tile's row offset).  Faulted banks
        are not yet on the count path (ROADMAP direction 4): ``mode="auto"``
        reduces streams while faults are active, and an explicit
        ``mode="counts"`` raises.
    """

    precision: int = 8
    adder: str = "tff"
    seed: int = 1
    mode: Optional[str] = None
    faults: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if self.precision < 2:
            raise ValueError("precision must be at least 2 bits")
        if self.adder not in ("tff", "mux"):
            raise ValueError(f"unknown adder {self.adder!r}")
        self.mode = resolve_mode(self.mode)
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise TypeError(
                f"faults must be a FaultSpec or None, got {type(self.faults).__name__}"
            )
        if self.mode == "counts" and self._stream_faults_active:
            raise ValueError(
                "mode='counts' is invalid under stream-level fault injection: "
                "faulted bipolar banks are not yet on the count path "
                "(ROADMAP direction 4) -- use mode='streams' (or 'auto', which "
                "reduces streams while faults are active)"
            )

    @property
    def _stream_faults_active(self) -> bool:
        """Whether the engine must inject fault masks into input streams."""
        return self.faults is not None and self.faults.corrupts_streams

    @property
    def _use_count_mode(self) -> bool:
        # Both supported adders (TFF, MUX) have exact count-domain
        # evaluations, so only an explicit "streams" -- or active stream
        # faults, whose banks are not yet on the count path (ROADMAP
        # direction 4) -- forces stream tensors.
        return self.mode != "streams" and not self._stream_faults_active

    def apply_faults(self, prepared: np.ndarray, offset: int = 0) -> np.ndarray:
        """Inject the engine's stream faults into :meth:`prepare_inputs` output.

        Mirrors :meth:`StochasticDotProductEngine.apply_faults`: ``offset``
        is the global index of the first stream in ``prepared``
        (:meth:`BipolarWeightBank.evaluate` passes its tile start), and the
        injection is a no-op when no stream fault channel is active.
        """
        if not self._stream_faults_active:
            return prepared
        return self.faults.plan().apply(prepared, self.length, offset=offset)

    @property
    def length(self) -> int:
        """Bit-stream length ``2**precision``."""
        return stream_length(self.precision)

    def patch_bytes(self, filters: int, taps: int) -> int:
        """Bytes per input row of a ``(filters, taps)`` bank's XNOR products.

        The products span the power-of-two padded tap axis, on either path;
        :func:`repro.sc.dotproduct.tile_patches` divides the tile budget by it.
        """
        return filters * (1 << AdderTree().depth(taps)) * words_for(self.length) * 8

    def _adder_factory(self) -> Callable[[], object]:
        if self.adder == "tff":
            return TffAdder
        # A fresh seed sequence per factory: every bank instantiates the same
        # select sources (node i always gets seed 777*seed + i + 1), so
        # repeated evaluations on one engine are deterministic.
        seeds = itertools.count(self.seed * 777 + 1)
        return lambda: MuxAdder(seed=next(seeds))

    # ------------------------------------------------------------------ #
    # stream generation
    # ------------------------------------------------------------------ #
    def _input_sng(self) -> ComparatorSNG:
        return ComparatorSNG(VanDerCorputSource(self.precision))

    def _weight_sng(self) -> ComparatorSNG:
        return ComparatorSNG(SobolSource(self.precision, dimension=1))

    def _input_probabilities(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError("bipolar inputs must be finite")
        if np.any(np.abs(values) > 1.0 + 1e-9):
            # Raise exactly like the weight side: silently clipping here
            # used to mask calibration errors upstream (values far outside
            # the bipolar range would quietly saturate to +-1).
            raise ValueError("bipolar inputs must lie in [-1, 1]")
        return bipolar_to_unipolar(np.clip(values, -1.0, 1.0))

    def _weight_probabilities(self, weights: np.ndarray) -> np.ndarray:
        weights = np.asarray(weights, dtype=np.float64)
        if np.any(np.abs(weights) > 1.0 + 1e-9):
            raise ValueError("weights must lie in [-1, 1]")
        return bipolar_to_unipolar(weights)

    def prepare_inputs(self, values: np.ndarray) -> np.ndarray:
        """Encode inputs (in ``[-1, 1]``; image pixels use ``[0, 1]``) as packed
        bipolar streams, shape ``(..., ceil(N/64))`` uint64 words."""
        return self._input_sng().generate_packed(
            self._input_probabilities(values), self.length
        )

    def weight_words(self, weights: np.ndarray) -> np.ndarray:
        """Encode signed weights as packed bipolar streams (one per tap)."""
        return self._weight_sng().generate_packed(
            self._weight_probabilities(weights), self.length
        )

    # ------------------------------------------------------------------ #
    # computation
    # ------------------------------------------------------------------ #
    def prepare_weights(self, weights: np.ndarray) -> BipolarWeightBank:
        """Build the filter bank for a ``(filters, taps)`` kernel set."""
        return BipolarWeightBank(self, weights)

    def dot(self, x: np.ndarray, weights: np.ndarray) -> BipolarDotProductResult:
        """Compute ``x . w`` for inputs ``x`` (shape ``(..., k)``) and weights ``(k,)``.

        Evaluated as a one-filter bank.  Every bank re-seeds the per-node
        MUX select sources from scratch, so repeated ``dot()`` invocations on
        one engine are deterministic: identical inputs always produce
        identical counts.
        """
        x = np.asarray(x, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or x.shape[-1] != weights.shape[0]:
            raise ValueError(
                f"tap count mismatch: inputs have {x.shape[-1]}, "
                f"weights have shape {weights.shape}"
            )
        bank = self.prepare_weights(weights[np.newaxis])
        count = bank.evaluate(x)[..., 0]
        return BipolarDotProductResult(
            count=count, length=self.length, tree_scale=bank.tree_scale
        )
