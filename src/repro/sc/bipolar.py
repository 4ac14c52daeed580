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

Both designs drive their input SNGs from one shared number source, so the
bipolar engine evaluates like the unipolar one: inputs become comparator
levels, and its filter bank (:class:`BipolarWeightBank`, a
:class:`~repro.sc.dotproduct.FilterBank`) gathers XNOR leaf counts from leaf
tables, building packed streams only under dense stream faults, under stream
faults on MUX trees and in stream mode (under sparse faults TFF banks correct
the table counts per faulted word, as the unipolar banks do).
With ``C_a[c] = popcount(x & a)`` for the input ``x`` of level ``c``, a leaf's
count inside its ownership mask ``m`` (all ones for TFF trees) is

    popcount((x XNOR w) & m) = |m| - |w & m| + 2 * C_{w&m}[c] - C_m[c].

The tap axis is padded to a power of two with bipolar-zero ``1010...``
streams (pad leaves: the zero input XNOR ``~1010...``).  The byte-per-bit
reference kernel of the differential tests (``tests/sc_oracle.py``) gives the
same counter values.

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

from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from ..bitstream import bipolar_to_unipolar
from ..bitstream.packed import (
    packed_alternating,
    packed_not,
    packed_popcount,
    unpack_bits,
    words_for,
)
from ..faults.spec import FaultSpec
from ..rng import ComparatorSNG, SobolSource, level_dtype
from ..utils.checks import check_count
from .elements.adders import AdderTree, TreePlan
from .dotproduct import (
    FilterBank,
    StochasticDotProductEngine,
    corrections_bytes,
    resolve_mode,
)

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
    same counts as evaluating each kernel on its own, with one leaf-table
    lane per filter.  The plan caches its select streams, so the tiled
    :meth:`evaluate` is bit-identical to one untiled pass.
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
        self.n_bits = engine.length
        self.plan: TreePlan = AdderTree(engine._adder_factory()).plan(
            1 << AdderTree().depth(self.taps)
        )
        pad = np.broadcast_to(
            packed_not(packed_alternating(self.n_bits), self.n_bits),
            (self.filters, self.plan.count - self.taps, words_for(self.n_bits)),
        )
        #: Kernel streams per leaf, ``(filters, leaves, W)`` packed words.  Pad
        #: leaves hold ``~1010...`` and see the all-zero input stream (level 0):
        #: their XNOR product is the bipolar-zero stream ``1010...``.
        self.lane_words = np.concatenate([engine.weight_words(weights), pad], axis=1)

    @property
    def tree_scale(self) -> int:
        """Counter scale ``2**depth`` of the adder tree."""
        return self.plan.tree_scale

    def _build_tables(self) -> np.ndarray:
        """XNOR leaf counts ``popcount((x XNOR w) & m)`` (module docstring)."""
        n = self.n_bits
        if self.plan.supports_count_reduction:
            masks = packed_not(np.zeros_like(self.lane_words[:1]), n)
        else:
            masks = self.plan.leaf_masks(n, packed=True)
        wm = self.lane_words & masks
        # 2 * C_{w&m} - C_m is one running sum of steps in {-1, 0, 1}, so it
        # never leaves [-N, N].
        tables = self._running_counts(2 * unpack_bits(wm, n).astype(np.int8) - unpack_bits(masks, n))
        tables += (packed_popcount(masks) - packed_popcount(wm)).T[:, np.newaxis]
        return tables

    def _leaf_op(
        self, x: np.ndarray, w: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The XNOR multiplier, bits past N unmasked."""
        out = np.bitwise_xor(x, w, out=out)
        return np.invert(out, out=out)

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """Tree-output counts ``(..., filters)`` for input values ``(..., taps)``.

        Values are bipolar, in ``[-1, 1]``; evaluated in bounded-memory tiles
        like :meth:`repro.sc.dotproduct.PreparedWeights.evaluate`.
        """
        return self._tiled(np.asarray(values, dtype=np.float64), self.engine.prepare_inputs)[0]

    def counts(self, prepared: np.ndarray) -> np.ndarray:
        """Tree-output counts ``(..., filters)`` for one tile of prepared inputs
        (:meth:`~repro.sc.dotproduct.FilterBank._root_counts`)."""
        return self._root_counts(prepared)

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
        As for :class:`~repro.sc.dotproduct.StochasticDotProductEngine`:
        ``"auto"`` (the default; ``None`` resolves to it) takes the fastest
        exact path (:attr:`evaluation_path`), without stream faults a gather
        from the bank's leaf tables; ``"streams"`` forces the reference
        stream reduction.  Bit-identical counter values either way.
    faults:
        Optional :class:`~repro.faults.FaultSpec`.  Its stream-bit flips are
        injected into the input streams (by :meth:`BipolarWeightBank.evaluate`
        via :meth:`apply_faults`, at each tile's row offset).  TFF trees then
        correct their XNOR table counts per faulted word (sparse faults) or
        halve the popcounts of the faulted XNOR products (dense faults), and
        MUX trees reduce the streams, by the unipolar engine's rule.
    """

    precision: int = 8
    adder: str = "tff"
    seed: int = 1
    mode: Optional[str] = None
    faults: Optional[FaultSpec] = None

    # One evaluation rule for both encodings: the stream length, the path
    # choice, level expansion and fault injection of the unipolar engine.
    length = StochasticDotProductEngine.length
    _stream_faults_active = StochasticDotProductEngine._stream_faults_active
    evaluation_path = StochasticDotProductEngine.evaluation_path
    _use_count_mode = StochasticDotProductEngine._use_count_mode
    input_words = StochasticDotProductEngine.input_words
    apply_faults = StochasticDotProductEngine.apply_faults
    _input_sng = StochasticDotProductEngine._input_sng
    # Every bank restarts its MUX select seeds (node i gets 777*seed + 1 + i),
    # so repeated evaluations on one engine are deterministic.
    _select_seed_scale: ClassVar[int] = 777
    _adder_factory = StochasticDotProductEngine._adder_factory

    def __post_init__(self) -> None:
        check_count("precision", self.precision, 2)
        if self.adder not in ("tff", "mux"):
            raise ValueError(f"unknown adder {self.adder!r}; expected one of ('tff', 'mux')")
        self.mode = resolve_mode(self.mode)
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise TypeError(
                f"faults must be a FaultSpec or None, got {type(self.faults).__name__}"
            )

    def patch_bytes(self, filters: int, taps: int) -> int:
        """Bytes per input row of a ``(filters, taps)`` bank's largest temporary over the
        padded leaves: on the table path the gathered leaf counts or, for few filters,
        the int64 table-row index; on the corrections path the larger of those and the
        fault temporaries over the taps (``corrections_bytes``); else the XNOR products
        (``tile_patches``)."""
        path = self.evaluation_path[0]
        leaves = 1 << AdderTree().depth(taps)
        gathered = leaves * max(filters * level_dtype(self.length).itemsize, 8)
        if path == "tables":
            return gathered
        if path == "corrections":
            return max(gathered, corrections_bytes(self, filters, taps))
        return leaves * filters * words_for(self.length) * 8

    # ------------------------------------------------------------------ #
    # input levels and streams
    # ------------------------------------------------------------------ #
    def _input_source(self) -> tuple:
        """The van der Corput input SNG (:func:`repro.sc.dotproduct.input_sng`)."""
        return ("vdc", self.precision)

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
        if not np.all(np.abs(weights) <= 1.0 + 1e-9):
            raise ValueError("weights must be finite and lie in [-1, 1]")
        return bipolar_to_unipolar(weights)

    def prepare_inputs(self, values: np.ndarray) -> np.ndarray:
        """Convert bipolar input values ``(...,)`` to comparator levels ``(...,)``.

        Values lie in ``[-1, 1]`` (image pixels use ``[0, 1]``); the levels
        are those of the van der Corput input SNG at the ones-probabilities
        ``(v + 1) / 2`` (see "Comparator levels" in
        :mod:`repro.sc.dotproduct`).  :meth:`input_words` expands them into
        the packed streams.
        """
        return self._input_sng().levels(self._input_probabilities(values), self.length)

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
