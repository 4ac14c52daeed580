"""The stochastic dot-product engine (paper Fig. 3, middle).

Each convolution engine of the hybrid first layer computes

    g(x, w) = sign(x . w)

entirely in the stochastic domain, with the trick described in Section IV-B:
instead of using bipolar arithmetic (whose decision point sits at the
maximum-fluctuation density 0.5), the weights are split into positive and
negative magnitude vectors and *two unipolar* dot products are evaluated:

    g_pos = x . w_pos        g_neg = x . w_neg

Each dot product is an AND-multiplier per tap followed by a balanced tree of
scaled adders; two counters convert the results to binary and a binary
comparator implements the sign activation.

This module holds two layers:

* the byte-per-bit reference kernel :func:`stochastic_dot_product`, which
  reduces pre-generated one-byte-per-bit arrays through the element adders
  (:meth:`AdderTree.reduce <repro.sc.elements.adders.AdderTree.reduce>`).
  It defines the bit-level semantics once and is the oracle the
  differential test suites compare the engines against (its bipolar twin
  lives with them, in ``tests/sc_oracle.py``);
* :class:`StochasticDotProductEngine`, which owns the number-generation
  configuration (the knob that distinguishes "this work" from the "old SC"
  baseline in Table 3).  Its only evaluator is a :class:`PreparedWeights`
  filter bank; :meth:`~StochasticDotProductEngine.dot` and
  :meth:`~StochasticDotProductEngine.dot_filters` are thin wrappers that
  build one.

Tiles
-----
A bank evaluates inputs of any batch size in bounded memory: leading axes are
flattened in C order into rows, and each tile of rows is fault-injected at
its global row offset and counted on its own -- converted to comparator
levels tile by tile from input values (:meth:`PreparedWeights.evaluate`), or
taken as levels converted beforehand (:meth:`PreparedWeights.evaluate_levels`,
the convolution layer's level-map path).  The tile comes from one rule,
:func:`tile_patches`: the byte budget :data:`TILE_BYTES` over the per-row
size of the largest temporary on the path the bank runs
(:meth:`StochasticDotProductEngine.patch_bytes`).  The bank's weight
streams, select streams and leaf tables are built once and reused, and
fault masks are keyed on global row indices, so any tile gives the counts
of one untiled pass.

MUX select seeds
----------------
Each bank instantiates its own MUX adders from a fresh seed sequence
(:meth:`StochasticDotProductEngine._adder_factory`): node ``i`` of the bank's
tree plan -- lane-major, each lane's tree level by level -- gets select seed
``seed * 1000 + 1 + i``.  So a bank is a pure function of (engine, kernels):
every bank built from one kernel set counts alike, whatever was evaluated on
the engine before, which models select LFSRs that restart with every frame.

Comparator levels
-----------------
Every input stream is a comparator output against one number source that all
inputs share -- the ramp of the ramp-compare front end for "this work", an
LFSR for "old SC" -- so a stream is fully set by its *level*
``c = #{n : s[n] < v}``: its ones sit at the first ``c`` positions of the
source's stable argsort.  The engine therefore prepares inputs as levels
(:meth:`~StochasticDotProductEngine.prepare_inputs`, shape ``(..., taps)``,
int16 up to precision 14 and int32 beyond), and ``popcount(x & w)`` is one
lookup into the cumulative sum of ``w``'s bits in source-sorted order.
Without stream faults (:mod:`repro.sc.mode`) a bank evaluates levels against
such per-lane *leaf tables* (:meth:`FilterBank.leaf_tables`, here
``2 * filters * taps * (N + 1)`` integers: 0.8 MB at 32 filters, 25 taps and
N = 256), as the bipolar engine's banks do with XNOR leaf counts
(:mod:`repro.sc.bipolar`).  Under sparse stream faults a TFF bank gathers
the same table counts and corrects them for each faulted input word: the
clean word is a row of the input SNG's level words, the faulted word is the
clean word XOR its flip word, and the count moves by the difference of their
leaf-product popcounts (:meth:`FilterBank._corrected_counts`).  Packed
streams -- 64 clock cycles per uint64 word (:mod:`repro.bitstream.packed`)
-- are built from levels only where a path needs them
(:meth:`~StochasticDotProductEngine.input_words`): under dense stream faults,
under stream faults on MUX trees, and in stream mode.  Since a stream is set
by its level, building one is a gather: row ``c`` of the input SNG's
``(N + 1, W)`` level-word table is the stream of level ``c``
(:func:`comparator_words`; one table per SNG configuration, 8 KB at N = 256
and 2 MB at N = 4096, and past :data:`LEVEL_TABLE_BYTES` streams are
compared cycle by cycle instead).  Every path that takes levels rejects
non-integer ones (``TypeError``) and ones outside ``[0, N]``
(``ValueError``) at its boundary (:func:`checked_levels`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple, Optional, Tuple

import numpy as np

from ..bitstream import stream_length
from ..bitstream.packed import (
    WORD_BITS,
    mask_tail,
    packed_popcount,
    unpack_bits,
    word_popcount,
    words_for,
)
from ..faults.spec import FaultSpec
from ..rng import (
    ComparatorSNG,
    LFSRSource,
    RampCompareSNG,
    VanDerCorputSource,
    level_dtype,
)
from ..utils.checks import check_count
from .elements.adders import AdderTree, MuxAdder, TffAdder, TreePlan
from .elements.converters import count_ones, sign_from_counts
from .elements.util import as_bits
from .mode import MODES, resolve_mode, validate_mode

__all__ = [
    "MODES",
    "resolve_mode",
    "validate_mode",
    "split_weights",
    "stochastic_dot_product",
    "DotProductResult",
    "TILE_BYTES",
    "CORRECTIONS_SHARE",
    "LEVEL_TABLE_BYTES",
    "tile_patches",
    "FaultedLevels",
    "FilterBank",
    "PreparedWeights",
    "StochasticDotProductEngine",
    "new_sc_engine",
    "old_sc_engine",
]

# Mode selection lives in repro.sc.mode; it is re-exported here because the
# engines are its primary consumers and existing callers import it from this
# module.


def split_weights(weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split signed weights into positive and negative unipolar magnitudes.

    Returns ``(w_pos, w_neg)`` with ``weights = w_pos - w_neg`` and both parts
    in ``[0, 1]`` (weights are expected to be pre-scaled into ``[-1, 1]``; see
    :func:`repro.nn.quantization.scale_kernels`).
    """
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.abs(w) <= 1.0 + 1e-9):
        raise ValueError("weights must be finite and lie in [-1, 1]; apply weight scaling first")
    w_pos = np.clip(w, 0.0, 1.0)
    w_neg = np.clip(-w, 0.0, 1.0)
    return w_pos, w_neg


def stochastic_dot_product(
    x_bits: np.ndarray,
    w_bits: np.ndarray,
    adder_factory: Callable[[], object] = TffAdder,
) -> np.ndarray:
    """Bit-level unipolar dot product of input streams with weight streams.

    Parameters
    ----------
    x_bits:
        Input bit array of shape ``(..., k, N)``.
    w_bits:
        Weight bit array broadcastable to ``x_bits`` (typically ``(k, N)``).
    adder_factory:
        Factory for the two-input scaled adder used at every tree node.

    Returns
    -------
    counts:
        Ones-count of the tree output, shape ``(...,)``.  The encoded value is
        ``counts / N * 2**depth`` where ``depth = ceil(log2 k)``.
    """
    x_arr, _ = as_bits(x_bits)
    w_arr, _ = as_bits(w_bits)
    products = (x_arr & w_arr).astype(np.uint8)
    tree = AdderTree(adder_factory)
    summed = tree.reduce(products)
    return count_ones(summed)


@dataclass
class DotProductResult:
    """Outputs of one batch of stochastic dot products."""

    #: Ones-count of the positive-weight tree output.
    positive_count: np.ndarray
    #: Ones-count of the negative-weight tree output.
    negative_count: np.ndarray
    #: Stream length used.
    length: int
    #: Scale factor 2**depth of the adder tree.
    tree_scale: int

    @property
    def sign(self) -> np.ndarray:
        """The sign activation ``sign(x . w)`` (-1, 0 or +1)."""
        return sign_from_counts(self.positive_count, self.negative_count)

    @property
    def value(self) -> np.ndarray:
        """The reconstructed (scaled-back) dot-product value ``x . w``."""
        diff = self.positive_count.astype(np.float64) - self.negative_count
        return diff / self.length * self.tree_scale


#: Byte budget of the largest temporary one evaluation tile allocates.
TILE_BYTES = 4 << 20

#: Expected share of faulted input words below which faulted TFF banks count
#: from leaf tables plus per-word corrections instead of leaf popcounts
#: (:attr:`StochasticDotProductEngine.evaluation_path`).
CORRECTIONS_SHARE = 0.25


def corrections_bytes(engine, lanes: int, taps: int) -> int:
    """Bytes per input row of the corrections path's fault temporaries.

    The larger of ``3 * taps`` words per stream, the budget for the buffers
    that hash the tile's flip mask (:func:`~repro.faults.masks.bernoulli_words`;
    under tracemalloc one mask call peaks at about 4x its mask words), and
    the per-lane weight and product words of the expected faulted words,
    ``word_fault_share * taps`` words per stream.
    """
    words = taps * words_for(engine.length)
    share = engine.faults.word_fault_share(engine.length)
    return max(3 * words * 8, int(share * words * lanes * 8))


def tile_patches(engine, filters: int, taps: int) -> int:
    """The tile rule: rows per evaluation tile of an engine's ``(filters, taps)`` bank.

    :data:`TILE_BYTES` over the per-row bytes of the largest temporary on
    the path the bank will run (the engine's ``patch_bytes``), and at least
    one.  Computed from the shape alone, so no bank (and no MUX adder) is
    built to ask.
    """
    return max(1, TILE_BYTES // engine.patch_bytes(filters, taps))


#: Largest level-word table (:func:`comparator_words`) kept per input SNG: its
#: ``(N + 1) * N / 8`` bytes are 8 KB at N = 256 and 2 MB at N = 4096; longer
#: streams are expanded by comparison.
LEVEL_TABLE_BYTES = 4 << 20


def checked_levels(levels: np.ndarray, n_bits: int) -> np.ndarray:
    """``levels`` as an array if they are integer comparator levels in ``[0, n_bits]``.

    Raises ``TypeError`` for a non-integer dtype and ``ValueError`` for a
    level outside the range, the boundary check of every path that takes
    levels.
    """
    levels = np.asarray(levels)
    if not np.issubdtype(levels.dtype, np.integer):
        raise TypeError(f"comparator levels must be integers, got dtype {levels.dtype}")
    if levels.size and (levels.min() < 0 or levels.max() > n_bits):
        raise ValueError(f"comparator levels must lie in [0, {n_bits}]")
    return levels


def input_sng(source: tuple) -> ComparatorSNG:
    """The input SNG of an engine's ``_input_source()`` key ``(kind, precision, ...)``.

    ``("ramp", p)`` is the ramp-compare converter, ``("lfsr", p, seed)`` a
    comparator over an LFSR and ``("vdc", p)`` one over the van der Corput
    sequence (the bipolar engine's inputs).
    """
    kind, precision = source[:2]
    if kind == "ramp":
        return RampCompareSNG(precision)
    if kind == "lfsr":
        return ComparatorSNG(LFSRSource(precision, seed=source[2]))
    return ComparatorSNG(VanDerCorputSource(precision))


@functools.lru_cache(maxsize=8)
def _level_word_table(source: tuple) -> Optional[np.ndarray]:
    """Read-only packed streams of every level ``0..N`` of input SNG ``source``,
    ``(N + 1, W)``, or ``None`` above :data:`LEVEL_TABLE_BYTES`."""
    n = stream_length(source[1])
    if (n + 1) * words_for(n) * 8 > LEVEL_TABLE_BYTES:
        return None
    table = input_sng(source).expand_levels(np.arange(n + 1), n)
    table.setflags(write=False)
    return table


def comparator_words(source: tuple, levels: np.ndarray) -> np.ndarray:
    """Packed input streams ``levels.shape + (W,)`` of checked comparator levels.

    One gather from the input SNG's level-word table, kept once per SNG
    configuration ``source`` (an engine's ``_input_source()``, derived from
    its fields on every call, so a table never outlives its configuration);
    past :data:`LEVEL_TABLE_BYTES` the streams are compared cycle by cycle
    (:meth:`~repro.rng.sng.ComparatorSNG.expand_levels`).
    """
    table = _level_word_table(source)
    if table is None:
        return input_sng(source).expand_levels(levels, stream_length(source[1]))
    return np.take(table, levels, axis=0)


class FaultedLevels(NamedTuple):
    """One tile under sparse stream faults, from ``apply_faults`` on the corrections path.

    The comparator levels ``(rows, taps)`` of the tile and the flip-mask
    words that are not zero (:meth:`repro.faults.FaultSpec.nonzero_masks`):
    their ascending flat ``(row, tap, word)`` indices and the flip words
    there.  Every other input word is a clean comparator output.
    """

    levels: np.ndarray
    index: np.ndarray
    flips: np.ndarray


class FilterBank:
    """One kernel set's weight streams, adder-tree plan and leaf tables.

    The shared evaluation of :class:`PreparedWeights` and
    :class:`~repro.sc.bipolar.BipolarWeightBank`: subclasses set ``engine``,
    ``filters``, ``taps``, ``n_bits``, ``plan`` and ``lane_words`` (the
    weight words of every lane's leaves, ``(lanes, leaves, W)``), and define
    their leaf multiplier on packed words (:meth:`_leaf_op`) and their leaf
    tables (:meth:`_build_tables`).
    """

    #: Counters per filter, stacked on the leading axis of :meth:`_tiled`.
    counters = 1
    lane_words: np.ndarray
    _tables: Optional[np.ndarray] = None
    _leaf_words: Optional[np.ndarray] = None

    def _leaf_op(
        self, x: np.ndarray, w: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The leaf multiplier on broadcast packed words, into ``out`` if given: AND or
        XNOR, bits past N unmasked."""
        raise NotImplementedError

    def _tiled(self, inputs: np.ndarray, prepare: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Counts ``(counters, ..., filters)`` for inputs ``(..., taps)``, tile by tile.

        Leading axes are flattened in C order into rows; each tile
        ``[start, stop)`` of rows runs ``prepare`` (values to comparator
        levels, or nothing for levels), then ``apply_faults(offset=start)``,
        then :meth:`counts` -- the global row indices an untiled pass would
        use, so tiling never changes a count.  Zero rows give empty counts.
        """
        if inputs.ndim < 1 or inputs.shape[-1] != self.taps:
            raise ValueError(
                f"tap count mismatch: inputs have shape {inputs.shape}, "
                f"the bank has {self.taps} taps"
            )
        rows = inputs.reshape(-1, self.taps)
        tile = tile_patches(self.engine, self.filters, self.taps)
        out = np.empty((self.counters, rows.shape[0], self.filters), dtype=np.int64)
        for start in range(0, rows.shape[0], tile):
            prepared = self.engine.apply_faults(prepare(rows[start : start + tile]), offset=start)
            out[:, start : start + tile] = self.counts(prepared)
        return out.reshape((self.counters,) + inputs.shape[:-1] + (self.filters,))

    def leaf_tables(self) -> np.ndarray:
        """Leaf tables ``(leaves, N + 1, lanes)`` of the level dtype, built once: entry
        ``[t, c, lane]`` is the ones-count of lane ``lane``'s leaf ``t`` for the input of
        comparator level ``c`` -- for all-MUX trees inside the leaf's disjoint ownership
        mask (:meth:`TreePlan.leaf_masks`), so a lane's root count sums them."""
        if self._tables is None:
            self._tables = self._build_tables()
        return self._tables

    def _running_counts(self, steps: np.ndarray) -> np.ndarray:
        """Running sums ``(leaves, N + 1, lanes)`` of per-cycle steps ``(lanes, leaves, N)``
        over the cycles an input of comparator level ``c`` sets, the first ``c`` of the
        input source's sorted order: for the bits of a stream ``w``, ``popcount(x & w)``."""
        n = self.n_bits
        order = self.engine._input_sng().sort_order(n)
        tables = np.zeros((steps.shape[1], n + 1, steps.shape[0]), dtype=level_dtype(n))
        np.cumsum(steps[..., order].transpose(1, 2, 0), axis=1, dtype=tables.dtype, out=tables[:, 1:])
        return tables

    def _root_counts(self, prepared) -> np.ndarray:
        """Lane-major root counts ``(..., lanes)`` for one tile of prepared inputs:
        comparator levels ``(..., taps)`` from ``prepare_inputs``, a
        :class:`FaultedLevels` tile or packed streams ``(..., taps, W)`` from
        ``apply_faults`` under stream faults.

        On the ``"tables"`` path levels are one gather from the
        :meth:`leaf_tables`: TFF trees halve the gathered leaf counts
        (:meth:`TreePlan.reduce_counts`), MUX trees sum them.  A
        :class:`FaultedLevels` tile gets the same gather plus one exact
        correction per faulted input word (:meth:`_corrected_counts`).
        Otherwise levels are expanded into streams (``input_words``, a
        gather from the input SNG's level-word table) and multiplied into
        leaf-major leaf products (:meth:`_leaf_streams`).  A TFF tree
        outside stream mode halves their popcounts -- its root count depends
        only on its leaf counts, whatever the leaf bits -- and everything
        else reduces the streams (:meth:`TreePlan.reduce_packed`: TFF levels
        paired slab by slab, MUX trees one OR of the leaves ANDed with their
        ownership masks).  Every path produces identical counts.
        """
        if isinstance(prepared, FaultedLevels):
            return self._corrected_counts(prepared)
        x = np.asarray(prepared)
        if x.dtype != np.uint64:
            x = self._checked_levels(x)
            if self.engine._use_count_mode:
                return self._table_counts(x)
            x = self.engine.input_words(x)
        if x.ndim < 2 or x.shape[-2] != self.taps:
            raise ValueError(
                f"prepared streams must have {self.taps} taps on axis -2, "
                f"got shape {x.shape}"
            )
        leaves = self._leaf_streams(x)
        if self.engine.mode != "streams" and self.plan.supports_count_reduction:
            return self.plan.reduce_counts(packed_popcount(leaves))
        return packed_popcount(self.plan.reduce_packed(leaves, self.n_bits))

    def _checked_levels(self, levels: np.ndarray) -> np.ndarray:
        """``levels`` if they are integer comparator levels ``(..., taps)`` in ``[0, N]``."""
        if not np.issubdtype(levels.dtype, np.integer):
            raise TypeError(
                "prepared inputs must be integer comparator levels or "
                f"uint64 stream words, got dtype {levels.dtype}"
            )
        if levels.ndim < 1 or levels.shape[-1] != self.taps:
            raise ValueError(
                f"comparator levels must have {self.taps} taps on axis -1, "
                f"got shape {levels.shape}"
            )
        return checked_levels(levels, self.n_bits)

    def _leaf_streams(self, x: np.ndarray) -> np.ndarray:
        """Leaf products ``(..., lanes, leaves, W)`` of input streams ``(..., taps, W)``;
        pad leaves see the all-zero input stream.

        The products are written leaf-major with the lane axis innermost,
        ``(leaves, ..., W, lanes)``, and returned as a view: every leaf is
        one contiguous slab for :meth:`TreePlan.reduce_packed` and the
        popcounts' :meth:`TreePlan.reduce_counts`, and the product pass
        broadcasts each input word over a whole row of lanes.
        """
        words = self._leaf_major_words()
        leaves = words.shape[0]
        if leaves > self.taps:
            x = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(0, leaves - self.taps), (0, 0)])
        lead = x.ndim - 2
        out = np.empty((leaves,) + x.shape[:-2] + words.shape[1:], dtype=np.uint64)
        self._leaf_op(
            np.moveaxis(x, -2, 0)[..., np.newaxis],
            words.reshape((leaves,) + (1,) * lead + words.shape[1:]),
            out=out,
        )
        view = out.transpose(tuple(range(1, lead + 1)) + (lead + 2, 0, lead + 1))
        return mask_tail(view, self.n_bits)

    def _leaf_major_words(self) -> np.ndarray:
        """The weight words in the leaf products' layout, ``(leaves, W, lanes)``, built once."""
        if self._leaf_words is None:
            self._leaf_words = np.ascontiguousarray(self.lane_words.transpose(1, 2, 0))
        return self._leaf_words

    def _gathered(self, levels: np.ndarray) -> np.ndarray:
        """Leaf counts ``(leaves, ..., lanes)`` of comparator levels ``(..., taps)``, gathered
        from the :meth:`leaf_tables` in the table dtype."""
        n = self.n_bits
        tables = self.leaf_tables()
        leaves, _, lanes = tables.shape
        if leaves > self.taps:
            # Pad leaves see the all-zero input stream: level 0.
            levels = np.pad(levels, [(0, 0)] * (levels.ndim - 1) + [(0, leaves - self.taps)])
        rows = levels + np.arange(leaves) * (n + 1)
        # Leaf axis first: ``(leaves, ..., lanes)``, one table row per gather.
        return np.take(tables.reshape(-1, lanes), np.moveaxis(rows, -1, 0), axis=0)

    def _table_counts(self, levels: np.ndarray) -> np.ndarray:
        """Lane-major root counts ``(..., lanes)`` from comparator levels."""
        leaf = self._gathered(levels)
        if self.plan.supports_count_reduction:
            return self.plan.reduce_counts(np.moveaxis(leaf, 0, -1))
        # A lane's masks are disjoint, so its root count (at most N) fits the
        # table dtype.
        return leaf.sum(axis=0, dtype=leaf.dtype).astype(np.int64)

    def _corrected_counts(self, faulted: FaultedLevels) -> np.ndarray:
        """Lane-major root counts ``(rows, lanes)`` of a TFF bank under sparse stream faults.

        A faulted leaf count is the fault-free table count plus, for every
        faulted input word, ``popcount(op(faulted, w)) - popcount(op(x, w))``
        per lane, where ``x`` is the clean comparator word (from the input
        SNG's level-word table, :func:`comparator_words`), the faulted word is
        ``x`` XOR its flip word, and ``w`` the lane's weight word.  The
        corrected leaf counts are halved like the fault-free ones
        (:meth:`TreePlan.reduce_counts`); no stream is built.  Pad leaves are
        never faulted.
        """
        levels = self._checked_levels(np.asarray(faulted.levels))
        rows = levels.reshape(-1, self.taps)
        leaf = self._gathered(rows)
        if faulted.index.size:
            self._correct(leaf, rows, faulted)
        counts = self.plan.reduce_counts(np.moveaxis(leaf, 0, -1))
        return counts.reshape(levels.shape[:-1] + counts.shape[-1:])

    def _correct(self, leaf: np.ndarray, rows: np.ndarray, faulted: FaultedLevels) -> None:
        """Add every faulted word's per-lane count change to the gathered ``leaf``
        counts of ``rows``, in place.

        Its temporaries -- the largest is one ``(faulted words, lanes)``
        buffer, which takes the weight words and then, in place, each
        product in turn -- are freed before the halving levels are
        allocated, so a tile's peak stays the gathered counts plus one of
        them.
        """
        width = words_for(self.n_bits)
        stream, word = np.divmod(faulted.index, width)
        # Words go on a trailing axis of length one, each a one-word
        # stream: N is a power of two, so every word holds min(N, 64)
        # cycles and masks the same tail.
        bits = min(self.n_bits, WORD_BITS)
        streams = comparator_words(self.engine._input_source(), rows.reshape(-1)[stream])
        clean = streams[np.arange(stream.size), word][:, np.newaxis, np.newaxis]
        hit = clean ^ faulted.flips[:, np.newaxis, np.newaxis]
        # Weight words ``(taps * W, lanes)``, rows in flat (tap, word) order.
        tap_words = self._leaf_major_words()[: self.taps].reshape(-1, leaf.shape[-1])
        tap_word = faulted.index % (self.taps * width)
        prod = np.empty(tap_word.shape + tap_words.shape[1:] + (1,), dtype=np.uint64)
        np.take(tap_words, tap_word, axis=0, out=prod[..., 0], mode="clip")
        faulted_ones = word_popcount(mask_tail(self._leaf_op(hit, prod, out=prod), bits))
        np.take(tap_words, tap_word, axis=0, out=prod[..., 0], mode="clip")
        clean_ones = word_popcount(mask_tail(self._leaf_op(clean, prod, out=prod), bits))
        # Counts of one word fit int8, so does their difference.
        delta = faulted_ones[..., 0].view(np.int8)
        delta -= clean_ones[..., 0].view(np.int8)
        # A stream's faulted words have distinct word indices, so the
        # words of one index correct distinct leaf counts: one fancy-index
        # add each (``np.add.at`` over the rows took 3-7x as long).
        row, tap = np.divmod(stream, self.taps)
        flat = leaf.reshape(-1, leaf.shape[-1])
        cell = tap * rows.shape[0] + row
        for j in range(width):
            at = np.flatnonzero(word == j)
            flat[cell[at]] += delta[at]


class PreparedWeights(FilterBank):
    """A filter bank: all-kernel weight streams plus a shared adder-tree plan.

    Built once per kernel set by
    :meth:`StochasticDotProductEngine.prepare_weights`; :meth:`evaluate`
    runs it on input values and :meth:`evaluate_levels` on comparator levels
    in bounded-memory tiles, and :meth:`counts` -- the engine's only
    evaluator -- counts one tile of prepared inputs.
    Weight streams are laid out one lane per ``(filter, sign)`` pair,
    filter-major -- ``lane_words``, ``(2 * filters, taps, W)`` packed words,
    lane ``2 * f`` the positive and ``2 * f + 1`` the negative tree of filter
    ``f`` -- so one vectorized tree reduction covers every pair at once, and
    the positive and negative dot products of the paper's split-weight trick
    are fused into a single pass over shared inputs.

    On the ``"tables"`` path the bank evaluates comparator levels against
    per-lane *leaf tables* (:meth:`leaf_tables`), built on the first call
    -- 0.8 MB at Table 3 scale, 13 MB at N = 4096.

    The tree plan's adders are instantiated filter-major (filter 0's positive
    tree, then its negative tree, then filter 1, ...) from one fresh adder
    factory, exactly the node order of reducing the filters one at a time
    with :func:`stochastic_dot_product` through that factory.  MUX select
    seeds are keyed on (engine seed, lane, node) and restart with each bank
    (see "MUX select seeds" in the module docstring), so a second bank of
    the same kernels on one engine counts exactly like the first.  Because
    the plan caches its select streams, evaluating inputs tile by tile is
    bit-identical to one untiled pass.
    """

    counters = 2

    def __init__(self, engine: "StochasticDotProductEngine", weights: np.ndarray) -> None:
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
        w_pos, w_neg = engine.weight_words(weights)
        self.lane_words = np.stack([w_pos, w_neg], axis=1).reshape(2 * self.filters, self.taps, -1)
        # One tree lane per (filter, sign) pair, laid out filter-major.
        self.plan: TreePlan = AdderTree(engine._adder_factory()).plan(
            self.taps, lanes=2 * self.filters
        )

    @property
    def tree_scale(self) -> int:
        """Counter scale ``2**depth`` of each per-filter adder tree."""
        return self.plan.tree_scale

    def _build_tables(self) -> np.ndarray:
        """AND leaf counts ``popcount(x & w)``, of mask-ANDed weights for MUX trees."""
        words = self.lane_words
        if not self.plan.supports_count_reduction:
            words = words & self.plan.leaf_masks(self.n_bits, packed=True)
        return self._running_counts(unpack_bits(words, self.n_bits))

    def _leaf_op(
        self, x: np.ndarray, w: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The AND multiplier."""
        return np.bitwise_and(x, w, out=out)

    def evaluate(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Positive and negative counts ``(..., filters)`` for input values ``(..., taps)``.

        Values are unipolar, in ``[0, 1]``.  Runs :meth:`counts` on tiles of
        :func:`tile_patches` rows (:meth:`FilterBank._tiled`), each converted
        by ``prepare_inputs`` on its own, so memory stays bounded at any
        batch size.
        """
        pos, neg = self._tiled(np.asarray(values, dtype=np.float64), self.engine.prepare_inputs)
        return pos, neg

    def evaluate_levels(self, levels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`evaluate` on comparator levels ``(..., taps)`` from ``prepare_inputs``.

        The same tiles, fault offsets and counts as :meth:`evaluate` on the
        values behind ``levels``: a level depends only on its value, so
        converting before cutting rows (a whole image at once, say) changes
        no count.
        """
        pos, neg = self._tiled(checked_levels(levels, self.n_bits), lambda rows: rows)
        return pos, neg

    def counts(self, prepared) -> Tuple[np.ndarray, np.ndarray]:
        """Positive and negative tree counts, int64 ``(..., filters)`` each, for one
        tile of prepared inputs: comparator levels, a :class:`FaultedLevels` tile
        (corrections path) or faulted streams, whatever ``apply_faults``
        returned (see :meth:`FilterBank._root_counts`)."""
        return self._split(self._root_counts(prepared))

    def _split(self, flat_counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Lane-major ``(..., 2 * filters)`` counts to ``(positive, negative)``."""
        stacked = flat_counts.reshape(flat_counts.shape[:-1] + (self.filters, 2))
        return stacked[..., 0], stacked[..., 1]

    def __repr__(self) -> str:
        return (
            f"PreparedWeights(filters={self.filters}, taps={self.taps}, "
            f"n_bits={self.n_bits})"
        )


@dataclass
class StochasticDotProductEngine:
    """A configurable stochastic dot-product engine.

    Every evaluation runs through a :class:`PreparedWeights` bank:
    :meth:`prepare_weights` builds it, and its
    :meth:`~PreparedWeights.evaluate` runs :meth:`prepare_inputs` (values to
    comparator levels), :meth:`apply_faults` (expansion and corruption under
    stream faults) and :meth:`~PreparedWeights.counts` tile by tile
    (:meth:`~PreparedWeights.evaluate_levels` takes levels converted
    beforehand).
    :meth:`dot` and :meth:`dot_filters` wrap one bank.  Streams are simulated as
    packed words -- 64 clock cycles per uint64
    (:mod:`repro.bitstream.packed`); the byte-per-bit reference
    :func:`stochastic_dot_product` produces the same counter values.

    Parameters
    ----------
    precision:
        Binary precision in bits; the bit-stream length is ``2**precision``.
    adder:
        ``"tff"`` (this work) or ``"mux"`` (old SC).
    input_generator:
        ``"ramp"`` -- ramp-compare analog-to-stochastic conversion (this work),
        or ``"lfsr"`` -- conventional comparator SNG with an LFSR (old SC).
    weight_generator:
        ``"lowdisc"`` (this work) or ``"lfsr"`` (old designs).
    seed:
        Seed for LFSR-based and MUX-select sources.  Select seeds are keyed
        on (seed, lane, node) and restart with each bank (see "MUX select
        seeds" in the module docstring).
    mode:
        ``"auto"`` (the default; ``None`` resolves to it) takes the fastest
        exact path (:attr:`evaluation_path`): without stream faults, leaf
        counts gathered from the bank's leaf tables, halved per level for
        TFF trees and summed over select-masked taps for MUX trees, with no
        stream built.  ``"streams"`` forces the reference stream reduction.
        Both modes produce bit-identical counter values; the choice only
        affects speed and memory.
    faults:
        Optional :class:`~repro.faults.FaultSpec` describing the fault
        environment.  Its stream-bit flips are injected into the *input*
        streams -- by the bank's tiled evaluation calling
        :meth:`apply_faults` with each tile's row offset.  A faulted stream
        is no comparator output, so no leaf table holds its counts.  TFF
        trees count exactly from their leaf counts whatever the leaf bits:
        under sparse faults the table counts plus one correction per
        faulted word, no stream built; under dense faults the halved
        popcounts of the faulted leaf products.  MUX trees reduce the
        streams (:attr:`evaluation_path`).  Injection is seed-deterministic
        and bit-identical across tilings and repeated calls.
    """

    #: Stream representation, recorded in run manifests: packed uint64 words.
    backend: ClassVar[str] = "packed"
    #: A bank's MUX select seeds start at ``seed * _select_seed_scale + 1``.
    _select_seed_scale: ClassVar[int] = 1000

    precision: int = 8
    adder: str = "tff"
    input_generator: str = "ramp"
    weight_generator: str = "lowdisc"
    seed: int = 1
    mode: Optional[str] = None
    faults: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        check_count("precision", self.precision, 2)
        if self.adder not in ("tff", "mux"):
            raise ValueError(f"unknown adder {self.adder!r}; expected one of ('tff', 'mux')")
        if self.input_generator not in ("ramp", "lfsr"):
            raise ValueError(
                f"unknown input generator {self.input_generator!r}; "
                "expected one of ('ramp', 'lfsr')"
            )
        if self.weight_generator not in ("lowdisc", "lfsr"):
            raise ValueError(f"unknown weight generator {self.weight_generator!r}")
        self.mode = resolve_mode(self.mode)
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise TypeError(
                f"faults must be a FaultSpec or None, got {type(self.faults).__name__}"
            )

    @property
    def _stream_faults_active(self) -> bool:
        """Whether the engine must inject flips into input streams."""
        return self.faults is not None and self.faults.flip_rate > 0.0

    def apply_faults(self, prepared: np.ndarray, offset: int = 0):
        """Inject the engine's stream faults into :meth:`prepare_inputs` output.

        ``offset`` is the global index of the first stream in ``prepared``
        (the bank's tiled evaluation passes its tile start, so every tile
        gets the faults of one untiled pass).  What comes back depends on
        :attr:`evaluation_path`:

        * ``"corrections"`` -- a :class:`FaultedLevels`: the levels with the
          tile's nonzero flip words
          (:meth:`repro.faults.FaultSpec.nonzero_masks`); no stream is built;
        * ``"popcounts"`` and ``"streams"`` under stream faults -- the levels
          expanded into packed streams (:meth:`input_words`) and corrupted;
        * otherwise the levels unchanged.

        Under stream faults the levels are checked first, like
        :meth:`input_words` checks them: a non-integer dtype raises
        ``TypeError`` and a level outside ``[0, N]`` ``ValueError``.

        Callers feeding :meth:`PreparedWeights.counts` directly apply it
        themselves.
        """
        if not self._stream_faults_active:
            return prepared
        levels = checked_levels(prepared, self.length)
        if self.evaluation_path[0] == "corrections":
            n_streams = int(np.prod(levels.shape[:-1]))
            masks = self.faults.nonzero_masks(n_streams, levels.shape[-1], self.length, offset)
            return FaultedLevels(levels, *masks)
        return self.faults.apply(self.input_words(levels), self.length, offset=offset)

    @property
    def evaluation_path(self) -> Tuple[str, str]:
        """``(path, reason)``: the adder-tree evaluation this engine's banks run.

        Decided from the configuration alone -- the engine builds only
        homogeneous TFF or MUX trees, and a fault spec's flip rate and the
        stream length set the expected share of faulted input words
        (:meth:`repro.faults.FaultSpec.word_fault_share`) -- and read by
        :meth:`apply_faults`, :meth:`patch_bytes` and
        :meth:`FilterBank._root_counts`; the bipolar engine shares the rule.
        ``path`` is one of

        * ``"tables"`` -- comparator levels gathered from the bank's leaf
          tables (:meth:`FilterBank.leaf_tables`); no stream is built;
        * ``"corrections"`` -- TFF trees under sparse stream faults, when
          fewer than :data:`CORRECTIONS_SHARE` of the input words are
          expected to be faulted: the table gather plus an exact per-lane
          correction for each faulted word, halved per level
          (:meth:`TreePlan.reduce_counts`); no stream is built;
        * ``"popcounts"`` -- TFF trees under denser stream faults: the
          faulted leaf products are popcounted and halved per level, exact
          whatever the leaf bits (:attr:`TreePlan.supports_count_reduction`);
        * ``"streams"`` -- the stream reduction
          (:meth:`TreePlan.reduce_packed`) of the leaf products of the input
          streams (:meth:`input_words`, a gather from the level-word table):
          TFF levels paired slab by slab, MUX trees one OR of the leaves
          ANDed with their ownership masks (the masks of the table path, but
          applied to streams, so faulted bits count where they fall).
          ``mode="streams"`` and MUX trees under stream faults.
        """
        if self.mode == "streams":
            return "streams", "mode='streams' forces the reference stream reduction"
        if self._stream_faults_active and self.adder == "mux":
            return "streams", "stream faults rule out leaf tables; MUX trees reduce the streams"
        if self._stream_faults_active:
            share = self.faults.word_fault_share(self.length)
            faulted = f"{share:.2%} of input words faulted"
            if share < CORRECTIONS_SHARE:
                return "corrections", (
                    f"{faulted}, below {CORRECTIONS_SHARE:.0%}: TFF leaf-table counts "
                    "plus one correction per faulted word"
                )
            return "popcounts", (
                f"{faulted}, not below {CORRECTIONS_SHARE:.0%}: TFF trees halve leaf popcounts"
            )
        return "tables", f"no stream faults: {self.adder.upper()} leaf counts from leaf tables"

    @property
    def _use_count_mode(self) -> bool:
        """Whether banks gather fault-free leaf counts from leaf tables (:attr:`evaluation_path`)."""
        return self.evaluation_path[0] == "tables"

    def patch_bytes(self, filters: int, taps: int) -> int:
        """Bytes per input row of the largest temporary a ``(filters, taps)`` bank allocates.

        On the table path the gathered leaf counts, ``taps * 2 * filters``
        table entries, or for a single filter the int64 table-row index,
        ``taps`` entries; on the corrections path the larger of those and
        the fault temporaries (:func:`corrections_bytes`); on the popcount
        and stream paths the lane products, ``2 * filters * taps`` packed
        streams.  :func:`tile_patches` divides the tile budget by it.
        """
        path = self.evaluation_path[0]
        gathered = taps * max(2 * filters * level_dtype(self.length).itemsize, 8)
        if path == "tables":
            return gathered
        if path == "corrections":
            return max(gathered, corrections_bytes(self, 2 * filters, taps))
        return 2 * filters * taps * words_for(self.length) * 8

    # ------------------------------------------------------------------ #
    # input levels and streams
    # ------------------------------------------------------------------ #
    @property
    def length(self) -> int:
        """Bit-stream length ``2**precision``."""
        return stream_length(self.precision)

    def prepare_inputs(self, values: np.ndarray) -> np.ndarray:
        """Convert unipolar input values ``(...,)`` to comparator levels ``(...,)``.

        The input SNG's levels ``c = #{n : s[n] < v}``
        (:meth:`~repro.rng.sng.ComparatorSNG.levels`; see "Comparator
        levels" in the module docstring).  Values are clipped to ``[0, 1]``;
        NaN or infinite values raise ``ValueError``.  Conversion is
        stateless, so the result can be fed to any number of banks and tiles
        (after :meth:`apply_faults`); :meth:`input_words` expands it into
        the packed streams.
        """
        values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError("input values must be finite")
        return self._input_sng().levels(values, self.length)

    def input_words(self, levels: np.ndarray) -> np.ndarray:
        """Packed input streams ``levels.shape + (W,)`` of comparator levels.

        ``W = ceil(N / 64)`` uint64 words per stream, holding exactly the
        bits the input SNG's comparator emits for the values behind
        ``levels``: one gather of rows of the SNG's ``(N + 1, W)`` level-word
        table (:func:`comparator_words`), instead of comparing all N cycles
        of every stream.  A non-integer dtype raises ``TypeError`` and a
        level outside ``[0, N]`` ``ValueError``.  Needed only by the stream
        paths: stream faults and stream mode.
        """
        return comparator_words(self._input_source(), checked_levels(levels, self.length))

    def _input_source(self) -> tuple:
        """The input SNG's configuration, read from the fields on every call (:func:`input_sng`)."""
        if self.input_generator == "ramp":
            return ("ramp", self.precision)
        return ("lfsr", self.precision, self.seed)

    def _input_sng(self) -> ComparatorSNG:
        return input_sng(self._input_source())

    def _weight_sng(self) -> ComparatorSNG:
        if self.weight_generator == "lowdisc":
            return ComparatorSNG(VanDerCorputSource(self.precision))
        return ComparatorSNG(
            LFSRSource(self.precision, seed=(self.seed * 3 + 1) % 255 or 1)
        )

    def weight_words(self, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Positive and negative weight streams, packed: ``w.shape + (W,)`` each."""
        w_pos, w_neg = split_weights(weights)
        sng = self._weight_sng()
        return sng.generate_packed(w_pos, self.length), sng.generate_packed(
            w_neg, self.length
        )

    def _adder_factory(self) -> Callable[[], object]:
        """A fresh adder factory for one bank (both engines).

        MUX trees give every node its own select source, so node outputs
        stay mutually uncorrelated like independent hardware LFSRs.  Each
        factory restarts the seed sequence, so node ``i`` of every bank's
        plan (lane-major, level by level) gets seed
        ``seed * _select_seed_scale + 1 + i``.
        """
        if self.adder == "tff":
            return TffAdder
        seeds = itertools.count(self.seed * self._select_seed_scale + 1)
        return lambda: MuxAdder(seed=next(seeds))

    # ------------------------------------------------------------------ #
    # computation
    # ------------------------------------------------------------------ #
    def prepare_weights(self, weights: np.ndarray) -> PreparedWeights:
        """Generate the filter bank for a whole ``(filters, taps)`` kernel set.

        The returned :class:`PreparedWeights` evaluates every filter's
        positive and negative dot products in one vectorized pass and is
        reusable across input tiles.
        """
        return PreparedWeights(self, weights)

    def dot_filters(self, x: np.ndarray, weights: np.ndarray) -> DotProductResult:
        """Filter-parallel :meth:`dot`: ``x`` is ``(..., taps)``, weights
        ``(filters, taps)``; result counts have shape ``(..., filters)``."""
        bank = self.prepare_weights(weights)
        pos, neg = bank.evaluate(x)
        return DotProductResult(
            positive_count=pos,
            negative_count=neg,
            length=self.length,
            tree_scale=bank.tree_scale,
        )

    def dot(self, x: np.ndarray, weights: np.ndarray) -> DotProductResult:
        """Compute ``x . w`` for inputs ``x`` in ``[0, 1]`` and weights in ``[-1, 1]``.

        ``x`` has shape ``(..., k)`` and ``weights`` shape ``(k,)``; the result
        arrays have shape ``(...,)``.  Evaluated as a one-filter bank, so the
        counts equal ``dot_filters(x, weights[None])`` filter 0.
        """
        x = np.asarray(x, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or x.shape[-1] != weights.shape[0]:
            raise ValueError(
                f"tap count mismatch: inputs have {x.shape[-1]}, "
                f"weights have shape {weights.shape}"
            )
        result = self.dot_filters(x, weights[np.newaxis])
        return DotProductResult(
            positive_count=result.positive_count[..., 0],
            negative_count=result.negative_count[..., 0],
            length=result.length,
            tree_scale=result.tree_scale,
        )


def new_sc_engine(
    precision: int,
    seed: int = 1,
    mode: Optional[str] = None,
    faults: Optional[FaultSpec] = None,
) -> StochasticDotProductEngine:
    """The paper's proposed configuration: TFF adder, ramp input, low-discrepancy weights."""
    return StochasticDotProductEngine(
        precision=precision,
        adder="tff",
        input_generator="ramp",
        weight_generator="lowdisc",
        seed=seed,
        mode=mode,
        faults=faults,
    )


def old_sc_engine(
    precision: int,
    seed: int = 1,
    mode: Optional[str] = None,
    faults: Optional[FaultSpec] = None,
) -> StochasticDotProductEngine:
    """The conventional configuration used as the "Old SC" baseline in Table 3.

    MUX adders driven by pseudo-random select streams and LFSR-based SNGs for
    both inputs and weights, matching the Fig. 1 primitives of prior work.
    """
    return StochasticDotProductEngine(
        precision=precision,
        adder="mux",
        input_generator="lfsr",
        weight_generator="lfsr",
        seed=seed,
        mode=mode,
        faults=faults,
    )
