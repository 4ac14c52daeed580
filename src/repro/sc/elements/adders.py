"""Stochastic adders: the conventional MUX adder and the paper's new TFF-based
adder.

All stochastic adders compute the *scaled* sum ``(p_x + p_y) / 2`` so the
result stays inside the unit interval.  They differ in where their error
comes from:

* :class:`MuxAdder` (Fig. 1b) randomly discards half of the input bits via a
  multiplexer whose select input is a 0.5-valued stream; it therefore needs an
  extra number source and exhibits sampling error even for exactly
  representable results.
* :class:`TffAdder` (Fig. 2b, the paper's contribution) stores the
  "carry" information of disagreeing input bits in a toggle flip-flop and
  releases it on the next disagreement.  Its output ones-count is *exactly*
  ``round((ones_x + ones_y) / 2)``, with the rounding direction chosen by the
  flip-flop's initial state -- no extra random source, no sensitivity to
  input correlation or auto-correlation.

:class:`AdderTree` builds balanced trees of either two-input adder, the
structure used by the stochastic dot-product engine.

Array-level reduction
---------------------
Tree reduction is evaluated *on whole arrays*, all nodes of a level at once.
A plan holds one adder kind: every level holds plain :class:`TffAdder` nodes
sharing one initial state (levels may differ in it), or every level holds
plain :class:`MuxAdder` nodes.  A plan raises ``ValueError`` for a level that
mixes kinds or holds a subclass, and for levels of different kinds.  Adder
*objects* are instantiated through the factory level by level, left to
right, so stateful factories -- e.g. per-node MUX select seeds -- see one
fixed node enumeration.

Packed words (``(..., k, W)``) are reduced with the leaf axis moved first, so
every pass works on whole leaf slabs -- contiguous ones for the filter
banks' leaf products, which are laid out leaf-major:

* **all-TFF trees** pair the leading slabs level by level, one prefix-parity
  scan per level (:func:`~repro.bitstream.packed.packed_tff_add`);
* **all-MUX trees** are one masked OR: at every clock cycle the select bits
  along the tree route exactly one leaf's bit (or a zero pad) to the root, so
  the root stream is ``OR_i(leaf_i & mask_i)`` with the disjoint per-leaf
  ownership masks of :meth:`TreePlan.leaf_masks`.

Byte-per-bit arrays (``(..., k, N)``, :meth:`TreePlan.reduce_bits`) keep the
level-by-level loop -- a toggle-state scan per TFF level, a per-node select
per MUX level -- which defines the tree semantics the packed reduction and
the count-domain shortcuts below are tested against.

:class:`TreePlan` extends this to *lanes*: several identical trees (for the
stochastic convolution, one tree per ``(filter, positive/negative)`` pair)
laid side by side on axis ``-3`` and reduced together in the same vectorized
passes.  Lane adders are instantiated lane-major (lane 0's whole tree, then
lane 1's, ...), matching a sequence of independent per-lane reductions, and
the plan object is reusable across input tiles: select streams and leaf
masks are generated once and cached, so tiled evaluation is bit-identical to
a single untiled pass.

Count-domain shortcuts
----------------------
Both tree families admit an *exact* count-domain evaluation that never
materializes a node's output stream (the engines' default path, see
:mod:`repro.sc.mode`):

* **all-TFF trees** -- every node's output ones-count is exactly
  ``floor/ceil((ones_x + ones_y) / 2)``, so :meth:`TreePlan.reduce_counts`
  halves integer leaf counts level by level (in int16 while the counts stay
  below ``2**14``);
* **all-MUX trees** -- the ownership masks that make the packed reduction
  one masked OR also make the root count the sum of the masked leaf counts
  ``popcount(leaf_i & mask_i)``.

Neither needs the leaf streams themselves, only their (masked) ones-counts.
Both engines' filter banks (:class:`~repro.sc.dotproduct.FilterBank`) take
them from leaf tables indexed by the inputs' comparator levels -- AND
products for the unipolar engine, XNOR products for the bipolar one, for MUX
trees restricted to the leaf masks -- so without stream faults they build
no stream at all.  The TFF identity holds for any leaf bits, so a TFF tree
whose leaf streams were corrupted by stream faults needs only their counts
too: the table counts corrected per faulted word, or the faulted leaves'
popcounts.  Both shortcuts are bit-identical to reducing the streams.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ...bitstream.packed import mask_tail, pack_bits, packed_tff_add, words_for
from ...rng.sources import NumberSource, PseudoRandomSource
from .flipflops import toggle_states
from .util import StreamLike, as_bits, check_same_length, wrap_like

_ALL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)

__all__ = [
    "StochasticAdder",
    "MuxAdder",
    "TffAdder",
    "AdderTree",
    "TreePlan",
    "tff_add",
    "mux_add",
]


def tff_add(
    x: StreamLike, y: StreamLike, initial_state: int = 0
) -> StreamLike:
    """The paper's TFF-based scaled addition ``(p_x + p_y) / 2`` (Fig. 2b).

    At each cycle, equal input bits propagate directly to the output; when the
    inputs disagree the current flip-flop state is emitted and the flip-flop
    toggles.  The output ones-count is exactly ``(ones_x + ones_y) / 2``
    rounded down (``initial_state=0``) or up (``initial_state=1``).
    """
    xb, _ = as_bits(x)
    yb, _ = as_bits(y)
    check_same_length(xb, yb)
    disagree = (xb ^ yb).astype(np.uint8)
    state = toggle_states(disagree, initial_state)
    out = np.where(disagree == 1, state, xb).astype(np.uint8)
    return wrap_like(out, x)


def mux_add(
    x: StreamLike, y: StreamLike, select: StreamLike
) -> StreamLike:
    """The conventional multiplexer-based scaled adder (Fig. 1b).

    ``select`` must be a bit-stream of unipolar value 0.5 that is uncorrelated
    with both data inputs; bits of ``y`` are taken where ``select`` is 1 and
    bits of ``x`` elsewhere.
    """
    xb, _ = as_bits(x)
    yb, _ = as_bits(y)
    sb, _ = as_bits(select)
    check_same_length(xb, yb, sb)
    out = np.where(sb == 1, yb, xb).astype(np.uint8)
    return wrap_like(out, x)


class StochasticAdder:
    """Common interface of the two-input scaled stochastic adders."""

    def __call__(self, x: StreamLike, y: StreamLike) -> StreamLike:
        raise NotImplementedError


class TffAdder(StochasticAdder):
    """The paper's TFF-based adder (Fig. 2b).

    Parameters
    ----------
    initial_state:
        Initial flip-flop value; selects the rounding direction when the exact
        scaled sum is not representable at the stream length (Fig. 2c).
    """

    def __init__(self, initial_state: int = 0) -> None:
        if initial_state not in (0, 1):
            raise ValueError("initial_state must be 0 or 1")
        self.initial_state = int(initial_state)

    def __call__(self, x: StreamLike, y: StreamLike) -> StreamLike:
        return tff_add(x, y, initial_state=self.initial_state)

    def __repr__(self) -> str:
        return f"TffAdder(initial_state={self.initial_state})"


class MuxAdder(StochasticAdder):
    """The conventional multiplexer adder with a configurable select source.

    Parameters
    ----------
    select_source:
        Number source whose comparison against 0.5 produces the select stream
        (Table 2 evaluates LFSR- and random-driven variants).  Ignored when
        ``toggle_select`` is true.
    toggle_select:
        Use a deterministic 0101... select stream produced by a free-running
        TFF (the "+ TFF" select configurations in Table 2).
    seed:
        Seed of the default pseudo-random select source.
    """

    def __init__(
        self,
        select_source: Optional[NumberSource] = None,
        toggle_select: bool = False,
        seed: int = 12345,
    ) -> None:
        self.toggle_select = bool(toggle_select)
        if select_source is None and not toggle_select:
            select_source = PseudoRandomSource(seed=seed)
        self.select_source = select_source

    def select_bits(self, length: int) -> np.ndarray:
        """Generate the 0.5-valued select stream for ``length`` cycles."""
        if self.toggle_select:
            return (np.arange(length, dtype=np.int64) & 1).astype(np.uint8)
        reference = self.select_source.sequence(length)
        return (reference < 0.5).astype(np.uint8)

    def __call__(self, x: StreamLike, y: StreamLike) -> StreamLike:
        xb, _ = as_bits(x)
        yb, _ = as_bits(y)
        length = check_same_length(xb, yb)
        return mux_add(x, y, self.select_bits(length))

    def __repr__(self) -> str:
        if self.toggle_select:
            return "MuxAdder(toggle_select=True)"
        return f"MuxAdder(select_source={self.select_source!r})"


def _level_group(adders: List[StochasticAdder]):
    """Classify one level's nodes for single-kernel vectorized application.

    Returns ``("tff", initial_state)`` when every node is a plain
    :class:`TffAdder` sharing one initial state and ``("mux", None)`` for
    plain :class:`MuxAdder` nodes (per-node select streams are stacked on the
    node axis); raises ``ValueError`` for anything else.
    """
    first = adders[0]
    if type(first) is TffAdder and all(
        type(a) is TffAdder and a.initial_state == first.initial_state
        for a in adders
    ):
        return ("tff", first.initial_state)
    if all(type(a) is MuxAdder for a in adders):
        return ("mux", None)
    kinds = sorted({repr(a) if type(a) is TffAdder else type(a).__name__ for a in adders})
    raise ValueError(
        "every adder-tree level must hold one plain adder kind: TffAdder nodes "
        f"sharing one initial_state or MuxAdder nodes; got {', '.join(kinds)}"
    )


def _mux_select_matrix(adders: List[StochasticAdder], length: int) -> np.ndarray:
    """Stack the per-node select streams of a MUX level: ``(nodes, length)``."""
    return np.stack([a.select_bits(length) for a in adders])


class TreePlan:
    """Pre-instantiated adder nodes for one or more identical reduction trees.

    A plan fixes the tree structure for ``count`` inputs and ``lanes``
    side-by-side trees, instantiates every node adder through the factory
    *once* (lane-major: lane 0's whole tree level by level left to right,
    then lane 1's, ... -- the exact enumeration a sequence of independent
    per-lane reductions would produce), and is then applied to any number of
    input arrays.  Because per-node select streams are generated once and
    cached, applying one plan to successive input tiles is bit-identical to
    reducing the concatenated tiles in a single pass -- the contract the
    tile-streamed stochastic convolution relies on.  A plan holds one adder
    kind, all TFF or all MUX (see the module docstring), else construction
    raises ``ValueError``.
    """

    def __init__(self, adder_factory, count: int, lanes: int = 1) -> None:
        if count < 1:
            raise ValueError("need at least one input")
        if lanes < 1:
            raise ValueError("need at least one lane")
        self.count = int(count)
        self.lanes = int(lanes)
        sizes: List[int] = []
        k = self.count
        while k > 1:
            k += k & 1
            sizes.append(k // 2)
            k //= 2
        self.level_sizes = sizes
        per_lane = [
            [[adder_factory() for _ in range(m)] for m in sizes]
            for _ in range(self.lanes)
        ]
        # Regrouped level-major for application; within a level the flat node
        # list is lane-major, matching the C-order flattening of the
        # ``(lanes, nodes)`` axes during the vectorized level pass.
        self.levels: List[List[StochasticAdder]] = [
            [per_lane[lane][li][j] for lane in range(self.lanes) for j in range(m)]
            for li, m in enumerate(sizes)
        ]
        self._groups = [_level_group(nodes) for nodes in self.levels]
        kinds = sorted({kind for kind, _ in self._groups})
        if len(kinds) > 1:
            raise ValueError(
                "a tree plan holds one adder kind: TffAdder levels or MuxAdder "
                f"levels; got levels of both ({', '.join(kinds)})"
            )
        #: ``"tff"``, ``"mux"`` or ``None`` for a one-input plan (no adder).
        self._kind = kinds[0] if kinds else None
        self._select_cache: dict = {}
        self._mask_cache: dict = {}
        # Input width of every level before its odd-width zero pad (leaves
        # first); the mask derivation needs it to drop pad columns.
        widths: List[int] = []
        k = self.count
        for m in sizes:
            widths.append(k)
            k = m
        self._level_input_widths = widths

    @property
    def depth(self) -> int:
        """Number of adder levels."""
        return len(self.level_sizes)

    @property
    def tree_scale(self) -> int:
        """The counter scale factor ``2**depth`` of each lane's tree."""
        return 1 << self.depth

    def _selects(self, li: int, length: int, packed: bool) -> np.ndarray:
        """Per-node select streams of a MUX level, cached per stream length."""
        key = (li, length, packed)
        cached = self._select_cache.get(key)
        if cached is None:
            matrix = _mux_select_matrix(self.levels[li], length)
            cached = pack_bits(matrix) if packed else matrix
            self._select_cache[key] = cached
        return cached

    def _check_input(self, arr: np.ndarray, what: str) -> np.ndarray:
        if self.lanes == 1:
            if arr.ndim < 2:
                raise ValueError(f"expected (..., k, {what}) input, got {arr.shape}")
            arr = arr[..., np.newaxis, :, :]
        if arr.ndim < 3 or arr.shape[-2] != self.count or arr.shape[-3] != self.lanes:
            raise ValueError(
                f"expected (..., {self.lanes} lanes, {self.count} streams, "
                f"{what}) input, got shape {arr.shape}"
            )
        return arr

    def _reduce_bits(self, arr: np.ndarray, length: int) -> np.ndarray:
        """The byte-per-bit level loop; ``arr`` is ``(..., lanes, k, N)``."""
        level = arr
        for li in range(self.depth):
            # A lone last node's zero partner is a one-node zero slab, so odd
            # levels copy no level to pad it.
            x = level[..., 0::2, :]
            y = level[..., 1::2, :]
            pairs = y.shape[-2]
            out = np.empty(x.shape, dtype=level.dtype)
            out[..., :pairs, :] = self._add(li, x[..., :pairs, :], y, length, slice(pairs))
            if x.shape[-2] > pairs:
                lone = x[..., pairs:, :]
                out[..., pairs:, :] = self._add(
                    li, lone, np.zeros_like(lone), length, slice(pairs, None)
                )
            level = out
        out = level[..., 0, :]
        return out[..., 0, :] if self.lanes == 1 else out

    def _add(self, li, x, y, length, nodes):
        """Level ``li``'s adders at node slice ``nodes`` on bits ``(..., lanes, m, N)``."""
        kind, initial_state = self._groups[li]
        if kind == "tff":
            disagree = (x ^ y).astype(np.uint8)
            state = toggle_states(disagree, initial_state)
            return np.where(disagree == 1, state, x)
        sel = self._selects(li, length, packed=False).reshape(self.lanes, -1, length)
        return np.where(sel[:, nodes] == 1, y, x)

    def _reduce_words(self, arr: np.ndarray, n_bits: int) -> np.ndarray:
        """The packed reduction of ``arr``, ``(..., lanes, k, W)``, leaf axis first."""
        leaves = np.moveaxis(arr, -2, 0)
        if self._kind == "mux":
            # Exactly one leaf (or a zero pad) owns each cycle of a lane's
            # root: OR the leaves ANDed with their ownership masks.
            masks = np.moveaxis(self.leaf_masks(n_bits, packed=True), 1, 0)
            root = leaves[0] & masks[0]
            term = np.empty_like(root)
            for leaf, mask in zip(leaves[1:], masks[1:]):
                root |= np.bitwise_and(leaf, mask, out=term)
        else:
            level = leaves
            for _, initial_state in self._groups:
                # An odd level's last node pairs with a zero stream.
                pairs, odd = divmod(level.shape[0], 2)
                out = np.empty_like(level[: pairs + odd])
                out[:pairs] = packed_tff_add(
                    level[0 : 2 * pairs : 2], level[1 : 2 * pairs : 2], n_bits, initial_state
                )
                if odd:
                    lone = level[-1]
                    out[pairs] = packed_tff_add(lone, np.zeros_like(lone), n_bits, initial_state)
                level = out
            root = level[0]
        return root[..., 0, :] if self.lanes == 1 else root

    @property
    def supports_count_reduction(self) -> bool:
        """True when the root ones-count follows from leaf counts alone.

        A plain :class:`TffAdder`'s output ones-count is *exactly*
        ``floor((ones_x + ones_y) / 2)`` (``initial_state=0``; ``ceil`` for
        1) whatever the bit positions: equal bits pass straight through
        (contributing ``both``) and the flip-flop state emitted at the ``d``
        disagreements alternates, releasing exactly ``floor(d / 2)`` (or
        ``ceil``) ones -- and ``both + floor((cx + cy - 2 * both) / 2)``
        collapses to ``floor((cx + cy) / 2)``.  So a tree whose every level
        is plain TFF nodes admits :meth:`reduce_counts`, the count-domain
        shortcut behind the filter-parallel convolution's speedup.  MUX
        levels are position-dependent: all-MUX trees have their own exact
        shortcut (:meth:`leaf_masks`).
        """
        return self._kind != "mux"

    def reduce_counts(self, leaf_counts: np.ndarray) -> np.ndarray:
        """Exact count-domain tree reduction for all-TFF plans.

        ``leaf_counts`` holds the ones-counts of the leaf streams, shape
        ``(..., lanes, k)`` (lane axis only when ``lanes > 1``); returns the
        root streams' ones-counts, shape ``(..., lanes)``, guaranteed
        bit-identical to popcounting the streams produced by
        :meth:`reduce_bits` / :meth:`reduce_packed` -- see
        :attr:`supports_count_reduction` for why this is exact (zero-padded
        odd levels contribute count 0, exactly like the padded streams).
        Raises ``ValueError`` when a level is not plain TFF.
        """
        if not self.supports_count_reduction:
            raise ValueError(
                "count-domain reduction is exact only for plain TffAdder "
                "trees; reduce the streams instead"
            )
        arr = np.asarray(leaf_counts)
        if self.lanes == 1:
            arr = arr[..., np.newaxis, :]
        if arr.ndim < 2 or arr.shape[-1] != self.count or arr.shape[-2] != self.lanes:
            raise ValueError(
                f"expected (..., {self.lanes} lanes, {self.count}) leaf "
                f"counts, got shape {arr.shape}"
            )
        # Two summed ones-counts (plus the rounding one) must fit the halving
        # dtype: below 2**14 they fit int16, below 2**30 int32; the narrower
        # type cuts the memory traffic of every level.  Narrower leaves are
        # widened first: an int16 leaf table holds 2**14.
        peak = int(arr.max()) if arr.size else 0
        dtype = np.int16 if peak < 1 << 14 else np.int32 if peak < 1 << 30 else np.int64
        # The leaf axis leads, so every level adds whole contiguous
        # ``(..., lanes)`` slabs.  An odd level's last node pairs with a
        # zero-count pad -- exactly the zero-stream pad of the stream
        # reduction -- and halves its lone input under either rounding.
        level = np.moveaxis(arr, -1, 0)
        if level.dtype.itemsize < np.dtype(dtype).itemsize:
            level = level.astype(dtype)
        for group in self._groups:
            pairs, odd = divmod(level.shape[0], 2)
            total = np.empty((pairs + odd,) + level.shape[1:], dtype=dtype)
            np.add(level[0 : 2 * pairs : 2], level[1 : 2 * pairs : 2], out=total[:pairs])
            if odd:
                total[pairs] = level[-1]
            if group[1]:
                # initial_state selects the rounding: floor for 0, ceil for 1.
                total += 1
            total >>= 1
            level = total
        out = level[0].astype(np.int64)
        return out[..., 0] if self.lanes == 1 else out

    def leaf_masks(self, length: int, packed: bool) -> np.ndarray:
        """Per-leaf ownership masks of an all-MUX tree: ``(lanes, count, .)``.

        Bit ``t`` of mask ``(lane, i)`` is 1 iff the select bits of lane
        ``lane``'s tree route leaf ``i``'s bit to the root at cycle ``t``.
        Each plain :class:`MuxAdder` node forwards one input bit per cycle,
        chosen by its cached select stream, so a lane's masks are disjoint
        (cycles routed to a zero pad belong to none): its root stream is
        ``OR_i(leaf_i & mask_i)`` -- the packed :meth:`reduce_packed` -- and
        its root ones-count the sum over leaves of ``popcount(leaf_i &
        mask_i)`` -- the banks' leaf tables.  Packed masks have clean tails.
        The array is a view of leaf-major ``(count, ., lanes)`` memory, the
        layout of the banks' leaf products (see :meth:`reduce_packed`), so
        each leaf's masks are one contiguous slab.  Only all-MUX trees have
        masks.  Cached per ``(length, packed)`` like the select streams, so
        tiled evaluation reuses one derivation.
        """
        if self._kind == "tff":
            raise ValueError(
                "leaf ownership masks exist only for plain MuxAdder trees"
            )
        key = (length, packed)
        cached = self._mask_cache.get(key)
        if cached is not None:
            return cached
        if packed:
            masks = np.full((1, words_for(length), self.lanes), _ALL_WORD, dtype=np.uint64)
            mask_tail(masks.transpose(0, 2, 1), length)
        else:
            masks = np.ones((1, length, self.lanes), dtype=np.uint8)
        # Walk the tree top-down, leaf-major: a node's mask splits into its
        # two children by its select stream (y / right child where select is
        # 1); odd-width levels drop the trailing pad row whose cycles are
        # forwarded as hard zeros.
        for li in range(self.depth - 1, -1, -1):
            m = self.level_sizes[li]
            sel = self._selects(li, length, packed).reshape(self.lanes, m, -1).transpose(1, 2, 0)
            inv = ~sel if packed else sel ^ 1
            children = np.empty((2 * m,) + masks.shape[1:], dtype=masks.dtype)
            children[0::2] = masks & inv
            children[1::2] = masks & sel
            masks = children[: self._level_input_widths[li]]
        masks = masks.transpose(2, 0, 1)
        self._mask_cache[key] = masks
        return masks

    def reduce_bits(self, bits: np.ndarray) -> np.ndarray:
        """Reduce unpacked bit arrays ``(..., lanes, k, N)`` (lane axis only
        when ``lanes > 1``) to ``(..., lanes, N)`` output streams.

        Level by level through the node adders' own semantics: the
        byte-per-bit reference that :meth:`reduce_packed` and the
        count-domain shortcuts are tested against.
        """
        arr = np.asarray(bits)
        if arr.dtype != np.uint8:
            arr = arr.astype(np.uint8)
        arr = self._check_input(arr, "N")
        return self._reduce_bits(arr, arr.shape[-1])

    def reduce_packed(self, words: np.ndarray, n_bits: int) -> np.ndarray:
        """Reduce packed word arrays ``(..., lanes, k, W)`` (lane axis only
        when ``lanes > 1``) to ``(..., lanes, W)`` output streams.

        The leaf axis is moved first: all-TFF plans pair the leading slabs
        level by level, all-MUX plans OR the leaf slabs ANDed with their
        :meth:`leaf_masks`.  Any layout gives the same words; the passes
        run on whole contiguous slabs for the banks' leaf products, views
        of leaf-major ``(k, ..., W, lanes)`` memory
        (:meth:`~repro.sc.dotproduct.FilterBank._leaf_streams`).  MUX roots
        have clean tails; a TFF root's tail is clean when its leaves' tails
        are.
        """
        arr = self._check_input(np.asarray(words), "W")
        return self._reduce_words(arr, n_bits)

    def __repr__(self) -> str:
        return (
            f"TreePlan(count={self.count}, lanes={self.lanes}, depth={self.depth})"
        )


class AdderTree:
    """A balanced binary tree of two-input scaled adders.

    Summing ``k`` streams through a depth-``ceil(log2 k)`` tree produces the
    scaled sum ``sum(p_i) / 2**depth``.  For the TFF adder the result is exact
    up to one LSB *per adder*, so the tree error stays bounded by
    ``depth / N`` instead of compounding statistically as it does for MUX
    adders.  Missing leaves (when ``k`` is not a power of two) are filled with
    all-zero streams, exactly like the padded hardware tree.

    Reduction runs through a :class:`TreePlan`, so the tree must hold one
    plain adder kind (see the module docstring); node adders are
    instantiated through ``adder_factory`` level by level, left to right.

    Parameters
    ----------
    adder_factory:
        Callable returning a fresh two-input adder for each tree node
        (a fresh node per position keeps MUX select sources independent).
    """

    def __init__(self, adder_factory=TffAdder) -> None:
        self.adder_factory = adder_factory

    def depth(self, count: int) -> int:
        """Number of adder levels needed for ``count`` inputs."""
        if count < 1:
            raise ValueError("need at least one input")
        depth = 0
        while (1 << depth) < count:
            depth += 1
        return depth

    def scale_factor(self, count: int) -> float:
        """The overall scaling ``2**-depth`` applied to the sum."""
        return 0.5 ** self.depth(count)

    def plan(self, count: int, lanes: int = 1) -> TreePlan:
        """Instantiate a reusable :class:`TreePlan` for ``count`` inputs.

        ``lanes > 1`` lays that many identical trees side by side on axis
        ``-3`` (adders created lane-major, exactly like sequential per-lane
        reductions); the returned plan can be applied to any number of input
        tiles with bit-identical results.
        """
        return TreePlan(self.adder_factory, count, lanes=lanes)

    def reduce(self, streams: Sequence[StreamLike] | np.ndarray) -> StreamLike:
        """Reduce a list of streams (or an array stacked on axis -2) to one stream."""
        if isinstance(streams, np.ndarray):
            if streams.ndim < 2 or streams.shape[-2] == 0:
                raise ValueError("stacked input must have shape (..., k, N) with k >= 1")
            stacked = streams
            template: StreamLike = streams[..., 0, :]
        else:
            if len(streams) == 0:
                raise ValueError("need at least one input stream")
            stream_list = [as_bits(s)[0] for s in streams]
            check_same_length(*stream_list)
            shape = np.broadcast_shapes(*(s.shape for s in stream_list))
            stacked = np.stack(
                [np.broadcast_to(s, shape) for s in stream_list], axis=-2
            )
            template = streams[0]
        result = TreePlan(self.adder_factory, stacked.shape[-2]).reduce_bits(stacked)
        return wrap_like(result, template)

    def __repr__(self) -> str:
        return f"AdderTree(adder_factory={self.adder_factory!r})"
