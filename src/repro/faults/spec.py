"""Fault specifications and plans: seeded, composable fault models.

:class:`FaultSpec` is the user-facing description of a fault environment --
per-bit soft-error flip rate, stuck-at-0/1 rates, burst faults, stuck
SNG/LFSR register cells, and input sensor noise.  It is a frozen value
object: two equal specs always produce bit-identical faults.

:class:`FaultPlan` binds a spec to a stream geometry and produces the packed
word masks actually applied to bit-streams.  The composition order is part
of the contract (pinned by tests):

    faulted = ((stream | stuck1) & ~stuck0) ^ flips

i.e. permanent stuck-at defects first (stuck-at-0 dominates where both
masks hit one position), transient flips -- soft errors and bursts -- last,
modelling upsets observed downstream of the stuck wires.  Injection is
implemented once, on packed 64-bit words
(:func:`repro.bitstream.packed.packed_apply_faults`); a byte-per-bit
:class:`~repro.bitstream.Bitstream` (:func:`inject_stream`) is packed,
corrupted with the *same* masks and unpacked, so it corrupts exactly like
the engines' packed streams.

Mask randomness is counter-hashed per global stream index (see
:mod:`repro.faults.masks`): the caller passes the ``offset`` of its current
tile into :meth:`FaultPlan.apply` or :meth:`FaultPlan.nonzero_masks`, which
is how tiled and untiled evaluation passes, every tile a filter bank picks,
and repeated ``dot()`` calls all see identical faults.

Sparse faults need no stream at all.  :meth:`FaultSpec.word_fault_share`
gives the expected share of packed words a spec faults (6.2% at 1e-3 flips
and N = 256), and :meth:`FaultPlan.nonzero_masks` returns only those words
with their flat indices.  Below a measured share the engines' TFF banks
count from leaf tables and correct each faulted word
(:attr:`repro.sc.dotproduct.StochasticDotProductEngine.evaluation_path`);
every faulted word is still built by ``packed_apply_faults``, so the
composition order above stays defined in one place.

:class:`NetlistFaults` carries stuck-at-cell-output faults for the gate
level simulator (:func:`repro.netlist.simulator.simulate`), validated
against the netlist's driven nets before execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple, Union

import numpy as np

from ..bitstream.bitstream import Bitstream
from ..bitstream.packed import WORD_BITS, pack_bits, packed_apply_faults, unpack_bits
from ..utils.checks import check_count
from .masks import bernoulli_words, burst_words

__all__ = ["FaultSpec", "FaultPlan", "NetlistFaults", "inject_stream"]

# Channel salts: every mask type hashes a disjoint counter space.
_SALT_FLIP = 1
_SALT_STUCK0 = 2
_SALT_STUCK1 = 3
_SALT_BURST = 4


@dataclass(frozen=True)
class FaultSpec:
    """A seeded, deterministic description of a fault environment.

    Parameters
    ----------
    flip_rate:
        Per-bit Bernoulli probability of a soft-error flip on a stream wire
        (each clock cycle of each stream bit is upset independently).  This
        is the headline knob of the graceful-degradation experiment: a
        flipped stream bit perturbs the encoded value by only ``1/N``.
    stuck_zero_rate / stuck_one_rate:
        Per-bit probabilities of permanent stuck-at-0 / stuck-at-1 positions.
        Positions hit by both are read as 0 (short-to-ground dominates).
    burst_rate:
        Per-bit probability that a burst upset *starts* at a position; each
        burst flips ``burst_length`` consecutive cycles (bursts merge when
        they overlap).
    burst_length:
        Number of consecutive cycles corrupted per burst (>= 1).
    sensor_noise_sigma:
        Standard deviation of additive Gaussian input noise applied during
        acquisition (threaded into
        :class:`~repro.hybrid.acquisition.SensorFrontEnd` by the hybrid
        network); 0 disables acquisition noise.
    sng_stuck_cells:
        Stuck register cells inside LFSR-based stochastic number generators:
        a tuple of ``(bit_index, value)`` pairs forced after every register
        update (see :class:`repro.rng.lfsr.LFSR`).  Only affects engines
        whose generators are LFSR-backed.
    seed:
        Seed of the counter-hashed mask generator.  Same spec + same seed =>
        bit-identical faults everywhere, across representations and tilings.
    """

    flip_rate: float = 0.0
    stuck_zero_rate: float = 0.0
    stuck_one_rate: float = 0.0
    burst_rate: float = 0.0
    burst_length: int = 8
    sensor_noise_sigma: float = 0.0
    sng_stuck_cells: Tuple[Tuple[int, int], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("flip_rate", "stuck_zero_rate", "stuck_one_rate", "burst_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate}")
        check_count("burst_length", self.burst_length)
        check_count("seed", self.seed, 0)
        if self.sensor_noise_sigma < 0.0:
            raise ValueError(
                f"sensor_noise_sigma must be non-negative, "
                f"got {self.sensor_noise_sigma}"
            )
        cells = tuple((int(i), int(v)) for i, v in self.sng_stuck_cells)
        for i, v in cells:
            if i < 0:
                raise ValueError(f"stuck cell index must be non-negative, got {i}")
            if v not in (0, 1):
                raise ValueError(f"stuck cell value must be 0 or 1, got {v}")
        object.__setattr__(self, "sng_stuck_cells", cells)

    @property
    def corrupts_streams(self) -> bool:
        """Whether any stream-level fault channel is active.

        Sensor noise and stuck SNG cells act *before* stream generation, so
        they do not by themselves force stream-mask injection (or disable
        the count-domain engine mode).
        """
        return (
            self.flip_rate > 0.0
            or self.stuck_zero_rate > 0.0
            or self.stuck_one_rate > 0.0
            or self.burst_rate > 0.0
        )

    def word_fault_share(self, n_bits: int) -> float:
        """Expected share of packed input words that carry a stream-fault mask bit.

        A word of an ``n_bits`` stream holds ``b = min(n_bits, 64)`` cycles.
        It is clean when none of its ``b`` positions draws a flip, stuck-at-0
        or stuck-at-1 bit and no burst starts at one of them or at one of the
        ``burst_length - 1`` earlier cycles of the stream.  Depends on the
        rates and the stream length alone; the engines pick their faulted
        evaluation path from it.
        """
        b = min(n_bits, WORD_BITS)
        exposure = b + min(self.burst_length - 1, n_bits - b)
        clean = (
            ((1.0 - self.flip_rate) * (1.0 - self.stuck_zero_rate) * (1.0 - self.stuck_one_rate)) ** b
            * (1.0 - self.burst_rate) ** exposure
        )
        return 1.0 - clean

    @property
    def active(self) -> bool:
        """Whether the spec perturbs anything at all."""
        return (
            self.corrupts_streams
            or self.sensor_noise_sigma > 0.0
            or bool(self.sng_stuck_cells)
        )

    def plan(self) -> "FaultPlan":
        """Bind the spec into an applicable :class:`FaultPlan`."""
        return FaultPlan(self)


@dataclass(frozen=True)
class FaultPlan:
    """Applies a :class:`FaultSpec`'s stream faults to prepared bit-streams.

    :meth:`masks` gives a stream block's dense ``(stuck0, stuck1, flips)``
    masks, :meth:`apply` injects them into packed streams, and
    :meth:`nonzero_masks` gives only the words that carry a mask bit, for
    evaluation paths that correct counts instead of building streams.
    """

    spec: FaultSpec

    def masks(
        self, n_streams: int, taps: int, n_bits: int, offset: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(stuck0, stuck1, flips)`` packed masks for one stream block.

        Shapes are ``(n_streams, taps, ceil(n_bits / 64))``; burst flips are
        already folded (OR) into the flip mask.  Depends only on the global
        stream indices ``offset .. offset + n_streams - 1``.
        """
        spec = self.spec
        stuck0 = bernoulli_words(
            spec.stuck_zero_rate, spec.seed, _SALT_STUCK0,
            n_streams, taps, n_bits, offset,
        )
        stuck1 = bernoulli_words(
            spec.stuck_one_rate, spec.seed, _SALT_STUCK1,
            n_streams, taps, n_bits, offset,
        )
        flips = bernoulli_words(
            spec.flip_rate, spec.seed, _SALT_FLIP, n_streams, taps, n_bits, offset
        )
        if spec.burst_rate > 0.0:
            flips = flips | burst_words(
                spec.burst_rate, spec.burst_length, spec.seed, _SALT_BURST,
                n_streams, taps, n_bits, offset,
            )
        return stuck0, stuck1, flips

    def nonzero_masks(
        self, n_streams: int, taps: int, n_bits: int, offset: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The :meth:`masks` words where any channel is nonzero.

        Returns ``(index, stuck0, stuck1, flips)``: the ascending flat
        indices into ``(n_streams, taps, W)`` of the words that carry a mask
        bit, and the three channels' words there.  Every other word of the
        block passes :func:`~repro.bitstream.packed.packed_apply_faults`
        unchanged, so these are all a sparse fault path needs.
        """
        masks = self.masks(n_streams, taps, n_bits, offset)
        index = np.flatnonzero(masks[0] | masks[1] | masks[2])
        stuck0, stuck1, flips = (m.reshape(-1)[index] for m in masks)
        return index, stuck0, stuck1, flips

    def apply(self, prepared: np.ndarray, n_bits: int, offset: int = 0) -> np.ndarray:
        """Inject stream faults into a prepared block of packed streams.

        ``prepared`` has shape ``(..., taps, W)`` packed words; leading axes
        are flattened in C order to assign global stream indices
        ``offset + i``.  Empty blocks (zero streams, zero taps or zero-length
        streams) pass through untouched -- a fault spec on nothing is a
        no-op, not an index error.  Returns a new array of the same shape
        and dtype.
        """
        arr = np.asarray(prepared)
        if not self.spec.corrupts_streams or arr.size == 0 or n_bits == 0:
            return arr
        if arr.ndim < 2:
            raise ValueError(
                f"prepared streams must have shape (..., taps, words), got {arr.shape}"
            )
        taps = arr.shape[-2]
        lead = arr.shape[:-2]
        n_streams = int(np.prod(lead)) if lead else 1
        stuck0, stuck1, flips = self.masks(n_streams, taps, n_bits, offset)
        flat = arr.reshape((n_streams, taps, arr.shape[-1]))
        out = packed_apply_faults(flat, stuck0, stuck1, flips, n_bits)
        return out.reshape(arr.shape)


def inject_stream(stream: Bitstream, spec: FaultSpec, index: int = 0) -> Bitstream:
    """Inject ``spec``'s stream faults into a single :class:`Bitstream`.

    ``index`` is the stream's global identity (its position in whatever
    batch it conceptually belongs to); the same ``(spec, index)`` pair
    always produces the same faulted bits, the ones the engines' packed
    streams get at that index.  Empty streams are returned unchanged (no-op,
    not an error).  The encoding is preserved.
    """
    if not isinstance(stream, Bitstream):
        raise TypeError(f"expected Bitstream, got {type(stream).__name__}")
    if len(stream) == 0 or not spec.corrupts_streams:
        return stream
    words = spec.plan().apply(pack_bits(stream.bits)[np.newaxis, :], len(stream), offset=index)[0]
    return Bitstream(unpack_bits(words, len(stream)), encoding=stream.encoding)


@dataclass(frozen=True)
class NetlistFaults:
    """Stuck-at faults on cell output nets of a gate-level netlist.

    ``stuck_at`` maps net names to the constant (0 or 1) the net is forced
    to for the whole simulation -- the classical stuck-at fault model of
    manufacturing test.  Forcing happens at the driver, so every reader of
    the net (combinational fan-out, register D inputs, feedback cores,
    recorded waveforms and toggle counts) sees the faulted constant.

    Nets are validated against the netlist before execution: unknown names
    raise ``ValueError`` listing the offenders, exactly like
    ``simulate(record=...)`` does, so a typo cannot silently simulate a
    fault-free circuit.
    """

    stuck_at: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        normalized = {}
        for net, value in dict(self.stuck_at).items():
            value = int(value)
            if value not in (0, 1):
                raise ValueError(
                    f"stuck-at value for net {net!r} must be 0 or 1, got {value}"
                )
            normalized[str(net)] = value
        object.__setattr__(self, "stuck_at", normalized)

    def __bool__(self) -> bool:
        return bool(self.stuck_at)

    @classmethod
    def coerce(
        cls, faults: Optional[Union["NetlistFaults", Mapping[str, int]]]
    ) -> Optional["NetlistFaults"]:
        """Accept a plain ``{net: value}`` mapping or an existing instance."""
        if faults is None:
            return None
        if isinstance(faults, cls):
            return faults
        return cls(stuck_at=faults)
