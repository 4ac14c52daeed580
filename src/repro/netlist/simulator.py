"""Cycle-accurate simulation of gate-level netlists with activity capture.

This is the reproduction's stand-in for gate-level power simulation with
PrimeTime: the netlist is evaluated cycle by cycle against input waveforms
(MNIST-trace-driven in the Table 3 experiments), and the simulator records
per-net toggle counts.  Toggle counts multiplied by per-cell switching energy
give the activity-based dynamic power estimate of
:mod:`repro.netlist.power`.

The simulation model is the standard zero-delay cycle model:

* at the start of every cycle, primary inputs take their new values and
  sequential cells present their stored state on their outputs;
* at the end of the cycle, sequential cells capture their next state.

Word-parallel model
-------------------
Every net's full waveform is stored 64 cycles per ``uint64`` word and each
combinational cell is evaluated once on whole word arrays (its
:attr:`~repro.netlist.cells.Cell` ``word_logic``).  Sequential cells are
resolved in closed form -- a DFF is a one-cycle packed delay, a TFF a
word-parallel prefix-parity scan -- in topological order of the *register*
dependency graph.  Toggle counts come from the ``popcount(w ^ (w >> 1))``
word kernel (:func:`repro.bitstream.packed.packed_transition_count`).  The
per-cycle cell loop that defines the model lives in the test suite
(``tests/netlist_oracle.py``), which compares every packed run against it.

Netlists whose registers form a combinational feedback cycle (e.g. an LFSR,
or the accumulator loop of a binary MAC) have no per-register closed form.
The simulator resolves them without abandoning word parallelism: the
stalled instances are grouped into strongly connected components of the
register dependency graph, and only that narrow feedback *core* is iterated
cycle by cycle over its state vector.  Autonomous cores (all external inputs
constant, the LFSR case) additionally stop at the first repeated register
state and wrap the periodic waveform out to the full run length
(:func:`repro.bitstream.packed.extend_periodic`), so an ``n``-bit LFSR costs
``min(cycles, period)`` scalar steps regardless of the simulation length.
The packed core waveforms then feed the ordinary word-parallel evaluation of
everything downstream (comparators, trees, counters).

Batched multi-trace simulation
------------------------------
:func:`simulate_batch` evaluates one netlist against ``K`` stimulus sets in
a single packed run, and :func:`simulate` is its one-trace view.  Per-net
stimulus arrays carry the traces on a leading axis (shape ``(K, cycles)``;
1-D arrays are shared by every trace, e.g. weight streams), every word
kernel broadcasts over that axis, and the result
(:class:`BatchSimulationResult`) holds ``(K, cycles)`` waveforms and
``(K,)`` toggle vectors per net.  Batched results plug directly into
:func:`repro.netlist.power.estimate_power`, which then uses the mean
activity across traces -- this is how one packed run covers an entire MNIST
trace set in the Table 3 activity path.  Shared-input feedback cores are
resolved once and broadcast; cores fed by per-trace waveforms are iterated
cycle by cycle once per trace.

Strict elaboration
------------------
Both entry points accept ``strict=True`` to run the error-severity rules of
the static analyzer (:mod:`repro.netlist.lint`) before execution.  Plain
``validate()`` only proves that instance inputs have drivers; strict mode
additionally rejects undriven primary outputs, duplicate instance names
(which would silently share one state entry in a feedback core),
combinational cycles (reported as their actual SCC member list), and
out-of-range ``initial_state`` values (which closed-form registers reject
but feedback cores read modulo 2).  Use it when simulating netlists from new
or generated builders; the cost is one linear graph pass.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

import numpy as np

from ..bitstream.packed import (
    extend_periodic,
    mask_tail,
    pack_bits,
    packed_transition_count,
    unpack_bits,
    words_for,
)
from .graph import strongly_connected_instances
from .netlist import Instance, Netlist

__all__ = [
    "SimulationResult",
    "BatchSimulationResult",
    "simulate",
    "simulate_batch",
]


@dataclass
class SimulationResult:
    """Waveforms and switching activity from one simulation run."""

    #: Number of simulated cycles.
    cycles: int
    #: Recorded waveforms: net name -> uint8 array of length ``cycles``.
    waveforms: Dict[str, np.ndarray]
    #: Toggle counts per net (number of value changes between consecutive cycles).
    toggles: Dict[str, int]

    def waveform(self, net: str) -> np.ndarray:
        """Return the recorded waveform of one net."""
        return self.waveforms[net]

    def activity(self, net: str) -> float:
        """Average toggle rate of a net (toggles per cycle)."""
        if self.cycles <= 1:
            return 0.0
        return self.toggles[net] / (self.cycles - 1)

    def total_toggles(self) -> int:
        """Sum of toggle counts over all nets."""
        return int(sum(self.toggles.values()))

    def average_activity(self) -> float:
        """Mean toggle rate across all recorded nets."""
        if not self.toggles or self.cycles <= 1:
            return 0.0
        return self.total_toggles() / (len(self.toggles) * (self.cycles - 1))


@dataclass
class BatchSimulationResult:
    """Waveforms and switching activity for a whole batch of stimulus traces.

    The batched counterpart of :class:`SimulationResult`: waveforms gain a
    leading trace axis and toggle counts become per-trace vectors.  The
    scalar accessors (:meth:`activity`, :meth:`average_activity`,
    :meth:`total_toggles`) aggregate over the batch so a batched result can
    be passed to :func:`repro.netlist.power.estimate_power` unchanged.
    """

    #: Number of simulated cycles per trace.
    cycles: int
    #: Number of stimulus traces in the batch.
    batch: int
    #: Recorded waveforms: net name -> uint8 array of shape ``(batch, cycles)``.
    waveforms: Dict[str, np.ndarray]
    #: Toggle counts per net: int64 array of shape ``(batch,)``.
    toggles: Dict[str, np.ndarray]

    def waveform(self, net: str) -> np.ndarray:
        """Recorded waveforms of one net, shape ``(batch, cycles)``."""
        return self.waveforms[net]

    def trace(self, k: int) -> SimulationResult:
        """The ``k``-th trace as a standalone :class:`SimulationResult`."""
        return SimulationResult(
            cycles=self.cycles,
            waveforms={net: wave[k] for net, wave in self.waveforms.items()},
            toggles={net: int(counts[k]) for net, counts in self.toggles.items()},
        )

    def activity(self, net: str) -> float:
        """Mean toggle rate of a net across the batch (toggles per cycle)."""
        if self.cycles <= 1:
            return 0.0
        return float(np.mean(self.toggles[net])) / (self.cycles - 1)

    def activity_per_trace(self, net: str) -> np.ndarray:
        """Per-trace toggle rates of a net, shape ``(batch,)``."""
        if self.cycles <= 1:
            return np.zeros(self.batch, dtype=np.float64)
        return self.toggles[net] / (self.cycles - 1)

    def total_toggles(self) -> int:
        """Sum of toggle counts over all nets and traces."""
        return int(sum(int(counts.sum()) for counts in self.toggles.values()))

    def average_activity(self) -> float:
        """Mean toggle rate across all nets and traces."""
        if not self.toggles or self.cycles <= 1:
            return 0.0
        return self.total_toggles() / (
            len(self.toggles) * self.batch * (self.cycles - 1)
        )

    def average_activity_per_trace(self) -> np.ndarray:
        """Mean toggle rate across nets for each trace, shape ``(batch,)``."""
        if not self.toggles or self.cycles <= 1:
            return np.zeros(self.batch, dtype=np.float64)
        total = np.zeros(self.batch, dtype=np.int64)
        for counts in self.toggles.values():
            total = total + counts
        return total / (len(self.toggles) * (self.cycles - 1))


# --------------------------------------------------------------------------- #
# stimulus / record validation
# --------------------------------------------------------------------------- #
def _strict_elaborate(netlist: Netlist) -> None:
    """Run error-level static analysis before execution (``strict=True``)."""
    # Imported here, not at module top: lint is pure graph analysis and
    # drags no simulation state, but keeping the import local makes the
    # layering explicit (lint never imports the simulator back).
    from .lint import enforce

    enforce(netlist, severity="error")


def _driven_nets(netlist: Netlist) -> List[str]:
    """All driven nets in deterministic order: inputs, then instance outputs."""
    nets: List[str] = list(netlist.primary_inputs)
    for inst in netlist.instances:
        nets.extend(inst.outputs)
    return nets


def _validate_record(
    netlist: Netlist, record: Optional[Sequence[str]], nets: List[str]
) -> List[str]:
    record = list(record) if record is not None else list(netlist.primary_outputs)
    known = set(nets) | set(netlist.CONSTANT_NETS)
    unknown = [net for net in record if net not in known]
    if unknown:
        raise ValueError(
            f"cannot record nets that do not exist in netlist "
            f"{netlist.name!r}: {unknown}"
        )
    return record


def simulate(
    netlist: Netlist,
    stimulus: Mapping[str, Sequence[int] | np.ndarray],
    cycles: Optional[int] = None,
    record: Optional[Sequence[str]] = None,
    strict: bool = False,
) -> SimulationResult:
    """Simulate a netlist against input waveforms.

    The one-trace view of :func:`simulate_batch`: the same word-parallel run
    with a batch of one, returned as a :class:`SimulationResult`.

    Parameters
    ----------
    netlist:
        The circuit to simulate.
    stimulus:
        Mapping from primary-input net name to its per-cycle bit values
        (one-dimensional; any nonzero value is logic 1, NaN and inf are
        rejected).  Every primary input must be covered.
    cycles:
        Number of cycles, a non-negative integer; defaults to the length of
        the shortest stimulus.
    record:
        Net names whose waveforms should be returned.  Defaults to the primary
        outputs.  Every name must exist in the netlist (``ValueError``
        otherwise).  Toggle counts are always collected for *all* nets.
    strict:
        Strict elaboration mode: run the error-severity rules of
        :mod:`repro.netlist.lint` before execution and raise
        :class:`~repro.netlist.lint.LintError` on any hit.  This catches
        structural corruption :meth:`~repro.netlist.netlist.Netlist.validate`
        cannot see -- duplicate instance names silently sharing sequential
        state, out-of-range initial states, undriven primary outputs --
        instead of producing wrong waveforms.

    Returns
    -------
    SimulationResult
    """
    for net in netlist.primary_inputs:
        if net in stimulus and np.ndim(stimulus[net]) != 1:
            raise ValueError(
                f"stimulus for {net!r} must be one-dimensional, got shape "
                f"{np.shape(stimulus[net])}; use simulate_batch() for stacked "
                "trace sets"
            )
    return simulate_batch(netlist, stimulus, cycles, record, batch=1, strict=strict).trace(0)


def simulate_batch(
    netlist: Netlist,
    stimulus: Mapping[str, Sequence[Sequence[int]] | np.ndarray],
    cycles: Optional[int] = None,
    record: Optional[Sequence[str]] = None,
    batch: Optional[int] = None,
    strict: bool = False,
) -> BatchSimulationResult:
    """Simulate a netlist against a whole batch of stimulus traces at once.

    Semantically identical to simulating each trace on its own and stacking
    the results, but all traces are evaluated in one word-parallel run,
    which is how a full MNIST trace set is covered by a single simulation.

    Parameters
    ----------
    netlist:
        The circuit to simulate.
    stimulus:
        Mapping from primary-input net name to per-cycle bit values.  2-D
        arrays of shape ``(batch, cycles)`` carry one waveform per trace;
        1-D arrays of shape ``(cycles,)`` are shared by every trace (e.g.
        weight or select streams that do not change between images).  Any
        nonzero value is logic 1; NaN and inf are rejected.
    cycles:
        Number of cycles per trace, a non-negative integer; defaults to the
        shortest stimulus.
    record:
        Net names whose waveforms should be returned (defaults to the
        primary outputs); toggle counts cover all nets, per trace.
    batch:
        Explicit batch size; only needed when no stimulus entry is 2-D
        (e.g. an input-less netlist or all-shared stimulus).
    strict:
        Same strict elaboration mode as :func:`simulate`: error-severity
        lint rules run once before the batch and raise
        :class:`~repro.netlist.lint.LintError` on any hit.

    Returns
    -------
    BatchSimulationResult
    """
    if strict:
        _strict_elaborate(netlist)
    netlist.validate()

    missing = [net for net in netlist.primary_inputs if net not in stimulus]
    if missing:
        raise ValueError(f"missing stimulus for primary inputs: {missing}")

    waves: Dict[str, np.ndarray] = {}
    inferred: Optional[int] = None
    for net in netlist.primary_inputs:
        raw = np.asarray(stimulus[net])
        # `nan != 0` holds, so a non-finite value would silently become 1.
        if raw.dtype.kind in "fc" and not np.isfinite(raw).all():
            raise ValueError(f"stimulus for {net!r} contains NaN or inf")
        # Normalize to strict 0/1 (any nonzero value counts as logic 1).
        arr = (raw != 0).astype(np.uint8)
        if arr.ndim == 2:
            if inferred is None:
                inferred = arr.shape[0]
            elif arr.shape[0] != inferred:
                raise ValueError(
                    f"inconsistent batch sizes in stimulus: {inferred} vs "
                    f"{arr.shape[0]} for {net!r}"
                )
        elif arr.ndim != 1:
            raise ValueError(
                f"stimulus for {net!r} must be 1-D (shared) or 2-D "
                f"(batch, cycles), got shape {arr.shape}"
            )
        waves[net] = arr
    if batch is not None:
        batch = int(batch)
        if batch < 1:
            raise ValueError(f"batch must be positive, got {batch}")
        if inferred is not None and inferred != batch:
            raise ValueError(
                f"explicit batch={batch} contradicts 2-D stimulus with "
                f"{inferred} traces"
            )
    elif inferred is not None:
        if inferred < 1:
            raise ValueError(
                "batched simulation needs at least one trace; got 2-D "
                "stimulus with a leading axis of 0"
            )
        batch = inferred
    else:
        raise ValueError(
            "cannot infer the batch size: pass at least one 2-D stimulus "
            "array of shape (batch, cycles) or an explicit batch="
        )

    if cycles is None:
        if not waves:
            raise ValueError("cycle count required for a netlist with no inputs")
        cycles = min(w.shape[-1] for w in waves.values())
    else:
        try:
            cycles = operator.index(cycles)  # NumPy integers pass; 2.7 does not
        except TypeError:
            raise ValueError(
                f"cycles must be a non-negative integer, got {cycles!r}"
            ) from None
        if cycles < 0:
            raise ValueError(f"cycles must be a non-negative integer, got {cycles}")
    for net, wave in waves.items():
        if wave.shape[-1] < cycles:
            raise ValueError(
                f"stimulus for {net!r} has {wave.shape[-1]} cycles, need {cycles}"
            )

    nets = _driven_nets(netlist)
    record = _validate_record(netlist, record, nets)
    return _simulate_packed(netlist, waves, cycles, record, nets, batch)


# --------------------------------------------------------------------------- #
# whole-waveform word kernels
# --------------------------------------------------------------------------- #
def _simulate_packed(
    netlist: Netlist,
    waves: Dict[str, np.ndarray],
    cycles: int,
    record: List[str],
    nets: List[str],
    batch: int,
) -> BatchSimulationResult:
    """Word-parallel simulation of a batch of traces.

    Combinational cells are evaluated once on packed full-run waveforms;
    sequential cells are resolved in closed form (their ``word_logic``) as
    soon as their input waveforms are known.  The interleaved worklist below
    stalls exactly when the register dependency graph has a cycle
    (LFSR-style feedback); the stalled strongly connected components are
    then resolved by :func:`_resolve_register_cores` -- a narrow per-cycle
    iteration of just the feedback core -- and the worklist resumes.
    """
    width = words_for(cycles)
    ones = mask_tail(np.full(width, np.uint64(0xFFFFFFFFFFFFFFFF)), cycles)
    values: Dict[str, np.ndarray] = {
        "0": np.zeros(width, dtype=np.uint64),
        "1": ones,
    }
    for net in netlist.primary_inputs:
        values[net] = pack_bits(waves[net][..., :cycles])

    comb_order = netlist.topological_order()
    pending_comb = list(comb_order)
    pending_seq = netlist.sequential_instances()
    while pending_comb or pending_seq:
        progress = False
        still_comb = []
        for inst in pending_comb:
            if all(net in values for net in inst.inputs):
                outs = inst.cell.word_logic(
                    tuple(values[net] for net in inst.inputs), ones
                )
                values.update(zip(inst.outputs, outs))
                progress = True
            else:
                still_comb.append(inst)
        pending_comb = still_comb
        still_seq = []
        for inst in pending_seq:
            if all(net in values for net in inst.inputs):
                outs = inst.cell.word_logic(
                    tuple(values[net] for net in inst.inputs),
                    cycles,
                    inst.initial_state,
                )
                values.update(zip(inst.outputs, outs))
                progress = True
            else:
                still_seq.append(inst)
        pending_seq = still_seq
        if not progress:
            # Register feedback: resolve the ready strongly connected
            # components of the stuck dependency graph, then keep going
            # word-parallel on everything they unblock.
            resolved = _resolve_register_cores(
                pending_comb + pending_seq, comb_order, values, cycles, batch
            )
            pending_comb = [i for i in pending_comb if id(i) not in resolved]
            pending_seq = [i for i in pending_seq if id(i) not in resolved]

    # Nets driven only by shared (1-D) stimulus keep 1-D waveforms that are
    # identical for every trace: compute their waveform / toggle count once
    # and broadcast the *result*, instead of running the kernels over batch
    # copies of the same words.
    recorded = {}
    for net in record:
        words = values[net]
        if words.ndim == 1:
            # tile, not broadcast_to: callers get independent writable rows.
            recorded[net] = np.tile(unpack_bits(words, cycles), (batch, 1))
        else:
            recorded[net] = unpack_bits(words, cycles)
    toggle_counts = {}
    for net in nets:
        words = values[net]
        if words.ndim == 1:
            toggle_counts[net] = np.full(
                batch, int(packed_transition_count(words, cycles)), dtype=np.int64
            )
        else:
            toggle_counts[net] = np.asarray(
                packed_transition_count(words, cycles), dtype=np.int64
            )
    return BatchSimulationResult(
        cycles=cycles, batch=batch, waveforms=recorded, toggles=toggle_counts
    )


# --------------------------------------------------------------------------- #
# register feedback cores: narrow per-cycle resolution inside the packed run
# --------------------------------------------------------------------------- #
def _resolve_register_cores(
    stuck: List[Instance],
    comb_order: List[Instance],
    values: Dict[str, np.ndarray],
    cycles: int,
    batch: int,
) -> Set[int]:
    """Resolve every *ready* feedback core among the stuck instances.

    A net is unresolved exactly when it is the output of a stuck instance,
    so the stuck instances form a dependency graph with no source nodes --
    its condensation's source components are the feedback cores whose
    external inputs are all resolved.  Each ready core is iterated per cycle
    over its narrow state vector and its output waveforms are packed into
    ``values``.  Returns the ``id()`` set of the resolved instances.
    """
    produced: Dict[str, Instance] = {}
    for inst in stuck:
        for net in inst.outputs:
            produced[net] = inst
    succs: Dict[int, List[Instance]] = {id(inst): [] for inst in stuck}
    self_loops: Set[int] = set()
    for inst in stuck:
        for net in dict.fromkeys(inst.inputs):
            source = produced.get(net)
            if source is not None:
                succs[id(source)].append(inst)
                if source is inst:
                    self_loops.add(id(inst))

    resolved: Set[int] = set()
    for component in strongly_connected_instances(stuck, succs):
        member_ids = {id(inst) for inst in component}
        ready = all(
            produced.get(net) is None or id(produced[net]) in member_ids
            for inst in component
            for net in inst.inputs
        )
        if not ready:
            continue
        if len(component) == 1 and id(component[0]) not in self_loops:
            # A trivial ready node cannot exist at a stall (it would have
            # been evaluated word-parallel); skip defensively.
            continue  # pragma: no cover
        _resolve_core(component, comb_order, values, cycles, batch)
        resolved |= member_ids
    if not resolved:  # pragma: no cover - stalls always expose a ready core
        raise RuntimeError(
            "packed simulation stalled without a resolvable register core"
        )
    return resolved


def _resolve_core(
    core: List[Instance],
    comb_order: List[Instance],
    values: Dict[str, np.ndarray],
    cycles: int,
    batch: int,
) -> None:
    """Per-cycle resolution of one feedback core; packs waveforms into ``values``."""
    core_ids = {id(inst) for inst in core}
    core_seq = [inst for inst in core if inst.cell.sequential]
    core_comb = [inst for inst in comb_order if id(inst) in core_ids]
    out_nets = [net for inst in core_seq + core_comb for net in inst.outputs]
    external = sorted(
        {net for inst in core for net in inst.inputs}
        - set(out_nets)
        - set(Netlist.CONSTANT_NETS)
    )
    # All external inputs constant in time: the core is autonomous and its
    # state trajectory (hence every core waveform) is eventually periodic.
    autonomous = not external
    shared = all(values[net].ndim == 1 for net in external)

    if shared:
        ext_bits = {net: unpack_bits(values[net], cycles) for net in external}
        rec = _iterate_core(
            core_seq,
            core_comb,
            out_nets,
            ext_bits,
            cycles,
            detect_period=autonomous,
        )
        values.update({net: pack_bits(wave) for net, wave in rec.items()})
        return

    # Per-trace external waveforms: iterate the core once per trace (the
    # word-parallel evaluation of everything outside the core is unaffected).
    ext_full = {net: unpack_bits(values[net], cycles) for net in external}
    recs = [
        _iterate_core(
            core_seq,
            core_comb,
            out_nets,
            {net: wave if wave.ndim == 1 else wave[k] for net, wave in ext_full.items()},
            cycles,
            detect_period=False,
        )
        for k in range(batch)
    ]
    values.update({net: pack_bits(np.stack([rec[net] for rec in recs])) for net in out_nets})


def _iterate_core(
    core_seq: List[Instance],
    core_comb: List[Instance],
    out_nets: Iterable[str],
    ext_bits: Dict[str, np.ndarray],
    cycles: int,
    detect_period: bool,
) -> Dict[str, np.ndarray]:
    """Cycle-by-cycle evaluation of a feedback core's narrow state vector.

    Follows the reference cycle-loop semantics exactly (present state,
    settle combinational logic, capture next state).  With ``detect_period``
    (autonomous cores only) the iteration stops at the first repeated
    register state and the recorded prefix is wrapped periodically out to
    ``cycles``, which is what keeps LFSR-heavy netlists fast at stream
    lengths far beyond the register period.
    """
    out_nets = list(out_nets)
    state = {inst.name: inst.initial_state for inst in core_seq}
    rec = {net: np.empty(cycles, dtype=np.uint8) for net in out_nets}
    seen: Optional[Dict[tuple, int]] = {} if detect_period else None
    wrap = None
    vals: Dict[str, int] = {"0": 0, "1": 1}

    t = 0
    while t < cycles:
        if seen is not None:
            key = tuple(state[inst.name] for inst in core_seq)
            first = seen.get(key)
            if first is not None:
                wrap = (first, t)
                break
            seen[key] = t
        for net, wave in ext_bits.items():
            vals[net] = int(wave[t])
        for inst in core_seq:
            _, outs = inst.cell.logic(state[inst.name], tuple(0 for _ in inst.inputs))
            for net, bit in zip(inst.outputs, outs):
                vals[net] = int(bit)
        for inst in core_comb:
            out_bits = inst.cell.logic(tuple(vals[n] for n in inst.inputs))
            for net, bit in zip(inst.outputs, out_bits):
                vals[net] = int(bit)
        for inst in core_seq:
            new_state, _ = inst.cell.logic(
                state[inst.name], tuple(vals[n] for n in inst.inputs)
            )
            state[inst.name] = int(new_state)
        for net in out_nets:
            rec[net][t] = vals[net]
        t += 1

    if wrap is not None:
        transient, repeat = wrap
        period = repeat - transient
        rec = {
            net: extend_periodic(wave[:repeat], cycles, transient, period)
            for net, wave in rec.items()
        }
    return rec
