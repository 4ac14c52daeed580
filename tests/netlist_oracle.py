"""Per-cycle reference for the packed netlist simulator.

:mod:`repro.netlist.simulator` evaluates whole waveforms, 64 cycles per
word; the cycle model it implements is defined here once, by the textbook
interpreter: each cycle, primary inputs take their new values, sequential
cells present their stored state, combinational cells settle in topological
order through their scalar ``Cell.logic``, and registers capture their next
state.  The differential suites compare every packed run against it.

Both functions take the library's signatures, so a test or CI step can swap
them in for ``repro.netlist.simulate`` / ``repro.netlist.simulate_batch``
in-process.  They validate nothing (``strict`` is accepted and ignored):
validation belongs to the library, and its tests target the library.
"""

import numpy as np

from repro.netlist import BatchSimulationResult, SimulationResult


def simulate(netlist, stimulus, cycles=None, record=None, strict=False):
    """Reference run of one trace: every cell evaluated every cycle."""
    waves = {
        net: (np.asarray(stimulus[net]) != 0).astype(np.uint8)
        for net in netlist.primary_inputs
    }
    if cycles is None:
        cycles = min(len(w) for w in waves.values())
    cycles = int(cycles)
    record = list(netlist.primary_outputs) if record is None else list(record)
    nets = list(netlist.primary_inputs)
    for inst in netlist.instances:
        nets.extend(inst.outputs)

    order = netlist.topological_order()
    sequential = netlist.sequential_instances()

    values = {"0": 0, "1": 1}
    state = {inst.name: inst.initial_state for inst in sequential}
    previous = {}
    toggles = {net: 0 for net in nets}
    recorded = {net: np.zeros(cycles, dtype=np.uint8) for net in record}

    for t in range(cycles):
        for net in netlist.primary_inputs:
            values[net] = int(waves[net][t])
        # Sequential outputs present their stored state for this cycle
        # (inputs are irrelevant for the Q value, so zeros are passed).
        for inst in sequential:
            _, outs = inst.cell.logic(state[inst.name], tuple(0 for _ in inst.inputs))
            for net, bit in zip(inst.outputs, outs):
                values[net] = int(bit)

        for inst in order:
            in_bits = tuple(values[n] for n in inst.inputs)
            out_bits = inst.cell.logic(in_bits)
            for net, bit in zip(inst.outputs, out_bits):
                values[net] = int(bit)

        # Capture next state using the settled input values.
        for inst in sequential:
            in_bits = tuple(values[n] for n in inst.inputs)
            new_state, _ = inst.cell.logic(state[inst.name], in_bits)
            state[inst.name] = int(new_state)

        for net in recorded:
            recorded[net][t] = values[net]
        for net in nets:
            value = values[net]
            if t > 0 and previous[net] != value:
                toggles[net] += 1
            previous[net] = value

    return SimulationResult(cycles=cycles, waveforms=recorded, toggles=toggles)


def simulate_batch(netlist, stimulus, cycles=None, record=None, batch=None, strict=False):
    """Reference run of a batch: one :func:`simulate` per trace, stacked.

    2-D stimulus arrays carry one waveform per trace, 1-D arrays are shared
    by every trace, exactly as in the library.
    """
    arrays = {net: np.asarray(stimulus[net]) for net in netlist.primary_inputs}
    if batch is None:
        batch = next(len(a) for a in arrays.values() if a.ndim == 2)
    if cycles is None:
        cycles = min(a.shape[-1] for a in arrays.values())
    runs = [
        simulate(
            netlist,
            {net: (a if a.ndim == 1 else a[k]) for net, a in arrays.items()},
            cycles=cycles,
            record=record,
        )
        for k in range(batch)
    ]
    return BatchSimulationResult(
        cycles=int(cycles),
        batch=batch,
        waveforms={
            net: np.stack([run.waveforms[net] for run in runs])
            for net in runs[0].waveforms
        },
        toggles={
            net: np.array([run.toggles[net] for run in runs], dtype=np.int64)
            for net in runs[0].toggles
        },
    )
