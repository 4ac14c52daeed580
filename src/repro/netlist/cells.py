"""A 65 nm-like standard-cell library.

The paper synthesizes its designs with Synopsys Design Compiler / IC Compiler
against a 65 nm TSMC library and measures power with PrimeTime.  That flow is
proprietary, so this module provides a substitution (the system-level side
is in :mod:`repro.hw.technology`): a small standard-cell library whose
per-cell area, switching energy and leakage are representative of a
commercial 65 nm process (normalized to a NAND2-equivalent area of 1.44 um^2
and a switching energy of a few femtojoules per output toggle at nominal
voltage).

Absolute numbers from this library are *calibrated, not signed off*; what the
reproduction relies on is that relative costs between cells (a full adder is
~5x a NAND2, a flip-flop ~3.5x, ...) are realistic, because Table 3's trends
are driven by gate counts, cycle counts and activity, not by the exact
technology constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from ..bitstream.packed import packed_delay, packed_toggle_states

__all__ = ["Cell", "CELL_LIBRARY", "cell", "nand2_equivalents"]


#: Area of a NAND2 gate in this 65 nm-like library, in square micrometres.
NAND2_AREA_UM2 = 1.44

#: Dynamic energy per output toggle of a NAND2 driving a typical load, in fJ.
NAND2_TOGGLE_ENERGY_FJ = 1.2

#: Leakage power of a NAND2, in nW.
NAND2_LEAKAGE_NW = 1.5


@dataclass(frozen=True)
class Cell:
    """One standard-cell type.

    Parameters
    ----------
    name:
        Library name, e.g. ``"NAND2"``.
    inputs:
        Ordered input pin names.
    outputs:
        Ordered output pin names (flip-flops expose ``Q``).
    area_um2:
        Placed cell area in um^2.
    toggle_energy_fj:
        Dynamic energy per *output* toggle (internal + load), femtojoules.
    leakage_nw:
        Static leakage power, nanowatts.
    sequential:
        True for state-holding cells (evaluated at the clock edge).
    logic:
        For combinational cells: a function mapping input bit tuple to the
        output bit tuple.  For sequential cells: a function mapping
        ``(state, inputs)`` to ``(new_state, outputs)``.  The scalar
        definition of the cell: the simulator steps register feedback cores
        through it, and the per-cycle test oracle evaluates every cell
        through it.
    word_logic:
        The word-parallel counterpart the simulator evaluates the cell with
        (required: the simulator has no per-cycle fallback).  For
        combinational cells: ``word_logic(inputs, ones)`` maps a tuple of
        packed uint64 waveform arrays (the whole simulation, 64 cycles per
        word) to the output waveform tuple; ``ones`` is the all-ones waveform
        (tail-masked) so inverting gates can complement without leaking bits
        past the stream length.  Combinational ``word_logic`` must be
        *positionwise* (pure bitwise logic, no shifts across positions):
        zero-delay combinational cells have no time dependence.  For
        sequential cells:
        ``word_logic(inputs, n_bits, initial_state)`` returns the full Q
        waveform(s) in closed form (DFF: one-cycle delay, TFF: prefix-parity
        scan).  Implementations must keep words on the *last* axis and
        broadcast over any leading axes: batched multi-trace simulation
        (:func:`repro.netlist.simulator.simulate_batch`) passes waveform
        arrays of shape ``(traces, words)`` mixed with shared ``(words,)``
        arrays through the very same functions.

    Every :data:`CELL_LIBRARY` cell carries the word kernels its kind needs,
    and cells reach a netlist only through that library
    (:meth:`~repro.netlist.netlist.Netlist.add_cell`).
    """

    name: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    area_um2: float
    toggle_energy_fj: float
    leakage_nw: float
    sequential: bool = False
    logic: Callable = field(default=None, repr=False, compare=False)
    word_logic: Callable = field(default=None, repr=False, compare=False)

    @property
    def gate_equivalents(self) -> float:
        """Cell complexity in NAND2-area equivalents."""
        return self.area_um2 / NAND2_AREA_UM2


def _comb(fn: Callable[..., int]) -> Callable:
    """Wrap a scalar boolean function into the tuple-based logic interface."""

    def logic(inputs: Tuple[int, ...]) -> Tuple[int, ...]:
        return (fn(*inputs) & 1,)

    return logic


def _full_adder(a: int, b: int, cin: int) -> Tuple[int, int]:
    total = a + b + cin
    return total & 1, (total >> 1) & 1


def _fa_logic(inputs: Tuple[int, ...]) -> Tuple[int, ...]:
    s, c = _full_adder(*inputs)
    return (s, c)


def _ha_logic(inputs: Tuple[int, ...]) -> Tuple[int, ...]:
    a, b = inputs
    return (a ^ b, a & b)


def _dff_logic(state: int, inputs: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    (d,) = inputs
    return d & 1, (state & 1,)


def _tff_logic(state: int, inputs: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    (t,) = inputs
    new_state = state ^ (t & 1)
    return new_state, (state & 1,)


# --------------------------------------------------------------------------- #
# word-parallel logic (the simulator's kernels)
# --------------------------------------------------------------------------- #
def _wcomb(fn):
    """Wrap a word function ``fn(*inputs, ones)`` into the tuple interface."""

    def word_logic(inputs, ones):
        return (fn(*inputs, ones),)

    return word_logic


def _w_fa(inputs, ones):
    a, b, cin = inputs
    half = a ^ b
    return (half ^ cin, (a & b) | (cin & half))


def _w_ha(inputs, ones):
    a, b = inputs
    return (a ^ b, a & b)


def _w_cmp1(a, b, gin, ones):
    # a > b this bit, or equal here and greater below.
    return (a & (b ^ ones)) | ((a ^ b ^ ones) & gin)


def _w_dff(inputs, n_bits, initial_state):
    (d,) = inputs
    return (packed_delay(d, n_bits, fill=initial_state),)


def _w_tff(inputs, n_bits, initial_state):
    (t,) = inputs
    return (packed_toggle_states(t, n_bits, initial_state),)


#: The cell library.  Areas and energies are scaled from the NAND2 reference
#: using typical relative sizes of a 65 nm commercial library.
CELL_LIBRARY: Dict[str, Cell] = {
    "INV": Cell(
        "INV", ("A",), ("Y",), 0.72, 0.6, 0.8,
        logic=_comb(lambda a: 1 - a),
        word_logic=_wcomb(lambda a, ones: a ^ ones),
    ),
    "BUF": Cell(
        "BUF", ("A",), ("Y",), 1.08, 0.9, 1.0,
        logic=_comb(lambda a: a),
        word_logic=_wcomb(lambda a, ones: a),
    ),
    "NAND2": Cell(
        "NAND2",
        ("A", "B"),
        ("Y",),
        NAND2_AREA_UM2,
        NAND2_TOGGLE_ENERGY_FJ,
        NAND2_LEAKAGE_NW,
        logic=_comb(lambda a, b: 1 - (a & b)),
        word_logic=_wcomb(lambda a, b, ones: (a & b) ^ ones),
    ),
    "NOR2": Cell(
        "NOR2", ("A", "B"), ("Y",), 1.44, 1.2, 1.5,
        logic=_comb(lambda a, b: 1 - (a | b)),
        word_logic=_wcomb(lambda a, b, ones: (a | b) ^ ones),
    ),
    "AND2": Cell(
        "AND2", ("A", "B"), ("Y",), 1.80, 1.5, 1.8,
        logic=_comb(lambda a, b: a & b),
        word_logic=_wcomb(lambda a, b, ones: a & b),
    ),
    "OR2": Cell(
        "OR2", ("A", "B"), ("Y",), 1.80, 1.5, 1.8,
        logic=_comb(lambda a, b: a | b),
        word_logic=_wcomb(lambda a, b, ones: a | b),
    ),
    "XOR2": Cell(
        "XOR2", ("A", "B"), ("Y",), 2.88, 2.4, 2.6,
        logic=_comb(lambda a, b: a ^ b),
        word_logic=_wcomb(lambda a, b, ones: a ^ b),
    ),
    "XNOR2": Cell(
        "XNOR2",
        ("A", "B"),
        ("Y",),
        2.88,
        2.4,
        2.6,
        logic=_comb(lambda a, b: 1 - (a ^ b)),
        word_logic=_wcomb(lambda a, b, ones: a ^ b ^ ones),
    ),
    "MUX2": Cell(
        "MUX2",
        ("A", "B", "S"),
        ("Y",),
        2.88,
        2.2,
        2.5,
        logic=_comb(lambda a, b, s: b if s else a),
        word_logic=_wcomb(lambda a, b, s, ones: (b & s) | (a & (s ^ ones))),
    ),
    "HA": Cell(
        "HA", ("A", "B"), ("S", "C"), 3.60, 3.0, 3.2,
        logic=_ha_logic, word_logic=_w_ha,
    ),
    "FA": Cell(
        "FA", ("A", "B", "CIN"), ("S", "C"), 7.20, 5.5, 5.5,
        logic=_fa_logic, word_logic=_w_fa,
    ),
    "CMP1": Cell(
        # one bit-slice of a magnitude comparator (roughly an XOR + AOI)
        "CMP1",
        ("A", "B", "GIN"),
        ("GOUT",),
        4.32,
        3.2,
        3.5,
        logic=_comb(lambda a, b, gin: 1 if a > b else (gin if a == b else 0)),
        word_logic=_wcomb(_w_cmp1),
    ),
    "DFF": Cell(
        "DFF", ("D",), ("Q",), 5.04, 4.0, 4.5, sequential=True,
        logic=_dff_logic, word_logic=_w_dff,
    ),
    "TFF": Cell(
        "TFF", ("T",), ("Q",), 5.76, 4.5, 5.0, sequential=True,
        logic=_tff_logic, word_logic=_w_tff,
    ),
}


def cell(name: str) -> Cell:
    """Look up a cell type by name."""
    try:
        return CELL_LIBRARY[name]
    except KeyError:
        raise KeyError(
            f"unknown cell {name!r}; available: {sorted(CELL_LIBRARY)}"
        ) from None


def nand2_equivalents(area_um2: float) -> float:
    """Convert an area in um^2 into NAND2-gate equivalents."""
    return area_um2 / NAND2_AREA_UM2
