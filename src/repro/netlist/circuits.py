"""Gate-level circuit generators for the paper's datapaths.

These builders produce :class:`~repro.netlist.netlist.Netlist` objects for
the circuits evaluated in Section VI:

**Stochastic datapath** (the proposed design)

* :func:`build_and_multiplier` -- the Fig. 1a multiplier.
* :func:`build_mux_adder` / :func:`build_tff_adder` -- the Fig. 1b and
  Fig. 2b adders.
* :func:`build_adder_tree` -- a balanced tree of either adder.
* :func:`build_counter` -- the stochastic-to-binary output counter.
* :func:`build_sng` -- LFSR + comparator stochastic number generator.
* :func:`build_sc_dot_product` -- one complete convolution engine: AND
  multipliers, two adder trees (positive and negative weights), two counters
  and the output sign comparator.

**Binary baseline**

* :func:`build_ripple_adder` / :func:`build_array_multiplier` -- conventional
  binary arithmetic.
* :func:`build_binary_mac` -- the multiply-accumulate unit at the heart of
  the sliding-window convolution engine baseline.

All builders return self-contained netlists that can be simulated with
:func:`repro.netlist.simulator.simulate` (functional correctness is checked
in the test suite) and costed with :mod:`repro.netlist.power`.  Every
builder must also pass the static analyzer with zero errors
(:mod:`repro.netlist.lint`): the differential test suite asserts it, and
``python -m repro lint`` gates it in CI over the representative
parameterizations of :data:`BUILDER_CATALOG`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from .netlist import Netlist

__all__ = [
    "build_and_multiplier",
    "build_mux_adder",
    "build_tff_adder",
    "build_adder_tree",
    "build_counter",
    "build_comparator",
    "build_lfsr",
    "build_sng",
    "build_sc_dot_product",
    "build_ripple_adder",
    "build_array_multiplier",
    "build_binary_mac",
    "BUILDER_CATALOG",
]


# --------------------------------------------------------------------------- #
# stochastic elements
# --------------------------------------------------------------------------- #
def build_and_multiplier() -> Netlist:
    """Single AND-gate stochastic multiplier (Fig. 1a)."""
    net = Netlist("sc_multiplier")
    x = net.add_input("x")
    y = net.add_input("y")
    (z,) = net.add_cell("AND2", [x, y], outputs=["z"])
    net.add_output(z)
    return net


def build_mux_adder() -> Netlist:
    """Conventional MUX-based scaled adder (Fig. 1b); select is an input."""
    net = Netlist("sc_mux_adder")
    x = net.add_input("x")
    y = net.add_input("y")
    s = net.add_input("sel")
    (z,) = net.add_cell("MUX2", [x, y, s], outputs=["z"])
    net.add_output(z)
    return net


def build_tff_adder(initial_state: int = 0) -> Netlist:
    """The paper's TFF-based adder (Fig. 2b).

    Structure: an XOR detects disagreement between the inputs, the TFF toggles
    on disagreement, and a MUX selects the input value (agreement) or the TFF
    state (disagreement).
    """
    net = Netlist("sc_tff_adder")
    x = net.add_input("x")
    y = net.add_input("y")
    (disagree,) = net.add_cell("XOR2", [x, y], outputs=["disagree"])
    (q,) = net.add_cell(
        "TFF", [disagree], outputs=["tff_q"], initial_state=initial_state
    )
    (z,) = net.add_cell("MUX2", [x, q, disagree], outputs=["z"])
    net.add_output(z)
    return net


def _add_tff_adder_stage(
    net: Netlist, x: str, y: str, tag: str, initial_state: int = 0
) -> str:
    """Instantiate one TFF adder inside an existing netlist; returns the sum net."""
    (disagree,) = net.add_cell("XOR2", [x, y], outputs=[f"{tag}_dis"])
    (q,) = net.add_cell(
        "TFF", [disagree], outputs=[f"{tag}_q"], initial_state=initial_state
    )
    (z,) = net.add_cell("MUX2", [x, q, disagree], outputs=[f"{tag}_sum"])
    return z


def _add_mux_adder_stage(net: Netlist, x: str, y: str, sel: str, tag: str) -> str:
    """Instantiate one MUX adder inside an existing netlist; returns the sum net."""
    (z,) = net.add_cell("MUX2", [x, y, sel], outputs=[f"{tag}_sum"])
    return z


def build_adder_tree(leaves: int, adder: str = "tff") -> Netlist:
    """A balanced tree of two-input scaled adders over ``leaves`` inputs.

    Inputs are named ``in0 .. in{leaves-1}``; the output net is ``sum``.
    MUX-adder trees additionally expose one select input per tree node,
    named ``sel0, sel1, ...`` (driven by independent 0.5-valued sources in
    the real design).
    """
    if leaves < 2:
        raise ValueError("adder tree needs at least 2 leaves")
    if adder not in ("tff", "mux"):
        raise ValueError(f"unknown adder {adder!r}")
    net = Netlist(f"sc_adder_tree_{adder}_{leaves}")
    level = net.add_inputs("in", leaves)
    sel_count = 0
    stage = 0
    while len(level) > 1:
        if len(level) % 2 == 1:
            level = level + ["0"]
        next_level: List[str] = []
        for i in range(0, len(level), 2):
            tag = f"s{stage}_{i // 2}"
            if adder == "tff":
                next_level.append(
                    _add_tff_adder_stage(net, level[i], level[i + 1], tag)
                )
            else:
                sel = net.add_input(f"sel{sel_count}")
                sel_count += 1
                next_level.append(
                    _add_mux_adder_stage(net, level[i], level[i + 1], sel, tag)
                )
        level = next_level
        stage += 1
    (out,) = net.add_cell("BUF", [level[0]], outputs=["sum"])
    net.add_output(out)
    return net


def build_counter(bits: int, enable_input: str = "enable") -> Netlist:
    """A ``bits``-wide ones-counter (stochastic-to-binary converter, Fig. 1d).

    Functionally a synchronous counter built from toggle flip-flops with an
    AND carry chain: stage ``i`` toggles when the enable input and all lower
    stages are 1.  An asynchronous ripple counter has the same cell count
    minus the carry chain.
    Outputs are ``count0`` (LSB) .. ``count{bits-1}``.
    """
    if bits < 1:
        raise ValueError("counter needs at least one bit")
    net = Netlist(f"counter_{bits}")
    enable = net.add_input(enable_input)
    carry = enable
    for i in range(bits):
        (q,) = net.add_cell("TFF", [carry], outputs=[f"count{i}"])
        net.add_output(q)
        if i + 1 < bits:
            (carry,) = net.add_cell("AND2", [carry, q], outputs=[f"carry{i}"])
    return net


def build_comparator(bits: int) -> Netlist:
    """A ``bits``-wide magnitude comparator (``a > b``) built from CMP1 slices.

    Inputs ``a0.. / b0..`` are LSB-first; the output net is ``gt``.
    """
    if bits < 1:
        raise ValueError("comparator needs at least one bit")
    net = Netlist(f"comparator_{bits}")
    a = net.add_inputs("a", bits)
    b = net.add_inputs("b", bits)
    greater = "0"
    for i in range(bits):  # LSB to MSB so the MSB decision dominates
        (greater,) = net.add_cell("CMP1", [a[i], b[i], greater], outputs=[f"gt{i}"])
    (out,) = net.add_cell("BUF", [greater], outputs=["gt"])
    net.add_output(out)
    return net


def build_lfsr(bits: int, taps: Sequence[int]) -> Netlist:
    """A Galois LFSR: ``bits`` DFFs plus one XOR per feedback tap.

    The netlist is structural only (used for area/power accounting of the
    number generators); its cycle behaviour matches
    :class:`repro.rng.lfsr.LFSR` when seeded identically.
    Outputs are ``state0`` (LSB) .. ``state{bits-1}``.
    """
    if bits < 2:
        raise ValueError("LFSR needs at least 2 bits")
    if any(t < 1 or t > bits for t in taps):
        raise ValueError(f"tap positions must lie in [1, {bits}], got {taps}")
    net = Netlist(f"lfsr_{bits}")
    state = [f"state{i}" for i in range(bits)]
    feedback = state[0]  # Galois: the shifted-out LSB
    next_state: List[str] = []
    for i in range(bits):
        source = state[i + 1] if i + 1 < bits else "0"
        if (i + 1) in taps:
            (mixed,) = net.add_cell("XOR2", [source, feedback], outputs=[f"fb{i}"])
            source = mixed
        next_state.append(source)
    for i in range(bits):
        net.add_cell("DFF", [next_state[i]], outputs=[state[i]], initial_state=1 if i == 0 else 0)
        net.add_output(state[i])
    return net


def build_sng(bits: int, taps: Sequence[int]) -> Netlist:
    """A comparator-based SNG (Fig. 1c): LFSR + magnitude comparator.

    The binary value to convert arrives on inputs ``value0..``; the output
    bit-stream appears on net ``stream``.
    """
    net = Netlist(f"sng_{bits}")
    value = net.add_inputs("value", bits)

    lfsr = build_lfsr(bits, taps)
    mapping = net.merge(lfsr, prefix="rng")
    rng_state = [mapping[f"state{i}"] for i in range(bits)]

    greater = "0"
    for i in range(bits):
        (greater,) = net.add_cell(
            "CMP1", [value[i], rng_state[i], greater], outputs=[f"sng_gt{i}"]
        )
    (stream,) = net.add_cell("BUF", [greater], outputs=["stream"])
    net.add_output(stream)
    return net


def build_sc_dot_product(
    taps: int, counter_bits: int, adder: str = "tff"
) -> Netlist:
    """One full stochastic convolution engine (Fig. 3 microarchitecture).

    Inputs per tap: the input bit-stream ``x{i}`` and the positive / negative
    weight bit-streams ``wp{i}`` / ``wn{i}``.  The engine contains

    * ``2 * taps`` AND multipliers,
    * two ``taps``-leaf adder trees (positive and negative paths),
    * two ``counter_bits``-wide output counters, and
    * a final magnitude comparator producing the sign-activation bit ``sign``.

    MUX-adder variants additionally expose the per-node select inputs of both
    trees (``pos_sel*`` and ``neg_sel*``).
    """
    if taps < 2:
        raise ValueError("dot product needs at least 2 taps")
    net = Netlist(f"sc_dot_product_{adder}_{taps}")
    x = net.add_inputs("x", taps)
    wp = net.add_inputs("wp", taps)
    wn = net.add_inputs("wn", taps)

    tree = build_adder_tree(taps, adder=adder)

    for path, weights in (("pos", wp), ("neg", wn)):
        products = []
        for i in range(taps):
            (p,) = net.add_cell(
                "AND2", [x[i], weights[i]], outputs=[f"{path}_prod{i}"]
            )
            products.append(p)
        mapping = net.merge(tree, prefix=f"{path}_tree")
        # Drive the merged tree's inputs from the product nets.
        for i, product in enumerate(products):
            net.add_cell("BUF", [product], outputs=[f"{path}_tree_feed{i}"])
        # The merge turned tree inputs into primary inputs named
        # {path}_tree_in{i}; replace them by aliasing through buffers is not
        # possible post-hoc, so instead remove them from the primary inputs
        # and re-drive them.
        for i in range(taps):
            tree_in = mapping[f"in{i}"]
            net.primary_inputs.remove(tree_in)
            net._drivers.pop(tree_in)
            net.add_cell("BUF", [f"{path}_tree_feed{i}"], outputs=[tree_in])
        counter = build_counter(counter_bits)
        counter_map = net.merge(counter, prefix=f"{path}_cnt")
        cnt_enable = counter_map["enable"]
        net.primary_inputs.remove(cnt_enable)
        net._drivers.pop(cnt_enable)
        net.add_cell("BUF", [mapping["sum"]], outputs=[cnt_enable])

    # Sign activation: positive count > negative count.
    greater = "0"
    for i in range(counter_bits):
        (greater,) = net.add_cell(
            "CMP1",
            [f"pos_cnt_count{i}", f"neg_cnt_count{i}", greater],
            outputs=[f"sign_gt{i}"],
        )
    (sign,) = net.add_cell("BUF", [greater], outputs=["sign"])
    net.add_output(sign)

    # Re-export the select inputs of MUX trees under friendlier names is not
    # needed; they are already primary inputs named pos_tree_sel*/neg_tree_sel*.
    return net


# --------------------------------------------------------------------------- #
# binary baseline elements
# --------------------------------------------------------------------------- #
def build_ripple_adder(bits: int) -> Netlist:
    """A ``bits``-wide ripple-carry adder; inputs ``a*``/``b*``, outputs ``s*`` and ``cout``."""
    if bits < 1:
        raise ValueError("adder needs at least one bit")
    net = Netlist(f"ripple_adder_{bits}")
    a = net.add_inputs("a", bits)
    b = net.add_inputs("b", bits)
    carry = "0"
    for i in range(bits):
        s, carry = net.add_cell("FA", [a[i], b[i], carry], outputs=[f"s{i}", f"c{i}"])
        net.add_output(s)
    (cout,) = net.add_cell("BUF", [carry], outputs=["cout"])
    net.add_output(cout)
    return net


def build_array_multiplier(bits: int) -> Netlist:
    """A ``bits x bits`` unsigned array multiplier.

    Inputs ``a*`` and ``b*`` (LSB first); outputs ``p0 .. p{2*bits-1}``.
    Uses the classic carry-save array: an AND gate per partial-product bit and
    a full-adder per reduction cell.
    """
    if bits < 1:
        raise ValueError("multiplier needs at least one bit")
    net = Netlist(f"array_multiplier_{bits}")
    a = net.add_inputs("a", bits)
    b = net.add_inputs("b", bits)

    # Partial products pp[i][j] = a[j] & b[i].
    pp: List[List[str]] = []
    for i in range(bits):
        row = []
        for j in range(bits):
            (p,) = net.add_cell("AND2", [a[j], b[i]], outputs=[f"pp{i}_{j}"])
            row.append(p)
        pp.append(row)

    # Column-wise accumulation with full adders (simple carry-save reduction).
    columns: List[List[str]] = [[] for _ in range(2 * bits)]
    for i in range(bits):
        for j in range(bits):
            columns[i + j].append(pp[i][j])

    outputs: List[str] = []
    carry_over: List[str] = []
    for col in range(2 * bits):
        stack = columns[col] + carry_over
        carry_over = []
        counter = 0
        while len(stack) > 2:
            s, c = net.add_cell(
                "FA", [stack.pop(), stack.pop(), stack.pop()],
                outputs=[f"red{col}_{counter}_s", f"red{col}_{counter}_c"],
            )
            stack.append(s)
            carry_over.append(c)
            counter += 1
        if len(stack) == 2:
            s, c = net.add_cell(
                "HA", [stack.pop(), stack.pop()],
                outputs=[f"fin{col}_s", f"fin{col}_c"],
            )
            stack.append(s)
            carry_over.append(c)
        bit_net = stack[0] if stack else "0"
        (p,) = net.add_cell("BUF", [bit_net], outputs=[f"p{col}"])
        net.add_output(p)
        outputs.append(p)
    return net


def build_binary_mac(bits: int, accumulator_bits: int) -> Netlist:
    """A binary multiply-accumulate unit (the core of the sliding-window engine).

    ``bits x bits`` multiplier followed by an ``accumulator_bits``-wide adder
    and an accumulator register.  Inputs ``a*`` / ``b*``; outputs ``acc*``
    plus the adder's carry out on ``overflow`` (exported so the top-level
    carry is observable -- a dropped carry is exactly the kind of silent
    wiring loss the lint pass flags as a dangling net).
    """
    if accumulator_bits < 2 * bits:
        raise ValueError("accumulator must be at least as wide as the product")
    net = Netlist(f"binary_mac_{bits}")

    multiplier = build_array_multiplier(bits)
    mul_map = net.merge(multiplier, prefix="mul")
    # The multiplier's operands are exposed as the mul_a*/mul_b* inputs.
    product = [mul_map[f"p{i}"] for i in range(2 * bits)]

    # Accumulator register.
    acc = [f"acc{i}" for i in range(accumulator_bits)]

    # Adder: acc + product (product zero-extended).
    carry = "0"
    next_acc: List[str] = []
    for i in range(accumulator_bits):
        addend = product[i] if i < len(product) else "0"
        s, carry = net.add_cell(
            "FA", [acc[i], addend, carry], outputs=[f"sum{i}", f"carry{i}"]
        )
        next_acc.append(s)
    (overflow,) = net.add_cell("BUF", [carry], outputs=["overflow"])
    net.add_output(overflow)
    for i in range(accumulator_bits):
        net.add_cell("DFF", [next_acc[i]], outputs=[acc[i]])
        net.add_output(acc[i])
    return net


def _build_catalog_lfsr() -> Netlist:
    from ..rng.lfsr import MAXIMAL_TAPS

    return build_lfsr(8, MAXIMAL_TAPS[8])


def _build_catalog_sng() -> Netlist:
    from ..rng.lfsr import MAXIMAL_TAPS

    return build_sng(8, MAXIMAL_TAPS[8])


#: Representative parameterization of every public builder: one entry per
#: builder, at (or near) the geometry the Table 3 hardware models use, so
#: the ``python -m repro lint`` CI gate and the lint-clean differential
#: tests exercise the same netlists the paper's numbers are derived from.
#: (The LFSR-based entries defer their tap-table import so this module does
#: not depend on :mod:`repro.rng` at import time.)
BUILDER_CATALOG: Dict[str, Callable[[], Netlist]] = {
    "and_multiplier": build_and_multiplier,
    "mux_adder": build_mux_adder,
    "tff_adder": build_tff_adder,
    "adder_tree_tff": lambda: build_adder_tree(25, adder="tff"),
    "adder_tree_mux": lambda: build_adder_tree(25, adder="mux"),
    "counter": lambda: build_counter(9),
    "comparator": lambda: build_comparator(9),
    "lfsr": _build_catalog_lfsr,
    "sng": _build_catalog_sng,
    "sc_dot_product_tff": lambda: build_sc_dot_product(25, 9, adder="tff"),
    "sc_dot_product_mux": lambda: build_sc_dot_product(25, 9, adder="mux"),
    "ripple_adder": lambda: build_ripple_adder(8),
    "array_multiplier": lambda: build_array_multiplier(8),
    "binary_mac": lambda: build_binary_mac(8, 21),
}
