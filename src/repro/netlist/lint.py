"""Rule-based static analysis of gate-level netlists.

:func:`repro.netlist.netlist.Netlist.validate` answers exactly one question
-- "does every instance input have a driver?" -- and
:meth:`~repro.netlist.netlist.Netlist.topological_order` can only say "cycle
or undriven net *somewhere near here*".  As the circuit generators grow from
engine-sized netlists to whole conv layers, that is not enough evidence that
a netlist is well-formed, so this module proves structural properties
without simulating:

* **drivers** -- undriven instance inputs and undriven primary outputs;
* **observability** -- dangling nets (driven but never read) and whole cells
  that cannot affect any primary output, found by a backward
  cone-of-influence traversal from the outputs (unobservable cells inflate
  every area/power roll-up, so :mod:`repro.netlist.power` warns about them);
* **cycles** -- combinational loops reported as the actual strongly
  connected component member list (the same Tarjan machinery the packed
  simulator uses for register feedback cores, :mod:`repro.netlist.graph`);
* **constants** -- cells with constant-tied inputs and constant-propagated
  dead logic (every output provably independent of every non-constant
  input, via exhaustive evaluation over the unknown inputs);
* **naming** -- duplicate instance names (which would silently share
  sequential state in the cycle simulator) and user-named nets that sit in
  the namespace :meth:`~repro.netlist.netlist.Netlist.new_net` generates;
* **state** -- sequential cells whose ``initial_state`` is outside ``{0,1}``
  (unreachable in the two-level signal convention; the simulator's
  closed-form registers reject it while feedback cores read it modulo 2);
* **structure** -- a fanout histogram and per-primary-output logic depth /
  critical path length for every lint run (:class:`NetlistStats`).

Rules live in a registry (:data:`LINT_RULES`); each has a stable id, a
severity (``error`` / ``warning`` / ``info``) and a checker that yields
:class:`LintFinding` records into a :class:`LintReport`.  Entry points:

* :func:`lint` -- run the rules, return the report;
* :func:`enforce` -- raise :class:`LintError` when a netlist has findings at
  or above a severity (``simulate(strict=True)`` elaboration mode);
* :func:`unobservable_instances` -- the cone-of-influence helper shared with
  the power model;
* ``python -m repro lint`` -- the CLI gate over every builder circuit.

Example::

    from repro.netlist import build_sc_dot_product, lint

    report = lint(build_sc_dot_product(25, 9))
    assert not report.has_errors
    print(report.format(verbose=True))
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product as _cartesian_product
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from .cells import CELL_LIBRARY
from .graph import instance_successors, strongly_connected_instances
from .netlist import Instance, Netlist

__all__ = [
    "SEVERITIES",
    "LintFinding",
    "LintRule",
    "LintError",
    "LintReport",
    "NetlistStats",
    "LINT_RULES",
    "register_rule",
    "lint",
    "enforce",
    "unobservable_instances",
    "UnobservableAreaWarning",
]


#: Recognized severities, most severe first.
SEVERITIES = ("error", "warning", "info")


class UnobservableAreaWarning(UserWarning):
    """A netlist being costed contains cells no primary output can observe."""


@dataclass(frozen=True)
class LintFinding:
    """One rule violation (or observation) anchored to a net or instance."""

    #: Stable rule identifier, e.g. ``"undriven-input"``.
    rule: str
    #: ``"error"``, ``"warning"`` or ``"info"``.
    severity: str
    #: Human-readable description of the specific violation.
    message: str
    #: Instance name the finding is anchored to, when applicable.
    instance: Optional[str] = None
    #: Net name the finding is anchored to, when applicable.
    net: Optional[str] = None
    #: Suggested fix, when one is obvious.
    hint: Optional[str] = None

    def format(self) -> str:
        """One- or two-line rendering used by :meth:`LintReport.format`."""
        tag = {"error": "E", "warning": "W", "info": "I"}[self.severity]
        where = ""
        if self.instance is not None:
            where += f" @ instance {self.instance!r}"
        if self.net is not None:
            where += f" @ net {self.net!r}"
        text = f"[{tag}] {self.rule}{where}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass(frozen=True)
class LintRule:
    """A registered rule: id, severity, description and checker."""

    id: str
    severity: str
    description: str
    check: Callable[["_Analysis"], Iterator[LintFinding]] = field(
        repr=False, compare=False, default=None
    )


@dataclass
class NetlistStats:
    """Structural statistics collected on every lint run.

    ``logic_depth`` maps each primary output to the number of combinational
    cells on its longest input-to-output path (sequential outputs and
    primary inputs count as depth 0).  Depths are ``None`` when the netlist
    contains a combinational cycle (reported separately) or the output is
    undriven.  ``critical_path`` lists the instance names along the deepest
    combinational path, source to sink.
    """

    #: Net fanout histogram: reader count -> number of nets with that fanout.
    fanout_histogram: Dict[int, int]
    #: Highest-fanout nets: net -> reader count, for the report.
    max_fanout: int
    #: Per-primary-output combinational logic depth (see class docstring).
    logic_depth: Dict[str, Optional[int]]
    #: Longest combinational path length over all nets, or ``None``.
    critical_path_length: Optional[int]
    #: Instance names along one deepest path, source first.
    critical_path: List[str]


@dataclass
class LintReport:
    """Findings plus structural statistics from one :func:`lint` run."""

    #: Name of the analyzed netlist.
    netlist: str
    #: Number of cell instances analyzed.
    cells: int
    #: All findings, ordered error -> warning -> info, then by rule id.
    findings: List[LintFinding]
    #: Structural statistics (always collected, never findings).
    stats: NetlistStats

    @property
    def errors(self) -> List[LintFinding]:
        """Findings with severity ``error``."""
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[LintFinding]:
        """Findings with severity ``warning``."""
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def infos(self) -> List[LintFinding]:
        """Findings with severity ``info``."""
        return [f for f in self.findings if f.severity == "info"]

    @property
    def has_errors(self) -> bool:
        """True when at least one error-severity finding is present."""
        return any(f.severity == "error" for f in self.findings)

    def by_rule(self, rule_id: str) -> List[LintFinding]:
        """All findings of one rule."""
        return [f for f in self.findings if f.rule == rule_id]

    def counts(self) -> Dict[str, int]:
        """Finding counts per severity (always includes all three keys)."""
        counts = {severity: 0 for severity in SEVERITIES}
        for finding in self.findings:
            counts[finding.severity] += 1
        return counts

    def format(self, verbose: bool = False) -> str:
        """Render the report; ``verbose`` adds info findings and statistics."""
        counts = self.counts()
        lines = [
            f"netlist {self.netlist!r}: {self.cells} cells, "
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info"
        ]
        shown = self.findings if verbose else self.errors + self.warnings
        lines.extend("  " + finding.format() for finding in shown)
        if verbose:
            depth = self.stats.critical_path_length
            depth_text = "n/a (cyclic or undriven)" if depth is None else str(depth)
            lines.append(
                f"  stats: max fanout {self.stats.max_fanout}, "
                f"critical path {depth_text} combinational level(s)"
            )
            if self.stats.critical_path:
                lines.append(
                    "  critical path: " + " -> ".join(self.stats.critical_path)
                )
            histogram = ", ".join(
                f"{fanout}:{count}"
                for fanout, count in sorted(self.stats.fanout_histogram.items())
            )
            lines.append(f"  fanout histogram (fanout:nets): {histogram}")
        return "\n".join(lines)


class LintError(ValueError):
    """Raised by :func:`enforce` / ``simulate(strict=True)`` on findings."""

    def __init__(self, report: LintReport, severity: str) -> None:
        self.report = report
        self.severity = severity
        rank = SEVERITIES.index(severity)
        triggering = [
            f for f in report.findings if SEVERITIES.index(f.severity) <= rank
        ]
        summary = "; ".join(f.format().replace("\n    ", " ") for f in triggering[:8])
        if len(triggering) > 8:
            summary += f"; ... {len(triggering) - 8} more"
        super().__init__(
            f"netlist {report.netlist!r} failed {severity}-level lint "
            f"({len(triggering)} finding(s)): {summary}"
        )


# --------------------------------------------------------------------------- #
# shared per-netlist analysis (computed once, consumed by every rule)
# --------------------------------------------------------------------------- #
class _Analysis:
    """Derived graph facts shared by the rules: drivers, readers, cones."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.constants: Set[str] = set(Netlist.CONSTANT_NETS)
        self.driven: Set[str] = set(netlist._drivers) | self.constants

        #: net -> (instance name, pin name) pairs reading it.
        self.readers: Dict[str, List[Tuple[str, str]]] = {}
        #: net -> driving Instance (cell outputs only, not primary inputs).
        self.producer: Dict[str, Instance] = {}
        for inst in netlist.instances:
            for pin, net in zip(inst.cell.inputs, inst.inputs):
                self.readers.setdefault(net, []).append((inst.name, pin))
            for net in inst.outputs:
                self.producer[net] = inst

        self.comb = netlist.combinational_instances()
        self.seq = netlist.sequential_instances()
        self.cyclic_sccs = self._combinational_cycles()
        in_cycle = {id(inst) for scc in self.cyclic_sccs for inst in scc}
        self.comb_order, self.comb_unordered = self._combinational_order(in_cycle)
        self.observable = self._cone_of_influence()
        self.constant_nets = self._propagate_constants()
        self.depth, self.depth_pred = self._logic_depths()

    # -- cycles ---------------------------------------------------------- #
    def _combinational_cycles(self) -> List[List[Instance]]:
        succs = instance_successors(self.comb)
        self_loops = {
            id(inst)
            for inst in self.comb
            if any(net in inst.outputs for net in inst.inputs)
        }
        return [
            scc
            for scc in strongly_connected_instances(self.comb, succs)
            if len(scc) > 1 or id(scc[0]) in self_loops
        ]

    # -- evaluation order (never raises, unlike topological_order) ------- #
    def _combinational_order(
        self, in_cycle: Set[int]
    ) -> Tuple[List[Instance], List[Instance]]:
        """Topological order of the acyclic combinational subgraph.

        Returns ``(ordered, unordered)`` where ``unordered`` holds cycle
        members and everything downstream of a cycle.  Nets without drivers
        are treated as (unknown-valued) sources so a single missing wire
        does not hide the rest of the analysis.
        """
        ready = set(self.netlist.primary_inputs) | self.constants
        for inst in self.seq:
            ready.update(inst.outputs)
        for inst in self.netlist.instances:
            ready.update(net for net in inst.inputs if net not in self.driven)

        remaining = [inst for inst in self.comb if id(inst) not in in_cycle]
        ordered: List[Instance] = []
        while remaining:
            progress = False
            waiting = []
            for inst in remaining:
                if all(net in ready for net in inst.inputs):
                    ordered.append(inst)
                    ready.update(inst.outputs)
                    progress = True
                else:
                    waiting.append(inst)
            if not progress:
                break
            remaining = waiting
        unordered = remaining + [
            inst for inst in self.comb if id(inst) in in_cycle
        ]
        return ordered, unordered

    # -- observability --------------------------------------------------- #
    def _cone_of_influence(self) -> Set[int]:
        """``id()`` set of instances in the backward cone of any primary output."""
        unobservable = {id(inst) for inst in unobservable_instances(self.netlist)}
        return {
            id(inst)
            for inst in self.netlist.instances
            if id(inst) not in unobservable
        }

    # -- constant propagation -------------------------------------------- #
    def _propagate_constants(self) -> Dict[str, int]:
        """Nets with provably constant values (``{"0": 0, "1": 1}`` seeded).

        Combinational cells are evaluated in topological order; inputs that
        are not known constants are treated as free variables and the cell is
        evaluated exhaustively over them (at most ``2**n_unknown`` calls, and
        library cells have at most 3 inputs), so partially-tied cells like
        ``AND2(x, "0")`` are recognized as constant too.  Sequential cells
        never propagate: their output depends on the state trajectory.
        """
        known: Dict[str, int] = {"0": 0, "1": 1}
        for inst in self.comb_order:
            unknown = [net for net in inst.inputs if net not in known]
            if len(unknown) > 6:  # safety valve for exotic future cells
                continue
            outputs: Optional[Tuple[int, ...]] = None
            constant = True
            for assignment in _cartesian_product((0, 1), repeat=len(unknown)):
                values = dict(zip(unknown, assignment))
                bits = tuple(
                    values[net] if net in values else known[net]
                    for net in inst.inputs
                )
                result = tuple(int(b) & 1 for b in inst.cell.logic(bits))
                if outputs is None:
                    outputs = result
                elif result != outputs:
                    constant = False
                    break
            if constant and outputs is not None:
                for net, bit in zip(inst.outputs, outputs):
                    known[net] = bit
        for name in ("0", "1"):
            del known[name]
        return known

    # -- logic depth ------------------------------------------------------ #
    def _logic_depths(
        self,
    ) -> Tuple[Dict[str, Optional[int]], Dict[str, Optional[str]]]:
        """Per-net combinational depth and deepest-predecessor instance names."""
        depth: Dict[str, Optional[int]] = {net: 0 for net in self.constants}
        pred: Dict[str, Optional[str]] = {}
        for net in self.netlist.primary_inputs:
            depth[net] = 0
        for inst in self.seq:
            for net in inst.outputs:
                depth[net] = 0
        for inst in self.netlist.instances:
            for net in inst.inputs:
                if net not in self.driven:
                    depth[net] = 0
        for inst in self.comb_order:
            input_depths = [depth.get(net) for net in inst.inputs]
            if any(d is None for d in input_depths):
                level: Optional[int] = None
                deepest = None
            else:
                level = 1 + max(input_depths, default=0)
                deepest = None
                if input_depths:
                    deepest = inst.inputs[input_depths.index(max(input_depths))]
            for net in inst.outputs:
                depth[net] = level
                pred[net] = deepest
        for inst in self.comb_unordered:
            for net in inst.outputs:
                depth[net] = None
        return depth, pred

    def critical_path(self) -> Tuple[Optional[int], List[str]]:
        """Longest combinational path: length and instance names along it."""
        best_net: Optional[str] = None
        best = 0
        for net, level in self.depth.items():
            if level is not None and level > best:
                best, best_net = level, net
        if best_net is None:
            cyclic = any(d is None for d in self.depth.values())
            return (None, []) if cyclic else (0, [])
        path: List[str] = []
        net: Optional[str] = best_net
        while net is not None and net in self.producer:
            inst = self.producer[net]
            if inst.cell.sequential:
                break
            path.append(inst.name)
            net = self.depth_pred.get(net)
        path.reverse()
        return best, path

    def fanout(self, net: str) -> int:
        """Number of instance input pins reading a net."""
        return len(self.readers.get(net, ()))


# --------------------------------------------------------------------------- #
# rule registry
# --------------------------------------------------------------------------- #
#: All registered rules, keyed by rule id.
LINT_RULES: Dict[str, LintRule] = {}


def register_rule(
    rule_id: str, severity: str, description: str
) -> Callable[[Callable], Callable]:
    """Decorator registering a checker under ``rule_id`` in :data:`LINT_RULES`.

    The checker receives the shared analysis context and yields
    :class:`LintFinding` records.  Registering an existing id replaces the
    rule (useful for project-specific overrides in downstream code).
    """
    if severity not in SEVERITIES:
        raise ValueError(f"severity must be one of {SEVERITIES}, got {severity!r}")

    def decorator(fn: Callable) -> Callable:
        LINT_RULES[rule_id] = LintRule(rule_id, severity, description, fn)
        return fn

    return decorator


@register_rule(
    "undriven-input",
    "error",
    "every instance input pin must be connected to a driven net",
)
def _check_undriven_inputs(ctx: _Analysis) -> Iterator[LintFinding]:
    for inst in ctx.netlist.instances:
        for pin, net in zip(inst.cell.inputs, inst.inputs):
            if net not in ctx.driven:
                yield LintFinding(
                    rule="undriven-input",
                    severity="error",
                    message=f"input pin {pin} reads net {net!r}, which has no driver",
                    instance=inst.name,
                    net=net,
                    hint="add a driving cell or declare the net as a primary input",
                )


@register_rule(
    "undriven-output",
    "error",
    "every primary output must be a driven net",
)
def _check_undriven_outputs(ctx: _Analysis) -> Iterator[LintFinding]:
    for net in ctx.netlist.primary_outputs:
        if net not in ctx.driven:
            yield LintFinding(
                rule="undriven-output",
                severity="error",
                message=f"primary output {net!r} has no driver",
                net=net,
                hint="drive the net before (or after) calling add_output(); "
                "add_output() only marks the name",
            )


@register_rule(
    "duplicate-instance",
    "error",
    "instance names must be unique (the simulator keys sequential state by name)",
)
def _check_duplicate_instances(ctx: _Analysis) -> Iterator[LintFinding]:
    counts = Counter(inst.name for inst in ctx.netlist.instances)
    for name, count in sorted(counts.items()):
        if count > 1:
            yield LintFinding(
                rule="duplicate-instance",
                severity="error",
                message=f"instance name used {count} times; sequential cells "
                "with this name would silently share one state entry",
                instance=name,
                hint="pass a unique instance_name= to add_cell()",
            )


@register_rule(
    "combinational-cycle",
    "error",
    "combinational logic must be acyclic (reported as the actual SCC members)",
)
def _check_combinational_cycles(ctx: _Analysis) -> Iterator[LintFinding]:
    for scc in ctx.cyclic_sccs:
        members = sorted(inst.name for inst in scc)
        preview = ", ".join(members[:12])
        if len(members) > 12:
            preview += f", ... {len(members) - 12} more"
        yield LintFinding(
            rule="combinational-cycle",
            severity="error",
            message=f"combinational cycle through {len(members)} instance(s): "
            f"[{preview}]",
            instance=members[0],
            hint="break the loop with a sequential cell (DFF/TFF) or rewire "
            "the feedback path",
        )


@register_rule(
    "bad-initial-state",
    "error",
    "sequential initial_state must be 0 or 1 (anything else is unreachable "
    "in the two-level convention, and the simulator's closed-form registers "
    "reject it while feedback cores read it modulo 2)",
)
def _check_initial_state(ctx: _Analysis) -> Iterator[LintFinding]:
    for inst in ctx.seq:
        if inst.initial_state not in (0, 1):
            yield LintFinding(
                rule="bad-initial-state",
                severity="error",
                message=f"initial_state={inst.initial_state} on a "
                f"{inst.cell.name}; only 0 and 1 are reachable states",
                instance=inst.name,
                hint="pass initial_state=0 or 1 to add_cell()",
            )


@register_rule(
    "dangling-net",
    "warning",
    "a cell output that is never read and is not a primary output",
)
def _check_dangling_nets(ctx: _Analysis) -> Iterator[LintFinding]:
    outputs = set(ctx.netlist.primary_outputs)
    for inst in ctx.netlist.instances:
        for net in inst.outputs:
            if net not in outputs and ctx.fanout(net) == 0:
                yield LintFinding(
                    rule="dangling-net",
                    severity="warning",
                    message=f"output net {net!r} is never read and is not a "
                    "primary output",
                    instance=inst.name,
                    net=net,
                    hint="read the net, mark it with add_output(), or drop "
                    "the cell",
                )


@register_rule(
    "unobservable-logic",
    "warning",
    "cells outside the cone of influence of every primary output "
    "(counted in area/power but unable to affect any result)",
)
def _check_unobservable(ctx: _Analysis) -> Iterator[LintFinding]:
    for inst in ctx.netlist.instances:
        if id(inst) not in ctx.observable:
            yield LintFinding(
                rule="unobservable-logic",
                severity="warning",
                message=f"{inst.cell.name} cannot affect any primary output",
                instance=inst.name,
                hint="export a net it feeds with add_output(), or remove it "
                "before costing area/power",
            )


@register_rule(
    "unused-input",
    "warning",
    "a primary input no instance reads",
)
def _check_unused_inputs(ctx: _Analysis) -> Iterator[LintFinding]:
    outputs = set(ctx.netlist.primary_outputs)
    for net in ctx.netlist.primary_inputs:
        if ctx.fanout(net) == 0 and net not in outputs:
            yield LintFinding(
                rule="unused-input",
                severity="warning",
                message=f"primary input {net!r} is never read",
                net=net,
                hint="connect it or drop the add_input() call",
            )


@register_rule(
    "constant-cell",
    "warning",
    "constant-propagated dead logic: every output is provably constant",
)
def _check_constant_cells(ctx: _Analysis) -> Iterator[LintFinding]:
    for inst in ctx.comb_order:
        if all(net in ctx.constant_nets for net in inst.outputs):
            values = ", ".join(
                f"{net}={ctx.constant_nets[net]}" for net in inst.outputs
            )
            yield LintFinding(
                rule="constant-cell",
                severity="warning",
                message=f"{inst.cell.name} output is constant ({values}) for "
                "every input assignment",
                instance=inst.name,
                net=inst.outputs[0],
                hint="tie the fanout to the constant net and drop the cell",
            )


@register_rule(
    "constant-input",
    "info",
    "an input pin tied to a constant (or provably constant) net",
)
def _check_constant_inputs(ctx: _Analysis) -> Iterator[LintFinding]:
    for inst in ctx.netlist.instances:
        for pin, net in zip(inst.cell.inputs, inst.inputs):
            if net in ctx.constants:
                yield LintFinding(
                    rule="constant-input",
                    severity="info",
                    message=f"input pin {pin} is tied to constant {net}",
                    instance=inst.name,
                    net=net,
                )
            elif net in ctx.constant_nets:
                yield LintFinding(
                    rule="constant-input",
                    severity="info",
                    message=f"input pin {pin} reads {net!r}, which is "
                    f"provably constant {ctx.constant_nets[net]}",
                    instance=inst.name,
                    net=net,
                )


@register_rule(
    "net-name-collision",
    "warning",
    "a user-named net inside the namespace new_net() generates",
)
def _check_net_name_collisions(ctx: _Analysis) -> Iterator[LintFinding]:
    hints = {"n"}
    for cell_type in CELL_LIBRARY.values():
        for pin in cell_type.outputs:
            hints.add(f"{cell_type.name.lower()}_{pin.lower()}")
    counter = ctx.netlist._counter
    for net in ctx.netlist.nets:
        base, sep, suffix = net.rpartition("_")
        if not sep or base not in hints or not suffix.isdigit():
            continue
        if int(suffix) > counter:
            yield LintFinding(
                rule="net-name-collision",
                severity="warning",
                message=f"net name {net!r} sits in the auto-generated "
                f"new_net({base!r}) namespace ahead of its counter "
                f"(currently {counter}); later anonymous cells will have "
                "to skip it",
                net=net,
                hint="rename the net outside the '<cell>_<pin>_<n>' pattern",
            )


@register_rule(
    "fanout-hotspot",
    "info",
    "a net with unusually high fanout (buffer-tree candidate)",
)
def _check_fanout_hotspots(ctx: _Analysis) -> Iterator[LintFinding]:
    for net in ctx.netlist.nets:
        fanout = ctx.fanout(net)
        if fanout >= _FANOUT_HOTSPOT_THRESHOLD:
            yield LintFinding(
                rule="fanout-hotspot",
                severity="info",
                message=f"net drives {fanout} input pins "
                f"(threshold {_FANOUT_HOTSPOT_THRESHOLD})",
                net=net,
                hint="a real flow would insert a buffer tree here",
            )


@register_rule(
    "ignored-initial-state",
    "info",
    "initial_state set on a combinational cell (silently ignored)",
)
def _check_ignored_initial_state(ctx: _Analysis) -> Iterator[LintFinding]:
    for inst in ctx.comb:
        if inst.initial_state != 0:
            yield LintFinding(
                rule="ignored-initial-state",
                severity="info",
                message=f"initial_state={inst.initial_state} on combinational "
                f"{inst.cell.name} has no effect",
                instance=inst.name,
                hint="drop the initial_state= argument",
            )


#: Fanout at which :data:`fanout-hotspot` starts reporting.
_FANOUT_HOTSPOT_THRESHOLD = 64


# --------------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------------- #
def lint(
    netlist: Netlist,
    rules: Optional[Iterable[str]] = None,
    ignore: Iterable[str] = (),
) -> LintReport:
    """Run the registered rules over a netlist and return the report.

    Parameters
    ----------
    netlist:
        The circuit to analyze.  Never modified, never simulated.
    rules:
        Rule ids to run; default is every rule in :data:`LINT_RULES`.
    ignore:
        Rule ids to skip (applied after ``rules``).
    """
    selected = list(LINT_RULES) if rules is None else list(rules)
    unknown = [r for r in selected if r not in LINT_RULES] + [
        r for r in ignore if r not in LINT_RULES
    ]
    if unknown:
        raise ValueError(
            f"unknown lint rule(s) {sorted(set(unknown))}; "
            f"available: {sorted(LINT_RULES)}"
        )
    skipped = set(ignore)

    ctx = _Analysis(netlist)
    findings: List[LintFinding] = []
    for rule_id in selected:
        if rule_id in skipped:
            continue
        findings.extend(LINT_RULES[rule_id].check(ctx))
    findings.sort(key=lambda f: (SEVERITIES.index(f.severity), f.rule))

    fanouts = [ctx.fanout(net) for net in netlist.nets]
    critical_length, critical_path = ctx.critical_path()
    stats = NetlistStats(
        fanout_histogram=dict(sorted(Counter(fanouts).items())),
        max_fanout=max(fanouts, default=0),
        logic_depth={
            net: ctx.depth.get(net) for net in netlist.primary_outputs
        },
        critical_path_length=critical_length,
        critical_path=critical_path,
    )
    return LintReport(
        netlist=netlist.name,
        cells=len(netlist.instances),
        findings=findings,
        stats=stats,
    )


def enforce(netlist: Netlist, severity: str = "error") -> LintReport:
    """Lint and raise :class:`LintError` on findings at/above ``severity``.

    This is the ``strict=`` elaboration mode of
    :func:`repro.netlist.simulator.simulate`: an error-clean report is
    returned, anything else raises with the offending findings listed.
    """
    if severity not in SEVERITIES:
        raise ValueError(f"severity must be one of {SEVERITIES}, got {severity!r}")
    report = lint(netlist)
    rank = SEVERITIES.index(severity)
    if any(SEVERITIES.index(f.severity) <= rank for f in report.findings):
        raise LintError(report, severity)
    return report


def unobservable_instances(netlist: Netlist) -> List[Instance]:
    """Instances outside the cone of influence of every primary output.

    The cone-of-influence helper shared with :mod:`repro.netlist.power`:
    cells returned here contribute area, leakage and (potentially) switching
    energy to the roll-ups without being able to change any output, so the
    power model warns when it counts them.  Netlists with no primary outputs
    return every instance.
    """
    producer: Dict[str, Instance] = {}
    for inst in netlist.instances:
        for net in inst.outputs:
            producer[net] = inst
    observable: Set[int] = set()
    frontier = list(dict.fromkeys(netlist.primary_outputs))
    seen: Set[str] = set(frontier)
    while frontier:
        net = frontier.pop()
        inst = producer.get(net)
        if inst is None or id(inst) in observable:
            continue
        observable.add(id(inst))
        for source in inst.inputs:
            if source not in seen:
                seen.add(source)
                frontier.append(source)
    return [inst for inst in netlist.instances if id(inst) not in observable]
