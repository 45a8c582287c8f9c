"""Global dataflow framework: worklist solvers over per-block lattices.

The block-local passes in :mod:`repro.ir.passes` only ever reason about
one :class:`~repro.ir.basicblock.BasicBlock` at a time.  This module adds
the whole-CFG layer: a generic iterative worklist solver over powerset
lattices (forward or backward, may or must), plus the two classic
analyses the global passes and the verifier consume:

* :class:`LivenessAnalysis` — backward may-analysis over scalar variable
  names, used by liveness-based global dead-code elimination and to
  cross-check the per-block DFG live sets;
* :class:`ReachingDefinitions` — forward may-analysis over definition
  sites, used for diagnostics and analysis reports;
* :class:`DefiniteAssignment` — forward must-analysis over "assigned on
  every path" variable names, used by the verifier's def-before-use
  check (a use is rejected unless a definition reaches it along *all*
  paths from the entry).

Iteration order follows :meth:`ControlFlowGraph.reverse_post_order`
(reverse post-order for forward problems, its reverse for backward
ones), which reaches the fixed point in a small number of sweeps for
reducible CFGs — the only kind the structured mini-C frontend emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .basicblock import BasicBlock
from .cfg import ControlFlowGraph
from .operations import Opcode, Temp, VarRef


@dataclass
class DataflowResult:
    """Fixed-point ``in``/``out`` sets per block label."""

    in_sets: dict[str, frozenset] = field(default_factory=dict)
    out_sets: dict[str, frozenset] = field(default_factory=dict)
    iterations: int = 0

    def live_in(self, label: str) -> frozenset:
        return self.in_sets[label]

    def live_out(self, label: str) -> frozenset:
        return self.out_sets[label]


class DataflowAnalysis:
    """A gen/kill dataflow problem over a powerset lattice.

    Subclasses define the direction, the meet operator (``may`` joins
    with union, ``must`` with intersection), the boundary value and the
    per-block ``gen``/``kill`` sets; :meth:`solve` computes each block's
    sets once and sweeps the transfer function ``gen ∪ (x − kill)`` to a
    fixed point.
    """

    #: "forward" propagates entry→exit, "backward" exit→entry.
    direction = "forward"
    #: "may" (union meet) or "must" (intersection meet).
    mode = "may"

    def boundary(self, cfg: ControlFlowGraph) -> frozenset:
        """Value at the CFG boundary (entry or exit blocks)."""
        return frozenset()

    def universe(self, cfg: ControlFlowGraph) -> frozenset:
        """Top of a must-analysis lattice (ignored for may-analyses)."""
        return frozenset()

    def gen(self, block: BasicBlock) -> frozenset:
        raise NotImplementedError

    def kill(self, block: BasicBlock) -> frozenset:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Solver
    # ------------------------------------------------------------------
    def solve(self, cfg: ControlFlowGraph, max_iterations: int = 64) -> DataflowResult:
        """Iterate to a fixed point; returns per-block in/out sets.

        ``in``/``out`` are always oriented in *execution* order: for a
        backward analysis ``in_sets[b]`` is the value at the top of the
        block and ``out_sets[b]`` the value at the bottom.  Raises
        ``RuntimeError`` if ``max_iterations`` sweeps do not reach the
        fixed point: a partial result (say, liveness) is not sound.
        """
        order = list(cfg.reverse_post_order())
        labels = set(order)
        forward = self.direction == "forward"
        meet_union = self.mode == "may"
        boundary = frozenset(self.boundary(cfg))
        top = frozenset(self.universe(cfg))
        initial = frozenset() if meet_union else top

        preds: dict[str, list[str]] = {label: [] for label in order}
        succs: dict[str, list[str]] = {label: [] for label in order}
        for label in order:
            for succ in cfg.block(label).successor_labels():
                if succ in labels:
                    succs[label].append(succ)
                    preds[succ].append(label)

        before = {label: initial for label in order}
        after = {label: initial for label in order}

        sources = preds if forward else succs
        sweep: list[tuple[str, list[str], bool, frozenset, frozenset]] = []
        for label in order if forward else reversed(order):
            block = cfg.block(label)
            is_boundary = (
                label == cfg.entry_label if forward else self._is_exit(block)
            )
            gen, kill = self.gen(block), self.kill(block)
            sweep.append((label, sources[label], is_boundary, gen, kill))
        iterations = 0
        changed = True
        while changed and iterations < max_iterations:
            changed = False
            iterations += 1
            for label, incoming, is_boundary, gen, kill in sweep:
                merged: frozenset | None = None
                for src in incoming:
                    contribution = after[src] if forward else before[src]
                    if merged is None:
                        merged = contribution
                    elif meet_union:
                        merged = merged | contribution
                    else:
                        merged = merged & contribution
                if merged is None:
                    # No sources in the analysis direction: the boundary
                    # value at true boundaries, bottom/top elsewhere.
                    value = boundary if is_boundary else initial
                elif is_boundary:
                    value = (
                        merged | boundary if meet_union else merged & boundary
                    )
                else:
                    value = merged
                transferred = gen | (value - kill)
                if forward:
                    if value != before[label] or transferred != after[label]:
                        before[label], after[label] = value, transferred
                        changed = True
                else:
                    if value != after[label] or transferred != before[label]:
                        after[label], before[label] = value, transferred
                        changed = True
        if changed:
            raise RuntimeError(
                f"{type(self).__name__} did not converge on "
                f"{cfg.function_name!r} within {max_iterations} sweeps"
            )
        return DataflowResult(
            in_sets=dict(before), out_sets=dict(after), iterations=iterations
        )

    @staticmethod
    def _is_exit(block: BasicBlock) -> bool:
        terminator = block.terminator
        return terminator is not None and terminator.opcode is Opcode.RET


def _scalar_globals(cfg: ControlFlowGraph) -> frozenset[str]:
    """Names of global scalars visible in ``cfg`` (they outlive it)."""
    return frozenset(
        name
        for name, info in cfg.variables.items()
        if info.is_global and not info.is_array
    )


class LivenessAnalysis(DataflowAnalysis):
    """Backward may-analysis: which scalar names may be read later.

    The value domain is scalar :class:`VarRef` names (temps never cross
    block boundaries, so their liveness stays block-local and is handled
    by the local DCE pass).  Global scalars are live at every exit and
    across every CALL — a callee may read them.
    """

    direction = "backward"
    mode = "may"

    def boundary(self, cfg: ControlFlowGraph) -> frozenset:
        return _scalar_globals(cfg)

    def gen(self, block: BasicBlock) -> frozenset:
        upward_exposed: set[str] = set()
        killed: set[str] = set()
        globals_ = self._globals
        for instruction in block.instructions:
            for operand in instruction.operands:
                if isinstance(operand, VarRef) and operand.name not in killed:
                    upward_exposed.add(operand.name)
            if instruction.opcode is Opcode.CALL:
                upward_exposed |= globals_ - killed
            if isinstance(instruction.dest, VarRef):
                killed.add(instruction.dest.name)
        return frozenset(upward_exposed)

    def kill(self, block: BasicBlock) -> frozenset:
        return frozenset(
            instruction.dest.name
            for instruction in block.instructions
            if isinstance(instruction.dest, VarRef)
        )

    def solve(self, cfg: ControlFlowGraph, max_iterations: int = 64) -> DataflowResult:
        self._globals = _scalar_globals(cfg)
        return super().solve(cfg, max_iterations)


#: One scalar definition site: (variable name, block label, index).
DefSite = tuple[str, str, int]


class ReachingDefinitions(DataflowAnalysis):
    """Forward may-analysis over scalar definition sites.

    A definition is any instruction whose ``dest`` is a :class:`VarRef`;
    parameters and globals carry a synthetic boundary definition
    ``(name, "<entry>", -1)`` since they are defined before the function
    body runs.
    """

    direction = "forward"
    mode = "may"

    def boundary(self, cfg: ControlFlowGraph) -> frozenset:
        defined_at_entry = [
            name
            for name, info in cfg.variables.items()
            if not info.is_array and (info.is_param or info.is_global)
        ]
        return frozenset((name, "<entry>", -1) for name in defined_at_entry)

    def gen(self, block: BasicBlock) -> frozenset:
        last_def: dict[str, DefSite] = {}
        for index, instruction in enumerate(block.instructions):
            if isinstance(instruction.dest, VarRef):
                name = instruction.dest.name
                last_def[name] = (name, block.label, index)
        return frozenset(last_def.values())

    def kill(self, block: BasicBlock) -> frozenset:
        written = {
            instruction.dest.name
            for instruction in block.instructions
            if isinstance(instruction.dest, VarRef)
        }
        return frozenset(
            site for site in self._all_defs if site[0] in written
        ) - self.gen(block)

    def solve(self, cfg: ControlFlowGraph, max_iterations: int = 64) -> DataflowResult:
        all_defs: set[DefSite] = set(self.boundary(cfg))
        for block in cfg:
            for index, instruction in enumerate(block.instructions):
                if isinstance(instruction.dest, VarRef):
                    all_defs.add(
                        (instruction.dest.name, block.label, index)
                    )
        self._all_defs = frozenset(all_defs)
        return super().solve(cfg, max_iterations)


class DefiniteAssignment(DataflowAnalysis):
    """Forward must-analysis: names assigned along *every* path.

    ``in_sets[b]`` is the set of scalar names guaranteed to have a value
    when ``b`` is entered.  Parameters and globals are assigned at the
    boundary; a local joins the set once every path to the block writes
    it.  The verifier walks each block with this in-set to reject
    uses of possibly-uninitialized locals.
    """

    direction = "forward"
    mode = "must"

    def _assigned_at_entry(self, cfg: ControlFlowGraph) -> frozenset:
        return frozenset(
            name
            for name, info in cfg.variables.items()
            if not info.is_array and (info.is_param or info.is_global)
        )

    def boundary(self, cfg: ControlFlowGraph) -> frozenset:
        return self._assigned_at_entry(cfg)

    def universe(self, cfg: ControlFlowGraph) -> frozenset:
        return frozenset(
            name for name, info in cfg.variables.items() if not info.is_array
        )

    def gen(self, block: BasicBlock) -> frozenset:
        return frozenset(
            instruction.dest.name
            for instruction in block.instructions
            if isinstance(instruction.dest, VarRef)
        )

    def kill(self, block: BasicBlock) -> frozenset:
        return frozenset()


def live_variable_sets(cfg: ControlFlowGraph) -> DataflowResult:
    """Convenience wrapper: solved liveness for one CFG."""
    return LivenessAnalysis().solve(cfg)


def reaching_definition_sets(cfg: ControlFlowGraph) -> DataflowResult:
    """Convenience wrapper: solved reaching definitions for one CFG."""
    return ReachingDefinitions().solve(cfg)


def upward_exposed_temp_uses(block: BasicBlock) -> Iterable[Temp]:
    """Temps read before any definition inside ``block``.

    Temps are block-local by construction, so any upward-exposed temp
    use is a def-before-use violation; the verifier reports them.
    """
    defined: set[Temp] = set()
    for instruction in block.instructions:
        for operand in instruction.operands:
            if isinstance(operand, Temp) and operand not in defined:
                yield operand
        if isinstance(instruction.dest, Temp):
            defined.add(instruction.dest)
