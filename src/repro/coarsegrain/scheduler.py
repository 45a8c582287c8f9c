"""Resource-constrained list scheduler for the CGC data-path (§3.3).

"The steps of the mapping process are: (a) scheduling of DFG operations,
and (b) binding with the CGCs.  A proper list-based scheduler has been
developed."  This module is that scheduler.

Model
-----
* Time advances in CGC cycles (unit execution delay per node, §3.3).
* Each CGC node executes one ALU or MUL operation per cycle; a data-path
  with k CGCs of n×m nodes issues up to ``k·n·m`` compute ops per cycle.
* Intra-cycle chaining: steering logic connects nodes of the *same* CGC,
  so a chain of up to ``n`` dependent operations (multiply-add, add-add-…)
  completes within one cycle.  Chains cannot cross CGC boundaries within a
  cycle.
* LOAD/STORE go to the *shared data memory* (Figure 1): an access occupies
  one of ``memory_ports`` ports for ``memory_latency`` CGC cycles
  (non-pipelined — the memory is one physical SRAM shared with the rest of
  the platform and does not scale with the CGC clock).  Memory ops neither
  start from nor extend an intra-cycle chain.
* MOVE/COPY nodes are routing/steering: free, same-cycle, and transparent
  to chain depth.

The scheduler records, for every op, its start cycle, duration, chain depth
and CGC, which makes the result directly bindable (see
:mod:`repro.coarsegrain.binding`).

Priority is the classic list-scheduling one: longest path to a sink
(in ops that take time), ties to the earlier instruction.  Each cycle
places nodes in priority order and makes further passes while a pass
places something, because a placement can release a successor that
ranks before it.  The reference form of this scheduler re-sorts and
retries every unplaced node on every pass; it lives in the test suite's
oracles, and this one must place every op exactly as it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from weakref import WeakKeyDictionary

from ..ir.dfg import DataFlowGraph
from ..ir.operations import ArrayBase, OpClass
from .datapath import CGCDatapath


@dataclass(frozen=True)
class ScheduledOp:
    """Placement of one DFG node in the schedule."""

    node_id: int
    cycle: int
    chain_depth: int       # 1-based within an intra-cycle chain; 0 for moves
    cgc_index: int | None  # compute ops only; None for moves / memory ops
    unit: str              # "node" | "mem" | "move"
    duration: int = 1      # cycles the op occupies its unit (0 for moves)
    port: int | None = None  # memory ops: which shared-memory port

    @property
    def end(self) -> int:
        """First cycle in which this op's result is available."""
        return self.cycle + self.duration


@dataclass
class CGCSchedule:
    """Complete schedule of one DFG on a CGC data-path."""

    dfg: DataFlowGraph
    datapath: CGCDatapath
    ops: dict[int, ScheduledOp] = field(default_factory=dict)

    @property
    def makespan(self) -> int:
        """Latency in CGC cycles (0 for an empty DFG)."""
        if not self.ops:
            return 0
        return max(op.cycle + max(op.duration, 1) for op in self.ops.values())

    def ops_in_cycle(self, cycle: int) -> list[ScheduledOp]:
        """Ops *active* during ``cycle`` (multi-cycle memory ops included)."""
        return [
            op
            for op in self.ops.values()
            if op.cycle <= cycle < op.cycle + max(op.duration, 1)
        ]

    # ------------------------------------------------------------------
    # Legality checking
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Assert every resource and dependency constraint holds.

        One pass over the ops counts each cycle's memory accesses, port
        bookings and per-CGC issues; one pass over the edges checks
        every dependency.
        """
        dfg, dp = self.dfg, self.datapath
        ops = self.ops
        # DFG node ids are the positions 0..n-1 of the block's body.
        if ops.keys() != set(range(len(dfg.nodes))):
            raise AssertionError("schedule does not cover every DFG node")

        mem_used: dict[int, int] = {}
        ports_booked: set[tuple[int, int | None]] = set()
        issued: dict[tuple[int, int], int] = {}
        for op in ops.values():
            if op.unit == "mem":
                for cycle in range(op.cycle, op.cycle + max(op.duration, 1)):
                    used = mem_used[cycle] = mem_used.get(cycle, 0) + 1
                    if used > dp.memory_ports:
                        raise AssertionError(
                            f"cycle {cycle}: {used} memory ops exceed "
                            f"{dp.memory_ports} ports"
                        )
                    if (cycle, op.port) in ports_booked:
                        raise AssertionError(
                            f"cycle {cycle}: shared-memory port double-booked"
                        )
                    ports_booked.add((cycle, op.port))
            elif op.unit == "node":
                assert op.cgc_index is not None
                capacity = dp.cgcs[op.cgc_index].node_count
                for cycle in range(op.cycle, op.cycle + max(op.duration, 1)):
                    key = (cycle, op.cgc_index)
                    used = issued[key] = issued.get(key, 0) + 1
                    if used > capacity:
                        raise AssertionError(
                            f"cycle {cycle}: CGC {op.cgc_index} issues "
                            f"{used} ops, capacity {capacity}"
                        )

        for dst, preds in enumerate(dfg.preds):
            consumer = ops[dst]
            for src in preds:
                producer = ops[src]
                if producer.end <= consumer.cycle and not (
                    # A move takes no time, so an edge out of one into the
                    # same cycle is a chain link like any other.
                    producer.unit == "move" and producer.cycle == consumer.cycle
                ):
                    continue
                self._check_chain(src, dst, producer, consumer)

    def _check_chain(
        self, src: int, dst: int, producer: ScheduledOp, consumer: ScheduledOp
    ) -> None:
        """An edge whose consumer starts before its producer's result is
        registered: legal only as a link of an in-cycle chain."""
        if producer.cycle != consumer.cycle:
            raise AssertionError(
                f"edge {src}->{dst}: consumer starts at {consumer.cycle} "
                f"before producer finishes at {producer.end}"
            )
        # Same cycle: must be a legal chain.
        if producer.unit == "mem" or consumer.unit == "mem":
            raise AssertionError(
                f"edge {src}->{dst}: memory ops cannot chain in-cycle"
            )
        if (
            producer.cgc_index is not None
            and consumer.cgc_index != producer.cgc_index
        ):
            raise AssertionError(
                f"edge {src}->{dst}: chain crosses CGC boundary"
            )
        if consumer.unit == "node":
            limit = (
                self.datapath.cgcs[consumer.cgc_index].chain_depth
                if consumer.cgc_index is not None
                else self.datapath.chain_depth
            )
            if consumer.chain_depth > limit:
                raise AssertionError(
                    f"edge {src}->{dst}: chain depth {consumer.chain_depth} "
                    f"exceeds limit {limit}"
                )
            if producer.chain_depth >= consumer.chain_depth:
                raise AssertionError(
                    f"edge {src}->{dst}: chain depth not increasing"
                )
        elif producer.chain_depth > consumer.chain_depth:
            raise AssertionError(
                f"edge {src}->{dst}: chain depth decreases into a move"
            )


# Op kinds, as the scheduler dispatches on them; memory kinds sort last.
_COMPUTE, _MOVE, _MEM, _LOCAL_MEM = 0, 1, 2, 3


class _Plan:
    """What scheduling needs from one DFG, whatever the data-path.

    ``order[r]`` is the node of rank ``r`` in (-height, node id) order
    and ``rank`` its inverse, so a heap of ranks pops in priority order.
    ``kinds`` and ``pred_counts`` are indexed by node id.
    """

    __slots__ = ("order", "rank", "kinds", "pred_counts", "roots")

    def __init__(self, dfg: DataFlowGraph) -> None:
        kinds = []
        for node in dfg.nodes:
            instruction = node.instruction
            op_class = instruction.opcode.op_class
            if op_class is OpClass.MEM:
                # Local scratch buffers live in the data-path's register
                # bank and respond in one CGC cycle; globals go to the
                # shared data memory at its own (slower) access time.
                base = instruction.operands[0]
                local = isinstance(base, ArrayBase) and base.local
                kinds.append(_LOCAL_MEM if local else _MEM)
            else:
                kinds.append(_MOVE if op_class is OpClass.MOVE else _COMPUTE)
        # Height: longest path (in compute+mem ops) from a node to a sink.
        heights = [0] * len(kinds)
        for node_id in range(len(kinds) - 1, -1, -1):
            tallest = 0
            for succ in dfg.succs[node_id]:
                if heights[succ] > tallest:
                    tallest = heights[succ]
            heights[node_id] = tallest + (kinds[node_id] != _MOVE)
        # A stable sort keeps equal heights in node-id order.
        order = sorted(range(len(kinds)), key=heights.__getitem__, reverse=True)
        rank = [0] * len(order)
        for position, node_id in enumerate(order):
            rank[node_id] = position
        self.order = order
        self.rank = rank
        self.kinds = kinds
        self.pred_counts = [len(preds) for preds in dfg.preds]
        # Ascending, hence already a heap.
        self.roots = [r for r, node_id in enumerate(order) if not dfg.preds[node_id]]


#: One plan per live DFG, shared by every data-path it is priced on.
_PLANS: WeakKeyDictionary[DataFlowGraph, _Plan] = WeakKeyDictionary()


def _plan(dfg: DataFlowGraph) -> _Plan:
    plan = _PLANS.get(dfg)
    if plan is None:
        plan = _PLANS[dfg] = _Plan(dfg)
    return plan


class ListScheduler:
    """Ready-list scheduling with chain-aware per-CGC slot allocation.

    A node enters the ready heap once all its predecessors are placed,
    and is tried once per cycle at most:

    * Placing a node releases each successor whose predecessors are now
      all placed: into the current pass if it ranks after the node, else
      into the next pass.  A successor waiting on a memory result in
      flight is parked until the cycle that result lands.
    * A node that fails stays blocked until the next cycle: within a
      cycle its predecessors are fixed and free slots and ports only
      shrink.  A memory op that finds no free port is parked until the
      first port frees.
    * A cycle with nothing to try is skipped.
    """

    def __init__(self, dfg: DataFlowGraph, datapath: CGCDatapath):
        self.dfg = dfg
        self.datapath = datapath
        datapath.reject_unsupported(dfg)
        self.plan = _plan(dfg)

    def schedule(self) -> CGCSchedule:
        dfg, plan, dp = self.dfg, self.plan, self.datapath
        ops: dict[int, ScheduledOp] = {}
        unplaced = len(plan.order)
        if not unplaced:
            return CGCSchedule(dfg, dp, ops)
        order, rank, kinds = plan.order, plan.rank, plan.kinds
        preds, succs = dfg.preds, dfg.succs
        latency = dp.memory_latency
        slots = [cgc.node_count for cgc in dp.cgcs]
        limits = [cgc.chain_depth for cgc in dp.cgcs]
        port_free_at = [0] * dp.memory_ports
        # Per node: placement, and the first cycle a chained (compute or
        # move) consumer and a memory consumer may start.
        cycle_of = [0] * unplaced
        depth_of = [0] * unplaced
        cgc_of: list[int | None] = [None] * unplaced
        chain_ready = [0] * unplaced
        mem_ready = [0] * unplaced
        missing = plan.pred_counts.copy()
        parked: dict[int, list[int]] = {}
        ready = plan.roots.copy()
        cycle = 0
        # Guard: any DAG schedules within |V| · latency cycles.
        max_cycles = (2 + latency) * (unplaced + 8)
        while True:
            free = slots.copy()
            current: list[int] = ready
            later: list[int] = []
            blocked: list[int] = []
            while True:
                if not current:
                    if not later:
                        break
                    heapify(later)
                    current, later = later, []
                r = heappop(current)
                n = order[r]
                kind = kinds[n]
                if kind >= _MEM:
                    for port, free_at in enumerate(port_free_at):
                        if free_at <= cycle:
                            break
                    else:
                        parked.setdefault(min(port_free_at), []).append(r)
                        continue
                    duration = 1 if kind == _LOCAL_MEM else latency
                    port_free_at[port] = end = cycle + duration
                    cycle_of[n] = cycle
                    chain_ready[n] = mem_ready[n] = end
                    ops[n] = ScheduledOp(n, cycle, 0, None, "mem", duration, port)
                else:
                    # Predecessors placed this cycle (never memory ops:
                    # their results land in a later cycle) feed n within
                    # the cycle, so n extends their chain in their CGC.
                    depth = 0
                    cgc: int | None = None
                    crossed = False
                    for p in preds[n]:
                        if cycle_of[p] == cycle:
                            if depth_of[p] > depth:
                                depth = depth_of[p]
                            forced = cgc_of[p]
                            if forced is not None:
                                if cgc is None:
                                    cgc = forced
                                elif forced != cgc:
                                    crossed = True
                    if crossed:
                        blocked.append(r)
                        continue
                    if kind == _MOVE:
                        # Moves are wires: free, chain-depth transparent.
                        ops[n] = ScheduledOp(n, cycle, depth, cgc, "move", 0)
                    else:
                        depth += 1
                        if cgc is None:
                            # Start of a new chain: the CGC with the most
                            # free slots that satisfies the depth limit.
                            most = 0
                            for index, left in enumerate(free):
                                if left > most and depth <= limits[index]:
                                    cgc, most = index, left
                            if cgc is None:
                                blocked.append(r)
                                continue
                        elif free[cgc] <= 0 or depth > limits[cgc]:
                            blocked.append(r)
                            continue
                        free[cgc] -= 1
                        ops[n] = ScheduledOp(n, cycle, depth, cgc, "node")
                    cycle_of[n] = chain_ready[n] = cycle
                    mem_ready[n] = cycle + 1
                    depth_of[n] = depth
                    cgc_of[n] = cgc
                unplaced -= 1
                for s in succs[n]:
                    missing[s] -= 1
                    if missing[s]:
                        continue
                    ready_at = mem_ready if kinds[s] >= _MEM else chain_ready
                    at = 0
                    for p in preds[s]:
                        if ready_at[p] > at:
                            at = ready_at[p]
                    if at > cycle:
                        parked.setdefault(at, []).append(rank[s])
                    elif rank[s] > r:
                        heappush(current, rank[s])
                    else:
                        later.append(rank[s])
            if not unplaced:
                return CGCSchedule(dfg, dp, ops)
            # Next cycle: the blocked nodes and whatever was parked for
            # it; with nothing to try, skip to the first parked cycle.
            cycle = cycle + 1 if blocked or not parked else min(parked)
            if cycle > max_cycles:
                raise RuntimeError(
                    "scheduler failed to converge — internal error"
                )
            ready = blocked + parked.pop(cycle, [])
            heapify(ready)


def schedule_dfg(dfg: DataFlowGraph, datapath: CGCDatapath) -> CGCSchedule:
    """Schedule one DFG and return the validated schedule."""
    schedule = ListScheduler(dfg, datapath).schedule()
    schedule.validate()
    return schedule
