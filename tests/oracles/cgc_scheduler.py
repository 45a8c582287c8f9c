"""Reference CGC list scheduler and per-cycle schedule check.

:class:`RetryListScheduler` re-sorts every unplaced node by
(-height, node id) on each pass of each cycle and retries them all until
a pass places nothing.  The production scheduler
(:mod:`repro.coarsegrain.scheduler`) keeps a ready list instead and must
place every op exactly as this one does: equal ``ScheduledOp`` fields and
the same ``ops`` insertion order.

:func:`validate_per_cycle` scans the ops active in every cycle; the
production ``CGCSchedule.validate()`` makes one pass over the ops.  Both
must accept and reject the same schedules.
"""

from __future__ import annotations

from repro.coarsegrain.datapath import CGCDatapath
from repro.coarsegrain.scheduler import CGCSchedule, ScheduledOp
from repro.ir.dfg import DataFlowGraph
from repro.ir.operations import ArrayBase, OpClass


def validate_per_cycle(schedule: CGCSchedule) -> None:
    """Assert every resource and dependency constraint, cycle by cycle."""
    dfg, dp = schedule.dfg, schedule.datapath
    expected = {node.node_id for node in dfg.nodes}
    if set(schedule.ops) != expected:
        raise AssertionError("schedule does not cover every DFG node")

    for cycle in range(schedule.makespan):
        active = schedule.ops_in_cycle(cycle)
        mem_ops = [op for op in active if op.unit == "mem"]
        if len(mem_ops) > dp.memory_ports:
            raise AssertionError(
                f"cycle {cycle}: {len(mem_ops)} memory ops exceed "
                f"{dp.memory_ports} ports"
            )
        ports_used = [op.port for op in mem_ops]
        if len(set(ports_used)) != len(ports_used):
            raise AssertionError(
                f"cycle {cycle}: shared-memory port double-booked"
            )
        per_cgc: dict[int, int] = {}
        for op in active:
            if op.unit == "node":
                assert op.cgc_index is not None
                per_cgc[op.cgc_index] = per_cgc.get(op.cgc_index, 0) + 1
        for cgc_index, used in per_cgc.items():
            capacity = dp.cgcs[cgc_index].node_count
            if used > capacity:
                raise AssertionError(
                    f"cycle {cycle}: CGC {cgc_index} issues {used} ops, "
                    f"capacity {capacity}"
                )

    for src, dst in dfg.edges():
        _check_edge(schedule, src, dst)


def _check_edge(schedule: CGCSchedule, src: int, dst: int) -> None:
    producer, consumer = schedule.ops[src], schedule.ops[dst]
    # A move takes no time, so an edge out of one into the same cycle is
    # a chain link like any other.
    same_cycle_move = (
        producer.unit == "move" and producer.cycle == consumer.cycle
    )
    if producer.end <= consumer.cycle and not same_cycle_move:
        return
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
        raise AssertionError(f"edge {src}->{dst}: chain crosses CGC boundary")
    if consumer.unit == "node":
        limit = (
            schedule.datapath.cgcs[consumer.cgc_index].chain_depth
            if consumer.cgc_index is not None
            else schedule.datapath.chain_depth
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


def _node_heights(dfg: DataFlowGraph) -> dict[int, int]:
    """Longest path (in compute+mem ops) from each node to any sink."""
    heights: dict[int, int] = {}
    for node in reversed(list(dfg.nodes)):
        own = 0 if node.op_class is OpClass.MOVE else 1
        succ_heights = [heights[s] for s in dfg.successors(node.node_id)]
        heights[node.node_id] = own + max(succ_heights, default=0)
    return heights


class RetryListScheduler:
    """List scheduling with chain-aware per-CGC slot allocation."""

    def __init__(self, dfg: DataFlowGraph, datapath: CGCDatapath):
        self.dfg = dfg
        self.datapath = datapath
        datapath.reject_unsupported(dfg)
        self.heights = _node_heights(dfg)

    def schedule(self) -> CGCSchedule:
        result = CGCSchedule(self.dfg, self.datapath)
        remaining = {node.node_id for node in self.dfg.nodes}
        # busy-until time of each shared-memory port
        port_free_at = [0] * self.datapath.memory_ports
        cycle = 0
        # Guard: any DAG schedules within |V| · latency cycles.
        max_cycles = (2 + self.datapath.memory_latency) * (len(self.dfg) + 8)
        while remaining:
            if cycle > max_cycles:
                raise RuntimeError(
                    "scheduler failed to converge — internal error"
                )
            self._schedule_cycle(cycle, remaining, result, port_free_at)
            cycle += 1
        return result

    # ------------------------------------------------------------------
    def _schedule_cycle(
        self,
        cycle: int,
        remaining: set[int],
        result: CGCSchedule,
        port_free_at: list[int],
    ) -> None:
        free_slots = {
            index: cgc.node_count for index, cgc in enumerate(self.datapath.cgcs)
        }
        progressed = True
        while progressed:
            progressed = False
            candidates = sorted(
                remaining,
                key=lambda n: (-self.heights[n], n),
            )
            for node_id in candidates:
                placement = self._try_place(
                    node_id, cycle, free_slots, port_free_at, result
                )
                if placement is None:
                    continue
                result.ops[node_id] = placement
                remaining.discard(node_id)
                if placement.unit == "mem":
                    assert placement.port is not None
                    port_free_at[placement.port] = placement.end
                elif placement.unit == "node":
                    assert placement.cgc_index is not None
                    free_slots[placement.cgc_index] -= 1
                progressed = True

    def _try_place(
        self,
        node_id: int,
        cycle: int,
        free_slots: dict[int, int],
        port_free_at: list[int],
        result: CGCSchedule,
    ) -> ScheduledOp | None:
        node = self.dfg.node(node_id)
        op_class = node.op_class
        preds = self.dfg.predecessors(node_id)
        in_cycle_preds: list[ScheduledOp] = []
        for pred in preds:
            placed = result.ops.get(pred)
            if placed is None:
                return None  # dependency not yet scheduled at all
            if placed.cycle == cycle and placed.unit in ("node", "move"):
                in_cycle_preds.append(placed)
            elif placed.end > cycle:
                return None  # result not available yet (e.g. memory in flight)

        if op_class is OpClass.MOVE:
            # Moves are wires: free, chain-depth transparent.
            depth = max((p.chain_depth for p in in_cycle_preds), default=0)
            cgcs = {
                p.cgc_index for p in in_cycle_preds if p.cgc_index is not None
            }
            if len(cgcs) > 1:
                return None
            cgc_index = cgcs.pop() if cgcs else None
            return ScheduledOp(
                node_id, cycle, depth, cgc_index, "move", duration=0
            )

        if op_class is OpClass.MEM:
            if in_cycle_preds:
                return None  # address/value must come from earlier cycles
            # Local scratch buffers live in the data-path's register bank
            # and respond in one CGC cycle; globals go to the shared data
            # memory at its own (slower) access time.
            base = node.instruction.operands[0]
            is_local = isinstance(base, ArrayBase) and base.local
            duration = 1 if is_local else self.datapath.memory_latency
            for port, free_at in enumerate(port_free_at):
                if free_at <= cycle:
                    return ScheduledOp(
                        node_id,
                        cycle,
                        0,
                        None,
                        "mem",
                        duration=duration,
                        port=port,
                    )
            return None

        # Compute op (ALU/MUL).
        depth = 1 + max((p.chain_depth for p in in_cycle_preds), default=0)
        forced_cgcs = {
            p.cgc_index for p in in_cycle_preds if p.cgc_index is not None
        }
        if len(forced_cgcs) > 1:
            return None  # chain would span two CGCs
        if forced_cgcs:
            cgc_index = forced_cgcs.pop()
            if free_slots[cgc_index] <= 0:
                return None
            if depth > self.datapath.cgcs[cgc_index].chain_depth:
                return None
            return ScheduledOp(node_id, cycle, depth, cgc_index, "node")
        # Start of a new chain: pick the CGC with the most free slots that
        # satisfies the depth limit.
        best: int | None = None
        for index, slots in free_slots.items():
            if slots <= 0:
                continue
            if depth > self.datapath.cgcs[index].chain_depth:
                continue
            if best is None or slots > free_slots[best]:
                best = index
        if best is None:
            return None
        return ScheduledOp(node_id, cycle, depth, best, "node")


def oracle_schedule_dfg(
    dfg: DataFlowGraph, datapath: CGCDatapath
) -> CGCSchedule:
    """Schedule one DFG with the reference scheduler and check it."""
    schedule = RetryListScheduler(dfg, datapath).schedule()
    validate_per_cycle(schedule)
    return schedule
