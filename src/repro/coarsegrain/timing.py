"""Coarse-grain execution-time model (Eq. 3 of the paper).

Per basic block the list scheduler yields a latency in CGC cycles; the
whole-application coarse-grain time is::

    t_coarse = Σ_i t_to_coarse(BB_i) × Iter(BB_i)

All aggregation happens in *CGC ticks*; conversion to the FPGA cycle
timebase the paper reports (T_FPGA = clock_ratio × T_CGC) happens at the
reporting boundary, keeping intermediate arithmetic exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.dfg import DataFlowGraph
from ..platform.characterization import HardwareCharacterization
from .datapath import CGCDatapath
from .scheduler import schedule_dfg


@dataclass(frozen=True)
class CoarseGrainBlockTiming:
    """Timing of one basic block mapped on the CGC data-path."""

    cgc_cycles: int       # latency of one invocation, in CGC clock cycles
    compute_ops: int
    memory_ops: int
    #: Peak CGC node rows the schedule occupies in any single cycle,
    #: summed over CGCs — the resource footprint the multi-objective
    #: search trades against latency.
    rows_used: int = 0

    def fpga_cycles(self, characterization: HardwareCharacterization) -> float:
        """One invocation's latency expressed in FPGA cycles."""
        return characterization.cgc_ticks_to_fpga_cycles(self.cgc_cycles)


def block_cgc_timing(
    dfg: DataFlowGraph, datapath: CGCDatapath
) -> CoarseGrainBlockTiming:
    """Schedule one block on the data-path and extract its latency.

    ``rows_used`` is the peak over cycles of the rows the schedule
    occupies: in a cycle, each CGC needs ``ceil(ops/cols)`` rows for its
    compute ops.  One pass over the ops gathers every figure, because
    this runs on every block mapping.
    """
    schedule = schedule_dfg(dfg, datapath)
    compute = memory = makespan = 0
    issued: dict[tuple[int, int], int] = {}
    for op in schedule.ops.values():
        end = op.cycle + max(op.duration, 1)
        if end > makespan:
            makespan = end
        if op.unit == "mem":
            memory += 1
        elif op.unit == "node":
            compute += 1
            if op.cgc_index is not None:
                for cycle in range(op.cycle, end):
                    key = (cycle, op.cgc_index)
                    issued[key] = issued.get(key, 0) + 1
    rows_by_cycle: dict[int, int] = {}
    for (cycle, cgc_index), used in issued.items():
        cols = datapath.cgcs[cgc_index].geometry.cols
        rows_by_cycle[cycle] = rows_by_cycle.get(cycle, 0) + -(-used // cols)
    return CoarseGrainBlockTiming(
        cgc_cycles=makespan,
        compute_ops=compute,
        memory_ops=memory,
        rows_used=max(rows_by_cycle.values(), default=0),
    )


def application_cgc_ticks(
    block_timings: dict[int, CoarseGrainBlockTiming],
    iterations: dict[int, int],
) -> int:
    """Eq. 3 aggregation in CGC ticks."""
    total = 0
    for bb_id, timing in block_timings.items():
        total += timing.cgc_cycles * iterations.get(bb_id, 0)
    return total


def speedup_over_fpga(
    fpga_cycles: int,
    cgc_ticks: int,
    characterization: HardwareCharacterization,
) -> float:
    """How much faster the CGC executes a block than the FPGA mapping.

    Both arguments are per-invocation latencies in their native timebases.
    """
    if cgc_ticks == 0:
        return float("inf") if fpga_cycles > 0 else 1.0
    cgc_in_fpga_cycles = characterization.cgc_ticks_to_fpga_cycles(cgc_ticks)
    return fpga_cycles / cgc_in_fpga_cycles if cgc_in_fpga_cycles else float("inf")
