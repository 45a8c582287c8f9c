"""The constraint-independent greedy move trajectory, replayed.

The Figure 2 loop's decisions — visit order (Eq. 1 weight), the
unsupported-kernel skip, and the revert of moves that strictly worsen
Eq. 2 — depend only on the workload and platform, never on the timing
constraint.  :class:`~repro.partition.packed.PackedGreedyTrajectory`
computes that shared sequence once as :class:`TrajectoryEntry` records;
:func:`replay_entries` replays it against one constraint, which is what
lets ``sweep()`` warm-start.

:class:`~repro.search.greedy.GreedyPartitioner` replays through
:func:`replay_entries`, and every search algorithm books its steps
through :func:`commit_step`, so the paper flow and the other
algorithms cannot drift apart.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .result import PartitionResult, PartitionStep

if TYPE_CHECKING:  # pragma: no cover - packed imports this module
    from .packed import PackedCostTable

#: Trajectory entry actions.
MOVED = "moved"
REVERTED = "reverted"
SKIPPED = "skipped"


@dataclass(frozen=True)
class TrajectoryEntry:
    """One greedy decision plus the tick totals after it took effect."""

    bb_id: int
    action: str  # MOVED | REVERTED | SKIPPED
    fpga_ticks: int
    cgc_ticks: int
    comm_ticks: int

    @property
    def ticks(self) -> tuple[int, int, int]:
        return (self.fpga_ticks, self.cgc_ticks, self.comm_ticks)

    @property
    def total_ticks(self) -> int:
        return self.fpga_ticks + self.cgc_ticks + self.comm_ticks


def replay_entries(
    table: PackedCostTable,
    entries: Iterable[TrajectoryEntry],
    result: PartitionResult,
    timing_constraint: int,
    *,
    max_kernels_moved: int | None,
    stop_at_constraint: bool,
    on_skipped: Callable[[TrajectoryEntry], None] | None = None,
    on_reverted: Callable[[TrajectoryEntry], None] | None = None,
    on_committed: Callable[[TrajectoryEntry], None] | None = None,
) -> None:
    """Replay a greedy decision sequence against one constraint.

    Budget check *before* each entry, skip/revert bookkeeping, early
    stop at the constraint; committed moves are booked by
    :func:`commit_step`.
    """
    for entry in entries:
        if (
            max_kernels_moved is not None
            and len(result.moved_bb_ids) >= max_kernels_moved
        ):
            break
        if entry.action == SKIPPED:
            result.skipped_bb_ids.append(entry.bb_id)
            if on_skipped is not None:
                on_skipped(entry)
            continue
        if entry.action == REVERTED:
            result.reverted_bb_ids.append(entry.bb_id)
            if on_reverted is not None:
                on_reverted(entry)
            continue
        met = commit_step(
            table, result, entry.bb_id, entry.ticks, timing_constraint
        )
        if on_committed is not None:
            on_committed(entry)
        if met and stop_at_constraint:
            break


def commit_step(
    table: PackedCostTable,
    result: PartitionResult,
    bb_id: int,
    ticks: tuple[int, int, int],
    timing_constraint: int,
) -> bool:
    """Append one committed move to ``result``; returns constraint_met.

    One shared implementation of the step bookkeeping (the table's
    single-rounding cycle split, running result fields) for every
    search algorithm.
    """
    fpga_c, cgc_c, comm_c, total_c = table.split_ticks(*ticks)
    met = total_c <= timing_constraint
    result.steps.append(
        PartitionStep(
            moved_bb_id=bb_id,
            fpga_cycles=fpga_c,
            cgc_fpga_cycles=cgc_c,
            comm_cycles=comm_c,
            total_cycles=total_c,
            constraint_met=met,
        )
    )
    result.moved_bb_ids.append(bb_id)
    result.final_cycles = total_c
    result.fpga_cycles = fpga_c
    result.cycles_in_cgc = cgc_c
    result.comm_cycles = comm_c
    result.constraint_met = met
    return met
