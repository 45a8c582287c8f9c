"""Partitioning outcomes: per-step records and the final result.

Field names mirror the rows of the paper's Tables 2 and 3 so the benchmark
harness can print them directly: initial cycles (all-FPGA), cycles in CGC,
moved BB numbers, final cycles, percentage reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PartitionStep:
    """State after moving one kernel to the coarse-grain hardware.

    The three component cycle counts are apportioned from one rounding of
    the summed tick total, so ``fpga + cgc + comm == total`` always holds
    (enforced here).
    """

    moved_bb_id: int
    fpga_cycles: int      # t_FPGA of the blocks still on the FPGA
    cgc_fpga_cycles: int  # t_coarse expressed in FPGA cycles
    comm_cycles: int      # t_comm in FPGA cycles
    total_cycles: int     # Eq. 2 total
    constraint_met: bool

    def __post_init__(self) -> None:
        components = self.fpga_cycles + self.cgc_fpga_cycles + self.comm_cycles
        if components != self.total_cycles:
            raise ValueError(
                f"step for BB {self.moved_bb_id} inconsistent: components "
                f"sum to {components}, total is {self.total_cycles}"
            )


@dataclass
class PartitionResult:
    """Full outcome of one engine run (one row-set of Table 2/3)."""

    workload_name: str
    platform_name: str
    timing_constraint: int
    initial_cycles: int
    final_cycles: int
    cycles_in_cgc: int
    comm_cycles: int
    fpga_cycles: int
    moved_bb_ids: list[int] = field(default_factory=list)
    steps: list[PartitionStep] = field(default_factory=list)
    constraint_met: bool = False
    skipped_bb_ids: list[int] = field(default_factory=list)
    #: Kernels whose move strictly worsened Eq. 2 and was undone (empty
    #: when ``EngineConfig.allow_regressing_moves`` is set).
    reverted_bb_ids: list[int] = field(default_factory=list)
    #: True when the search stopped early (expired deadline) and this is
    #: a best-so-far answer rather than the algorithm's full result; an
    #: exhaustive result with ``partial=True`` is NOT a certified
    #: optimum.
    partial: bool = False

    @classmethod
    def all_fpga(
        cls,
        workload_name: str,
        platform_name: str,
        timing_constraint: int,
        initial_cycles: int,
    ) -> "PartitionResult":
        """The starting point of every search: everything fine-grain.

        ``constraint_met`` reflects whether the all-FPGA mapping already
        satisfies the constraint (the Figure 2 early exit).
        """
        return cls(
            workload_name=workload_name,
            platform_name=platform_name,
            timing_constraint=timing_constraint,
            initial_cycles=initial_cycles,
            final_cycles=initial_cycles,
            cycles_in_cgc=0,
            comm_cycles=0,
            fpga_cycles=initial_cycles,
            constraint_met=initial_cycles <= timing_constraint,
        )

    @property
    def certified(self) -> bool:
        """Whether the algorithm ran to completion (its usual guarantee
        — optimality for exhaustive search — holds only when True)."""
        return not self.partial

    @property
    def reduction_percent(self) -> float:
        """The "% cycles reduction" row: vs. the all-FPGA mapping."""
        if self.initial_cycles == 0:
            return 0.0
        return 100.0 * (self.initial_cycles - self.final_cycles) / self.initial_cycles

    @property
    def kernels_moved(self) -> int:
        return len(self.moved_bb_ids)

    def validate(self) -> None:
        """Check the Eq. 2 bookkeeping invariants; raises ``ValueError``.

        Every step's components must sum to its total (already enforced
        per step), the result-level components must sum to
        ``final_cycles``, and the moved-BB list must mirror the steps.
        """
        components = self.fpga_cycles + self.cycles_in_cgc + self.comm_cycles
        if components != self.final_cycles:
            raise ValueError(
                f"result inconsistent: components sum to {components}, "
                f"final_cycles is {self.final_cycles}"
            )
        if [step.moved_bb_id for step in self.steps] != self.moved_bb_ids:
            raise ValueError("steps and moved_bb_ids disagree")
        if set(self.reverted_bb_ids) & set(self.moved_bb_ids):
            raise ValueError("a BB cannot be both moved and reverted")

    def table_row(self) -> dict[str, object]:
        """The Table 2/3 column set for this configuration."""
        return {
            "initial_cycles": self.initial_cycles,
            "cycles_in_cgc": self.cycles_in_cgc,
            "bb_no": list(self.moved_bb_ids),
            "final_cycles": self.final_cycles,
            "reduction_percent": round(self.reduction_percent, 1),
        }

    def summary(self) -> str:
        moved = ", ".join(str(b) for b in self.moved_bb_ids) or "none"
        status = "met" if self.constraint_met else "NOT met"
        suffix = (
            "" if self.certified
            else " [UNCERTIFIED: deadline expired, best-so-far]"
        )
        return (
            f"{self.workload_name} on {self.platform_name}: "
            f"{self.initial_cycles} -> {self.final_cycles} cycles "
            f"({self.reduction_percent:.1f}% reduction), "
            f"constraint {self.timing_constraint} {status}, "
            f"BBs moved: {moved}{suffix}"
        )
