"""Experiment runners: regenerate every table of the paper's evaluation.

Normalization policy
--------------------
Our substrate is a calibrated simulator, not the authors' tool chain, so
absolute cycle counts differ by a workload-dependent factor.  To make the
engine face the *same decision problem* the paper's did, each experiment
scales the published timing constraint by the ratio between our all-FPGA
cycle count and the paper's, both measured at the A_FPGA = 1500 baseline::

    scale   = initial_ours(A=1500) / initial_paper(A=1500)
    C_ours  = round(C_paper × scale)

i.e. the deadline keeps the same *relative* slack.  EXPERIMENTS.md records
paper-vs-measured for every cell under this policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.weights import WeightModel
from ..partition.engine import EngineConfig
from ..partition.result import PartitionResult
from ..partition.workload import ApplicationWorkload
from ..platform.soc import paper_platform
from ..search.greedy import GreedyPartitioner
from ..workloads import profiles as paper_profiles
from ..workloads.profiles import PaperKernelRow, PaperPartitionRow


@dataclass(frozen=True)
class Table1Comparison:
    """One Table 1 row: ours vs the paper's (these must match exactly)."""

    bb_id: int
    exec_freq: int
    ops_weight: int
    total_weight: int
    paper: PaperKernelRow

    @property
    def matches(self) -> bool:
        return (
            self.bb_id == self.paper.bb_id
            and self.exec_freq == self.paper.exec_freq
            and self.ops_weight == self.paper.ops_weight
            and self.total_weight == self.paper.total_weight
        )


@dataclass(frozen=True)
class PartitionComparison:
    """One Table 2/3 configuration: our greedy run vs the paper's row."""

    paper: PaperPartitionRow
    result: PartitionResult
    scaled_constraint: int

    @property
    def moved_match(self) -> bool:
        return self.result.moved_bb_ids == list(self.paper.moved_bbs)

    @property
    def reduction_error(self) -> float:
        return self.result.reduction_percent - self.paper.reduction_percent

    def describe(self) -> str:
        status = "match" if self.moved_match else "DIFFERENT KERNEL SET"
        return (
            f"A={self.paper.afpga}, {self.paper.cgc_count} CGCs: moved "
            f"{self.result.moved_bb_ids} vs paper {list(self.paper.moved_bbs)} "
            f"({status}); reduction {self.result.reduction_percent:.1f}% vs "
            f"{self.paper.reduction_percent}% (paper)"
        )


@dataclass
class TableReproduction:
    """Full reproduction record of one results table."""

    name: str
    rows: list[PartitionComparison] = field(default_factory=list)
    scale: float = 1.0

    @property
    def all_sets_match(self) -> bool:
        return all(row.moved_match for row in self.rows)

    @property
    def all_constraints_met(self) -> bool:
        return all(row.result.constraint_met for row in self.rows)

    def max_reduction(self) -> float:
        return max(row.result.reduction_percent for row in self.rows)


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def reproduce_table1(
    workload: ApplicationWorkload,
    paper_rows: list[PaperKernelRow],
    weight_model: WeightModel | None = None,
) -> list[Table1Comparison]:
    """Run the analysis ordering and compare against the published rows."""
    model = weight_model or WeightModel()
    rows = workload.analysis_rows(model, count=len(paper_rows))
    comparisons = []
    for (bb_id, freq, weight, total), paper_row in zip(
        rows, paper_rows, strict=False
    ):
        comparisons.append(
            Table1Comparison(bb_id, freq, weight, total, paper_row)
        )
    return comparisons


def reproduce_table1_ofdm() -> list[Table1Comparison]:
    return reproduce_table1(
        paper_profiles.ofdm_workload(), paper_profiles.OFDM_TABLE1
    )


def reproduce_table1_jpeg() -> list[Table1Comparison]:
    return reproduce_table1(
        paper_profiles.jpeg_workload(), paper_profiles.JPEG_TABLE1
    )


# ----------------------------------------------------------------------
# Tables 2 and 3
# ----------------------------------------------------------------------
def scaled_constraint(
    workload: ApplicationWorkload,
    paper_rows: list[PaperPartitionRow],
    paper_constraint: int,
    platform_factory=paper_platform,
) -> tuple[int, float]:
    """Apply the normalization policy; returns (constraint, scale)."""
    baseline = platform_factory(1500, 2)
    ours = GreedyPartitioner(workload, baseline).initial_cycles()
    scale = ours / paper_rows[0].initial_cycles
    return int(round(paper_constraint * scale)), scale


def reproduce_partition_table(
    workload: ApplicationWorkload,
    paper_rows: list[PaperPartitionRow],
    paper_constraint: int,
    name: str,
    platform_factory=paper_platform,
    engine_config: EngineConfig | None = None,
) -> TableReproduction:
    """Run the Figure 2 loop for every configuration of a table."""
    constraint, scale = scaled_constraint(
        workload, paper_rows, paper_constraint, platform_factory
    )
    table = TableReproduction(name=name, scale=scale)
    for paper_row in paper_rows:
        platform = platform_factory(paper_row.afpga, paper_row.cgc_count)
        partitioner = GreedyPartitioner(
            workload, platform, config=engine_config
        )
        result = partitioner.run(constraint)
        table.rows.append(
            PartitionComparison(
                paper=paper_row,
                result=result,
                scaled_constraint=constraint,
            )
        )
    return table


def reproduce_table2() -> TableReproduction:
    """Table 2: OFDM partitioning across the four platform configurations."""
    return reproduce_partition_table(
        paper_profiles.ofdm_workload(),
        paper_profiles.PAPER_TABLE2_OFDM,
        paper_profiles.OFDM_TIMING_CONSTRAINT,
        name="Table 2 (OFDM transmitter)",
    )


def reproduce_table3() -> TableReproduction:
    """Table 3: JPEG partitioning across the four platform configurations."""
    return reproduce_partition_table(
        paper_profiles.jpeg_workload(),
        paper_profiles.PAPER_TABLE3_JPEG,
        paper_profiles.JPEG_TIMING_CONSTRAINT,
        name="Table 3 (JPEG encoder)",
    )


# ----------------------------------------------------------------------
# Headline claims (§4 / abstract)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HeadlineClaims:
    """The paper's abstract-level results, ours vs theirs."""

    ofdm_max_reduction: float
    jpeg_max_reduction: float
    ofdm_area_trend_holds: bool
    jpeg_area_trend_holds: bool

    PAPER_OFDM_MAX = 81.8
    PAPER_JPEG_MAX = 43.5


def reproduce_headline_claims(
    table2: TableReproduction | None = None,
    table3: TableReproduction | None = None,
) -> HeadlineClaims:
    """Max reductions and the larger-area ⇒ smaller-reduction trend."""
    table2 = table2 or reproduce_table2()
    table3 = table3 or reproduce_table3()

    def trend(table: TableReproduction) -> bool:
        by_area: dict[int, list[float]] = {}
        for row in table.rows:
            by_area.setdefault(row.paper.afpga, []).append(
                row.result.reduction_percent
            )
        small = min(by_area)
        large = max(by_area)
        return max(by_area[large]) < min(by_area[small])

    return HeadlineClaims(
        ofdm_max_reduction=table2.max_reduction(),
        jpeg_max_reduction=table3.max_reduction(),
        ofdm_area_trend_holds=trend(table2),
        jpeg_area_trend_holds=trend(table3),
    )
