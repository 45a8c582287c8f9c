"""Per-block pricing of the Eq. 2 terms.

Eq. 2 of the paper is a sum of independent per-block terms, so any
hardware/software split is priced by three running totals — FPGA, CGC and
communication ticks — and a kernel move changes them by exactly that
block's contribution.  :class:`CostModel` prices blocks on both fabrics
(Figure 3 temporal partitioning, the CGC list scheduler, the t_comm
model) and caches the per-block :class:`BlockContribution` terms;
:meth:`~repro.partition.packed.PackedCostTable.from_model` packs them into
the flat columns every :mod:`repro.search` algorithm runs on.

Timebase: everything is accumulated in CGC ticks
(``1 FPGA cycle = clock_ratio ticks``) so arithmetic stays integral;
conversion to FPGA cycles (the paper's reporting unit) rounds once at the
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import telemetry
from ..analysis.weights import WeightModel
from ..coarsegrain.timing import CoarseGrainBlockTiming, block_cgc_timing
from ..finegrain.timing import FineGrainBlockTiming, block_fpga_timing
from ..platform.soc import HybridPlatform
from .comm import CommunicationCost, kernel_communication
from .workload import ApplicationWorkload, BlockWorkload


def ceil_ticks_to_cycles(ticks: int, ratio: int) -> int:
    """CGC ticks -> FPGA cycles, rounded up once at the boundary."""
    return -(-ticks // ratio)


def split_ticks_single_rounding(
    ratio: int, fpga_t: int, cgc_t: int, comm_t: int
) -> tuple[int, int, int, int]:
    """(fpga, cgc, comm, total) FPGA cycles, rounded *once*.

    The total is the ceiling of the summed ticks; the three component
    cycle counts are apportioned so they always sum exactly to it
    (largest-remainder rounding), instead of ceiling each term
    independently and drifting from the total.  THE single
    implementation — :class:`CostModel` and
    :class:`~repro.partition.packed.PackedCostTable` both delegate
    here, so they cannot drift on the rounding that every reported
    cycle split depends on.
    """
    total_cycles = ceil_ticks_to_cycles(fpga_t + cgc_t + comm_t, ratio)
    parts = [fpga_t // ratio, cgc_t // ratio, comm_t // ratio]
    remainders = [fpga_t % ratio, cgc_t % ratio, comm_t % ratio]
    leftover = total_cycles - sum(parts)
    for index in sorted(range(3), key=lambda i: (-remainders[i], i))[:leftover]:
        parts[index] += 1
    return parts[0], parts[1], parts[2], total_cycles


@dataclass
class CostStats:
    """Work counters shared by everything pricing blocks on a model.

    Any object with these three attributes works as a sink.
    """

    #: Per-block contributions actually *computed* (contribution-cache
    #: misses) — the real Eq. 2-4 pricing work.
    block_cost_evaluations: int = 0
    #: Per-block contribution lookups, hits included (every
    #: :meth:`CostModel.contribution` call) — how often the aggregation
    #: layer consulted the model.
    contribution_lookups: int = 0
    #: Blocks actually mapped onto both fabrics (cache misses).
    blocks_mapped: int = 0


@dataclass
class BlockCosts:
    """Cached per-block mapping results (both fabrics + communication)."""

    fine: FineGrainBlockTiming
    coarse: CoarseGrainBlockTiming | None
    comm: CommunicationCost


@dataclass(frozen=True)
class BlockContribution:
    """One block's additive terms of Eq. 2, in CGC ticks."""

    fpga_ticks: int        # t_FPGA share while the block stays fine-grain
    cgc_ticks: int | None  # t_coarse share if moved (None: unsupported)
    comm_ticks: int        # t_comm share if moved
    #: Peak CGC rows the block's schedule occupies (resource objective of
    #: the multi-objective search; 0 for unsupported blocks).
    cgc_rows: int = 0

    @property
    def supported(self) -> bool:
        return self.cgc_ticks is not None

    @property
    def move_delta(self) -> int:
        """Change of the Eq. 2 total (in ticks) if this block moves."""
        assert self.cgc_ticks is not None
        return self.cgc_ticks + self.comm_ticks - self.fpga_ticks


class CostModel:
    """Prices one workload on one platform; caches per-block terms."""

    def __init__(
        self,
        workload: ApplicationWorkload,
        platform: HybridPlatform,
        *,
        charge_single_partition_reconfig: bool = False,
        stats: CostStats | None = None,
    ) -> None:
        self.workload = workload
        self.platform = platform
        self.charge_single_partition_reconfig = charge_single_partition_reconfig
        self.stats = stats if stats is not None else CostStats()
        self._costs: dict[int, BlockCosts] = {}
        self._contribs: dict[int, BlockContribution] = {}
        self._initial_ticks: int | None = None

    # ------------------------------------------------------------------
    # Per-block mapping (steps 2 and 5 of Figure 2)
    # ------------------------------------------------------------------
    def block_costs(self, block: BlockWorkload) -> BlockCosts:
        cached = self._costs.get(block.bb_id)
        if cached is not None:
            return cached
        self.stats.blocks_mapped += 1
        fine = block_fpga_timing(
            block.dfg,
            self.platform.fpga,
            self.platform.characterization,
            charge_single_partition=self.charge_single_partition_reconfig,
        )
        coarse: CoarseGrainBlockTiming | None = None
        if self.platform.datapath.supports_dfg(block.dfg):
            coarse = block_cgc_timing(block.dfg, self.platform.datapath)
        comm = kernel_communication(
            block, self.platform.memory, self.platform.interconnect
        )
        costs = BlockCosts(fine=fine, coarse=coarse, comm=comm)
        self._costs[block.bb_id] = costs
        return costs

    def contribution(self, block: BlockWorkload) -> BlockContribution:
        """The block's Eq. 2 terms in ticks.

        Every call counts as a ``contribution_lookups``; only cache
        misses — contributions actually computed — count as
        ``block_cost_evaluations``, so cache hits no longer inflate the
        evaluation counter.
        """
        self.stats.contribution_lookups += 1
        cached = self._contribs.get(block.bb_id)
        if cached is not None:
            return cached
        self.stats.block_cost_evaluations += 1
        ratio = self.platform.clock_ratio
        costs = self.block_costs(block)
        contribution = BlockContribution(
            fpga_ticks=costs.fine.total_cycles * block.exec_freq * ratio,
            cgc_ticks=(
                costs.coarse.cgc_cycles * block.exec_freq
                if costs.coarse is not None
                else None
            ),
            comm_ticks=costs.comm.total_cycles * ratio,
            cgc_rows=costs.coarse.rows_used if costs.coarse is not None else 0,
        )
        self._contribs[block.bb_id] = contribution
        return contribution

    def contribution_by_id(self, bb_id: int) -> BlockContribution:
        return self.contribution(self.workload.block(bb_id))

    # ------------------------------------------------------------------
    # Workload-level queries
    # ------------------------------------------------------------------
    def initial_ticks(self) -> int:
        """The all-FPGA Eq. 2 total, cached after the first computation."""
        if self._initial_ticks is None:
            # The first all-FPGA pricing pass walks (and caches) every
            # block's contribution — the expensive part of deriving a
            # table, hence its own nested phase.
            with telemetry.span("price_blocks"):
                self._initial_ticks = sum(
                    self.contribution(block).fpga_ticks
                    for block in self.workload.blocks
                )
        return self._initial_ticks

    def initial_cycles(self) -> int:
        return self.ticks_to_cycles(self.initial_ticks())

    def kernel_candidates(
        self, weight_model: WeightModel | None = None
    ) -> list[BlockWorkload]:
        """Candidates in the Eq. 1 greedy order (descending total weight)."""
        return self.workload.kernel_candidates(weight_model or WeightModel())

    # ------------------------------------------------------------------
    # Tick -> cycle conversion
    # ------------------------------------------------------------------
    def ticks_to_cycles(self, ticks: int) -> int:
        return ceil_ticks_to_cycles(ticks, self.platform.clock_ratio)

    def split_ticks(
        self, fpga_t: int, cgc_t: int, comm_t: int
    ) -> tuple[int, int, int, int]:
        """(fpga, cgc, comm, total) FPGA cycles, rounded *once*
        (:func:`split_ticks_single_rounding`)."""
        return split_ticks_single_rounding(
            self.platform.clock_ratio, fpga_t, cgc_t, comm_t
        )

