"""The partitioning engine — paper §3.4 and the Figure 2 flow.

Flow implemented here:

1. Map the whole application to the fine-grain hardware (Figure 3 temporal
   partitioning per block) and compute the all-FPGA execution time.
2. If the timing constraint is met, exit — no partitioning needed.
3. Analysis: order kernel candidates by descending ``total_weight``
   (Eq. 1).
4. Move kernels one by one to the coarse-grain data-path.  After each
   move, recompute ``t_total = t_FPGA + t_coarse + t_comm`` (Eq. 2, with
   Eq. 3/4 aggregation) and stop as soon as the constraint is satisfied.
   A move whose CGC + communication ticks exceed the kernel's FPGA ticks
   strictly worsens Eq. 2 and is reverted (the paper's commit-always
   behaviour survives behind ``EngineConfig.allow_regressing_moves``).

The engine is a thin adapter over the packed substrate.  The per-block
:class:`~repro.partition.costs.CostModel` prices every block once into a
:class:`~repro.partition.packed.PackedCostTable`.  Because the greedy
order and the revert decisions are independent of the timing
constraint, the move sequence is a constraint-independent
:class:`~repro.partition.packed.PackedGreedyTrajectory`, computed lazily
once per engine and replayed per constraint by
:func:`~repro.partition.trajectory.replay_entries` — so ``sweep()``
warm-starts every constraint after the first from the shared prefix, and
:class:`~repro.search.greedy.GreedyPartitioner` replays the same
trajectory type: there is one greedy loop.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..analysis.weights import WeightModel
from ..platform.soc import HybridPlatform
from .costs import CostModel
from .packed import PackedCostTable, PackedGreedyTrajectory
from .result import PartitionResult
from .trajectory import replay_entries
from .workload import ApplicationWorkload


@dataclass
class EngineConfig:
    """Tunables of the engine loop.

    A config is frozen once its engine has run: the engine bakes the
    flags into its cached cost table and move trajectory, so it
    snapshots the config at the first ``run()`` / ``initial_cycles()``
    and raises on any later mutation instead of silently ignoring it.
    Build a new engine (or a new config) instead.
    """

    max_kernels_moved: int | None = None
    stop_at_constraint: bool = True
    skip_unsupported_kernels: bool = True
    #: Charge the reconfiguration penalty even to blocks that fit in one
    #: temporal partition (disables configuration caching; ablation knob).
    charge_single_partition_reconfig: bool = False
    #: Commit kernel moves even when they increase the Eq. 2 total — the
    #: literal Figure 2 loop, which never reverts.  Ablation knob; the
    #: default reverts moves that strictly worsen the total.
    allow_regressing_moves: bool = False
    #: Worker-process cap for search modes that fan out (the sharded
    #: exhaustive walk).  ``None`` sizes to the machine's cores; ``1``
    #: forces an in-process serial run.  Results are bit-identical
    #: regardless of the value — it only bounds parallelism.
    search_workers: int | None = None

    def __post_init__(self) -> None:
        if self.search_workers is not None and self.search_workers < 1:
            raise ValueError("search_workers must be >= 1")


@dataclass
class EngineStats:
    """Work counters for one engine instance (all runs accumulated)."""

    #: Per-block contributions actually computed (cache misses).
    block_cost_evaluations: int = 0
    #: Per-block contribution lookups, hits included.  Only the one-time
    #: table build consults the model; replays read the table.
    contribution_lookups: int = 0
    #: Blocks actually mapped onto both fabrics (cache misses).
    blocks_mapped: int = 0
    moves_committed: int = 0
    moves_reverted: int = 0
    kernels_skipped: int = 0
    #: ``run()`` calls that replayed at least one cached trajectory entry.
    warm_started_runs: int = 0


class PartitioningEngine:
    """Runs the Figure 2 flow for one workload on one platform."""

    def __init__(
        self,
        workload: ApplicationWorkload,
        platform: HybridPlatform,
        weight_model: WeightModel | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        self.workload = workload
        self.platform = platform
        self.weight_model = weight_model or WeightModel()
        self.config = config or EngineConfig()
        self.stats = EngineStats()
        self._config_snapshot: EngineConfig | None = None
        self._trajectory: PackedGreedyTrajectory | None = None

    def _freeze_config(self) -> None:
        """Snapshot the config on first use; reject later mutations.

        The cached cost table and move trajectory bake the config flags
        in, so a mutated config would silently be ignored — raising keeps
        the documented freeze-after-run contract honest.
        """
        if self._config_snapshot is None:
            self._config_snapshot = dataclasses.replace(self.config)
        elif self.config != self._config_snapshot:
            raise ValueError(
                "EngineConfig mutated after the engine ran; its flags are "
                "baked into cached state — build a new PartitioningEngine "
                "for a different configuration"
            )

    @property
    def trajectory(self) -> PackedGreedyTrajectory:
        """The constraint-independent greedy decision sequence (pricing
        every block on first use, charged to :attr:`stats`)."""
        if self._trajectory is None:
            model = CostModel(
                self.workload,
                self.platform,
                charge_single_partition_reconfig=(
                    self.config.charge_single_partition_reconfig
                ),
                stats=self.stats,
            )
            self._trajectory = PackedGreedyTrajectory(
                PackedCostTable.from_model(model, self.weight_model),
                skip_unsupported_kernels=self.config.skip_unsupported_kernels,
                allow_regressing_moves=self.config.allow_regressing_moves,
            )
        return self._trajectory

    def initial_cycles(self) -> int:
        """All-FPGA execution time in FPGA cycles (Table 2/3 row 1)."""
        self._freeze_config()
        return self.trajectory.table.initial_cycles()

    def run(self, timing_constraint: int) -> PartitionResult:
        """Execute the Figure 2 loop against a timing constraint
        expressed in FPGA clock cycles."""
        if timing_constraint <= 0:
            raise ValueError("timing constraint must be positive")

        result = PartitionResult.all_fpga(
            self.workload.name,
            self.platform.name,
            timing_constraint,
            self.initial_cycles(),
        )
        if result.constraint_met:
            return result

        trajectory = self.trajectory
        if trajectory.entries:
            self.stats.warm_started_runs += 1
        replay_entries(
            trajectory.table,
            trajectory.iter_entries(),
            result,
            timing_constraint,
            max_kernels_moved=self.config.max_kernels_moved,
            stop_at_constraint=self.config.stop_at_constraint,
            on_skipped=lambda e: self._count("kernels_skipped"),
            on_reverted=lambda e: self._count("moves_reverted"),
            on_committed=lambda e: self._count("moves_committed"),
        )
        result.validate()
        return result

    def _count(self, counter: str) -> None:
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def sweep(self, constraints: list[int]) -> list[PartitionResult]:
        """Run the engine at several timing constraints.

        Every constraint after the first warm-starts from the cached move
        trajectory (the greedy order is constraint-independent), so the
        marginal cost of an extra constraint is O(moves replayed), with
        zero new block-cost evaluations.
        """
        return [self.run(constraint) for constraint in constraints]


def partition_application(
    workload: ApplicationWorkload,
    platform: HybridPlatform,
    timing_constraint: int,
    weight_model: WeightModel | None = None,
    config: EngineConfig | None = None,
) -> PartitionResult:
    """One-shot convenience wrapper around :class:`PartitioningEngine`."""
    engine = PartitioningEngine(workload, platform, weight_model, config)
    return engine.run(timing_constraint)
