"""The paper's greedy kernel-move loop as a :class:`Partitioner`.

This is the Figure 2 / §3.4 algorithm behind the pluggable-algorithm
protocol.  It runs a :class:`~repro.partition.packed.PackedGreedyTrajectory`
— the same constraint-independent decision sequence the
:class:`~repro.partition.engine.PartitioningEngine` replays — through the
same :func:`~repro.partition.trajectory.replay_entries` bookkeeping, so
results stay bit-identical to the engine by shared code, not by luck.
On top, each committed configuration is logged for the Pareto analysis.
"""

from __future__ import annotations

from ..faults import Deadline
from ..partition.packed import PackedGreedyTrajectory
from ..partition.result import PartitionResult
from ..partition.trajectory import replay_entries
from .base import Partitioner, register_algorithm


@register_algorithm
class GreedyPartitioner(Partitioner):
    """Figure 2 greedy loop behind the protocol."""

    algorithm = "greedy"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._trajectory: PackedGreedyTrajectory | None = None

    def run(
        self,
        timing_constraint: int,
        deadline: Deadline | None = None,
    ) -> PartitionResult:
        # Defined on this class, not only inherited: perfbench's layer
        # shims wrap ``GreedyPartitioner.run`` by owner and name.
        return super().run(timing_constraint, deadline)

    @property
    def trajectory(self) -> PackedGreedyTrajectory:
        if self._trajectory is None:
            self._trajectory = PackedGreedyTrajectory(
                self.table,
                skip_unsupported_kernels=(
                    self.config.skip_unsupported_kernels
                ),
                allow_regressing_moves=self.config.allow_regressing_moves,
            )
        return self._trajectory

    def _search(
        self, timing_constraint: int, result: PartitionResult
    ) -> None:
        trajectory = self.trajectory
        log = self._log
        masks = trajectory.masks
        position = [0]  # entry cursor shared by the replay callbacks

        def advance(entry) -> None:
            position[0] += 1

        def committed(entry) -> None:
            log.record(entry.total_ticks, masks[position[0]])
            position[0] += 1

        replay_entries(
            self.table,
            trajectory.iter_entries(),
            result,
            timing_constraint,
            max_kernels_moved=self.config.max_kernels_moved,
            stop_at_constraint=self.config.stop_at_constraint,
            on_skipped=advance,
            on_reverted=advance,
            on_committed=committed,
        )
