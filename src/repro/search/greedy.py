"""The paper's greedy kernel-move loop as a :class:`Partitioner`.

This is the Figure 2 / §3.4 algorithm, and the one class that runs it:
the CLI, the explore grids, the suite, the server and the table
reproductions all use it.  The move sequence is a constraint-independent
:class:`~repro.partition.packed.PackedGreedyTrajectory`, computed lazily
once per partitioner and replayed per constraint by
:func:`~repro.partition.trajectory.replay_entries`, so ``sweep()``
warm-starts every constraint after the first from the shared prefix.
Each committed configuration is logged for the Pareto analysis.  The
seed engine's full-rescan loop and the object trajectory are the
reference implementations in ``tests/oracles/``.
"""

from __future__ import annotations

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

    def run(self, timing_constraint: int) -> PartitionResult:
        # Defined on this class, not only inherited: perfbench's layer
        # shims wrap ``GreedyPartitioner.run`` by owner and name.
        return super().run(timing_constraint)

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
