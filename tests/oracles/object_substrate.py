"""The object pricing substrate: the reference the packed code must match.

Production prices every configuration on the flat columns of a
:class:`~repro.partition.packed.PackedCostTable`.  These are the object
implementations that code was derived from, kept apart from it so the
differential tests compare two independent walks:

* :class:`CostState` — one configuration (the set of moved kernels) with
  O(1) apply/revert transitions over :class:`~repro.partition.CostModel`
  contributions;
* :class:`GreedyTrajectory` — the Figure 2 decision sequence computed on
  a :class:`CostState`;
* :func:`full_rescan` — the seed engine's loop, which re-sums every block
  after every move;
* :func:`object_partitioner` — the three search algorithms as object
  walks, built from the same :class:`~repro.search.AlgorithmSpec` that
  :func:`~repro.search.make_partitioner` takes.

Every walk logs its visited configurations as
:class:`~repro.search.pareto.VisitedConfiguration` records, so results,
Pareto fronts and visit logs compare with ``==``.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator

from repro.analysis.weights import WeightModel
from repro.partition import (
    BlockWorkload,
    CostModel,
    EngineConfig,
    PartitionResult,
    PartitionStep,
)
from repro.partition.trajectory import (
    MOVED,
    REVERTED,
    SKIPPED,
    TrajectoryEntry,
)
from repro.search import AlgorithmSpec
from repro.search.pareto import VisitedConfiguration, pareto_front


class CostState:
    """One hardware/software split with O(1) move transitions.

    The state is the set of moved kernels plus the three running Eq. 2
    tick totals.  ``propose_move`` prices a transition without taking it;
    ``apply_move`` / ``revert_move`` take and undo it in O(1).
    """

    def __init__(self, model: CostModel) -> None:
        self.model = model
        self.fpga_ticks = model.initial_ticks()
        self.cgc_ticks = 0
        self.comm_ticks = 0
        self.moved: set[int] = set()
        # Multiset of the moved kernels' row footprints plus the running
        # max, so cgc_rows_used() is O(1) instead of O(moved) per call.
        self._row_counts: dict[int, int] = {}
        self._rows_used = 0

    def propose_move(self, bb_id: int) -> int:
        """Tick delta of toggling ``bb_id`` (negative = improvement)."""
        contribution = self.model.contribution_by_id(bb_id)
        if bb_id in self.moved:
            return -contribution.move_delta
        return contribution.move_delta

    def apply_move(self, bb_id: int) -> int:
        """Move ``bb_id`` to the coarse-grain fabric; returns the delta."""
        if bb_id in self.moved:
            raise ValueError(f"BB {bb_id} is already moved")
        contribution = self.model.contribution_by_id(bb_id)
        if not contribution.supported:
            raise ValueError(
                f"kernel BB {bb_id} cannot execute on the coarse-grain "
                "data-path"
            )
        assert contribution.cgc_ticks is not None
        self.fpga_ticks -= contribution.fpga_ticks
        self.cgc_ticks += contribution.cgc_ticks
        self.comm_ticks += contribution.comm_ticks
        self.moved.add(bb_id)
        rows = contribution.cgc_rows
        self._row_counts[rows] = self._row_counts.get(rows, 0) + 1
        if rows > self._rows_used:
            self._rows_used = rows
        return contribution.move_delta

    def revert_move(self, bb_id: int) -> int:
        """Undo a previous :meth:`apply_move`; returns the delta."""
        if bb_id not in self.moved:
            raise ValueError(f"BB {bb_id} is not moved")
        contribution = self.model.contribution_by_id(bb_id)
        assert contribution.cgc_ticks is not None
        self.fpga_ticks += contribution.fpga_ticks
        self.cgc_ticks -= contribution.cgc_ticks
        self.comm_ticks -= contribution.comm_ticks
        self.moved.discard(bb_id)
        rows = contribution.cgc_rows
        remaining = self._row_counts[rows] - 1
        if remaining:
            self._row_counts[rows] = remaining
        else:
            del self._row_counts[rows]
            if rows == self._rows_used:
                self._rows_used = max(self._row_counts, default=0)
        return -contribution.move_delta

    @property
    def total_ticks(self) -> int:
        return self.fpga_ticks + self.cgc_ticks + self.comm_ticks

    @property
    def ticks(self) -> tuple[int, int, int]:
        return (self.fpga_ticks, self.cgc_ticks, self.comm_ticks)

    def total_cycles(self) -> int:
        return self.model.ticks_to_cycles(self.total_ticks)

    def cgc_rows_used(self) -> int:
        """Peak CGC rows any moved kernel's schedule occupies (kernels run
        sequentially, so the footprint is the max, not the sum)."""
        return self._rows_used


def commit_step(
    model: CostModel,
    result: PartitionResult,
    bb_id: int,
    ticks: tuple[int, int, int],
    timing_constraint: int,
) -> bool:
    """Append one committed move to ``result``; returns constraint_met."""
    fpga_c, cgc_c, comm_c, total_c = model.split_ticks(*ticks)
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


def _unsupported(bb_id: int) -> ValueError:
    return ValueError(
        f"kernel BB {bb_id} cannot execute on the coarse-grain data-path"
    )


class GreedyTrajectory:
    """Lazily extended, cached greedy decision sequence."""

    def __init__(
        self,
        model: CostModel,
        weight_model: WeightModel,
        *,
        skip_unsupported_kernels: bool = True,
        allow_regressing_moves: bool = False,
    ) -> None:
        self.model = model
        self.weight_model = weight_model
        self.skip_unsupported_kernels = skip_unsupported_kernels
        self.allow_regressing_moves = allow_regressing_moves
        self.entries: list[TrajectoryEntry] = []
        self._state: CostState | None = None
        self._pending: list[BlockWorkload] = []
        self._next = 0

    def _extend(self) -> bool:
        """Process the next greedy kernel; False when exhausted."""
        if self._state is None:
            self._state = CostState(self.model)
            self._pending = self.model.kernel_candidates(self.weight_model)
        if self._next >= len(self._pending):
            return False
        kernel = self._pending[self._next]
        state = self._state
        contribution = self.model.contribution(kernel)
        if not contribution.supported:
            if not self.skip_unsupported_kernels:
                # Raise while the kernel is still pending, so a retried
                # replay fails the same way.
                raise _unsupported(kernel.bb_id)
            action = SKIPPED
        elif contribution.move_delta > 0 and not self.allow_regressing_moves:
            action = REVERTED
        else:
            action = MOVED
            state.apply_move(kernel.bb_id)
        self._next += 1
        self.entries.append(
            TrajectoryEntry(
                bb_id=kernel.bb_id,
                action=action,
                fpga_ticks=state.fpga_ticks,
                cgc_ticks=state.cgc_ticks,
                comm_ticks=state.comm_ticks,
            )
        )
        return True

    def iter_entries(self) -> Iterator[TrajectoryEntry]:
        """Replay cached entries, extending lazily on demand."""
        index = 0
        while True:
            while index >= len(self.entries):
                if not self._extend():
                    return
            yield self.entries[index]
            index += 1

    def replay(
        self,
        result: PartitionResult,
        timing_constraint: int,
        *,
        max_kernels_moved: int | None,
        stop_at_constraint: bool,
    ) -> None:
        """Fill ``result`` by replaying decisions against one constraint."""
        for entry in self.iter_entries():
            if (
                max_kernels_moved is not None
                and len(result.moved_bb_ids) >= max_kernels_moved
            ):
                break
            if entry.action == SKIPPED:
                result.skipped_bb_ids.append(entry.bb_id)
            elif entry.action == REVERTED:
                result.reverted_bb_ids.append(entry.bb_id)
            elif (
                commit_step(
                    self.model, result, entry.bb_id, entry.ticks,
                    timing_constraint,
                )
                and stop_at_constraint
            ):
                break


def full_rescan(
    model: CostModel,
    timing_constraint: int,
    config: EngineConfig | None = None,
    weight_model: WeightModel | None = None,
) -> PartitionResult:
    """The seed engine's Figure 2 loop: an O(blocks) rescan of every
    block's contribution after every kernel move."""
    config = config or EngineConfig()
    result = PartitionResult.all_fpga(
        model.workload.name,
        model.platform.name,
        timing_constraint,
        model.initial_cycles(),
    )
    if result.constraint_met:
        return result
    moved: set[int] = set()

    def total_ticks() -> tuple[int, int, int]:
        fpga_t = cgc_t = comm_t = 0
        for block in model.workload.blocks:
            contribution = model.contribution(block)
            if block.bb_id in moved:
                assert contribution.cgc_ticks is not None
                cgc_t += contribution.cgc_ticks
                comm_t += contribution.comm_ticks
            else:
                fpga_t += contribution.fpga_ticks
        return fpga_t, cgc_t, comm_t

    previous_total = sum(total_ticks())
    for kernel in model.kernel_candidates(weight_model or WeightModel()):
        if (
            config.max_kernels_moved is not None
            and len(moved) >= config.max_kernels_moved
        ):
            break
        if model.block_costs(kernel).coarse is None:
            if not config.skip_unsupported_kernels:
                raise _unsupported(kernel.bb_id)
            result.skipped_bb_ids.append(kernel.bb_id)
            continue
        moved.add(kernel.bb_id)
        ticks = total_ticks()
        if sum(ticks) > previous_total and not config.allow_regressing_moves:
            moved.discard(kernel.bb_id)
            result.reverted_bb_ids.append(kernel.bb_id)
            continue
        previous_total = sum(ticks)
        met = commit_step(
            model, result, kernel.bb_id, ticks, timing_constraint
        )
        if met and config.stop_at_constraint:
            break
    result.validate()
    return result


class ObjectPartitioner:
    """The search protocol (run/sweep/visited/pareto_front) on objects.

    Subclasses compute the constraint-independent best subset in
    :meth:`_walk`; :meth:`run` replays it in Eq. 1 order.
    """

    algorithm = "base"

    def __init__(
        self,
        workload,
        platform,
        weight_model: WeightModel | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        self.workload = workload
        self.platform = platform
        self.weight_model = weight_model or WeightModel()
        self.config = config or EngineConfig()
        self.model = CostModel(
            workload,
            platform,
            charge_single_partition_reconfig=(
                self.config.charge_single_partition_reconfig
            ),
        )
        self.visited: list[VisitedConfiguration] = []
        self._visited_subsets: set[frozenset[int]] = set()
        self._best: tuple[frozenset[int], list[int]] | None = None

    @property
    def visited_count(self) -> int:
        return len(self.visited)

    def initial_cycles(self) -> int:
        return self.model.initial_cycles()

    def run(self, timing_constraint: int) -> PartitionResult:
        result = PartitionResult.all_fpga(
            self.workload.name,
            self.platform.name,
            timing_constraint,
            self.initial_cycles(),
        )
        self._record_visited(CostState(self.model))  # all-FPGA corner
        if not result.constraint_met:
            self._search(timing_constraint, result)
            result.validate()
        return result

    def sweep(self, constraints: list[int]) -> list[PartitionResult]:
        return [self.run(constraint) for constraint in constraints]

    def pareto_front(self) -> list[VisitedConfiguration]:
        return pareto_front(self.visited)

    def _search(
        self, timing_constraint: int, result: PartitionResult
    ) -> None:
        if self._best is None:
            self._best = self._walk()
        subset, skipped = self._best
        result.skipped_bb_ids.extend(skipped)
        state = CostState(self.model)
        for kernel in self.model.kernel_candidates(self.weight_model):
            if kernel.bb_id in subset:
                state.apply_move(kernel.bb_id)
                commit_step(
                    self.model, result, kernel.bb_id, state.ticks,
                    timing_constraint,
                )

    def _walk(self) -> tuple[frozenset[int], list[int]]:
        """(best subset, skipped unsupported ids)."""
        raise NotImplementedError

    def _split_candidates(self) -> tuple[list[BlockWorkload], list[int]]:
        """(supported kernels in Eq. 1 order, skipped unsupported ids)."""
        supported: list[BlockWorkload] = []
        skipped: list[int] = []
        for kernel in self.model.kernel_candidates(self.weight_model):
            if self.model.contribution(kernel).supported:
                supported.append(kernel)
            elif not self.config.skip_unsupported_kernels:
                raise _unsupported(kernel.bb_id)
            else:
                skipped.append(kernel.bb_id)
        return supported, skipped

    def _record_visited(self, state: CostState) -> None:
        """Log the state's configuration (deduplicated by subset)."""
        subset = frozenset(state.moved)
        if subset in self._visited_subsets:
            return
        self._visited_subsets.add(subset)
        self.visited.append(
            VisitedConfiguration(
                total_cycles=state.total_cycles(),
                moved_kernel_count=len(state.moved),
                cgc_rows_used=state.cgc_rows_used(),
                moved_bb_ids=tuple(sorted(state.moved)),
                algorithm=self.algorithm,
            )
        )

    @staticmethod
    def _subset_key(
        total_ticks: int, moved: set[int]
    ) -> tuple[int, int, tuple[int, ...]]:
        """Deterministic ordering key: cycles, then fewer moves, then ids."""
        return (total_ticks, len(moved), tuple(sorted(moved)))


class ObjectGreedy(ObjectPartitioner):
    """The Figure 2 loop: the object trajectory replayed per constraint,
    each committed prefix logged as visited."""

    algorithm = "greedy"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.trajectory = GreedyTrajectory(
            self.model,
            self.weight_model,
            skip_unsupported_kernels=self.config.skip_unsupported_kernels,
            allow_regressing_moves=self.config.allow_regressing_moves,
        )

    def _search(
        self, timing_constraint: int, result: PartitionResult
    ) -> None:
        self.trajectory.replay(
            result,
            timing_constraint,
            max_kernels_moved=self.config.max_kernels_moved,
            stop_at_constraint=self.config.stop_at_constraint,
        )
        moved: list[int] = []
        rows = 0
        for step in result.steps:
            moved.append(step.moved_bb_id)
            rows = max(
                rows, self.model.contribution_by_id(step.moved_bb_id).cgc_rows
            )
            subset = frozenset(moved)
            if subset in self._visited_subsets:
                continue
            self._visited_subsets.add(subset)
            self.visited.append(
                VisitedConfiguration(
                    total_cycles=step.total_cycles,
                    moved_kernel_count=len(moved),
                    cgc_rows_used=rows,
                    moved_bb_ids=tuple(sorted(moved)),
                    algorithm=self.algorithm,
                )
            )


class ObjectExhaustive(ObjectPartitioner):
    """Depth-first enumeration of every subset within the move budget."""

    algorithm = "exhaustive"

    #: Per-subset object churn makes 2^24 a minutes-to-hours walk here.
    DEFAULT_MAX_CANDIDATES = 16

    def __init__(
        self,
        *args,
        max_candidates: int | None = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.max_candidates = (
            self.DEFAULT_MAX_CANDIDATES
            if max_candidates is None
            else max_candidates
        )

    def _walk(self) -> tuple[frozenset[int], list[int]]:
        supported, skipped = self._split_candidates()
        if len(supported) > self.max_candidates:
            raise ValueError(
                f"{len(supported)} kernel candidates exceed the exhaustive "
                f"limit of {self.max_candidates} (2^n subsets)"
            )
        budget = self.config.max_kernels_moved
        state = CostState(self.model)
        best_key = self._subset_key(state.total_ticks, state.moved)
        best_subset: frozenset[int] = frozenset()

        def walk(index: int) -> None:
            nonlocal best_key, best_subset
            if index == len(supported):
                return
            # Exclude branch first so the all-FPGA prefix is explored
            # without touching the state.
            walk(index + 1)
            if budget is not None and len(state.moved) >= budget:
                return
            bb_id = supported[index].bb_id
            state.apply_move(bb_id)
            self._record_visited(state)
            key = self._subset_key(state.total_ticks, state.moved)
            if key < best_key:
                best_key = key
                best_subset = frozenset(state.moved)
            walk(index + 1)
            state.revert_move(bb_id)

        walk(0)
        return best_subset, skipped


class ObjectAnnealing(ObjectPartitioner):
    """Simulated annealing with a geometric cooling schedule."""

    algorithm = "annealing"

    #: The production schedule: 30 levels of max(8, 4n) steps, cooling
    #: by 0.9 per level from the largest single-move |delta|.
    COOLING = 0.9
    TEMP_LEVELS = 30

    def __init__(self, *args, seed: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seed = seed

    def _walk(self) -> tuple[frozenset[int], list[int]]:
        supported, skipped = self._split_candidates()
        budget = self.config.max_kernels_moved
        rng = random.Random((self.seed * 0x5DEECE66D + 0xB) & 0xFFFFFFFFFFFF)
        state = CostState(self.model)
        # Greedy warm start: the best-seen tracker starts at the greedy
        # solution and can only improve on it.
        for kernel in supported:
            if budget is not None and len(state.moved) >= budget:
                break
            if self.model.contribution(kernel).move_delta <= 0:
                state.apply_move(kernel.bb_id)
        self._record_visited(state)
        best_key = self._subset_key(state.total_ticks, state.moved)
        best_subset = frozenset(state.moved)

        candidates = [kernel.bb_id for kernel in supported]
        if not candidates or (budget is not None and budget <= 0):
            return best_subset, skipped
        deltas = [
            self.model.contribution(kernel).move_delta for kernel in supported
        ]
        temperature = float(max(max(abs(d) for d in deltas), 1))
        steps = max(8, 4 * len(candidates))

        def accept(delta: int) -> bool:
            return delta <= 0 or rng.random() < math.exp(-delta / temperature)

        for _level in range(self.TEMP_LEVELS):
            for _step in range(steps):
                bb_id = candidates[rng.randrange(len(candidates))]
                if bb_id in state.moved:
                    if not accept(state.propose_move(bb_id)):
                        continue
                    state.revert_move(bb_id)
                elif budget is not None and len(state.moved) >= budget:
                    # At the budget boundary toggling in is illegal, so
                    # propose a swap: one kernel out, this one in.
                    out_id = sorted(state.moved)[
                        rng.randrange(len(state.moved))
                    ]
                    delta = (
                        state.propose_move(bb_id) + state.propose_move(out_id)
                    )
                    if not accept(delta):
                        continue
                    state.revert_move(out_id)
                    state.apply_move(bb_id)
                elif accept(state.propose_move(bb_id)):
                    state.apply_move(bb_id)
                else:
                    continue
                self._record_visited(state)
                key = self._subset_key(state.total_ticks, state.moved)
                if key < best_key:
                    best_key = key
                    best_subset = frozenset(state.moved)
            temperature *= self.COOLING
        return best_subset, skipped


_WALKS: dict[str, type[ObjectPartitioner]] = {
    walk.algorithm: walk
    for walk in (ObjectGreedy, ObjectExhaustive, ObjectAnnealing)
}


def object_partitioner(
    spec: AlgorithmSpec,
    workload,
    platform,
    weight_model: WeightModel | None = None,
    config: EngineConfig | None = None,
) -> ObjectPartitioner:
    """The object walk for ``spec`` (mirrors ``make_partitioner``)."""
    return _WALKS[spec.name](
        workload, platform, weight_model, config, **dict(spec.params)
    )
