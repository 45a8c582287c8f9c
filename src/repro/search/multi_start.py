"""Randomized greedy restarts.

The greedy loop's one degree of freedom is its visit order: Eq. 1 weight
is a *predictor* of benefit, not benefit itself, so under a move budget
(or CGC area pressure) the canonical order can spend the budget on
heavy-but-barely-profitable kernels.  Multi-start reruns the greedy
accept-if-improving sweep ``restarts`` times — restart 0 uses the exact
paper order (so the result is never worse than unbounded greedy), every
later restart perturbs each kernel's weight by a seeded multiplicative
jitter before sorting — and keeps the best final configuration.

Fully deterministic for a given (seed, restarts, jitter).
"""

from __future__ import annotations

import random

from ..partition.result import PartitionResult
from .base import Optimum, Partitioner, check_params, register_algorithm


@register_algorithm
class MultiStartPartitioner(Partitioner):
    """Best-of-N greedy sweeps over jittered kernel orders."""

    algorithm = "multi_start"

    def __init__(
        self,
        *args,
        restarts: int = 8,
        seed: int = 0,
        jitter: float = 0.75,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        check_params(self.algorithm, restarts=restarts, jitter=jitter)
        self.restarts = restarts
        self.seed = seed
        self.jitter = jitter
        self._best_mask: int | None = None

    def _explore(self) -> int:
        """Best of the jittered restarts (cached across runs).

        Packed indices are the Eq. 1 order, so restart 0 is the paper's
        order; later restarts multiply the integer total weights by a
        seeded jitter and re-sort, ties by BB id.
        """
        if self._best_mask is not None:
            return self._best_mask
        table = self._checked_table()
        n = len(table)
        budget = self.move_budget
        deltas = table.move_delta
        bb_ids = table.bb_ids
        weights = table.weights
        log = self._log
        best: Optimum | None = None
        for restart in range(self.restarts):
            # Deadline poll per restart (a visit batch); restart 0
            # always runs, so the result is never worse than greedy.
            if restart and self._deadline_expired():
                self._mark_partial()
                break
            if restart == 0:
                order = range(n)
            else:
                rng = random.Random(
                    (self.seed * 0x9E3779B1 + restart) & 0xFFFFFFFF
                )
                noisy = [
                    weights[i]
                    * rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
                    for i in range(n)
                ]
                order = sorted(
                    range(n), key=lambda i: (-noisy[i], bb_ids[i])
                )
            total = table.initial_ticks
            mask = 0
            count = 0
            for index in order:
                if budget is not None and count >= budget:
                    break
                if deltas[index] <= 0:
                    total += deltas[index]
                    mask |= 1 << index
                    count += 1
                    log.record(total, mask)
            if best is None:
                best = Optimum(table, total, mask, count)
            else:
                best.offer(total, mask, count)
        assert best is not None  # restart 0 always runs
        self._best_mask = best.mask
        return best.mask

    def _search(
        self, timing_constraint: int, result: PartitionResult
    ) -> None:
        self._fill_result_from_mask(
            result, self._explore(), timing_constraint
        )
