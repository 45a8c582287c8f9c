"""Simulated annealing over kernel subsets.

Each step toggles one kernel in or out of the coarse-grain set (or, at
the move budget, swaps one in for one out), priced in O(1) ticks on the
packed table's ``move_delta`` column.  Improving steps are always
taken; worsening steps with probability ``exp(-delta / T)`` under a
geometric temperature schedule.  The walk starts from the greedy
solution and the best configuration ever seen is returned, so annealing
is never worse than unbounded greedy — it can only escape the weight-
order traps greedy falls into under budgets or skewed workloads.

The schedule is fixed, so the table bounds the work: the temperature
starts at the largest single-move |delta| (early steps accept almost
anything) and falls by :data:`COOLING` over :data:`TEMP_LEVELS` levels
of max(8, 4n) steps each.  On an n-kernel table a walk visits at most
1 + 30·max(8, 4n) configurations (the warm start, then one per taken
step).  ``seed`` is the only parameter; fully deterministic per seed.
"""

from __future__ import annotations

import math
import random

from ..partition.result import PartitionResult
from .base import Optimum, Partitioner, check_params, register_algorithm

#: Geometric cooling factor per temperature level.
COOLING = 0.9
#: Temperature levels per walk, each of max(8, 4n) steps.
TEMP_LEVELS = 30


@register_algorithm
class AnnealingPartitioner(Partitioner):
    """Simulated annealing with a geometric cooling schedule."""

    algorithm = "annealing"

    def __init__(self, *args, seed: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        check_params(self.algorithm, seed=seed)
        self.seed = seed
        self._best_mask: int | None = None

    def _anneal(self) -> int:
        """The annealing walk; cached, because it is constraint-
        independent, so one walk serves every run() of a sweep."""
        if self._best_mask is not None:
            return self._best_mask
        table = self._checked_table()
        n = len(table)
        budget = self.move_budget
        deltas = table.move_delta
        rng = random.Random((self.seed * 0x5DEECE66D + 0xB) & 0xFFFFFFFFFFFF)
        log = self._log
        total = table.initial_ticks
        mask = 0
        count = 0
        # Greedy warm start (Eq. 1 order = packed index order).
        for index in range(n):
            if budget is not None and count >= budget:
                break
            if deltas[index] <= 0:
                total += deltas[index]
                mask |= 1 << index
                count += 1
        log.record(total, mask)
        best = Optimum(table, total, mask, count)
        best_total = total

        if n == 0 or (budget is not None and budget <= 0):
            self._best_mask = best.mask
            return best.mask
        temperature = float(max(max(map(abs, deltas)), 1))
        steps = max(8, 4 * n)

        # Hot loop: bound locals, an inlined accept test, and an inlined
        # ``randrange`` (CPython's ``_randbelow_with_getrandbits``
        # verbatim, so the random stream is bit-identical to
        # ``rng.randrange`` calls while skipping two Python call layers
        # per step).  The object reference walk in ``tests/oracles/``
        # draws through ``randrange`` and must take the same steps.
        getrandbits = rng.getrandbits
        uniform = rng.random
        exp = math.exp
        record = log.record
        offer = best.offer
        bb_ids_of = table.bb_ids_of
        index_of = table.index_of
        n_bits = n.bit_length()
        for _level in range(TEMP_LEVELS):
            for _step in range(steps):
                index = getrandbits(n_bits)
                while index >= n:
                    index = getrandbits(n_bits)
                bit = 1 << index
                if mask & bit:
                    delta = -deltas[index]
                    if delta <= 0 or uniform() < exp(-delta / temperature):
                        total += delta
                        mask ^= bit
                        count -= 1
                    else:
                        continue
                elif budget is not None and count >= budget:
                    # At the budget boundary toggling in is illegal, so
                    # propose a swap: one kernel out, this one in.
                    out = getrandbits(count.bit_length())
                    while out >= count:
                        out = getrandbits(count.bit_length())
                    out_index = index_of(bb_ids_of(mask)[out])
                    delta = deltas[index] - deltas[out_index]
                    if delta <= 0 or uniform() < exp(-delta / temperature):
                        total += delta
                        mask ^= bit | (1 << out_index)
                    else:
                        continue
                else:
                    delta = deltas[index]
                    if delta <= 0 or uniform() < exp(-delta / temperature):
                        total += delta
                        mask |= bit
                        count += 1
                    else:
                        continue
                record(total, mask)
                if total <= best_total:
                    best_total = offer(total, mask, count)
            temperature *= COOLING
        self._best_mask = best.mask
        return best.mask

    def _search(
        self, timing_constraint: int, result: PartitionResult
    ) -> None:
        self._fill_result_from_mask(
            result, self._anneal(), timing_constraint
        )
