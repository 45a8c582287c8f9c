"""Exact search in closed form — the ground truth the heuristics are
judged against.

Eq. 2 prices a configuration as the all-FPGA total plus one independent
``move_delta`` per moved kernel, so the exact answers follow from
sorting those deltas; no configuration has to be enumerated:

* **Optimum** (the :class:`~repro.search.base.Optimum` rule: fewest
  ticks, then fewest moves, then the smallest BB tuple): move every
  kernel whose delta is negative.  Under a move budget ``b``, move the
  first ``b`` of them in (delta, BB id) order.
* **Shape (k, r)** — k moved kernels whose peak is exactly r CGC rows,
  the key of :class:`~repro.partition.packed.ShapeReduction`.  Among
  the kernels with at most r rows, the k smallest deltas that include
  an r-row kernel give the shape's minimum ticks, and so its cycles c.
  The representative is the lexicographically smallest BB tuple among
  the shape's c-cycle configurations: it is built in BB-id order,
  keeping a kernel whenever the cheapest completion from the kernels
  after it still fits in c cycles.  Sorted suffix sums, built once per
  row value, answer that test in O(1), so each row value costs O(n²).

:meth:`ExhaustivePartitioner.run` logs the all-FPGA mask, the optimum
and one representative per shape, so ``pareto_front()`` reduces the
same configurations an enumeration of all 2^n subsets would keep, and
``visited`` / ``visited_count`` hold those configurations.  The
enumerating searches this replaced — the Gray-code walk, the budgeted
walk and branch-and-bound — are the references in ``tests/oracles/``
that the differential tests compare against.
"""

from __future__ import annotations

from bisect import insort
from itertools import accumulate, repeat
from math import inf
from operator import add
from typing import Iterator

from ..partition.packed import PackedCostTable
from ..partition.result import PartitionResult
from .base import Partitioner, check_params, register_algorithm


def optimum_mask(table: PackedCostTable, budget: int | None = None) -> int:
    """The optimum over every configuration within ``budget`` moves."""
    gainful = sorted(
        (delta, bb_id, index)
        for index, (delta, bb_id) in enumerate(
            zip(table.move_delta, table.bb_ids)
        )
        if delta < 0
    )
    mask = 0
    for __, __, index in gainful[:budget]:
        mask |= 1 << index
    return mask


def shape_representatives(
    table: PackedCostTable, budget: int | None = None
) -> dict[tuple[int, int], tuple[int, int]]:
    """``(moved, rows) -> (ticks, mask)``: for every shape within
    ``budget`` moves, the configuration :class:`ShapeReduction` keeps out
    of all 2^n subsets (fewest cycles, then the smallest BB tuple)."""
    by_id = sorted(range(len(table)), key=table.bb_ids.__getitem__)
    representatives = {(0, 0): (table.initial_ticks, 0)}
    for rows in sorted(set(table.cgc_rows)):
        representatives.update(_row_shapes(table, rows, by_id, budget))
    return representatives


def _row_shapes(
    table: PackedCostTable, r: int, by_id: list[int], budget: int | None
) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """The representatives of the shapes ``(k, r)`` for one row value."""
    initial, ratio = table.initial_ticks, table.clock_ratio
    deltas, rows = table.move_delta, table.cgc_rows
    eligible = [i for i in by_id if rows[i] <= r]
    m = len(eligible)
    # plain[p][j]: the least sum of j deltas among eligible[p:];
    # with_exact[p][j]: the least such sum that includes an r-row kernel
    # (inf where there is none).
    plain: list[list[int]] = [[0]] * (m + 1)
    with_exact: list[list[float]] = [[inf]] * (m + 1)
    suffix: list[int] = []
    least_exact: int | None = None
    for p in range(m - 1, -1, -1):
        i = eligible[p]
        insort(suffix, deltas[i])
        if rows[i] == r and (least_exact is None or deltas[i] < least_exact):
            least_exact = deltas[i]
        plain[p] = sums = [0, *accumulate(suffix)]
        if least_exact is not None:
            # Swap the j-th smallest for the cheapest r-row kernel when
            # none is already among the j smallest.
            swapped = map(max, suffix, repeat(least_exact))
            with_exact[p] = [inf, *map(add, sums, swapped)]

    for k in range(1, m + 1 if budget is None else min(budget, m) + 1):
        # The shape's fewest cycles, as the largest delta sum that still
        # rounds to them.
        limit = -(-(initial + with_exact[0][k]) // ratio) * ratio - initial
        # Keep each kernel, in BB-id order, whose cheapest completion
        # from the kernels after it still fits the limit.
        mask = total = 0
        need, has_exact = k, False
        for p, i in enumerate(eligible, 1):
            t = total + deltas[i]
            got = has_exact or rows[i] == r
            rest = (plain if got else with_exact)[p]
            if need - 1 < len(rest) and t + rest[need - 1] <= limit:
                mask |= 1 << i
                total, has_exact, need = t, got, need - 1
                if not need:
                    break
        yield (k, r), (initial + total, mask)


@register_algorithm
class ExhaustivePartitioner(Partitioner):
    """The optimal kernel subset, computed in closed form."""

    algorithm = "exhaustive"

    #: Guard against oversized jobs when ``max_candidates`` is None.  The
    #: closed form costs O(n²) per row value, so up to this many kernels
    #: it stays cheaper than pricing the table.
    DEFAULT_MAX_CANDIDATES = 256

    def __init__(self, *args, max_candidates: int | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        check_params(self.algorithm, max_candidates=max_candidates)
        self.max_candidates = max_candidates
        #: The optimal configuration bitmask once solved; the optimum is
        #: constraint-independent, so one solve serves every run() of a
        #: sweep.
        self._best_mask: int | None = None
        if max_candidates is not None:
            self._validate_candidate_count(max_candidates)

    def _validate_candidate_count(self, max_candidates: int) -> None:
        """Fail at construction, not at the first run, when the
        workload's kernel count exceeds an explicit cap."""
        candidates = self.workload.kernel_candidates(self.weight_model)
        if len(candidates) <= max_candidates:
            return
        # Unsupported kernels never enter the search, so only the
        # supported count can breach the cap.  Support is a property of
        # the DFG, so counting it prices nothing (and leaves the lazily
        # derived table and the config-freeze contract untouched).
        datapath = self.platform.datapath
        supported = sum(
            1 for kernel in candidates if datapath.supports_dfg(kernel.dfg)
        )
        if supported > max_candidates:
            raise ValueError(
                f"workload {self.workload.name!r} has {supported} supported "
                f"kernel candidates, but max_candidates={max_candidates} "
                "allows at most that many; raise max_candidates explicitly "
                "if you really want this"
            )

    def _solve(self) -> int:
        """The optimum; the first call also logs the configurations
        ``pareto_front()`` reduces."""
        if self._best_mask is not None:
            return self._best_mask
        table = self._checked_table()
        cap = self.max_candidates or self.DEFAULT_MAX_CANDIDATES
        if len(table) > cap:
            raise ValueError(
                f"{len(table)} kernel candidates exceed the exhaustive "
                f"limit of {cap}; raise max_candidates explicitly if you "
                "really want this"
            )
        budget = self.move_budget
        best = optimum_mask(table, budget)
        record = self._log.record
        record(table.total_ticks_of(best), best)
        representatives = shape_representatives(table, budget)
        for shape in sorted(representatives):
            record(*representatives[shape])
        self._best_mask = best
        return best

    def _search(
        self, timing_constraint: int, result: PartitionResult
    ) -> None:
        self._fill_result_from_mask(result, self._solve(), timing_constraint)
