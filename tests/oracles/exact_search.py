"""The enumerating exact searches, kept as references for the closed form.

:mod:`repro.search.exhaustive` computes the optimum and the per-(moved,
rows) Pareto reduction from the table's columns without visiting any
configuration.  These are the searches it replaced, each folding the
configurations it visits through the production rules
(:class:`~repro.search.base.Optimum` and
:class:`~repro.partition.packed.ShapeReduction`), so a differential test
compares answers, not rule implementations:

* :func:`gray_walk` — every subset in Gray-code order, one toggle per
  step; ``lo``/``hi`` walk one contiguous code segment, whose first
  configuration is materialized once (``mask = gray(lo)``).
* :func:`budgeted_walk` — depth-first over the subsets within a move
  budget.
* :func:`branch_and_bound` — depth-first over kernels sorted by delta,
  cutting a subtree only when an additive bound shows it can change
  neither the optimum nor any shape's incumbent; ``prefix``/``bits``
  fix the assignment of the most gainful kernels (one task of a
  prefix decomposition) and ``slack`` loosens the optimum bound.
* :func:`shape_minima` — each shape's least cycles by dynamic
  programming, polynomial in the kernel count.
* :func:`expected_log` — the configurations the closed form logs,
  picked out of an enumeration's visited records.

Each visits the all-FPGA mask 0 first (the walks yield it; branch-and-
bound folds it without counting it, like the partitioner's own log).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterable, Iterator

from repro.partition.packed import PackedCostTable, ShapeReduction
from repro.search.base import Optimum
from repro.search.pareto import VisitedConfiguration


@dataclass
class ExactSearch:
    """What an exact search found: the optimum mask, the per-(moved,
    rows) reduction ``(moved, rows) -> (cycles, mask)``, and its work."""

    mask: int
    shapes: dict[tuple[int, int], tuple[int, int]]
    visits: int
    pruned: int = 0


def fold(
    table: PackedCostTable, visits: Iterable[tuple[int, int]]
) -> ExactSearch:
    """Fold (ticks, mask) visits through the production rules."""
    best = Optimum(table, table.initial_ticks, 0)
    shapes = ShapeReduction(table)
    count = 0
    for total, mask in visits:
        best.offer(total, mask)
        shapes.add(total, mask)
        count += 1
    return ExactSearch(best.mask, shapes.best, count)


def merge(table: PackedCostTable, parts: Iterable[ExactSearch]) -> ExactSearch:
    """Merge independent searches of disjoint subspaces (shard order is
    irrelevant: both rules are deterministic minima)."""
    best = Optimum(table, table.initial_ticks, 0)
    shapes = ShapeReduction(table)
    visits = 0
    for part in parts:
        best.offer(table.total_ticks_of(part.mask), part.mask)
        for key, (cycles, mask) in part.shapes.items():
            shapes.merge(key, cycles, mask)
        visits += part.visits
    return ExactSearch(best.mask, shapes.best, visits)


def gray_walk(
    table: PackedCostTable, lo: int = 0, hi: int | None = None
) -> Iterator[tuple[int, int]]:
    """(ticks, mask) for Gray codes ``lo .. hi - 1`` (all 2^n by default)."""
    n = len(table)
    if hi is None:
        hi = 1 << n
    if lo >= hi:
        return
    deltas = table.move_delta
    delta_by_bit = {1 << i: deltas[i] for i in range(n)}
    mask = lo ^ (lo >> 1)
    total = table.total_ticks_of(mask)
    yield total, mask
    for code in range(lo + 1, hi):
        bit = code & -code
        if mask & bit:
            total -= delta_by_bit[bit]
        else:
            total += delta_by_bit[bit]
        mask ^= bit
        yield total, mask


def budgeted_walk(
    table: PackedCostTable, budget: int
) -> Iterator[tuple[int, int]]:
    """(ticks, mask) for every subset of at most ``budget`` kernels."""
    n = len(table)
    deltas = table.move_delta

    def walk(index: int, total: int, mask: int, count: int):
        if index == n:
            return
        yield from walk(index + 1, total, mask, count)
        if count >= budget:
            return
        total += deltas[index]
        mask |= 1 << index
        yield total, mask
        yield from walk(index + 1, total, mask, count + 1)

    yield table.initial_ticks, 0
    yield from walk(0, table.initial_ticks, 0, 0)


def branch_and_bound(
    table: PackedCostTable,
    budget: int | None = None,
    *,
    slack: int = 0,
    prefix: int = 0,
    bits: int = 0,
) -> ExactSearch:
    """Exact additive-bound branch-and-bound over the kernels after the
    ``bits`` most gainful ones, whose assignment ``prefix`` fixes.

    Kernels are ordered by ascending move delta, so the suffix sums of
    the negative deltas bound any subtree's achievable gain; with ``k``
    moves left the bound takes the ``k`` best remaining gains.  A
    subtree is cut only when it can neither beat or tie the incumbent
    optimum (strict ``>`` on ticks, so tick-level ties stay explored)
    nor update any shape's incumbent (``<=`` on cycles, so cycle-level
    tie representatives stay explored).  ``slack`` ticks loosen the
    optimum bound: a looser bound can only explore more.
    """
    n = len(table)
    deltas = table.move_delta
    order = sorted(range(n), key=lambda i: (deltas[i], i))
    rest = order[bits:]
    len_rest = len(rest)

    mask = 0
    total = table.initial_ticks
    count = 0
    for j in range(bits):
        if prefix >> j & 1:
            mask |= 1 << order[j]
            total += deltas[order[j]]
            count += 1
    if budget is not None and count > budget:
        return ExactSearch(0, {}, 0)

    neg = 0
    while neg < len_rest and deltas[rest[neg]] < 0:
        neg += 1
    prefix_sums = [0] * (len_rest + 1)
    for j in range(len_rest):
        prefix_sums[j + 1] = prefix_sums[j] + deltas[rest[j]]

    def gain(j: int, k: int) -> int:
        if j >= neg or k <= 0:
            return 0
        take = min(k, neg - j)
        return prefix_sums[j + take] - prefix_sums[j]

    ratio = table.clock_ratio
    rows_used = table.rows_used
    distinct_rows = sorted(set(table.cgc_rows))
    shapes = ShapeReduction(table)
    shape_best = shapes.best
    best = Optimum(table, total, mask, count)
    visits = pruned = 0

    def record(t: int, m: int, c: int) -> None:
        nonlocal visits
        visits += 1
        shapes.add(t, m)
        best.offer(t, m, c)

    def could_update_shapes(j: int, t: int, c: int, r0: int, k_left: int):
        for extra in range(1, min(k_left, len_rest - j) + 1):
            min_cycles = -(-(t + gain(j, extra)) // ratio)
            for r in distinct_rows:
                if r < r0:
                    continue
                incumbent = shape_best.get((c + extra, r))
                if incumbent is None or min_cycles <= incumbent[0]:
                    return True
        return False

    def walk(j: int, t: int, m: int, c: int) -> None:
        nonlocal pruned
        if j == len_rest:
            return
        k_left = (budget - c) if budget is not None else len_rest - j
        if t + gain(j, k_left) - slack > best.total and not (
            could_update_shapes(j, t, c, rows_used(m), k_left)
        ):
            pruned += 1
            return
        if k_left > 0:
            i = rest[j]
            t2 = t + deltas[i]
            m2 = m | (1 << i)
            record(t2, m2, c + 1)
            walk(j + 1, t2, m2, c + 1)
        walk(j + 1, t, m, c)

    if mask:
        record(total, mask, count)
    else:
        shapes.add(total, 0)
    walk(0, total, mask, count)
    return ExactSearch(best.mask, shape_best, visits, pruned)


def shape_minima(
    table: PackedCostTable, budget: int | None = None
) -> dict[tuple[int, int], int]:
    """``(moved, rows) -> least cycles`` by dynamic programming: for each
    row value r, the least sum of k deltas over the kernels with at most
    r rows that includes one with exactly r.  Polynomial, so it checks
    the closed form's minima far past where the walks can go."""
    n = len(table)
    deltas, rows = table.move_delta, table.cgc_rows
    top = n if budget is None else min(budget, n)
    minima = {(0, 0): table.ticks_to_cycles(table.initial_ticks)}
    for r in sorted(set(rows)):
        # least[j][e]: least sum of j kernels so far; e: one has r rows.
        least = [[0, inf]] + [[inf, inf] for __ in range(top)]
        for i in range(n):
            if rows[i] > r:
                continue
            exact = rows[i] == r
            for j in range(top, 0, -1):
                for e in (0, 1):
                    total = least[j - 1][e] + deltas[i]
                    to = 1 if e or exact else 0
                    if total < least[j][to]:
                        least[j][to] = total
        for k in range(1, top + 1):
            if least[k][1] < inf:
                minima[(k, r)] = table.ticks_to_cycles(
                    table.initial_ticks + least[k][1]
                )
    return minima


def expected_log(
    visited: Iterable[VisitedConfiguration], optimum: Iterable[int]
) -> set[VisitedConfiguration]:
    """What the closed form logs, picked out of an enumeration's visited
    records: the best of each (moved, rows) shape (fewest cycles, then
    the smallest BB tuple) and the optimum (by its moved BB ids)."""
    records = list(visited)
    best: dict[tuple[int, int], VisitedConfiguration] = {}
    for config in records:
        shape = (config.moved_kernel_count, config.cgc_rows_used)
        incumbent = best.get(shape)
        if incumbent is None or (
            config.total_cycles, config.moved_bb_ids
        ) < (incumbent.total_cycles, incumbent.moved_bb_ids):
            best[shape] = config
    optimum = tuple(sorted(optimum))
    return set(best.values()) | {
        config for config in records if config.moved_bb_ids == optimum
    }
