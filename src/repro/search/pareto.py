"""Multi-objective view of visited partitioning configurations.

Every :class:`~repro.search.base.Partitioner` records each configuration
it visits as a :class:`VisitedConfiguration` carrying the three
objectives of the design space — total execution cycles, number of moved
kernels, and the peak CGC rows the moved kernels occupy.  All three are
minimized: fewer cycles is faster, fewer moves means less of the
application depends on the coarse-grain fabric, and fewer rows leaves
CGC area for other uses.  :func:`pareto_front` reduces a visited set to
its non-dominated configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..partition.packed import PackedCostTable, ShapeReduction


@dataclass(frozen=True)
class VisitedConfiguration:
    """One hardware/software split an algorithm evaluated."""

    total_cycles: int
    moved_kernel_count: int
    cgc_rows_used: int
    moved_bb_ids: tuple[int, ...]
    algorithm: str = ""

    @property
    def objectives(self) -> tuple[int, int, int]:
        """The minimized objective vector."""
        return (self.total_cycles, self.moved_kernel_count, self.cgc_rows_used)

    def dominates(self, other: "VisitedConfiguration") -> bool:
        """True if this config is no worse in every objective and
        strictly better in at least one."""
        mine, theirs = self.objectives, other.objectives
        return (
            all(a <= b for a, b in zip(mine, theirs, strict=True))
            and mine != theirs
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "total_cycles": self.total_cycles,
            "moved_kernel_count": self.moved_kernel_count,
            "cgc_rows_used": self.cgc_rows_used,
            "moved_bb_ids": list(self.moved_bb_ids),
        }


def pareto_front(
    configurations: Iterable[VisitedConfiguration],
) -> list[VisitedConfiguration]:
    """The non-dominated subset, sorted by the objective vector.

    Configurations with identical objective vectors are collapsed to one
    representative (the lexicographically smallest moved-BB tuple, so the
    front is deterministic regardless of visit order).
    """
    # One representative per objective vector.
    by_objectives: dict[tuple[int, int, int], VisitedConfiguration] = {}
    for config in configurations:
        incumbent = by_objectives.get(config.objectives)
        if incumbent is None or config.moved_bb_ids < incumbent.moved_bb_ids:
            by_objectives[config.objectives] = config
    # Lexicographic sweep instead of the O(k^2) all-pairs check (an
    # enumeration visits 2^n configurations): walking candidates in
    # ascending objective order, every already-accepted point has
    # total_cycles <= the current one, so the current point is dominated
    # iff some accepted point also has moved_count <= and rows <=.  The
    # accepted (moved_count -> min rows) staircase answers that in
    # O(distinct move counts); vector equality is impossible after the
    # dedup above, so <= on all three axes is exactly dominance.
    candidates = sorted(by_objectives.values(), key=lambda c: c.objectives)
    front: list[VisitedConfiguration] = []
    min_rows_by_moved: dict[int, int] = {}
    for config in candidates:
        __, moved, rows = config.objectives
        if any(
            front_moved <= moved and front_rows <= rows
            for front_moved, front_rows in min_rows_by_moved.items()
        ):
            continue
        front.append(config)
        if min_rows_by_moved.get(moved, rows + 1) > rows:
            min_rows_by_moved[moved] = rows
    return front


def reduce_columns_to_best(
    ticks: Sequence[int],
    masks: Sequence[int],
    table: PackedCostTable,
) -> dict[tuple[int, int], tuple[int, int]]:
    """Lossless ``(moved, rows) -> (min cycles, mask)`` reduction of a
    visit log's columns (see :class:`~repro.partition.packed.ShapeReduction`).

    The working set stays at O(distinct (moved, rows) pairs) however
    long the log, instead of one objective-vector dict entry per visit.
    """
    reduction = ShapeReduction(table)
    add = reduction.add
    for total_ticks, mask in zip(ticks, masks, strict=True):
        add(total_ticks, mask)
    return reduction.best


def pareto_front_from_best(
    best: dict[tuple[int, int], tuple[int, int]],
    table,
    algorithm: str,
) -> list[VisitedConfiguration]:
    """The staircase sweep of :func:`pareto_front`, run on a reduced
    ``(moved, rows) -> (cycles, mask)`` map (the output of
    :func:`reduce_columns_to_best`).  Only the front's members are
    materialized to :class:`VisitedConfiguration` records."""
    candidates = sorted(
        (cycles, moved, rows, mask)
        for (moved, rows), (cycles, mask) in best.items()
    )
    front: list[VisitedConfiguration] = []
    min_rows_by_moved: dict[int, int] = {}
    for cycles, moved, rows, mask in candidates:
        if any(
            front_moved <= moved and front_rows <= rows
            for front_moved, front_rows in min_rows_by_moved.items()
        ):
            continue
        front.append(
            VisitedConfiguration(
                total_cycles=cycles,
                moved_kernel_count=moved,
                cgc_rows_used=rows,
                moved_bb_ids=table.bb_ids_of(mask),
                algorithm=algorithm,
            )
        )
        if min_rows_by_moved.get(moved, rows + 1) > rows:
            min_rows_by_moved[moved] = rows
    return front


def pareto_front_from_columns(
    ticks: Sequence[int],
    masks: Sequence[int],
    table,
    algorithm: str,
) -> list[VisitedConfiguration]:
    """The staircase sweep run directly on a packed visited log.

    ``ticks``/``masks`` are the parallel columns of a
    :class:`~repro.partition.packed.PackedVisitLog` and ``table`` the
    :class:`~repro.partition.packed.PackedCostTable` that encoded the
    masks.  Dominated configurations (most of a long log) never become
    Python objects.  Produces
    exactly what :func:`pareto_front` produces for the same visited
    set, including the smallest-moved-tuple tie-break between
    configurations with identical objective vectors.
    """
    best = reduce_columns_to_best(ticks, masks, table)
    return pareto_front_from_best(best, table, algorithm)


def front_of_results(
    fronts: Sequence[Sequence[VisitedConfiguration]],
) -> list[VisitedConfiguration]:
    """Merge several algorithms' fronts into one combined front."""
    merged: list[VisitedConfiguration] = []
    for front in fronts:
        merged.extend(front)
    return pareto_front(merged)
