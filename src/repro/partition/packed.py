"""Packed struct-of-arrays cost tables — the one pricing substrate.

Eq. 2 of the paper is a sum of independent per-block terms, so once every
kernel is priced, a candidate configuration is nothing but a *bitmask*
over the kernels (bit i set = kernel i moved to the coarse-grain fabric)
and its cost is a handful of integer additions.  This module packs the
per-block terms of a :class:`~repro.partition.costs.CostModel` into flat
columns, so the search hot loops run on plain ints:

* :class:`PackedCostTable` — per-kernel ``fpga_ticks`` / ``cgc_ticks`` /
  ``comm_ticks`` / ``move_delta`` / ``cgc_rows`` columns in canonical
  Eq. 1 order, derived **once** from a :class:`CostModel` and
  bit-identical to it (the differential suite against the object
  reference in ``tests/oracles/`` is the proof).  The table
  holds only plain tuples of ints, so it pickles in microseconds and the
  explore / suite layers ship one table across every (algorithm ×
  constraint) grid cell of a (workload, platform) pair instead of
  remapping every block per cell.
* Precomputed per-row max tables (``row_masks``): the peak-CGC-rows
  objective of a configuration is ``max`` over its moved kernels, which
  the row masks answer with a couple of integer ANDs — no per-kernel
  walk.
* :class:`PackedVisitLog` — the visited-configuration log as two
  parallel columns ``(total_ticks, mask)``, materialized to
  :class:`~repro.search.pareto.VisitedConfiguration` records lazily so
  recording a configuration costs two list appends.
* :class:`ShapeReduction` — the lossless per-(moved, rows) Pareto
  reduction a visit log folds into, and the one place the Pareto
  incumbent rule is written.
* :class:`PackedGreedyTrajectory` — the constraint-independent Figure 2
  decision sequence computed on the columns, which the greedy
  partitioner replays through
  :func:`~repro.partition.trajectory.replay_entries`.

Timebase and rounding are shared with :class:`CostModel`: everything in
CGC ticks, converted to FPGA cycles by a single largest-remainder
rounding at the boundary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from .. import telemetry
from ..analysis.weights import WeightModel
from .costs import ceil_ticks_to_cycles, split_ticks_single_rounding
from .trajectory import MOVED, REVERTED, SKIPPED, TrajectoryEntry

if TYPE_CHECKING:  # pragma: no cover - typing-only (avoids re-export)
    from .costs import CostModel


class PackedCostTable:
    """Struct-of-arrays Eq. 2 terms for one (workload, platform) pair.

    Kernels are indexed ``0..n-1`` in the canonical Eq. 1 order
    (descending total weight, ascending BB id) — the same order every
    partitioner visits candidates in — and a configuration is an int
    bitmask over those indices.  Unsupported kernels never get an index;
    they live in ``skipped_bb_ids`` (and as ``-1`` entries of
    ``candidates``) so the greedy bookkeeping can interleave them in
    Eq. 1 order.
    """

    __slots__ = (
        "workload_name",
        "platform_name",
        "clock_ratio",
        "initial_ticks",
        "bb_ids",
        "fpga_ticks",
        "cgc_ticks",
        "comm_ticks",
        "move_delta",
        "cgc_rows",
        "weights",
        "skipped_bb_ids",
        "candidates",
        "row_masks",
        "_index",
    )

    def __init__(
        self,
        *,
        workload_name: str,
        platform_name: str,
        clock_ratio: int,
        initial_ticks: int,
        bb_ids: tuple[int, ...],
        fpga_ticks: tuple[int, ...],
        cgc_ticks: tuple[int, ...],
        comm_ticks: tuple[int, ...],
        move_delta: tuple[int, ...],
        cgc_rows: tuple[int, ...],
        weights: tuple[int, ...],
        skipped_bb_ids: tuple[int, ...],
        candidates: tuple[tuple[int, int], ...],
    ) -> None:
        self.workload_name = workload_name
        self.platform_name = platform_name
        self.clock_ratio = clock_ratio
        #: The all-FPGA Eq. 2 total of the whole workload, in ticks.
        self.initial_ticks = initial_ticks
        self.bb_ids = bb_ids
        self.fpga_ticks = fpga_ticks
        self.cgc_ticks = cgc_ticks
        self.comm_ticks = comm_ticks
        self.move_delta = move_delta
        self.cgc_rows = cgc_rows
        #: Eq. 1 total weight per kernel (multi-start jitters these).
        self.weights = weights
        #: Unsupported kernels, in candidate order.
        self.skipped_bb_ids = skipped_bb_ids
        #: Full Eq. 1 candidate sequence as (bb_id, index | -1).
        self.candidates = candidates
        #: (rows, mask of kernels occupying exactly that many rows),
        #: descending — the per-row max tables behind rows_used().
        distinct: dict[int, int] = {}
        for index, rows in enumerate(cgc_rows):
            distinct[rows] = distinct.get(rows, 0) | (1 << index)
        self.row_masks = tuple(
            (rows, distinct[rows]) for rows in sorted(distinct, reverse=True)
        )
        self._index = {bb_id: i for i, bb_id in enumerate(bb_ids)}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_model(
        cls, model: "CostModel", weight_model: WeightModel | None = None
    ) -> "PackedCostTable":
        """Derive the table from a :class:`CostModel` (prices every
        block once through the model's caches; the columns are the
        model's own :class:`BlockContribution` ints, verbatim)."""
        with telemetry.span("price_table"):
            return cls._from_model(model, weight_model)

    @classmethod
    def _from_model(
        cls, model: "CostModel", weight_model: WeightModel | None = None
    ) -> "PackedCostTable":
        telemetry.count("cost_table_builds")
        weight_model = weight_model or WeightModel()
        bb_ids: list[int] = []
        fpga: list[int] = []
        cgc: list[int] = []
        comm: list[int] = []
        delta: list[int] = []
        rows: list[int] = []
        weights: list[int] = []
        skipped: list[int] = []
        candidates: list[tuple[int, int]] = []
        for kernel in model.kernel_candidates(weight_model):
            contribution = model.contribution(kernel)
            if contribution.supported:
                assert contribution.cgc_ticks is not None
                candidates.append((kernel.bb_id, len(bb_ids)))
                bb_ids.append(kernel.bb_id)
                fpga.append(contribution.fpga_ticks)
                cgc.append(contribution.cgc_ticks)
                comm.append(contribution.comm_ticks)
                delta.append(contribution.move_delta)
                rows.append(contribution.cgc_rows)
                weights.append(kernel.total_weight(weight_model))
            else:
                candidates.append((kernel.bb_id, -1))
                skipped.append(kernel.bb_id)
        return cls(
            workload_name=model.workload.name,
            platform_name=model.platform.name,
            clock_ratio=model.platform.clock_ratio,
            initial_ticks=model.initial_ticks(),
            bb_ids=tuple(bb_ids),
            fpga_ticks=tuple(fpga),
            cgc_ticks=tuple(cgc),
            comm_ticks=tuple(comm),
            move_delta=tuple(delta),
            cgc_rows=tuple(rows),
            weights=tuple(weights),
            skipped_bb_ids=tuple(skipped),
            candidates=tuple(candidates),
        )

    # ------------------------------------------------------------------
    # Pickle / equality (slots classes need explicit support)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, object]:
        return {
            "workload_name": self.workload_name,
            "platform_name": self.platform_name,
            "clock_ratio": self.clock_ratio,
            "initial_ticks": self.initial_ticks,
            "bb_ids": self.bb_ids,
            "fpga_ticks": self.fpga_ticks,
            "cgc_ticks": self.cgc_ticks,
            "comm_ticks": self.comm_ticks,
            "move_delta": self.move_delta,
            "cgc_rows": self.cgc_rows,
            "weights": self.weights,
            "skipped_bb_ids": self.skipped_bb_ids,
            "candidates": self.candidates,
        }

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__init__(**state)  # type: ignore[misc]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedCostTable):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self) -> int:  # identity-free: the columns are the table
        return hash((self.workload_name, self.platform_name, self.bb_ids))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.bb_ids)

    def index_of(self, bb_id: int) -> int:
        try:
            return self._index[bb_id]
        except KeyError:
            raise KeyError(f"BB {bb_id} is not a supported kernel") from None

    def mask_of(self, bb_ids: Iterable[int]) -> int:
        """Encode a kernel subset (by BB id) as a bitmask."""
        mask = 0
        for bb_id in bb_ids:
            mask |= 1 << self.index_of(bb_id)
        return mask

    def bb_ids_of(self, mask: int) -> tuple[int, ...]:
        """Decode a bitmask to the sorted BB-id tuple the logs report."""
        bb_ids = self.bb_ids
        return tuple(
            sorted(i_bb for i, i_bb in enumerate(bb_ids) if mask >> i & 1)
        )

    def ticks_of(self, mask: int) -> tuple[int, int, int]:
        """(fpga, cgc, comm) tick totals of a configuration."""
        fpga = self.initial_ticks
        cgc = comm = 0
        for i in range(len(self.bb_ids)):
            if mask >> i & 1:
                fpga -= self.fpga_ticks[i]
                cgc += self.cgc_ticks[i]
                comm += self.comm_ticks[i]
        return fpga, cgc, comm

    def total_ticks_of(self, mask: int) -> int:
        total = self.initial_ticks
        for i in range(len(self.bb_ids)):
            if mask >> i & 1:
                total += self.move_delta[i]
        return total

    def rows_used(self, mask: int) -> int:
        """Peak CGC rows of a configuration via the per-row max tables."""
        for rows, row_mask in self.row_masks:
            if mask & row_mask:
                return rows
        return 0

    # ------------------------------------------------------------------
    # Tick -> cycle conversion (identical to CostModel's, by contract)
    # ------------------------------------------------------------------
    def initial_cycles(self) -> int:
        return self.ticks_to_cycles(self.initial_ticks)

    def ticks_to_cycles(self, ticks: int) -> int:
        return ceil_ticks_to_cycles(ticks, self.clock_ratio)

    def split_ticks(
        self, fpga_t: int, cgc_t: int, comm_t: int
    ) -> tuple[int, int, int, int]:
        """(fpga, cgc, comm, total) FPGA cycles, rounded *once* — the
        same :func:`~repro.partition.costs.split_ticks_single_rounding`
        :class:`CostModel` uses, by shared code."""
        return split_ticks_single_rounding(
            self.clock_ratio, fpga_t, cgc_t, comm_t
        )


class ShapeReduction:
    """The lossless ``(moved, rows) -> (min cycles, mask)`` Pareto reduction.

    For a fixed (moved, rows) shape, any configuration with more cycles
    is dominated by that shape's min-cycles one, so only the per-shape
    minimum can reach the Pareto front.  This is the one home of the
    Pareto incumbent rule: the fewest cycles per shape, exact cycle ties
    to the lexicographically smallest BB tuple.  The working set stays
    at O(distinct shapes) however many visits stream through, and
    folding is order-independent (the rule is a deterministic minimum).
    The closed-form exact search in :mod:`repro.search.exhaustive`
    computes each shape's incumbent directly.
    """

    __slots__ = ("best", "_ratio", "_rows_used", "_bb_ids_of", "_decoded")

    def __init__(self, table: PackedCostTable) -> None:
        #: (moved_count, rows_used) -> (total_cycles, mask).
        self.best: dict[tuple[int, int], tuple[int, int]] = {}
        self._ratio = table.clock_ratio
        self._rows_used = table.rows_used
        self._bb_ids_of = table.bb_ids_of
        self._decoded: dict[int, tuple[int, ...]] = {}

    def add(self, total_ticks: int, mask: int) -> None:
        """Fold one visited configuration."""
        key = (mask.bit_count(), self._rows_used(mask))
        cycles = -(-total_ticks // self._ratio)
        incumbent = self.best.get(key)
        # Early-out for the common dominated visit; merge decides.
        if incumbent is None or cycles <= incumbent[0]:
            self.merge(key, cycles, mask)

    def merge(self, key: tuple[int, int], cycles: int, mask: int) -> None:
        """Fold one ``(moved, rows) -> (cycles, mask)`` entry."""
        incumbent = self.best.get(key)
        if (
            incumbent is None
            or cycles < incumbent[0]
            or (
                cycles == incumbent[0]
                and mask != incumbent[1]
                and self._ids(mask) < self._ids(incumbent[1])
            )
        ):
            self.best[key] = (cycles, mask)

    def _ids(self, mask: int) -> tuple[int, ...]:
        ids = self._decoded.get(mask)
        if ids is None:
            ids = self._decoded[mask] = self._bb_ids_of(mask)
        return ids


class PackedVisitLog:
    """Visited configurations as (total_ticks, mask) columns.

    ``record`` deduplicates by mask (the heuristics revisit subsets).
    The columns are plain lists, as masks can exceed 64 bits on
    kernel-rich workloads.
    """

    __slots__ = ("ticks", "masks", "_seen")

    def __init__(self) -> None:
        self.ticks: list[int] = []
        self.masks: list[int] = []
        self._seen: set[int] = set()

    def __len__(self) -> int:
        return len(self.masks)

    def record(self, total_ticks: int, mask: int) -> None:
        if mask in self._seen:
            return
        self._seen.add(mask)
        self.ticks.append(total_ticks)
        self.masks.append(mask)

    def entries(self) -> Iterator[tuple[int, int]]:
        return zip(self.ticks, self.masks, strict=True)


class PackedGreedyTrajectory:
    """The Figure 2 decision sequence computed on packed columns.

    Lazily extended: strict unsupported-kernel mode raises only when a
    replay actually reaches the offending kernel, which stays pending
    (a retried replay raises again), so an early constraint stop never
    trips it.
    """

    def __init__(
        self,
        table: PackedCostTable,
        *,
        skip_unsupported_kernels: bool = True,
        allow_regressing_moves: bool = False,
    ) -> None:
        self.table = table
        self.skip_unsupported_kernels = skip_unsupported_kernels
        self.allow_regressing_moves = allow_regressing_moves
        self.entries: list[TrajectoryEntry] = []
        self._fpga = table.initial_ticks
        self._cgc = 0
        self._comm = 0
        self._mask = 0
        self._next = 0
        #: Mask after each entry (parallel to ``entries``) so replays
        #: can log visited configurations without re-deriving subsets.
        self.masks: list[int] = []

    def _extend(self) -> bool:
        table = self.table
        if self._next >= len(table.candidates):
            return False
        bb_id, index = table.candidates[self._next]
        if index < 0:
            if not self.skip_unsupported_kernels:
                raise ValueError(
                    f"kernel BB {bb_id} cannot execute on the coarse-grain "
                    "data-path"
                )
            action = SKIPPED
        elif table.move_delta[index] > 0 and not self.allow_regressing_moves:
            action = REVERTED
        else:
            action = MOVED
            self._fpga -= table.fpga_ticks[index]
            self._cgc += table.cgc_ticks[index]
            self._comm += table.comm_ticks[index]
            self._mask |= 1 << index
        self._next += 1
        self.entries.append(
            TrajectoryEntry(
                bb_id=bb_id,
                action=action,
                fpga_ticks=self._fpga,
                cgc_ticks=self._cgc,
                comm_ticks=self._comm,
            )
        )
        self.masks.append(self._mask)
        return True

    def iter_entries(self) -> Iterator[TrajectoryEntry]:
        index = 0
        while True:
            while index >= len(self.entries):
                if not self._extend():
                    return
            yield self.entries[index]
            index += 1
