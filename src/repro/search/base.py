"""The pluggable partitioning-algorithm protocol.

The paper prescribes one algorithm — the Figure 2 greedy kernel-move
loop.  This module generalizes it: a :class:`Partitioner` is anything
that searches the space of kernel subsets on a pair's
:class:`~repro.partition.packed.PackedCostTable` (subsets are int
bitmasks, priced by integer adds) and returns the same
:class:`~repro.partition.result.PartitionResult` records the greedy loop
produces, so every downstream consumer (reports, exploration grids,
benchmarks) works with any algorithm unchanged.

Algorithms are named by :class:`AlgorithmSpec` — a tiny, hashable,
picklable description that the :mod:`repro.explore` grids use as a
design-space axis and that builds the concrete partitioner on demand
(mirroring ``WorkloadSpec`` / ``PlatformSpec``).

Every partitioner also records each configuration it visits (total
cycles, moved-kernel count, peak CGC rows) for the multi-objective
analysis in :mod:`repro.search.pareto`.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable

from .. import telemetry
from ..analysis.weights import WeightModel
from ..faults import Deadline
from ..partition.costs import CostModel, CostStats
from ..partition.engine import EngineConfig
from ..partition.packed import PackedCostTable, PackedVisitLog
from ..partition.result import PartitionResult
from ..partition.trajectory import commit_step
from ..partition.workload import ApplicationWorkload
from ..platform.soc import HybridPlatform
from .pareto import VisitedConfiguration, pareto_front_from_columns

#: Algorithm name -> partitioner class; populated by @register_algorithm.
_REGISTRY: dict[str, type["Partitioner"]] = {}

#: Names AlgorithmSpec accepts (static so spec validation does not depend
#: on which algorithm modules happen to be imported yet).
ALGORITHM_NAMES = ("greedy", "exhaustive", "multi_start", "annealing")


def register_algorithm(cls: type["Partitioner"]) -> type["Partitioner"]:
    """Class decorator adding a partitioner to the spec registry."""
    _REGISTRY[cls.algorithm] = cls
    return cls


@dataclass(frozen=True)
class AlgorithmSpec:
    """A buildable partitioning algorithm (a grid axis value).

    ``params`` are constructor keyword arguments of the algorithm class,
    stored as a sorted tuple so specs stay hashable and picklable.
    """

    name: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.name not in ALGORITHM_NAMES:
            raise ValueError(
                f"unknown algorithm {self.name!r}; expected one of "
                f"{ALGORITHM_NAMES}"
            )
        check_params(self.name, **dict(self.params))

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def greedy(cls) -> "AlgorithmSpec":
        """The paper's Figure 2 loop."""
        return cls(name="greedy")

    @classmethod
    def exhaustive(
        cls, max_candidates: int | None = None, prune: bool = False
    ) -> "AlgorithmSpec":
        """The optimum over all kernel subsets, in closed form.

        ``max_candidates`` caps the supported kernel count (None: the
        partitioner's default of 256).  ``prune`` is accepted for old
        callers and ignored: the closed form has no search to prune.
        """
        del prune
        return cls(
            name="exhaustive",
            params=(("max_candidates", max_candidates),),
        )

    @classmethod
    def multi_start(
        cls, restarts: int = 8, seed: int = 0, jitter: float = 0.75
    ) -> "AlgorithmSpec":
        """Randomized greedy restarts with seeded tie-breaking."""
        merged = {"restarts": restarts, "seed": seed, "jitter": jitter}
        return cls(name="multi_start", params=tuple(sorted(merged.items())))

    @classmethod
    def annealing(
        cls,
        seed: int = 0,
        initial_temp: float | None = None,
        cooling: float = 0.9,
        temp_levels: int = 30,
        steps_per_temp: int | None = None,
    ) -> "AlgorithmSpec":
        """Simulated annealing over kernel subsets (O(1) tick deltas)."""
        merged = {
            "seed": seed,
            "initial_temp": initial_temp,
            "cooling": cooling,
            "temp_levels": temp_levels,
            "steps_per_temp": steps_per_temp,
        }
        return cls(name="annealing", params=tuple(sorted(merged.items())))

    @property
    def label(self) -> str:
        """Report/query key: the name plus any non-default parameters."""
        defaults = _SPEC_DEFAULTS[self.name]
        deviations = [
            f"{key}={value}"
            for key, value in self.params
            if defaults.get(key, object()) != value
        ]
        if not deviations:
            return self.name
        return self.name + "[" + ",".join(deviations) + "]"

    def build(
        self,
        workload: ApplicationWorkload,
        platform: HybridPlatform,
        weight_model: WeightModel | None = None,
        config: EngineConfig | None = None,
        packed_table: PackedCostTable | None = None,
    ) -> "Partitioner":
        """Construct the concrete partitioner for one (workload, platform).

        ``packed_table`` injects a pre-derived
        :class:`~repro.partition.packed.PackedCostTable` so grids /
        suites price a (workload, platform) pair once and share the
        table across every algorithm and constraint.
        """
        cls = _REGISTRY.get(self.name)
        if cls is None:  # pragma: no cover - registry is import-complete
            raise ValueError(f"algorithm {self.name!r} is not registered")
        return cls(
            workload,
            platform,
            weight_model=weight_model,
            config=config,
            packed_table=packed_table,
            **dict(self.params),
        )


#: Factory defaults per algorithm, consulted by AlgorithmSpec.label so a
#: default-valued parameter never changes the label.
_SPEC_DEFAULTS: dict[str, dict[str, object]] = {
    "greedy": {},
    "exhaustive": {"max_candidates": None},
    "multi_start": {"restarts": 8, "seed": 0, "jitter": 0.75},
    "annealing": {
        "seed": 0,
        "initial_temp": None,
        "cooling": 0.9,
        "temp_levels": 30,
        "steps_per_temp": None,
    },
}


#: Parameter ranges per algorithm: (accepts value, the range in words).
#: Checked when an AlgorithmSpec is built, so a bad CLI argument or job
#: request fails where it enters, and by every partitioner constructor.
_SPEC_RULES: dict[str, dict[str, tuple[Callable[[Any], bool], str]]] = {
    "exhaustive": {
        "max_candidates": (lambda v: v is None or v >= 1, "must be >= 1"),
    },
    "multi_start": {
        "restarts": (lambda v: v >= 1, "must be >= 1"),
        "jitter": (lambda v: 0.0 <= v < 1.0, "must be in [0, 1)"),
    },
    "annealing": {
        "initial_temp": (lambda v: v is None or v > 0.0, "must be positive"),
        "cooling": (lambda v: 0.0 < v < 1.0, "must be in (0, 1)"),
        "temp_levels": (lambda v: v >= 1, "must be >= 1"),
        "steps_per_temp": (lambda v: v is None or v >= 1, "must be >= 1"),
    },
}


def check_params(algorithm: str, **params: object) -> None:
    """Raise :class:`ValueError` naming the first parameter of
    ``algorithm`` that is out of its range (unknown names are left to
    the constructor, which rejects them)."""
    for key, (accepts, rule) in _SPEC_RULES.get(algorithm, {}).items():
        if key not in params:
            continue
        value = params[key]
        try:
            valid = accepts(value)
        except TypeError:
            valid = False
        if not valid:
            raise ValueError(f"{algorithm}: {key} {rule}, got {value!r}")


class Optimum:
    """The exact-search optimum rule: the fewest Eq. 2 ticks, then the
    fewest moves, then the lexicographically smallest BB tuple (decoded
    lazily — exact ties are rare).

    The heuristics keep their best configuration through :meth:`offer`
    (hot loops keep their own inline ``total > best_total`` early-out
    on a local copy of :attr:`total` and offer only the candidates
    that may win or tie).  The closed-form exact search computes this
    rule's winner directly
    (:func:`~repro.search.exhaustive.optimum_mask`); the enumerating
    references it is tested against fold through :meth:`offer`.
    """

    __slots__ = ("total", "count", "mask", "_ids", "_bb_ids_of")

    def __init__(
        self,
        table: PackedCostTable,
        total: int,
        mask: int,
        count: int | None = None,
    ) -> None:
        self._bb_ids_of = table.bb_ids_of
        self.total = total
        self.mask = mask
        self.count = mask.bit_count() if count is None else count
        self._ids: tuple[int, ...] | None = None

    def offer(self, total: int, mask: int, count: int | None = None) -> int:
        """Adopt ``mask`` if it beats the incumbent; returns the
        incumbent's total ticks afterwards."""
        if total > self.total:
            return self.total
        if count is None:
            count = mask.bit_count()
        if total < self.total or count < self.count:
            self.total, self.mask, self.count = total, mask, count
            self._ids = None
        elif count == self.count and mask != self.mask:
            if self._ids is None:
                self._ids = self._bb_ids_of(self.mask)
            ids = self._bb_ids_of(mask)
            if ids < self._ids:
                self.mask, self._ids = mask, ids
        return self.total


def make_partitioner(
    spec: AlgorithmSpec,
    workload: ApplicationWorkload,
    platform: HybridPlatform,
    weight_model: WeightModel | None = None,
    config: EngineConfig | None = None,
    packed_table: PackedCostTable | None = None,
) -> "Partitioner":
    """Convenience wrapper around :meth:`AlgorithmSpec.build`."""
    return spec.build(workload, platform, weight_model, config, packed_table)


class Partitioner(ABC):
    """Base of every partitioning algorithm.

    Subclasses implement :meth:`_search`, which fills a pre-initialized
    all-FPGA :class:`PartitionResult` for one timing constraint.  The
    base class owns the packed table — derived on first use, or injected
    via ``packed_table`` so one pricing pass serves a whole (algorithm ×
    constraint) grid — the early exit when the all-FPGA mapping already
    meets the constraint, the visited-configuration log (a column store
    materialized lazily), and the config freeze (algorithm state caches,
    such as the greedy move trajectory, bake the config in).
    """

    #: Registry / report key; subclasses override.
    algorithm = "base"

    def __init__(
        self,
        workload: ApplicationWorkload,
        platform: HybridPlatform,
        weight_model: WeightModel | None = None,
        config: EngineConfig | None = None,
        packed_table: PackedCostTable | None = None,
    ):
        self.workload = workload
        self.platform = platform
        self.weight_model = weight_model or WeightModel()
        self.config = config or EngineConfig()
        self.stats = CostStats()
        #: Injected or lazily derived packed table.  An injected table
        #: must have been derived with the same weight model and pricing
        #: flags this partitioner runs under (the resolver guarantees
        #: that by keying tables on them).
        self._table = packed_table
        self._log = PackedVisitLog()
        self._materialized: list[VisitedConfiguration] | None = None
        self._config_snapshot: EngineConfig | None = None
        #: Cooperative budget for the current run (see :meth:`run`).
        self._deadline: Deadline | None = None
        #: Sticky truncation flag: once a run is cut short, the caches
        #: engines share across a sweep (best-so-far, walk frontiers)
        #: are incomplete, so every later result from this instance is
        #: also uncertified.
        self._partial = False

    @property
    def table(self) -> PackedCostTable:
        """The packed cost table, derived on first use unless one was
        injected — lazily, so the config flags it bakes in are the ones
        in force at the first run (mutations before then are honoured).
        Pricing work goes to :attr:`stats`."""
        if self._table is None:
            model = CostModel(
                self.workload,
                self.platform,
                charge_single_partition_reconfig=(
                    self.config.charge_single_partition_reconfig
                ),
                stats=self.stats,
            )
            self._table = PackedCostTable.from_model(model, self.weight_model)
        return self._table

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def initial_cycles(self) -> int:
        """All-FPGA execution time in FPGA cycles."""
        self._freeze_config()
        return self.table.initial_cycles()

    def run(
        self,
        timing_constraint: int,
        deadline: Deadline | None = None,
    ) -> PartitionResult:
        """Search against a timing constraint in FPGA clock cycles.

        ``deadline`` is a cooperative :class:`~repro.faults.Deadline`
        budget, checked before the search starts; annealing and
        multi-start also poll it at visit-batch boundaries and stop with
        their best-so-far when it expires, returning a result flagged
        ``partial=True`` (``certified`` False) instead of hanging.  The
        work performed before the cut is deterministic, so an expired
        run is reproducible — only *where* the cut lands depends on
        wall-clock speed.
        """
        if timing_constraint <= 0:
            raise ValueError("timing constraint must be positive")
        self._deadline = deadline
        # One span pair per run (search > algorithm name), never one per
        # visited configuration — telemetry stays off the hot loop.
        with telemetry.span("search"), telemetry.span(self.algorithm):
            visited_before = self.visited_count
            try:
                result = PartitionResult.all_fpga(
                    self.workload.name,
                    self.platform.name,
                    timing_constraint,
                    self.initial_cycles(),
                )
                # The all-FPGA corner is a configuration every algorithm
                # prices (minimal moves and rows — always on the front).
                self._log.record(self.table.initial_ticks, 0)
                if result.constraint_met:
                    result.partial = self._partial
                    return result
                if deadline is not None and deadline.expired():
                    # Expired before any search: the all-FPGA corner is
                    # the best-so-far.
                    self._mark_partial()
                    result.partial = True
                    return result
                self._search(timing_constraint, result)
                result.partial = self._partial
                result.validate()
                return result
            finally:
                self._deadline = None
                telemetry.count(
                    "configs_visited", self.visited_count - visited_before
                )

    def sweep(
        self,
        constraints: list[int],
        deadline: Deadline | None = None,
    ) -> list[PartitionResult]:
        """Run at several constraints, sharing all cached state."""
        return [self.run(constraint, deadline) for constraint in constraints]

    @property
    def visited(self) -> list[VisitedConfiguration]:
        """Every distinct configuration priced so far.

        Materializes the column log to :class:`VisitedConfiguration`
        records on demand (cached until new configurations are
        recorded); prefer :attr:`visited_count`
        or :meth:`pareto_front` when the records themselves are not
        needed.
        """
        log = self._log
        if self._materialized is None or len(self._materialized) != len(log):
            table = self.table
            ratio = table.clock_ratio
            rows_used = table.rows_used
            bb_ids_of = table.bb_ids_of
            algorithm = self.algorithm
            self._materialized = [
                VisitedConfiguration(
                    total_cycles=-(-ticks // ratio),
                    moved_kernel_count=mask.bit_count(),
                    cgc_rows_used=rows_used(mask),
                    moved_bb_ids=bb_ids_of(mask),
                    algorithm=algorithm,
                )
                for ticks, mask in log.entries()
            ]
        return self._materialized

    @property
    def visited_count(self) -> int:
        """``len(visited)`` without materializing the log."""
        return len(self._log)

    def pareto_front(self) -> list[VisitedConfiguration]:
        """Non-dominated subset of everything visited so far."""
        log = self._log
        return pareto_front_from_columns(
            log.ticks, log.masks, self.table, self.algorithm
        )

    def subset_rows_used(self, bb_ids) -> int:
        """Peak CGC rows of a kernel subset (already-priced kernels)."""
        return self.table.rows_used(self.table.mask_of(bb_ids))

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    @abstractmethod
    def _search(
        self, timing_constraint: int, result: PartitionResult
    ) -> None:
        """Fill ``result`` (pre-initialized to the all-FPGA mapping)."""

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------
    def _deadline_expired(self) -> bool:
        """Poll the current run's cooperative budget (engines call this
        at visit-batch boundaries, never per visited configuration)."""
        return self._deadline is not None and self._deadline.expired()

    def _mark_partial(self) -> None:
        """Record that the current (and, via shared caches, every later)
        result from this instance is best-so-far, not certified."""
        self._partial = True
        telemetry.count("search_deadline_cuts")

    def _freeze_config(self) -> None:
        if self._config_snapshot is None:
            self._config_snapshot = dataclasses.replace(self.config)
        elif self.config != self._config_snapshot:
            raise ValueError(
                "EngineConfig mutated after the partitioner ran; build a "
                "new partitioner for a different configuration"
            )

    @property
    def move_budget(self) -> int | None:
        return self.config.max_kernels_moved

    def _checked_table(self) -> PackedCostTable:
        """The packed table, after the strict unsupported-kernel check:
        with ``skip_unsupported_kernels=False`` the first unsupported
        kernel in the Eq. 1 candidate order is rejected outright."""
        table = self.table
        if table.skipped_bb_ids and not self.config.skip_unsupported_kernels:
            raise ValueError(
                f"kernel BB {table.skipped_bb_ids[0]} cannot execute on "
                "the coarse-grain data-path"
            )
        return table

    def _fill_result_from_mask(
        self,
        result: PartitionResult,
        mask: int,
        timing_constraint: int,
    ) -> None:
        """Replay a final configuration bitmask as a move sequence.

        Moves are applied in the canonical Eq. 1 order (packed index
        order), so the step list reads like a greedy trace and the final
        cycle split is identical no matter which order the algorithm
        discovered the subset in (Eq. 2 is additive).
        """
        table = self.table
        result.skipped_bb_ids.extend(table.skipped_bb_ids)
        fpga = table.initial_ticks
        cgc = comm = 0
        for index in range(len(table)):
            if mask >> index & 1:
                fpga -= table.fpga_ticks[index]
                cgc += table.cgc_ticks[index]
                comm += table.comm_ticks[index]
                commit_step(
                    table,
                    result,
                    table.bb_ids[index],
                    (fpga, cgc, comm),
                    timing_constraint,
                )
