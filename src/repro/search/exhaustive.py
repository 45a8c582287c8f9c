"""Exhaustive subset search — the ground truth the heuristics are judged
against.

Eq. 2 prices any kernel subset in O(1) per inclusion, so for small
candidate counts (the paper's applications have ≤ 8 meaningful kernels)
every subset can be enumerated outright.  The enumeration walks subsets
in **Gray-code order**: consecutive codes differ in exactly one bit, so
stepping from one configuration to the next is a single integer toggle —
one addition to the running Eq. 2 total, two appends to packed int64
visit columns, no recursion, no object churn.  That is what lets the
default ``max_candidates`` cap sit at 24 (16.7M subsets); an explicit
``max_candidates`` overrides it.  Unsharded, the walk is one in-process
segment of all 2^n − 1 non-empty codes and keeps every visit.  Under a
move budget the walk switches to a budget-pruned depth-first enumeration
(visiting only the subsets within the budget instead of all 2^n codes).

Two composable exact-search modes push the certified range further:

* **Sharded Gray walk** (``shards=k``) — the 2^n Gray-code sequence is
  split into ``k`` contiguous code ranges.  Each worker seeds a running
  Eq. 2 total at its range-start mask (one O(n) materialization —
  ``gray(code) = code ^ (code >> 1)``), walks its segment with the same
  O(1) toggles, and ships back a compact summary: its local optimum,
  visit count, and the lossless ``(moved, rows) -> min cycles`` Pareto
  reduction (a sharded walk keeps no per-visit columns).  The parent
  merges summaries in shard order, so the result and front are
  bit-identical to the serial walk regardless of worker count (fan-out
  rides the same picklable-:class:`~repro.partition.packed.PackedCostTable`
  process machinery as :mod:`repro.explore`, serial fallback included).
* **Exact branch-and-bound** (``prune=True``) — kernels sorted by
  best-case per-kernel gain; because the Eq. 2 objective is additive
  over kernels, the suffix sums of the remaining negative deltas are an
  admissible bound on any subtree's achievable total.  A subtree is cut
  only when that bound shows it can affect **neither** the optimum
  (strict tick-level comparison, so tie-broken optima survive) **nor**
  the Pareto reduction (a shape-aware test against the evolving
  ``(moved, rows)`` incumbents, with ``<=`` so tie representatives
  survive) — certified-identical optima *and* fronts, at a fraction of
  the visits.  The bound is budget-aware, so ``prune=True`` also
  replaces the budget-pruned DFS for ``move_budget`` runs.  Sharded
  B&B decomposes over the 2^s assignments of the s most-gainful
  kernels; each prefix task is an independent B&B.

Every mode picks its optimum by one rule,
:class:`~repro.search.base.Optimum` (minimum total ticks, tie-broken by
fewer moves then lexicographic BB ids), and reduces its visits by one
rule, :class:`~repro.partition.packed.ShapeReduction` — the same optimum
and front as the object depth-first walk in ``tests/oracles/`` that the
differential tests compare it against.
"""

from __future__ import annotations

import os
import time
from array import array
from collections.abc import MutableSequence
from dataclasses import dataclass

from .. import telemetry
from ..parallel import map_tasks
from ..partition.packed import ShapeReduction
from ..partition.result import PartitionResult
from .base import Optimum, Partitioner, check_params, register_algorithm

#: Hot enumeration loops poll an armed deadline every this-many + 1
#: visits — cheap enough for the hot path, frequent enough that an
#: expired budget cuts within milliseconds.
DEADLINE_CHECK_MASK = 0x1FFF


#: One exact-search fan-out unit's compact summary (picklable).
@dataclass
class ShardOutcome:
    """What one shard / branch-and-bound task ships back."""

    shard: int
    visits: int
    pruned_subtrees: int
    seconds: float
    #: Local optimum by the :class:`~repro.search.base.Optimum` rule;
    #: None when the task's subspace is empty (e.g. a prefix over the
    #: move budget).
    best_total: int | None
    best_count: int
    best_mask: int
    #: Raw visit columns, in deterministic walk order (unsharded runs).
    ticks: object | None
    masks: object | None
    #: The lossless (moved, rows) -> (cycles, mask) Pareto reduction
    #: (sharded runs; None when the raw columns are shipped instead).
    shape_items: tuple | None
    #: True when the task stopped at an expired deadline before
    #: exhausting its subspace (its best is best-so-far, not certified).
    partial: bool = False

    @property
    def configs_per_second(self) -> float:
        return self.visits / self.seconds if self.seconds > 0 else 0.0


def _walk_shard(task) -> ShardOutcome:
    """Walk one contiguous Gray-code segment ``[lo, hi)``.

    The segment's first configuration is materialized once
    (``mask = gray(lo)``, one O(n) Eq. 2 sum); every following step is
    the usual O(1) toggle, so concatenating all shards' columns in
    shard order reproduces the whole walk's log exactly.  With ``keep``
    the visits go to columns — packed int64 arrays whenever every value
    fits (n ≤ 62 bits of mask, tick totals bounded by initial ±
    Σ|delta|), lists otherwise; without it they fold into a
    :class:`ShapeReduction`.

    ``deadline`` (a re-anchoring :class:`~repro.faults.Deadline`, or
    None) is polled every :data:`DEADLINE_CHECK_MASK` + 1 codes; an
    expired shard stops and ships back its best-so-far with
    ``partial=True``.
    """
    table, shard, lo, hi, keep, deadline = task
    started = time.perf_counter()
    n = len(table)
    deltas = table.move_delta
    delta_by_bit = {1 << i: deltas[i] for i in range(n)}
    mask = lo ^ (lo >> 1)
    total = table.total_ticks_of(mask)
    best = Optimum(table, total, mask)
    offer = best.offer
    best_total = total

    ticks_col: MutableSequence[int] | None = None
    masks_col: MutableSequence[int] | None = None
    shapes: ShapeReduction | None = None
    if keep:
        max_total = table.initial_ticks + sum(abs(d) for d in deltas)
        if n <= 62 and max_total < (1 << 62):
            ticks_col, masks_col = array("q"), array("q")
        else:
            ticks_col, masks_col = [], []
        append_ticks = ticks_col.append
        append_masks = masks_col.append
        append_ticks(total)
        append_masks(mask)
    else:
        shapes = ShapeReduction(table)
        fold = shapes.add
        fold(total, mask)

    visited = hi - lo
    partial = False
    for code in range(lo + 1, hi):
        if (
            deadline is not None
            and not code & DEADLINE_CHECK_MASK
            and deadline.expired()
        ):
            visited = code - lo
            partial = True
            break
        bit = code & -code
        if mask & bit:
            total -= delta_by_bit[bit]
        else:
            total += delta_by_bit[bit]
        mask ^= bit
        if keep:
            append_ticks(total)
            append_masks(mask)
        else:
            fold(total, mask)
        if total <= best_total:
            best_total = offer(total, mask)
    return ShardOutcome(
        shard=shard,
        visits=visited,
        pruned_subtrees=0,
        seconds=time.perf_counter() - started,
        best_total=best.total,
        best_count=best.count,
        best_mask=best.mask,
        ticks=ticks_col,
        masks=masks_col,
        shape_items=None if shapes is None else tuple(shapes.best.items()),
        partial=partial,
    )


def _bb_shard(task) -> ShardOutcome:
    """One branch-and-bound task: DFS over the non-prefix kernels with
    the prefix assignment ``p`` fixed.

    Kernels are ordered by ascending move delta (most gainful first),
    so the suffix prefix-sums of the negative deltas bound any
    subtree's achievable Eq. 2 gain; with a move budget of ``k`` moves
    left the bound takes the ``k`` best remaining gains.  A subtree is
    pruned only when it can neither beat/tie the incumbent optimum
    (strict ``>`` on ticks, so tick-level ties stay explored and the
    moves/BB-tuple tie-break is preserved) nor update any ``(moved,
    rows)`` Pareto-reduction incumbent (``<=`` on cycles, so
    cycle-level tie representatives are preserved) — which is what
    makes the pruned front bit-identical to the unpruned one.

    An armed ``deadline`` is polled every :data:`DEADLINE_CHECK_MASK` + 1
    recorded visits; expiry unwinds the DFS and ships the best-so-far
    with ``partial=True``.
    """
    table, shard, p, s, order, budget, keep, slack, deadline = task
    started = time.perf_counter()
    deltas = table.move_delta
    rest = order[s:]
    len_rest = len(rest)

    mask = 0
    total = table.initial_ticks
    count = 0
    for j in range(s):
        if p >> j & 1:
            i = order[j]
            mask |= 1 << i
            total += deltas[i]
            count += 1
    if budget is not None and count > budget:
        # Every configuration of this prefix exceeds the move budget —
        # the whole task's subspace is outside the search space.
        return ShardOutcome(
            shard=shard, visits=0, pruned_subtrees=0,
            seconds=time.perf_counter() - started,
            best_total=None, best_count=0, best_mask=0,
            ticks=[] if keep else None, masks=[] if keep else None,
            shape_items=None if keep else (),
        )

    # Admissible gain bound: rest[] is sorted by ascending delta, so
    # its negative deltas form the prefix rest[:neg]; the best
    # achievable gain from rest[j:] with at most k inclusions is the
    # sum of its first min(k, neg - j) entries.
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
    fold = shapes.add
    cols_ticks: list[int] | None = [] if keep else None
    cols_masks: list[int] | None = [] if keep else None
    visits = 0
    pruned = 0
    stopped = False
    best = Optimum(table, total, mask, count)

    def record(t: int, m: int, c: int) -> None:
        nonlocal visits, stopped
        visits += 1
        if (
            deadline is not None
            and not visits & DEADLINE_CHECK_MASK
            and deadline.expired()
        ):
            stopped = True
        if keep:
            cols_ticks.append(t)  # type: ignore[union-attr]
            cols_masks.append(m)  # type: ignore[union-attr]
        fold(t, m)
        best.offer(t, m, c)

    def could_update_shapes(
        j: int, t: int, c: int, r0: int, k_left: int
    ) -> bool:
        cmax = min(k_left, len_rest - j)
        for extra in range(1, cmax + 1):
            min_cycles = -(-(t + gain(j, extra)) // ratio)
            m = c + extra
            for r in distinct_rows:
                if r < r0:
                    continue
                incumbent = shape_best.get((m, r))
                if incumbent is None or min_cycles <= incumbent[0]:
                    return True
        return False

    def walk(j: int, t: int, m: int, c: int) -> None:
        nonlocal pruned
        if j == len_rest or stopped:
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
        # A non-empty prefix is itself a visited configuration (the
        # all-FPGA mask 0 was already logged by the parent's run()).
        record(total, mask, count)
    else:
        fold(total, 0)
    walk(0, total, mask, count)
    return ShardOutcome(
        shard=shard,
        visits=visits,
        pruned_subtrees=pruned,
        seconds=time.perf_counter() - started,
        best_total=best.total,
        best_count=best.count,
        best_mask=best.mask,
        ticks=cols_ticks,
        masks=cols_masks,
        shape_items=None if keep else tuple(shape_best.items()),
        partial=stopped,
    )


@register_algorithm
class ExhaustivePartitioner(Partitioner):
    """Optimal kernel subset by complete enumeration."""

    algorithm = "exhaustive"

    #: Default candidate caps when ``max_candidates`` is None, resolved
    #: per exact-search mode — 2^n is cheap on the Gray walk, cheaper
    #: still sharded across cores, and the branch-and-bound certifies
    #: far past what enumeration can visit.
    PACKED_DEFAULT_MAX_CANDIDATES = 24
    SHARDED_DEFAULT_MAX_CANDIDATES = 32
    PRUNED_DEFAULT_MAX_CANDIDATES = 40

    def __init__(
        self,
        *args,
        max_candidates: int | None = None,
        shards: int | None = None,
        prune: bool = False,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        check_params(
            self.algorithm, max_candidates=max_candidates, shards=shards
        )
        self.max_candidates = max_candidates
        #: Contiguous Gray-code segments to fan out; a sharded search
        #: keeps the Pareto reduction instead of per-visit columns (a
        #: 2^32-scale walk cannot afford them), an unsharded one keeps
        #: every visit.
        self.shards = shards
        #: Exact branch-and-bound instead of full enumeration.
        self.prune = prune
        #: Branch-and-bound subtrees cut by the additive bound.
        self.pruned_subtrees = 0
        #: Per-shard / per-B&B-task stats dicts, in merge order.
        self.shard_outcomes: list[dict[str, object]] = []
        #: Test hook: loosens the optimum bound by this many ticks (a
        #: worse bound can only explore more, never less — the
        #: monotonicity property the tests pin).
        self._bound_slack = 0
        #: The optimal configuration bitmask once enumerated; the
        #: optimum is constraint-independent so one enumeration serves
        #: every run() of a sweep.
        self._best_mask: int | None = None
        if max_candidates is not None:
            self._validate_candidate_count(max_candidates)

    def _validate_candidate_count(self, max_candidates: int) -> None:
        """Fail at construction, not deep inside the enumeration, when
        the workload's kernel count exceeds an explicit cap."""
        candidates = self.workload.kernel_candidates(self.weight_model)
        if len(candidates) <= max_candidates:
            return
        # Unsupported kernels never enter the enumeration, so only the
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
                f"allows at most that many (2^{supported} subsets); raise "
                "max_candidates explicitly if you really want this"
            )

    def _candidate_cap(self) -> int:
        if self.max_candidates is not None:
            return self.max_candidates
        if self.prune:
            return self.PRUNED_DEFAULT_MAX_CANDIDATES
        if self.shards is not None and self.shards > 1:
            return self.SHARDED_DEFAULT_MAX_CANDIDATES
        return self.PACKED_DEFAULT_MAX_CANDIDATES

    def _enumerate(self) -> int:
        if self._best_mask is not None:
            return self._best_mask
        table = self._checked_table()
        n = len(table)
        cap = self._candidate_cap()
        if n > cap:
            raise ValueError(
                f"{n} kernel candidates exceed the exhaustive "
                f"limit of {cap} (2^n subsets); raise "
                "max_candidates explicitly if you really want this"
            )
        budget = self.move_budget
        if budget is not None and budget >= n:
            budget = None
        keep = self.shards is None
        if not keep:
            self._log.drop_visits(table)
        if self.prune:
            self._best_mask = self._branch_and_bound(n, budget, keep)
        elif budget is None:
            self._best_mask = self._sharded_walk(n, keep)
        elif keep:
            self._best_mask = self._budgeted_walk(n, budget)
        else:
            raise ValueError(
                "a move budget combined with shards requires "
                "prune=True (the sharded Gray walk enumerates the "
                "full mask space)"
            )
        return self._best_mask

    def _resolve_workers(self, task_count: int) -> int:
        workers = self.config.search_workers
        if workers is None:
            workers = os.cpu_count() or 1
        return max(1, min(workers, task_count))

    def _absorb_outcomes(self, outcomes: list[ShardOutcome]) -> int:
        """Merge shard summaries in deterministic shard order; returns
        the globally optimal mask (the all-FPGA origin is the baseline,
        exactly as in one whole walk)."""
        log = self._log
        best = Optimum(self.table, self.table.initial_ticks, 0)
        for outcome in outcomes:
            if outcome.partial:
                self._mark_partial()
            if outcome.shape_items is None:
                log.absorb_columns(outcome.ticks, outcome.masks)
            else:
                log.absorb_reduced(outcome.visits, outcome.shape_items)
            telemetry.count("shard_merges")
            if outcome.pruned_subtrees:
                telemetry.count(
                    "pruned_subtrees", outcome.pruned_subtrees
                )
            self.pruned_subtrees += outcome.pruned_subtrees
            self.shard_outcomes.append(
                {
                    "shard": outcome.shard,
                    "visits": outcome.visits,
                    "pruned_subtrees": outcome.pruned_subtrees,
                    "seconds": outcome.seconds,
                    "configs_per_second": outcome.configs_per_second,
                }
            )
            if outcome.best_total is not None:
                best.offer(
                    outcome.best_total, outcome.best_mask, outcome.best_count
                )
        return best.mask

    def _sharded_walk(self, n: int, keep: bool) -> int:
        """The Gray-code walk over ``shards`` contiguous code segments,
        or over one in-process segment when ``shards`` is unset."""
        table = self.table
        shards = self.shards or 1
        codes = (1 << n) - 1  # codes 1 .. 2^n-1 (mask 0 is the origin)
        shards = max(1, min(shards, codes)) if codes else 1
        tasks = []
        for index in range(shards):
            lo = 1 + (codes * index) // shards
            hi = 1 + (codes * (index + 1)) // shards
            if lo < hi:
                tasks.append((table, index, lo, hi, keep, self._deadline))
        if not tasks:
            return 0
        outcomes, _ = map_tasks(
            _walk_shard,
            tasks,
            self._resolve_workers(len(tasks)),
            what="Gray-code shards",
        )
        return self._absorb_outcomes(outcomes)

    def _branch_and_bound(
        self, n: int, budget: int | None, keep: bool
    ) -> int:
        """Exact additive-bound B&B, optionally prefix-decomposed into
        2^s independent tasks over the s most-gainful kernels."""
        table = self.table
        shards = self.shards or 1
        s = 0
        while (1 << s) < shards and s < n:
            s += 1
        order = tuple(
            sorted(range(n), key=lambda i: (table.move_delta[i], i))
        )
        tasks = [
            (
                table, p, p, s, order, budget, keep,
                self._bound_slack, self._deadline,
            )
            for p in range(1 << s)
        ]
        outcomes, _ = map_tasks(
            _bb_shard,
            tasks,
            self._resolve_workers(len(tasks)),
            what="branch-and-bound tasks",
        )
        return self._absorb_outcomes(outcomes)

    def _budgeted_walk(self, n: int, budget: int) -> int:
        """Depth-first enumeration of the subsets within the budget."""
        table = self.table
        deltas = table.move_delta
        log = self._log
        deadline = self._deadline
        visits = 0
        stopped = False
        best = Optimum(table, table.initial_ticks, 0)

        def walk(index: int, total: int, mask: int, count: int) -> None:
            nonlocal visits, stopped
            if index == n or stopped:
                return
            walk(index + 1, total, mask, count)
            if count >= budget or stopped:
                return
            total += deltas[index]
            mask |= 1 << index
            log.record_unchecked(total, mask)
            best.offer(total, mask, count + 1)
            visits += 1
            if (
                deadline is not None
                and not visits & DEADLINE_CHECK_MASK
                and deadline.expired()
            ):
                stopped = True
                return
            walk(index + 1, total, mask, count + 1)

        walk(0, table.initial_ticks, 0, 0)
        if stopped:
            self._mark_partial()
        return best.mask

    def _search(
        self, timing_constraint: int, result: PartitionResult
    ) -> None:
        self._fill_result_from_mask(
            result, self._enumerate(), timing_constraint
        )
