"""Differential coverage for the exact-search modes.

The contract: the sharded Gray-code walk and the additive-bound
branch-and-bound are *transparent* accelerations of the serial packed
enumeration — identical :class:`PartitionResult` records, identical
Pareto fronts, and (for sharding) identical visit counts, across every
shard count, worker count, and workload family, with or without a move
budget.  The serial unpruned walk is the reference everywhere.
"""

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import object_partitioner
from repro.explore import WorkloadSpec
from repro.partition import EngineConfig
from repro.platform import paper_platform
from repro.search import AlgorithmSpec, make_partitioner
from repro.search.exhaustive import ExhaustivePartitioner, _walk_shard
from repro.workloads import synthetic_application

# Workload families (6–22 supported kernels; synth20 carries a
# zero-delta kernel, so the moves/BB-ids tie-break is exercised too).
WORKLOAD_SPECS = {
    "ofdm": WorkloadSpec.ofdm(),
    "jpeg": WorkloadSpec.jpeg(),
    "filterbank": WorkloadSpec.filterbank(),
    "viterbi": WorkloadSpec.viterbi(),
    "synth12": WorkloadSpec.synthetic(
        12, seed=3, kernel_fraction=0.8, comm_intensity=0.8
    ),
    "synth20": WorkloadSpec.synthetic(
        20, seed=5, kernel_fraction=0.8, comm_intensity=0.5
    ),
    "synth18-comm": WorkloadSpec.synthetic(18, seed=2, comm_intensity=1.5),
    "synth18-skew": WorkloadSpec.synthetic(18, seed=1, weight_skew=3.0),
    "synth14-flat": WorkloadSpec.synthetic(14, seed=7, weight_skew=1.0),
}

#: Families cheap enough to walk 2^n four times over (jpeg's 2^22 serial
#: reference is computed once, but re-walking it per shard count is not
#: worth the wall clock — branch-and-bound covers it below).
SHARD_FAMILIES = tuple(name for name in WORKLOAD_SPECS if name != "jpeg")

SHARD_COUNTS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def platform():
    return paper_platform(1500, 2)


@pytest.fixture(scope="module")
def workloads():
    return {name: spec.build() for name, spec in WORKLOAD_SPECS.items()}


@pytest.fixture(scope="module")
def references(workloads, platform):
    """Serial unpruned enumeration per family: the ground truth every
    exact-search mode must reproduce bit-identically."""
    references = {}
    for name, workload in workloads.items():
        partitioner = make_partitioner(
            AlgorithmSpec.exhaustive(), workload, platform,
            config=EngineConfig(),
        )
        initial = partitioner.initial_cycles()
        constraint = max(1, initial // 2)
        references[name] = {
            "constraint": constraint,
            "result": partitioner.run(constraint),
            "front": partitioner.pareto_front(),
            "visits": partitioner.visited_count,
        }
    return references


def _run(workload, platform, algorithm, constraint, **config_kwargs):
    partitioner = make_partitioner(
        algorithm, workload, platform,
        config=EngineConfig(**config_kwargs),
    )
    result = partitioner.run(constraint)
    return partitioner, result


# ----------------------------------------------------------------------
# Sharded Gray walk
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("family", SHARD_FAMILIES)
def test_sharded_walk_is_bit_identical(
    workloads, platform, references, family, shards
):
    reference = references[family]
    partitioner, result = _run(
        workloads[family], platform, AlgorithmSpec.exhaustive(shards=shards),
        reference["constraint"], search_workers=1,
    )
    assert result == reference["result"]
    assert partitioner.pareto_front() == reference["front"]
    assert partitioner.visited_count == reference["visits"]
    outcomes = partitioner.shard_outcomes
    assert len(outcomes) == min(shards, reference["visits"] - 1)
    # Every non-origin configuration is visited exactly once, somewhere.
    assert sum(o["visits"] for o in outcomes) == reference["visits"] - 1
    assert all(o["pruned_subtrees"] == 0 for o in outcomes)


def test_sharded_walk_worker_count_independent(
    workloads, platform, references
):
    """The same shard split through 1 in-process worker, a real 2-worker
    pool, and the machine default produces identical everything."""
    reference = references["synth20"]
    results, fronts = [], []
    for workers in (1, 2, None):
        partitioner, result = _run(
            workloads["synth20"], platform, AlgorithmSpec.exhaustive(shards=4),
            reference["constraint"], search_workers=workers,
        )
        results.append(result)
        fronts.append(partitioner.pareto_front())
        assert partitioner.visited_count == reference["visits"]
    assert results[0] == results[1] == results[2] == reference["result"]
    assert fronts[0] == fronts[1] == fronts[2] == reference["front"]


def test_sharded_keep_visits_reproduces_serial_columns(
    workloads, platform, references
):
    """Walk segments that keep their visits concatenate, in shard order,
    to the serial walk's visit sequence, record for record — the
    property the sharded walk's reduced merge relies on."""
    reference = references["synth12"]
    serial = make_partitioner(
        AlgorithmSpec.exhaustive(), workloads["synth12"], platform,
        config=EngineConfig(),
    )
    serial.run(reference["constraint"])
    table = serial.table
    codes = (1 << len(table)) - 1
    ticks, masks = [table.initial_ticks], [0]
    for index in range(4):
        lo = 1 + codes * index // 4
        hi = 1 + codes * (index + 1) // 4
        outcome = _walk_shard((table, index, lo, hi, True, None))
        ticks.extend(outcome.ticks)
        masks.extend(outcome.masks)
    assert ticks == list(serial._log.ticks)
    assert masks == list(serial._log.masks)


# ----------------------------------------------------------------------
# Branch-and-bound
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", tuple(WORKLOAD_SPECS))
def test_branch_and_bound_is_bit_identical(
    workloads, platform, references, family
):
    reference = references[family]
    partitioner, result = _run(
        workloads[family], platform, AlgorithmSpec.exhaustive(prune=True),
        reference["constraint"],
    )
    assert result == reference["result"]
    assert partitioner.pareto_front() == reference["front"]
    assert partitioner.visited_count <= reference["visits"]
    if reference["visits"] > 1024:
        # Big enough spaces must actually prune (tiny ones may not).
        assert partitioner.visited_count < reference["visits"]
        assert partitioner.pruned_subtrees > 0


@pytest.mark.parametrize("shards", (2, 4, 8))
@pytest.mark.parametrize("family", ("ofdm", "synth20", "viterbi"))
def test_sharded_branch_and_bound_is_bit_identical(
    workloads, platform, references, family, shards
):
    """Prefix-decomposed B&B: every prefix task prunes against its own
    incumbent, yet the merged optimum and front stay exact."""
    reference = references[family]
    partitioner, result = _run(
        workloads[family], platform,
        AlgorithmSpec.exhaustive(shards=shards, prune=True),
        reference["constraint"], search_workers=1,
    )
    assert result == reference["result"]
    assert partitioner.pareto_front() == reference["front"]
    assert partitioner.visited_count <= reference["visits"]


@pytest.mark.parametrize("budget", (2, 3))
@pytest.mark.parametrize("family", ("ofdm", "jpeg", "synth20", "viterbi"))
def test_budgeted_branch_and_bound_matches_budgeted_walk(
    workloads, platform, references, family, budget
):
    """Under a move budget the B&B replaces the budget-pruned DFS:
    identical results and fronts, never more visits."""
    constraint = references[family]["constraint"]
    walk, walk_result = _run(
        workloads[family], platform, AlgorithmSpec.exhaustive(),
        constraint, max_kernels_moved=budget,
    )
    bnb, bnb_result = _run(
        workloads[family], platform, AlgorithmSpec.exhaustive(prune=True),
        constraint, max_kernels_moved=budget,
    )
    assert bnb_result == walk_result
    assert bnb.pareto_front() == walk.pareto_front()
    assert bnb.visited_count <= walk.visited_count


def test_bound_slack_makes_visits_monotone(workloads, platform, references):
    """Loosening the admissible bound (the ``_bound_slack`` test hook
    adds that many ticks of slack before a subtree may be cut) can only
    grow the visited set — the property that pins the bound's
    admissibility.  Results stay exact at every slack."""
    reference = references["synth20"]
    visits = []
    for slack in (0, 10, 10_000, 10**12):
        partitioner = ExhaustivePartitioner(
            workloads["synth20"], platform, prune=True,
        )
        partitioner._bound_slack = slack
        result = partitioner.run(reference["constraint"])
        assert result == reference["result"]
        assert partitioner.pareto_front() == reference["front"]
        visits.append(partitioner.visited_count)
    assert visits == sorted(visits)
    # Unbounded slack disables optimum pruning outright; the shape-aware
    # front bound is the only cut left, so the walk grows a lot.
    assert visits[0] < visits[-1]


def test_certifies_32_plus_kernels_against_analytic_optimum(platform):
    """The headline: a 2^34 subset space certified in seconds, checked
    against the analytic Eq. 2 optimum (the objective is additive, so
    the unconstrained optimum is initial plus every negative delta and
    the optimal subset is exactly the negative-delta kernels)."""
    workload = WorkloadSpec.synthetic(
        40, seed=9, kernel_fraction=0.85
    ).build()
    partitioner = ExhaustivePartitioner(workload, platform, prune=True)
    table = partitioner.table
    assert len(table) >= 32
    result = partitioner.run(1)  # unreachable: minimize outright
    negative = [
        index for index, delta in enumerate(table.move_delta) if delta < 0
    ]
    analytic_ticks = table.initial_ticks + sum(
        table.move_delta[index] for index in negative
    )
    assert result.final_cycles == table.ticks_to_cycles(analytic_ticks)
    assert tuple(sorted(result.moved_bb_ids)) == table.bb_ids_of(
        sum(1 << index for index in negative)
    )
    assert partitioner.pruned_subtrees > 0
    assert partitioner.visited_count < 2 ** 20  # nowhere near 2^34


# ----------------------------------------------------------------------
# Reduced visit log through the partitioner API
# ----------------------------------------------------------------------
def test_reduced_log_keeps_front_and_counts(
    workloads, platform, references
):
    """``shards=1`` walks in-process but keeps the reduced log."""
    reference = references["synth12"]
    partitioner = ExhaustivePartitioner(
        workloads["synth12"], platform, shards=1,
    )
    partitioner.run(reference["constraint"])
    assert partitioner.visited_count == reference["visits"]
    assert partitioner.pareto_front() == reference["front"]
    with pytest.raises(ValueError, match="reduced away"):
        partitioner.visited


def test_sharded_default_drops_visits(workloads, platform, references):
    """Sharded walks default to the reduced log (a 2^32-scale walk
    cannot afford per-visit columns); the front and count survive."""
    reference = references["synth12"]
    partitioner = ExhaustivePartitioner(
        workloads["synth12"], platform, shards=2,
        config=EngineConfig(search_workers=1),
    )
    partitioner.run(reference["constraint"])
    with pytest.raises(ValueError, match="reduced away"):
        partitioner.visited
    assert partitioner.visited_count == reference["visits"]
    assert partitioner.pareto_front() == reference["front"]


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_invalid_knobs_rejected(workloads, platform):
    workload = workloads["viterbi"]
    with pytest.raises(ValueError, match="shards"):
        ExhaustivePartitioner(workload, platform, shards=0)
    with pytest.raises(ValueError, match="search_workers"):
        EngineConfig(search_workers=0)
    # A move budget cannot ride the (full-space) sharded walk.
    partitioner = ExhaustivePartitioner(
        workload, platform, shards=2,
        config=EngineConfig(max_kernels_moved=2, search_workers=1),
    )
    with pytest.raises(ValueError, match="prune=True"):
        partitioner.run(1)


def test_default_caps_are_mode_aware(workloads, platform):
    assert ExhaustivePartitioner.PACKED_DEFAULT_MAX_CANDIDATES == 24
    assert ExhaustivePartitioner.SHARDED_DEFAULT_MAX_CANDIDATES == 32
    assert ExhaustivePartitioner.PRUNED_DEFAULT_MAX_CANDIDATES == 40
    workload = workloads["viterbi"]
    assert ExhaustivePartitioner(
        workload, platform
    )._candidate_cap() == 24
    assert ExhaustivePartitioner(
        workload, platform, shards=4
    )._candidate_cap() == 32
    assert ExhaustivePartitioner(
        workload, platform, prune=True
    )._candidate_cap() == 40
    assert ExhaustivePartitioner(
        workload, platform, max_candidates=12, prune=True
    )._candidate_cap() == 12


def test_pool_fallback_when_workers_exceed_machine(
    workloads, platform, references
):
    """Requesting more workers than shards (or than the machine has)
    must not change anything — the fan-out clamps and, where process
    pools are unavailable, degrades to the in-process walk."""
    reference = references["synth12"]
    partitioner, result = _run(
        workloads["synth12"], platform, AlgorithmSpec.exhaustive(shards=2),
        reference["constraint"],
        search_workers=max(8, (os.cpu_count() or 1) * 2),
    )
    assert result == reference["result"]
    assert partitioner.pareto_front() == reference["front"]


# ----------------------------------------------------------------------
# Property: every exact-search mode agrees on generated workloads
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
# synth20's BB 3 has a zero move delta, so its optimum ties on ticks with
# one more move: the fewer-moves rule decides.
@example(
    blocks=20, seed=5, kernel_fraction=0.8, comm_intensity=0.5, budget=None
)
@given(
    blocks=st.integers(6, 16),
    seed=st.integers(0, 10_000),
    kernel_fraction=st.floats(0.3, 1.0),
    comm_intensity=st.floats(0.0, 1.5),
    budget=st.sampled_from((None, 1, 2, 3)),
)
def test_exact_modes_agree_with_the_object_walk(
    blocks, seed, kernel_fraction, comm_intensity, budget
):
    """The serial walk, the sharded walk (unbudgeted only), branch-and-
    bound and sharded branch-and-bound give identical results and Pareto
    fronts, the unpruned modes identical visit counts, and all of them
    what the object depth-first walk in ``tests/oracles`` gives."""
    workload = synthetic_application(
        blocks, seed=seed, kernel_fraction=kernel_fraction,
        comm_intensity=comm_intensity,
    )
    platform = paper_platform(1500, 2)
    reference = object_partitioner(
        AlgorithmSpec.exhaustive(), workload, platform,
        config=EngineConfig(max_kernels_moved=budget),
    )
    constraints = [1, max(1, reference.initial_cycles() // 2)]
    expected = reference.sweep(constraints)
    front = reference.pareto_front()
    specs = [AlgorithmSpec.exhaustive()]
    if budget is None:
        specs += [
            AlgorithmSpec.exhaustive(shards=2),
            AlgorithmSpec.exhaustive(shards=4),
        ]
    specs += [
        AlgorithmSpec.exhaustive(prune=True),
        AlgorithmSpec.exhaustive(prune=True, shards=2),
    ]
    for spec in specs:
        partitioner = make_partitioner(
            spec, workload, platform,
            config=EngineConfig(max_kernels_moved=budget, search_workers=1),
        )
        assert partitioner.sweep(constraints) == expected, spec.label
        assert partitioner.pareto_front() == front, spec.label
        if not dict(spec.params)["prune"]:
            assert partitioner.visited_count == reference.visited_count
