"""The one bounded (workload × platform) -> priced-table resolver."""

import pytest

import repro.partition.resolver as resolver_module
from repro.explore import PlatformSpec, WorkloadSpec
from repro.explore.runner import _run_task
from repro.job import Job
from repro.partition import CostModel, PackedCostTable, TableResolver
from repro.partition.resolver import RESOLVER_CAPACITY, process_resolver
from repro.suite import Scenario, default_suite, run_scenario

PLATFORM = PlatformSpec()
SPECS = [WorkloadSpec.synthetic(6, seed=seed) for seed in range(4)]


def test_lookups_of_one_pair_share_one_table():
    resolver = TableResolver()
    first = resolver.resolve((SPECS[0], PLATFORM))
    second = resolver.resolve((SPECS[0], PLATFORM))
    assert second[0] is first[0] and second[2] is first[2]
    assert resolver.stats()["tables"]["misses"] == 1
    assert resolver.stats()["tables"]["hits"] == 1


def test_capacity_evicts_the_least_recently_used_pair():
    resolver = TableResolver(capacity=2)
    for spec in (SPECS[0], SPECS[1], SPECS[0], SPECS[2]):
        resolver.resolve((spec, PLATFORM))
    # SPECS[0] was refreshed by its second lookup, so SPECS[1] went.
    assert (SPECS[0], PLATFORM, False) in resolver.tables
    assert (SPECS[1], PLATFORM, False) not in resolver.tables
    assert resolver.stats()["tables"]["evictions"] == 1
    assert resolver.stats()["workloads"]["evictions"] == 1


def test_reconfig_charge_flag_keys_distinct_tables():
    resolver = TableResolver()
    pair = (SPECS[0], PLATFORM)
    workload, platform, cached = resolver.resolve(pair)
    _, _, charged = resolver.resolve(
        pair, charge_single_partition_reconfig=True
    )
    assert len(resolver.tables) == 2
    assert charged != cached
    assert charged == PackedCostTable.from_model(
        CostModel(workload, platform, charge_single_partition_reconfig=True)
    )


def test_callers_without_a_resolver_stay_bounded(monkeypatch):
    """run_scenario and _run_task fall back to the process resolver,
    which keeps at most its capacity of tables over more pairs."""
    bounded = TableResolver(capacity=2)
    monkeypatch.setattr(resolver_module, "_process_resolver", bounded)
    for index, spec in enumerate(SPECS):
        if index % 2:
            run_scenario(Scenario(name=f"pair-{index}", workload=spec))
        else:
            _run_task(
                Job(
                    workload=spec, platform=PLATFORM,
                    constraint_fractions=(0.5,),
                )
            )
    assert process_resolver() is bounded
    assert len(bounded.tables) == 2
    assert bounded.tables.counters.evictions == len(SPECS) - 2


def test_a_serial_suite_run_never_evicts():
    pairs = {(s.workload, s.platform) for s in default_suite()}
    assert len(pairs) <= RESOLVER_CAPACITY


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="capacity"):
        TableResolver(capacity=0)


def test_profiles_outlive_workload_eviction():
    """An evicted measured workload rebuilds from the resolver's profile
    cache instead of re-running the interpreter."""
    resolver = TableResolver(capacity=1)
    measured = (WorkloadSpec.ofdm_measured(symbols=1), PLATFORM)
    resolver.resolve(measured)
    resolver.resolve((SPECS[0], PLATFORM))
    assert measured[0] not in resolver.workloads
    resolver.resolve(measured)
    stats = resolver.stats()
    assert stats["workloads"]["misses"] == 3
    assert stats["profile_misses"] == 1
    assert stats["profile_hits"] == 1
