"""One bounded resolver from a (workload × platform) pair to a priced table.

Every layer that prices a pair — the :mod:`repro.explore` grids, the
:mod:`repro.suite` scenarios and the :mod:`repro.serve` batches — goes
through a :class:`TableResolver`, two LRU layers keyed by spec:

* a **workload layer** (workload spec -> built
  :class:`~repro.partition.workload.ApplicationWorkload`), so a workload
  priced on several platforms builds its DFGs — and, for the measured
  kinds, runs the profiler — once;
* a **table layer** ((workload spec, platform spec,
  ``charge_single_partition_reconfig``) -> the built
  :class:`~repro.platform.soc.HybridPlatform` and its priced
  :class:`~repro.partition.packed.PackedCostTable`), so every algorithm,
  constraint and job on a pair shares one pricing pass and one platform
  (nothing mutates a built platform).

The reconfiguration flag is part of the table key because it changes
the fine-grain terms: two lookups that differ only in it get distinct
tables.  Both layers are bounded by entry count (the bound is about
long-lived processes, not the size of one entry) and export their
hit/miss counters through :mod:`repro.telemetry`
(``<prefix>_workload_cache_hits`` …), next to the ``cost_table_builds``
counter the table build itself bumps.

A call that runs many pairs holds one resolver for the call; pool
workers share :func:`process_resolver`, one per process.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generic, TypeVar

from .. import telemetry
from ..interp.cache import ProfileCache
from ..platform.soc import HybridPlatform
from .costs import CostModel, CostStats
from .packed import PackedCostTable
from .workload import ApplicationWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only (explore imports partition)
    from ..explore.space import PlatformSpec, WorkloadSpec

#: Entries per layer of a resolver held for one call or one process.  A
#: serial ``suite run`` touches 14 distinct pairs over its 18 scenarios
#: (``filterbank-greedy`` and ``exact-bnb-sharded-filterbank`` share a
#: pair with 12 scenarios in between) and must never evict.
RESOLVER_CAPACITY = 32

_Key = TypeVar("_Key")
_Value = TypeVar("_Value")


@dataclass
class CacheCounters:
    hits: int = 0
    misses: int = 0
    evictions: int = 0


class LruCache(Generic[_Key, _Value]):
    """A small least-recently-used mapping with telemetry counters.

    ``counter_prefix`` names the telemetry counters this cache bumps
    (``<prefix>_hits`` / ``<prefix>_misses``).  Not thread-safe on its
    own; the server serializes access from its dispatcher thread.
    """

    def __init__(self, capacity: int, counter_prefix: str) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.counter_prefix = counter_prefix
        self.counters = CacheCounters()
        self._entries: OrderedDict[_Key, _Value] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: _Key) -> bool:
        return key in self._entries

    def get(self, key: _Key) -> _Value | None:
        """The cached value (refreshed to most-recent), or ``None``."""
        value = self._entries.get(key)
        if value is None:
            self.counters.misses += 1
            telemetry.count(f"{self.counter_prefix}_misses")
            return None
        self._entries.move_to_end(key)
        self.counters.hits += 1
        telemetry.count(f"{self.counter_prefix}_hits")
        return value

    def put(self, key: _Key, value: _Value) -> None:
        """Insert (or refresh) an entry, evicting the least recent."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.counters.evictions += 1

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.counters.hits,
            "misses": self.counters.misses,
            "evictions": self.counters.evictions,
        }


class TableResolver:
    """Workload and priced-table LRU layers behind :meth:`resolve`.

    Measured workload specs profile through :attr:`profile_cache`
    (content-keyed, so rebuilding an evicted workload, or a second spec
    over the same program and inputs, does not re-run the profiler).
    """

    def __init__(
        self,
        capacity: int = RESOLVER_CAPACITY,
        counter_prefix: str = "resolver",
    ) -> None:
        self.workloads: LruCache[WorkloadSpec, ApplicationWorkload] = (
            LruCache(capacity, f"{counter_prefix}_workload_cache")
        )
        self.tables: LruCache[
            tuple[WorkloadSpec, PlatformSpec, bool],
            tuple[HybridPlatform, PackedCostTable],
        ] = LruCache(capacity, f"{counter_prefix}_table_cache")
        self.profile_cache = ProfileCache()

    def workload(self, spec: WorkloadSpec) -> ApplicationWorkload:
        """The built workload of ``spec`` (cached)."""
        workload = self.workloads.get(spec)
        if workload is None:
            with telemetry.span("build_workload"):
                workload = spec.build(profile_cache=self.profile_cache)
            self.workloads.put(spec, workload)
        return workload

    def resolve(
        self,
        pair: tuple[WorkloadSpec, PlatformSpec],
        charge_single_partition_reconfig: bool = False,
        stats: CostStats | None = None,
    ) -> tuple[ApplicationWorkload, HybridPlatform, PackedCostTable]:
        """The pair's built workload, platform and priced table.

        A table miss builds the platform and prices the pair once,
        charging the pricing work to ``stats`` when given; a hit returns
        the platform and table it built.
        """
        workload_spec, platform_spec = pair
        workload = self.workload(workload_spec)
        key = (workload_spec, platform_spec, charge_single_partition_reconfig)
        entry = self.tables.get(key)
        if entry is None:
            platform = platform_spec.build()
            table = PackedCostTable.from_model(
                CostModel(
                    workload,
                    platform,
                    charge_single_partition_reconfig=(
                        charge_single_partition_reconfig
                    ),
                    stats=stats,
                )
            )
            entry = (platform, table)
            self.tables.put(key, entry)
        platform, table = entry
        return workload, platform, table

    def stats(self) -> dict[str, object]:
        return {
            "workloads": self.workloads.stats(),
            "tables": self.tables.stats(),
            "profile_hits": self.profile_cache.stats.hits,
            "profile_misses": self.profile_cache.stats.misses,
        }


_process_resolver: TableResolver | None = None


def process_resolver() -> TableResolver:
    """The calling process's shared resolver (pool workers grow their own)."""
    global _process_resolver
    if _process_resolver is None:
        _process_resolver = TableResolver()
    return _process_resolver
