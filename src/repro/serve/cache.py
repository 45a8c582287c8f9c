"""The server's pricing cache.

:class:`PricedTableCache` is :class:`~repro.partition.resolver.TableResolver`
itself — the one bounded resolver from a (workload × platform) pair to a
priced table — under the name serving code and its tracing look up.
The server gives it the ``serve`` counter prefix
(``serve_workload_cache_hits/misses``, ``serve_table_cache_hits/misses``).
"""

from __future__ import annotations

from ..partition.resolver import LruCache, TableResolver

PricedTableCache = TableResolver

__all__ = ["LruCache", "PricedTableCache"]
