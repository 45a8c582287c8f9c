"""Content-keyed, in-memory profile cache for dynamic analysis.

Profiling a program on a representative input is deterministic: the same
CDFG, entry point and arguments always produce the same per-block
execution frequencies.  This module keys that computation by content —

    sha256(CDFG fingerprint ‖ entry ‖ argument digest)

— so repeated profiling of one program within a process (a resolver
rebuilding an evicted workload, a superset of OFDM symbols, equivalent
CDFG instances built from one source) runs the interpreter once.
Frequencies are the only dynamic fact stored; full
:class:`~repro.interp.profiler.BlockProfile` records are derived
statically on the way out
(:func:`~repro.interp.profiler.profiles_from_frequencies`).

Because the key includes the CDFG fingerprint, any semantic mutation of
the program (changed constant, added instruction, retargeted branch)
invalidates every cached profile for it automatically.

The cache intentionally does **not** store return values or array
mutations: a cache hit skips execution entirely, so callers that need
outputs (not statistics) should run the interpreter directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .. import telemetry
from ..ir.cdfg import CDFG
from .compiler import cdfg_fingerprint
from .values import ArrayStorage


def args_digest(args: tuple) -> str:
    """A stable content hash of a profiling argument tuple.

    Supports the argument kinds the interpreter accepts — numbers, lists
    (nested), and :class:`ArrayStorage` — plus a ``repr`` fallback for
    anything else deterministic.
    """
    digest = hashlib.sha256()

    def feed(value) -> None:
        if isinstance(value, bool):  # bool is an int subclass; disambiguate
            digest.update(f"b:{value}".encode())
        elif isinstance(value, int):
            digest.update(f"i:{value}".encode())
        elif isinstance(value, float):
            digest.update(f"f:{value!r}".encode())
        elif isinstance(value, (list, tuple)):
            digest.update(f"l:{len(value)}[".encode())
            for item in value:
                feed(item)
            digest.update(b"]")
        elif isinstance(value, ArrayStorage):
            digest.update(
                f"a:{value.element_type.name}:{len(value)}[".encode()
            )
            for item in value.data:
                feed(item)
            digest.update(b"]")
        else:
            digest.update(f"r:{value!r}".encode())
        digest.update(b"\x00")

    for arg in args:
        feed(arg)
    return digest.hexdigest()


def profile_key(
    cdfg: CDFG, entry: str, args: tuple, fingerprint: str | None = None
) -> str:
    """The full content key of one profiling run.

    ``fingerprint`` lets batch callers hash the CDFG once and reuse it
    across many (entry, args) keys.
    """
    if fingerprint is None:
        fingerprint = cdfg_fingerprint(cdfg)
    payload = f"{fingerprint}:{entry}:{args_digest(args)}"
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CachedProfile:
    """One stored profiling outcome (frequencies + execution metadata)."""

    frequencies: dict[int, int]
    steps: int
    blocks_executed: int


@dataclass
class CacheStats:
    """Hit/miss counters."""

    hits: int = 0
    misses: int = 0


@dataclass
class ProfileCache:
    """Content-keyed, in-memory cache of profiling runs."""

    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._memory: dict[str, CachedProfile] = {}

    # ------------------------------------------------------------------
    # Core lookup
    # ------------------------------------------------------------------
    def get_or_run(
        self,
        cdfg: CDFG,
        entry: str,
        *args,
        fingerprint: str | None = None,
    ) -> CachedProfile:
        """Return the cached profile for (cdfg, entry, args), executing
        the program under the counter-only compiled profiler on a miss.

        ``fingerprint`` (optional) skips re-hashing the CDFG when the
        caller already computed it for this batch.
        """
        if fingerprint is None:
            fingerprint = cdfg_fingerprint(cdfg)
        key = profile_key(cdfg, entry, args, fingerprint)
        record = self._memory.get(key)
        if record is not None:
            self.stats.hits += 1
            telemetry.count("profile_cache_hits")
            return record
        self.stats.misses += 1
        telemetry.count("profile_cache_misses")
        with telemetry.span("profile"):
            record = self._execute(cdfg, entry, args, fingerprint)
        self._memory[key] = record
        return record

    def _execute(
        self, cdfg: CDFG, entry: str, args: tuple, fingerprint: str
    ) -> CachedProfile:
        from .compiler import compile_cdfg
        from .interpreter import Interpreter
        from .profiler import BlockProfiler

        # The key's fingerprint is trusted, so compilation (or cached-
        # program revalidation) skips a redundant re-hash.
        program = compile_cdfg(cdfg, fingerprint=fingerprint)
        profiler = BlockProfiler()
        result = Interpreter(
            cdfg, profiler, mode="compiled", compiled_program=program
        ).run(entry, *args)
        return CachedProfile(
            frequencies=profiler.frequencies(),
            steps=result.steps,
            blocks_executed=result.blocks_executed,
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def profile(
        self,
        cdfg: CDFG,
        entry: str,
        *args,
        fingerprint: str | None = None,
    ):
        """A :class:`~repro.analysis.dynamic_analysis.DynamicProfile` for
        one representative input (cached)."""
        from ..analysis.dynamic_analysis import DynamicProfile

        record = self.get_or_run(cdfg, entry, *args, fingerprint=fingerprint)
        return DynamicProfile(frequencies=dict(record.frequencies), runs=1)

    def profile_many(self, cdfg: CDFG, entry: str, input_sets: list[tuple]):
        """Accumulate cached profiles across several representative
        inputs (each input set is cached independently; the CDFG is
        fingerprinted once for the whole batch)."""
        from ..analysis.dynamic_analysis import DynamicProfile

        fingerprint = cdfg_fingerprint(cdfg)
        combined = DynamicProfile()
        for args in input_sets:
            combined.merge(
                self.profile(cdfg, entry, *args, fingerprint=fingerprint)
            )
        return combined

    def block_profiles(self, cdfg: CDFG, entry: str, *args):
        """Full derived ``{bb_id: BlockProfile}`` statistics (cached)."""
        from .profiler import profiles_from_frequencies

        record = self.get_or_run(cdfg, entry, *args)
        return profiles_from_frequencies(cdfg, record.frequencies)

    def __len__(self) -> int:
        return len(self._memory)

