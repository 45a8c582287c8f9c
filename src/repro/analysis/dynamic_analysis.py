"""Dynamic analysis: per-block execution frequencies (paper §3.1).

"For the dynamic analysis, the source code is executed with appropriate
input and profiling information is gathered at the basic block level."
Two backends are provided:

* :func:`profile_cdfg` — interpret the program on representative inputs
  (the exact equivalent of the paper's Lex counter instrumentation);
* :class:`TraceProfile` — adopt externally supplied frequencies, which is
  how the calibrated Table 1 workloads inject the paper's measured counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..interp.cache import ProfileCache
from ..ir.cdfg import CDFG


@dataclass
class DynamicProfile:
    """Execution frequencies per program-wide basic-block id."""

    frequencies: dict[int, int] = field(default_factory=dict)
    runs: int = 0

    def exec_freq(self, bb_id: int) -> int:
        return self.frequencies.get(bb_id, 0)

    def merge(self, other: "DynamicProfile") -> None:
        """Accumulate another profile (multiple representative inputs)."""
        for bb_id, freq in other.frequencies.items():
            self.frequencies[bb_id] = self.frequencies.get(bb_id, 0) + freq
        self.runs += other.runs

    def hottest(self, count: int = 8) -> list[tuple[int, int]]:
        ordered = sorted(
            self.frequencies.items(), key=lambda item: (-item[1], item[0])
        )
        return ordered[:count]


def profile_cdfg(
    cdfg: CDFG,
    entry: str,
    *args: object,
    cache: ProfileCache | None = None,
) -> DynamicProfile:
    """Run ``entry`` on one representative input under profiling.

    The run goes through ``cache`` (a fresh
    :class:`~repro.interp.cache.ProfileCache` when None), content-keyed
    on (CDFG fingerprint, entry, args), and executes under the
    block-compiled counter-only profiler on a miss.
    """
    if cache is None:
        cache = ProfileCache()
    return cache.profile(cdfg, entry, *args)


def profile_cdfg_many(
    cdfg: CDFG,
    entry: str,
    input_sets: list[tuple],
    *,
    cache: ProfileCache | None = None,
) -> DynamicProfile:
    """Accumulate frequencies across several representative inputs
    (one CDFG fingerprint for the whole batch)."""
    if cache is None:
        cache = ProfileCache()
    return cache.profile_many(cdfg, entry, input_sets)


@dataclass
class TraceProfile:
    """A dynamic profile supplied from outside (measured traces).

    Used by the calibrated workloads, whose execution frequencies come
    verbatim from the paper's Table 1.
    """

    frequencies: dict[int, int]

    def as_profile(self) -> DynamicProfile:
        return DynamicProfile(frequencies=dict(self.frequencies), runs=1)
