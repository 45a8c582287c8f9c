"""Lightweight, stdlib-only tracing and metrics for the whole pipeline.

Every layer of the partitioning pipeline — profiling, pricing, search,
exploration, the scenario suite — wraps its phase boundaries in
:func:`span` context managers and bumps :func:`count` counters at coarse
checkpoints.  The result is a per-run :class:`Trace` tree of
:class:`Span` nodes (wall seconds + call counts + monotonic counters,
nested by dynamic scope) that answers "where did the time go?" without
any external dependency and without touching the per-configuration hot
loops (spans sit at phase boundaries — a search records *one* span, not
one per visited configuration — which is what keeps the overhead inside
the ≤2% budget ``bench_suite.py`` asserts).

Design constraints, in order:

* **Zero-cost when off.**  The global switch (:func:`set_enabled`, env
  ``REPRO_TELEMETRY``, default on) reduces :func:`span` to returning a
  shared no-op context manager and :func:`count` to one boolean test —
  no allocation, no dict traffic.  Search results and suite cycles are
  bit-identical either way; telemetry only *observes*.
* **Picklable.**  A :class:`Trace` (and every :class:`Span` under it)
  holds nothing but strings, numbers, dicts and lists, so
  :func:`repro.parallel.map_tasks` workers capture their own subtrace
  per task and ship it back with the task result; the parent merges the
  subtraces **in task order**, making the merged tree deterministic
  regardless of worker scheduling (and identical in shape to a serial
  run, where the same spans record directly into the ambient trace).
* **Merge by name.**  Two spans with the same name under the same parent
  are one logical phase: merging sums their seconds, call counts and
  counters and recurses into children, preserving first-seen order.
* **Per-thread nesting.**  The innermost open span lives in a
  :class:`contextvars.ContextVar`, so each thread nests its own spans:
  a server's HTTP threads counting submissions never land on a span
  the dispatcher thread has open.  A thread with no open span records
  into the current trace's root.  Spans and counters take no lock, so
  threads that bump one counter on a shared span (such as the root)
  serialise those bumps themselves, as the server's submit path does
  under the server's lock.

Typical use::

    from repro import telemetry

    with telemetry.span("price_table"):
        table = PackedCostTable.from_model(model)
    telemetry.count("cost_table_builds")

    print(telemetry.get_trace().render())
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

__all__ = [
    "Span",
    "Trace",
    "absorb",
    "count",
    "current_span",
    "enabled",
    "get_trace",
    "reset_trace",
    "set_enabled",
    "span",
    "use_trace",
]

#: Environment switch: anything but these (case-insensitive) enables.
_ENV_VAR = "REPRO_TELEMETRY"
_OFF_VALUES = ("0", "false", "off", "no", "")


def _env_enabled() -> bool:
    return os.environ.get(_ENV_VAR, "1").strip().lower() not in _OFF_VALUES


class Span:
    """One named phase: wall seconds, entry count, counters, children.

    Spans form a tree by dynamic scope; re-entering a name under the
    same parent accumulates into the same node (``calls`` counts the
    entries).  Plain-data only, so the tree pickles and JSON-serializes
    trivially.
    """

    __slots__ = ("name", "seconds", "calls", "counters", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self.calls = 0
        self.counters: dict[str, int] = {}
        self.children: dict[str, "Span"] = {}

    # Default __slots__ pickling (protocol 2's ``(None, slots)`` state)
    # works, but an explicit dict state keeps the format obvious and
    # stable for the store/JSON layers built on top.
    def __getstate__(self) -> dict[str, object]:
        return self.to_dict()

    def __setstate__(self, state: dict[str, object]) -> None:
        other = Span.from_dict(state)
        self.name = other.name
        self.seconds = other.seconds
        self.calls = other.calls
        self.counters = other.counters
        self.children = other.children

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.seconds:.6f}s, calls={self.calls}, "
            f"counters={self.counters}, children={list(self.children)})"
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def child(self, name: str) -> "Span":
        """The named child, created on first use (insertion-ordered)."""
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Span(name)
        return node

    def find(self, *path: str) -> "Span | None":
        """Descendant lookup by name path; None when any hop is absent."""
        node: Span | None = self
        for name in path:
            if node is None:
                return None
            node = node.children.get(name)
        return node

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "Span"]]:
        """Depth-first (self included), children in first-seen order."""
        yield depth, self
        for node in self.children.values():
            yield from node.walk(depth + 1)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merge(self, other: "Span") -> None:
        """Accumulate ``other`` into this span (recursively, by name).

        Seconds, calls and counters sum; children merge by name with
        first-seen order preserved (self's order first, then any new
        names in ``other``'s order) — so merging a list of subtraces in
        a fixed order yields one deterministic tree.
        """
        self.seconds += other.seconds
        self.calls += other.calls
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        for name, node in other.children.items():
            self.child(name).merge(node)

    def phase_seconds(self) -> dict[str, float]:
        """Top-level breakdown: each direct child's name -> seconds."""
        return {name: node.seconds for name, node in self.children.items()}

    def total_counter(self, name: str) -> int:
        """The counter summed over this span and every descendant."""
        return sum(node.counters.get(name, 0) for _, node in self.walk())

    # ------------------------------------------------------------------
    # Serialization / display
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "name": self.name,
            "seconds": self.seconds,
            "calls": self.calls,
        }
        if self.counters:
            payload["counters"] = dict(self.counters)
        if self.children:
            payload["children"] = [
                node.to_dict() for node in self.children.values()
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "Span":
        node = cls(str(payload["name"]))
        node.seconds = float(payload.get("seconds", 0.0))  # type: ignore[arg-type]
        node.calls = int(payload.get("calls", 0))  # type: ignore[arg-type]
        counters = payload.get("counters", {})
        if isinstance(counters, dict):
            node.counters = {str(k): int(v) for k, v in counters.items()}
        for child in payload.get("children", ()):  # type: ignore[union-attr]
            if isinstance(child, dict):
                restored = cls.from_dict(child)
                node.children[restored.name] = restored
        return node

    def render(self, indent: str = "  ") -> str:
        """Human-readable tree (seconds, calls, counters per line)."""
        lines = []
        for depth, node in self.walk():
            counters = ""
            if node.counters:
                pairs = ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(node.counters.items())
                )
                counters = f"  [{pairs}]"
            lines.append(
                f"{indent * depth}{node.name}: {node.seconds:.6f}s "
                f"x{node.calls}{counters}"
            )
        return "\n".join(lines)


class Trace:
    """One run's span tree: a synthetic root plus helpers.

    The root itself is never timed (its ``seconds`` stay 0); its
    children are the run's top-level phases.
    """

    __slots__ = ("root",)

    def __init__(self, root: Span | None = None) -> None:
        self.root = root if root is not None else Span("root")

    def __getstate__(self) -> dict[str, object]:
        return {"root": self.root}

    def __setstate__(self, state: dict[str, object]) -> None:
        self.root = state["root"]  # type: ignore[assignment]

    def merge(self, other: "Trace") -> None:
        self.root.merge(other.root)

    def phase_seconds(self) -> dict[str, float]:
        return self.root.phase_seconds()

    def total_counter(self, name: str) -> int:
        return self.root.total_counter(name)

    def find(self, *path: str) -> Span | None:
        return self.root.find(*path)

    def to_dict(self) -> dict[str, object]:
        return self.root.to_dict()

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "Trace":
        return cls(Span.from_dict(payload))

    def render(self) -> str:
        return self.root.render()


# ----------------------------------------------------------------------
# Global state: the ambient trace + each thread's innermost open span
# ----------------------------------------------------------------------
_enabled: bool = _env_enabled()
_TRACE = Trace()
#: The innermost open span of the running thread.  Every thread starts
#: with the empty default, ``None``: "the current trace's root".  Each
#: open span keeps the token that restores its parent, so the tokens
#: are the stack.
_OPEN: ContextVar[Span | None] = ContextVar("repro_open_span", default=None)


def enabled() -> bool:
    """Whether spans/counters record anything right now."""
    return _enabled


def set_enabled(value: bool | None) -> None:
    """Force telemetry on/off; ``None`` restores the env-var default."""
    global _enabled
    _enabled = _env_enabled() if value is None else bool(value)


def get_trace() -> Trace:
    """The ambient trace spans record into (process-global)."""
    return _TRACE


def current_span() -> Span:
    """The calling thread's innermost open span (the trace root when
    none is open)."""
    node = _OPEN.get()
    return _TRACE.root if node is None else node


def reset_trace() -> Trace:
    """Drop all recorded data and start a fresh ambient trace."""
    global _TRACE
    _TRACE = Trace()
    _OPEN.set(None)
    return _TRACE


@contextmanager
def use_trace(trace: Trace) -> Iterator[Trace]:
    """Record into ``trace`` instead of the ambient one for the block.

    Used by the worker side of :func:`repro.parallel.map_tasks` to give
    every task an isolated subtrace (pool workers are long-lived, so
    recording into the worker's ambient trace would double-count once
    merged per task).
    """
    token = _OPEN.set(trace.root)
    try:
        yield trace
    finally:
        _OPEN.reset(token)


class _NullSpan:
    """Shared no-op context manager returned while telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _DISABLED_SPAN

    def __exit__(self, *exc_info: object) -> None:
        return None


class _SpanContext:
    __slots__ = ("_name", "_node", "_token", "_started")

    def __init__(self, name: str) -> None:
        self._name = name

    def __enter__(self) -> Span:
        node = current_span().child(self._name)
        self._node = node
        self._token = _OPEN.set(node)
        self._started = time.perf_counter()
        return node

    def __exit__(self, *exc_info: object) -> None:
        self._node.seconds += time.perf_counter() - self._started
        self._node.calls += 1
        _OPEN.reset(self._token)


_NULL_SPAN = _NullSpan()
#: Throwaway sink yielded by disabled spans (callers may read zeros off
#: it, but nothing it accumulates is ever reachable from a trace).
_DISABLED_SPAN = Span("<disabled>")


def span(name: str) -> "_SpanContext | _NullSpan":
    """Context manager timing one named phase on the ambient trace.

    Nest freely; the same name under the same parent accumulates.  When
    telemetry is disabled this returns a shared no-op manager, so a
    ``with span(...)`` at a phase boundary costs one function call and
    nothing else.
    """
    if not _enabled:
        return _NULL_SPAN
    return _SpanContext(name)


def count(name: str, value: int = 1) -> None:
    """Bump a monotonic counter on the innermost open span."""
    if not _enabled:
        return
    counters = current_span().counters
    counters[name] = counters.get(name, 0) + value


def absorb(trace: Trace | None) -> None:
    """Merge a shipped-back subtrace into the innermost open span.

    ``None`` (a worker that ran with telemetry off) is a no-op.  Callers
    merging several subtraces must do so in a deterministic order (task
    order) — :func:`repro.parallel.map_tasks` does.
    """
    if trace is None or not _enabled:
        return
    node = current_span()
    node.merge(trace.root)
    # The root carries no timing of its own; merging added 0.0 seconds
    # and 0 calls to ``node``, so only children/counters moved — which
    # is exactly what "the worker's phases happened here" means.
