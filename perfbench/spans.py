"""The traced run: an in-memory span recorder and the layer shims.

A :class:`Tracer` records spans — name, start, end, parent, thread and
serve job id — in a list, and counts in a dict, and writes both out when
the run ends.  :func:`layer_shims` names every public function the
benchmark times, *where its callers look it up* (``from x import f``
binds ``f`` in the importing module, so that module's attribute is the
one to wrap).  ``with Tracer().installed():`` wraps them all and puts
the originals back on exit, even when the run raises.

A layer's self time is its spans' durations minus the part of each
interval its child spans cover; the trace of a run is reported as self
time per layer plus the remainder no span covered.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

#: One span: (id, name, start, end, parent id or 0, thread ident, job id).
Span = tuple[int, str, float, float, int, int, object]


class Tracer:
    """Spans and counts of one traced run (thread-safe)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._schedules = _ScheduleLedger()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[tuple[int, str]]:
        """(id, name) of this thread's open spans, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_span(self) -> str:
        """Name of this thread's innermost open span, or ``""``."""
        stack = self._stack()
        return stack[-1][1] if stack else ""

    @contextmanager
    def span(self, name: str, job: object = None) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        with self._lock:
            span_id = next(self._ids)
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (span_id, name, start, end, parent,
                     threading.get_ident(), job)
                )

    def add(self, name: str, start: float, end: float, job: object) -> None:
        """Record a span measured elsewhere (a serve job's queue wait)."""
        with self._lock:
            self.spans.append(
                (next(self._ids), name, start, end, 0,
                 threading.get_ident(), job)
            )

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # ------------------------------------------------------------------
    # Shims
    # ------------------------------------------------------------------
    def _shim(self, func, name, before, after):
        tracer = self

        @functools.wraps(func)
        def shim(*args, **kwargs):
            state = before(tracer, args) if before is not None else None
            span_name = name(args) if callable(name) else name
            with tracer.span(span_name):
                result = func(*args, **kwargs)
            if after is not None:
                after(tracer, args, result, state)
            return result

        return shim

    def patch(
        self,
        owner: object,
        attr: str,
        name: str | Callable[[tuple], str],
        after: Callable | None = None,
        before: Callable | None = None,
    ) -> None:
        """Wrap ``owner.attr`` (a module function, method or classmethod
        defined on ``owner`` itself) in a span named ``name``."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped: object = classmethod(
                self._shim(original.__func__, name, before, after)
            )
        else:
            wrapped = self._shim(original, name, before, after)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        try:
            for owner, attr, name, after, before in layer_shims(self._schedules):
                self.patch(owner, attr, name, after, before)
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its children's cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent:
                children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _, _ in self.spans:
            covered = covered_length(children.get(span_id, ()), start, end)
            totals[name] += (end - start) - covered
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [span[3] - span[2] for span in self.spans if span[1] == name]

    def unattributed(self, windows) -> float:
        """Seconds of the (start, end) windows that no root span covers."""
        roots = [(s[2], s[3]) for s in self.spans if not s[4]]
        return sum(
            (end - start) - covered_length(roots, start, end)
            for start, end in windows
        )

    def write(self, path: Path, meta: dict[str, object]) -> None:
        payload = {
            **meta,
            "fields": ["id", "name", "start", "end", "parent", "thread", "job"],
            "spans": sorted(self.spans),
            "counts": dict(self.counts),
        }
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def covered_length(
    intervals, start: float, end: float
) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low = max(low, cursor)
        high = min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _count_tokens(tracer, args, result, state):
    tracer.count("frontend.tokens", len(result))


def _count_verify(tracer, args, result, state):
    tracer.count("ir.verify_calls")


def _count_passes(tracer, args, result, state):
    tracer.count("ir.pass_applications", sum(result.values()))
    tracer.count("ir.blocks_out", args[0].block_count)


def _count_steps(tracer, args, result, state):
    tracer.count("interp.steps", result.steps)


def _count_kernels(tracer, args, result, state):
    tracer.count(
        "analysis.kernels",
        sum(1 for block in result.blocks if block.is_kernel_candidate),
    )


def _count_fpga(tracer, args, result, state):
    tracer.count("price.blocks")


class _ScheduleLedger:
    """Counts CGC schedules and those of an already-scheduled key.

    The key is (DFG content, CGC geometry): equal keys schedule
    identically.  A DFG's content is rendered once per DFG object (the
    object is held so its id cannot be reused within the run).
    """

    def __init__(self) -> None:
        self.seen: set[tuple] = set()
        self.contents: dict[int, tuple[object, tuple]] = {}
        self.lock = threading.Lock()

    def _key(self, dfg, datapath) -> tuple:
        cached = self.contents.get(id(dfg))
        if cached is None:
            content = tuple(str(ins) for ins in dfg.block.body)
            cached = self.contents[id(dfg)] = (dfg, content)
        return (
            cached[1],
            datapath.describe(),
            datapath.memory_ports,
            datapath.register_bank_size,
            datapath.memory_latency,
        )

    def __call__(self, tracer, args, result, state):
        with self.lock:
            key = self._key(args[0], args[1])
            repeat = key in self.seen
            self.seen.add(key)
        tracer.count("price.cgc_schedules")
        if repeat:
            tracer.count("price.cgc_repeat_schedules")


def _visited_before(tracer, args):
    """The visit count on entry, or None inside another search span:
    ``GreedyPartitioner.run`` may delegate to ``Partitioner.run``, and
    the outermost span alone counts the visits."""
    if tracer.open_span().startswith("search."):
        return None
    return args[0].visited_count


def _count_visited(tracer, args, result, state):
    if state is not None:
        tracer.count("search.configs_visited", args[0].visited_count - state)


def _search_name(args) -> str:
    return f"search.{args[0].algorithm}"


def _count_fanout(tracer, args, result, state):
    tasks, workers = args[1], args[2]
    if workers > 1 and len(tasks) > 1:
        tracer.count("serve.pooled_fanouts")


def layer_shims(schedules=None) -> list[tuple[object, str, object, object, object]]:
    """(owner, attribute, span name, after-hook, before-hook) per shim.

    ``schedules`` is the ledger the CGC-schedule hook feeds; a tracer
    passes its own so repeats are counted across installs.  A before-hook
    takes (tracer, args) and runs before the span opens.
    """

    def mod(name: str):
        return importlib.import_module(name)

    packed = mod("repro.partition.packed").PackedCostTable
    search_base = mod("repro.search.base").Partitioner
    greedy = mod("repro.search.greedy").GreedyPartitioner
    interpreter = mod("repro.interp.interpreter")
    return [
        # frontend
        (mod("repro.frontend.parser"), "tokenize", "frontend.lex",
         _count_tokens, None),
        (mod("repro.ir.cdfg"), "parse_program", "frontend.parse", None, None),
        (mod("repro.ir.cdfg"), "analyze_program", "frontend.semantic",
         None, None),
        # ir
        (mod("repro.ir.cdfg"), "lower_program", "ir.lower", None, None),
        (mod("repro.ir.verify"), "verify_cdfg", "ir.verify", None, None),
        (mod("repro.ir.verify"), "verify_cfg", "ir.verify",
         _count_verify, None),
        (mod("repro.ir.passes"), "verify_cfg", "ir.verify",
         _count_verify, None),
        (mod("repro.ir.passes"), "optimize_cdfg", "ir.optimize",
         _count_passes, None),
        # interp
        (mod("repro.interp.compiler"), "compile_cdfg", "interp.compile",
         None, None),
        (interpreter, "compile_cdfg", "interp.compile", None, None),
        (interpreter.Interpreter, "run", "interp.profile", _count_steps, None),
        (mod("repro.analysis.dynamic_analysis"), "profile_cdfg",
         "interp.profile", None, None),
        (mod("repro.workloads.jpeg"), "profile_cdfg", "interp.profile",
         None, None),
        (mod("repro.workloads.ofdm"), "profile_cdfg_many", "interp.profile",
         None, None),
        # analysis
        (mod("repro.partition.workload"), "workload_from_cdfg",
         "analysis.workload", _count_kernels, None),
        # price
        (packed, "from_model", "price.table", None, None),
        (mod("repro.partition.costs"), "block_fpga_timing", "price.fpga",
         _count_fpga, None),
        (mod("repro.partition.costs"), "block_cgc_timing", "price.cgc",
         schedules or _ScheduleLedger(), None),
        (mod("repro.partition.costs"), "kernel_communication", "price.comm",
         None, None),
        # search
        (search_base, "run", _search_name, _count_visited, _visited_before),
        (greedy, "run", _search_name, _count_visited, _visited_before),
        # serve
        (mod("repro.serve.cache").PricedTableCache, "resolve",
         "serve.resolve", None, None),
        (mod("repro.serve.server"), "map_tasks", "serve.fanout",
         _count_fanout, None),
    ]


def interleaved(tracer: Tracer, units, run, plain_repeats: int = 1):
    """Run each unit ``plain_repeats`` times untraced, then once traced,
    so drift in machine speed hits both alike.  Returns (plain outputs
    of the first repeat, traced outputs, every plain time in seconds,
    traced windows)."""
    plain, traced, seconds, windows = [], [], [], []
    for unit in units:
        for repeat in range(plain_repeats):
            t0 = time.perf_counter()
            output = run(unit)
            seconds.append(time.perf_counter() - t0)
            if repeat == 0:
                plain.append(output)
        with tracer.installed():
            t1 = time.perf_counter()
            traced.append(run(unit))
            windows.append((t1, time.perf_counter()))
    return plain, traced, seconds, windows
