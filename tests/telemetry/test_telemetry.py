"""Tests for the span/trace telemetry layer."""

import pickle
import sys
import threading
import time

import pytest

from repro import telemetry
from repro.parallel import _TracedCall, map_tasks
from repro.telemetry import Span, Trace


@pytest.fixture(autouse=True)
def fresh_trace():
    """Every test runs on its own ambient trace, telemetry forced on."""
    telemetry.set_enabled(True)
    telemetry.reset_trace()
    yield
    telemetry.set_enabled(None)
    telemetry.reset_trace()


class TestSpans:
    def test_nesting_builds_a_tree(self):
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
            with telemetry.span("inner"):
                pass
        trace = telemetry.get_trace()
        outer = trace.find("outer")
        assert outer is not None and outer.calls == 1
        inner = trace.find("outer", "inner")
        assert inner is not None and inner.calls == 2
        assert inner.seconds >= 0.0
        # The same name under a different parent is a different node.
        assert trace.find("inner") is None

    def test_span_yields_its_node(self):
        with telemetry.span("phase") as node:
            telemetry.count("things", 5)
        assert node.counters == {"things": 5}
        assert telemetry.get_trace().find("phase") is node

    def test_counters_attach_to_innermost_span(self):
        with telemetry.span("a"):
            telemetry.count("n")
            with telemetry.span("b"):
                telemetry.count("n", 2)
        trace = telemetry.get_trace()
        assert trace.find("a").counters == {"n": 1}
        assert trace.find("a", "b").counters == {"n": 2}
        assert trace.total_counter("n") == 3

    def test_counts_outside_any_span_land_on_the_root(self):
        telemetry.count("loose", 4)
        assert telemetry.get_trace().root.counters == {"loose": 4}

    def test_exception_still_closes_the_span(self):
        with pytest.raises(RuntimeError):
            with telemetry.span("risky"):
                raise RuntimeError("boom")
        node = telemetry.get_trace().find("risky")
        assert node.calls == 1
        assert telemetry.current_span() is telemetry.get_trace().root

    def test_reentry_accumulates(self):
        for _ in range(3):
            with telemetry.span("hot"):
                pass
        assert telemetry.get_trace().find("hot").calls == 3


class TestThreads:
    def test_threads_nest_their_own_spans(self):
        # time.sleep(0) and a short switch interval hand the GIL over
        # inside every span, so the threads' enters and exits
        # interleave.  With one process-wide stack they nested under
        # each other's spans into a deep chain that Span.walk() could
        # not recurse through.
        threads, rounds = 4, 200
        barrier = threading.Barrier(threads)

        def work(tag):
            barrier.wait(30)
            for _ in range(rounds):
                with telemetry.span(f"outer-{tag}"):
                    time.sleep(0)
                    telemetry.count("outer_hits")
                    with telemetry.span("inner"):
                        time.sleep(0)
                        telemetry.count("inner_hits", 2)

        workers = [
            threading.Thread(target=work, args=(tag,))
            for tag in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)

        trace = telemetry.get_trace()
        assert max(depth for depth, _ in trace.root.walk()) <= 2
        assert sorted(trace.root.children) == [
            f"outer-{tag}" for tag in range(threads)
        ]
        for outer in trace.root.children.values():
            assert outer.calls == rounds
            assert outer.counters == {"outer_hits": rounds}
            assert list(outer.children) == ["inner"]
            inner = outer.children["inner"]
            assert inner.calls == rounds
            assert inner.counters == {"inner_hits": 2 * rounds}
        assert trace.total_counter("outer_hits") == threads * rounds
        assert trace.total_counter("inner_hits") == 2 * threads * rounds
        assert trace.root.counters == {}

    def test_new_thread_records_into_the_root(self):
        # A thread with no open span of its own counts on the trace
        # root, not on a span another thread has open.
        with telemetry.span("dispatch"):
            other = threading.Thread(target=telemetry.count, args=("jobs",))
            other.start()
            other.join(30)
        assert not other.is_alive()
        trace = telemetry.get_trace()
        assert trace.root.counters == {"jobs": 1}
        assert trace.find("dispatch").counters == {}

    def test_reset_trace_moves_idle_threads_to_the_new_root(self):
        telemetry.reset_trace()
        fresh = telemetry.get_trace()
        other = threading.Thread(target=telemetry.count, args=("late",))
        other.start()
        other.join(30)
        assert not other.is_alive()
        assert fresh.root.counters == {"late": 1}


class TestDisabled:
    def test_disabled_spans_record_nothing(self):
        telemetry.set_enabled(False)
        with telemetry.span("ghost") as node:
            telemetry.count("ghost")
        assert telemetry.get_trace().root.children == {}
        assert telemetry.get_trace().root.counters == {}
        # The yielded sink is inert but usable.
        assert node.name == "<disabled>"

    def test_enabled_reflects_override_and_env(self, monkeypatch):
        telemetry.set_enabled(False)
        assert not telemetry.enabled()
        telemetry.set_enabled(True)
        assert telemetry.enabled()
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        telemetry.set_enabled(None)  # back to the env default
        assert not telemetry.enabled()
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        telemetry.set_enabled(None)
        assert telemetry.enabled()

    @pytest.mark.parametrize("value", ["0", "false", "OFF", "no", ""])
    def test_off_values(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", value)
        telemetry.set_enabled(None)
        assert not telemetry.enabled()


class TestMerge:
    def test_merge_sums_recursively(self):
        a, b = Trace(), Trace()
        with telemetry.use_trace(a):
            with telemetry.span("x"):
                telemetry.count("n", 1)
                with telemetry.span("y"):
                    pass
        with telemetry.use_trace(b):
            with telemetry.span("x"):
                telemetry.count("n", 2)
        a.merge(b)
        x = a.find("x")
        assert x.calls == 2 and x.counters == {"n": 3}
        assert a.find("x", "y").calls == 1

    def test_merge_preserves_first_seen_order(self):
        a, b = Trace(), Trace()
        with telemetry.use_trace(a):
            with telemetry.span("alpha"):
                pass
        with telemetry.use_trace(b):
            with telemetry.span("beta"):
                pass
            with telemetry.use_trace(b):
                pass
        a.merge(b)
        assert list(a.root.children) == ["alpha", "beta"]

    def test_merge_order_determines_child_order_only(self):
        """Merging the same subtraces in the same order always yields
        an identical tree (the map_tasks determinism contract)."""

        def subtrace(tag):
            t = Trace()
            with telemetry.use_trace(t):
                with telemetry.span(tag):
                    telemetry.count("c")
            # Zero the wall-clock noise; merge determinism is about
            # structure, calls, and counters.
            for _, node in t.root.walk():
                node.seconds = 0.0
            return t

        merged1, merged2 = Trace(), Trace()
        for target in (merged1, merged2):
            for tag in ("s1", "s2", "s1"):
                target.merge(subtrace(tag))
        assert merged1.to_dict() == merged2.to_dict()


class TestUseTrace:
    def test_use_trace_isolates_and_restores(self):
        scratch = Trace()
        with telemetry.span("ambient"):
            with telemetry.use_trace(scratch):
                with telemetry.span("isolated"):
                    pass
            telemetry.count("back")
        ambient = telemetry.get_trace()
        assert ambient.find("ambient", "isolated") is None
        assert scratch.find("isolated") is not None
        assert ambient.find("ambient").counters == {"back": 1}

    def test_absorb_merges_into_current_span(self):
        sub = Trace()
        with telemetry.use_trace(sub):
            with telemetry.span("work"):
                telemetry.count("done")
        with telemetry.span("parent"):
            telemetry.absorb(sub)
        parent = telemetry.get_trace().find("parent")
        assert parent.children["work"].counters == {"done": 1}
        # A None subtrace (worker with telemetry off) is a no-op.
        telemetry.absorb(None)

    def test_absorb_adds_no_time_to_the_absorbing_span(self):
        sub = Trace()
        with telemetry.use_trace(sub):
            with telemetry.span("work"):
                pass
        with telemetry.span("parent") as parent:
            telemetry.absorb(sub)
        assert parent.children["work"].seconds == sub.root.children[
            "work"
        ].seconds


class TestSerialization:
    def test_pickle_round_trip(self):
        with telemetry.span("a"):
            telemetry.count("k", 7)
            with telemetry.span("b"):
                pass
        trace = telemetry.get_trace()
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.to_dict() == trace.to_dict()
        assert clone.find("a", "b").calls == 1

    def test_dict_round_trip(self):
        with telemetry.span("a"):
            telemetry.count("k", 7)
        trace = telemetry.get_trace()
        clone = Trace.from_dict(trace.to_dict())
        assert clone.to_dict() == trace.to_dict()

    def test_span_from_dict_tolerates_minimal_payload(self):
        node = Span.from_dict({"name": "bare"})
        assert node.seconds == 0.0 and node.calls == 0
        assert node.counters == {} and node.children == {}

    def test_render_lists_every_node(self):
        with telemetry.span("a"):
            with telemetry.span("b"):
                telemetry.count("hits", 2)
        text = telemetry.get_trace().render()
        assert "a:" in text and "b:" in text and "hits=2" in text


def _traced_work(x):
    with telemetry.span("work"):
        telemetry.count("tasks")
    return x * x


class TestMapTasksIntegration:
    def test_worker_subtraces_merge_in_task_order(self):
        with telemetry.span("fanout"):
            results, workers = map_tasks(
                _traced_work, [1, 2, 3, 4], 2, what="squares"
            )
        assert results == [1, 4, 9, 16]
        # Whether the pool spawned or fell back to serial, the merged
        # trace is identical: 4 calls under fanout/work.
        node = telemetry.get_trace().find("fanout", "work")
        assert node is not None
        assert node.calls == 4
        assert node.counters == {"tasks": 4}

    def test_serial_path_records_into_ambient_trace(self):
        with telemetry.span("fanout"):
            results, workers = map_tasks(
                _traced_work, [5], 4, what="single"
            )
        assert results == [25] and workers == 1
        assert telemetry.get_trace().find("fanout", "work").calls == 1

    def test_traced_call_returns_subtrace(self):
        call = _TracedCall(_traced_work)
        result, sub = call(3)
        assert result == 9
        assert sub.find("work").counters == {"tasks": 1}
        # Nothing leaked into the ambient trace.
        assert telemetry.get_trace().root.children == {}

    def test_traced_call_disabled_ships_none(self):
        telemetry.set_enabled(False)
        result, sub = _TracedCall(_traced_work)(3)
        assert result == 9 and sub is None
