"""Cooperative search deadlines: best-so-far, marked uncertified.

Every engine checks its :class:`~repro.faults.Deadline` before it
searches, and annealing and multi-start also poll it at visit-batch
boundaries; an expired budget stops the search and returns the best
configuration found so far with ``result.partial`` set (``certified``
False).  A generous budget must leave results bit-identical to an
undeadlined run — the deadline is a cut, never a perturbation.
"""

from __future__ import annotations

import pytest

from repro.explore import WorkloadSpec
from repro.faults import Deadline
from repro.partition import EngineConfig
from repro.platform import paper_platform
from repro.search import AlgorithmSpec, make_partitioner

#: Annealing polls its deadline once per temperature level; with a
#: million levels on this workload, a 50 ms budget reliably cuts it.
BIG = WorkloadSpec.synthetic(64, seed=3)
#: Small enough that every engine finishes well inside a 60 s budget.
SMALL = WorkloadSpec.synthetic(18, seed=2)

ENGINE_SPECS = [
    AlgorithmSpec.greedy(),
    AlgorithmSpec.exhaustive(),
    AlgorithmSpec.multi_start(),
    AlgorithmSpec.annealing(),
]


@pytest.fixture(scope="module")
def platform():
    return paper_platform(1500, 2)


@pytest.fixture(scope="module")
def big_workload():
    return BIG.build()


@pytest.fixture(scope="module")
def small_workload():
    return SMALL.build()


def make(algorithm, workload, platform, **config_kwargs):
    return make_partitioner(
        algorithm, workload, platform,
        config=EngineConfig(**config_kwargs),
    )


@pytest.mark.parametrize(
    "spec", ENGINE_SPECS, ids=lambda spec: spec.label
)
def test_generous_deadline_is_a_noop(spec, small_workload, platform):
    baseline = make(spec, small_workload, platform)
    constraint = max(1, baseline.initial_cycles() // 2)
    undeadlined = baseline.run(constraint)
    timed = make(spec, small_workload, platform)
    result = timed.run(constraint, deadline=Deadline.after(60.0))
    assert result == undeadlined
    assert result.partial is False
    assert result.certified is True


@pytest.mark.parametrize(
    "spec", ENGINE_SPECS, ids=lambda spec: spec.label
)
def test_pre_expired_deadline_returns_partial(spec, small_workload, platform):
    partitioner = make(spec, small_workload, platform)
    constraint = max(1, partitioner.initial_cycles() // 2)
    result = partitioner.run(constraint, deadline=Deadline.after(0.0))
    assert result.partial is True
    assert result.certified is False
    # The all-FPGA corner is always a valid configuration.
    assert result.final_cycles >= 1


def test_partial_is_sticky_across_runs(big_workload, platform):
    # A truncated first run leaves the shared search caches incomplete;
    # later runs on the same partitioner must stay flagged.
    partitioner = make(
        AlgorithmSpec.annealing(temp_levels=1_000_000), big_workload, platform
    )
    constraint = max(1, partitioner.initial_cycles() // 2)
    first = partitioner.run(constraint, deadline=Deadline.after(0.05))
    assert first.partial is True
    # Best-so-far: the cut still improved on the all-FPGA corner.
    assert first.final_cycles < partitioner.initial_cycles()
    assert "UNCERTIFIED" in first.summary()
    second = partitioner.run(constraint)
    assert second.partial is True


def test_deadline_pickles_by_remaining_budget():
    import pickle

    deadline = Deadline.after(30.0)
    clone = pickle.loads(pickle.dumps(deadline))
    assert not clone.expired()
    assert 0.0 < clone.remaining() <= 30.0
    expired = pickle.loads(pickle.dumps(Deadline.after(0.0)))
    assert expired.expired()


def test_uncertified_marker_in_summary(small_workload, platform):
    partitioner = make(AlgorithmSpec.greedy(), small_workload, platform)
    constraint = max(1, partitioner.initial_cycles() // 2)
    result = partitioner.run(constraint, deadline=Deadline.after(0.0))
    assert "UNCERTIFIED" in result.summary()
