"""Every entry point gives one answer.

The CLI, a served job (in the dispatcher thread and on a forked pool),
a suite scenario and an explore cell all run ``repro.job.run_job``;
each must equal an independent partitioner that prices its own table
and applies ``max(1, round(initial * fraction))`` itself.
"""

import itertools
from functools import cache

import pytest

from repro.__main__ import main
from repro.explore import DesignSpace, PlatformSpec, explore
from repro.explore.runner import _run_task
from repro.partition import EngineConfig, TableResolver
from repro.search import AnnealingPartitioner, make_partitioner
from repro.serve import JobRequest, Server, ServerConfig
from repro.specs import algorithm_spec_from_text, workload_spec_from_text
from repro.suite import Scenario, run_scenario

WORKLOADS = ("ofdm", "synthetic:48:seed=3", "minic:7")
ALGORITHMS = ("greedy", "exhaustive", "annealing", "multi_start")
FRACTION = 0.5
CASES = list(
    itertools.product(WORKLOADS, ALGORITHMS, ("fraction", "constraint"))
)
FRACTION_CASES = [case for case in CASES if case[2] == "fraction"]


@cache
def _built(workload):
    return workload_spec_from_text(workload).build()


def _reference_partitioner(workload, algorithm):
    return make_partitioner(
        algorithm_spec_from_text(algorithm),
        _built(workload),
        PlatformSpec().build(),
        config=EngineConfig(),
    )


@cache
def absolute_constraint(workload):
    """One absolute target per workload, well below the all-FPGA time."""
    return _reference_partitioner(workload, "greedy").initial_cycles() // 3


@cache
def reference(workload, algorithm, target):
    partitioner = _reference_partitioner(workload, algorithm)
    if target == "fraction":
        initial = partitioner.initial_cycles()
        return partitioner.run(max(1, round(initial * FRACTION)))
    return partitioner.run(absolute_constraint(workload))


def request(workload, algorithm, target):
    kwargs = (
        {"fraction": FRACTION}
        if target == "fraction"
        else {"constraint": absolute_constraint(workload)}
    )
    return JobRequest(
        workload=workload_spec_from_text(workload),
        algorithm=algorithm_spec_from_text(algorithm),
        **kwargs,
    )


def serve_all(workers):
    """Every case as one served job, all queued before ``start()`` so
    each pair's group is one batch (a forked pool when ``workers > 1``).
    """
    server = Server(ServerConfig(workers=workers))
    ids = {case: server.submit(request(*case)) for case in CASES}
    server.start()
    try:
        return {
            case: server.await_result(job_id, timeout=120)
            for case, job_id in ids.items()
        }
    finally:
        server.shutdown()


@pytest.fixture(scope="module")
def served_serially():
    return serve_all(workers=1)


@pytest.fixture(scope="module")
def served_on_a_pool():
    return serve_all(workers=2)


@pytest.fixture(scope="module")
def explored():
    space = DesignSpace(
        workloads=tuple(workload_spec_from_text(w) for w in WORKLOADS),
        platforms=(PlatformSpec(),),
        constraint_fractions=(FRACTION,),
        algorithms=tuple(algorithm_spec_from_text(a) for a in ALGORITHMS),
    )
    report = explore(space, max_workers=1)
    # Grid order: workloads x platforms x algorithms x fractions.
    return dict(zip(FRACTION_CASES, report.results, strict=True))


@pytest.fixture(scope="module")
def resolver():
    return TableResolver()


@pytest.mark.parametrize("case", CASES, ids="-".join)
def test_cli_prints_the_reference_result(case, capsys):
    workload, algorithm, target = case
    flag = (
        ["--fraction", str(FRACTION)]
        if target == "fraction"
        else ["--constraint", str(absolute_constraint(workload))]
    )
    assert main(
        ["partition", "--workload", workload, "--algorithm", algorithm,
         *flag]
    ) == 0
    expected = reference(*case)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"algorithm: {algorithm}"
    assert lines[1] == expected.summary()
    assert lines[2:] == [
        f"  moved BB {step.moved_bb_id:>3}: total {step.total_cycles} "
        f"(fpga {step.fpga_cycles}, cgc {step.cgc_fpga_cycles}, "
        f"comm {step.comm_cycles}) {'met' if step.constraint_met else '   '}"
        for step in expected.steps
    ]


@pytest.mark.parametrize("case", CASES, ids="-".join)
def test_served_job_equals_the_reference(
    case, served_serially, served_on_a_pool
):
    expected = reference(*case)
    for records in (served_serially, served_on_a_pool):
        record = records[case]
        assert record.state == "done", record.error
        assert record.result == expected


@pytest.mark.parametrize("case", FRACTION_CASES, ids="-".join)
def test_scenario_and_explore_cell_equal_the_reference(
    case, explored, resolver
):
    workload, algorithm, _ = case
    expected = reference(*case)
    scenario = run_scenario(
        Scenario(
            name="-".join(case),
            workload=workload_spec_from_text(workload),
            constraint_fraction=FRACTION,
            algorithm=algorithm_spec_from_text(algorithm),
        ),
        resolver,
    )
    cell = explored[case]
    assert (
        scenario.timing_constraint,
        scenario.total_cycles,
        scenario.moved_bb_ids,
    ) == (
        expected.timing_constraint,
        expected.final_cycles,
        tuple(sorted(expected.moved_bb_ids)),
    )
    assert (cell.timing_constraint, cell.final_cycles, cell.moved_bb_ids) == (
        expected.timing_constraint,
        expected.final_cycles,
        tuple(expected.moved_bb_ids),
    )


def test_explore_task_runs_the_annealing_walk_once(monkeypatch):
    """One job carries all its fractions onto one partitioner, so the
    constraint-independent annealing walk runs once for three."""
    walks = []
    original = AnnealingPartitioner._anneal

    def counting(self):
        if self._best_mask is None:
            walks.append(self)
        return original(self)

    monkeypatch.setattr(AnnealingPartitioner, "_anneal", counting)
    [job] = DesignSpace(
        workloads=(workload_spec_from_text("ofdm"),),
        platforms=(PlatformSpec(),),
        constraint_fractions=(0.9, 0.5, 0.3),
        algorithms=(algorithm_spec_from_text("annealing"),),
    ).tasks()
    outcome = _run_task(job, TableResolver())
    assert [r.constraint_fraction for r in outcome.results] == [0.9, 0.5, 0.3]
    assert len(walks) == 1
