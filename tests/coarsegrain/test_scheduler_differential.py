"""The ready-list scheduler places every op exactly as the reference.

``oracles.RetryListScheduler`` is the seed scheduler, which re-sorts and
retries every unplaced node on each pass of each cycle.  For every block
of every workload kind, on data-paths covering 1–3 CGCs, 2x2/2x3/4x2 and
mixed geometries, 1–3 memory ports and memory latencies 1, 3 and 4, the
production schedule must equal the reference in every ``ScheduledOp``
field and in the ``ops`` insertion order.
"""

import pytest
from oracles import oracle_schedule_dfg

from repro.coarsegrain import CGC, CGCDatapath, CGCGeometry, make_cgc_array
from repro.coarsegrain import schedule_dfg
from repro.explore import WorkloadSpec


def _datapath(cgcs, ports, latency):
    return CGCDatapath(cgcs=cgcs, memory_ports=ports, memory_latency=latency)


DATAPATHS = [
    _datapath(make_cgc_array(1, 2, 2), 1, 1),
    _datapath(make_cgc_array(2, 2, 2), 2, 3),
    _datapath(make_cgc_array(3, 2, 2), 3, 4),
    _datapath(make_cgc_array(2, 2, 3), 1, 4),
    _datapath(make_cgc_array(3, 2, 3), 2, 1),
    _datapath(make_cgc_array(1, 4, 2), 3, 3),
    _datapath(make_cgc_array(2, 4, 2), 2, 4),
    _datapath(
        [
            CGC(0, CGCGeometry(2, 2)),
            CGC(1, CGCGeometry(4, 2)),
            CGC(2, CGCGeometry(1, 3)),
        ],
        2,
        3,
    ),
]

SPECS = [
    WorkloadSpec.jpeg(),
    WorkloadSpec.ofdm(),
    WorkloadSpec.jpeg_measured(),
    WorkloadSpec.ofdm_measured(),
    WorkloadSpec.filterbank(),
    WorkloadSpec.viterbi(),
    WorkloadSpec.minic(1),
    WorkloadSpec.synthetic(32, seed=3),
]


def test_specs_cover_every_workload_kind():
    assert {spec.kind for spec in SPECS} == set(WorkloadSpec._KINDS)


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
def test_schedules_equal_reference(spec):
    schedules = 0
    for block in spec.build().blocks:
        for datapath in DATAPATHS:
            if not datapath.supports_dfg(block.dfg):
                continue
            ops = schedule_dfg(block.dfg, datapath).ops
            reference = oracle_schedule_dfg(block.dfg, datapath).ops
            assert list(ops.items()) == list(reference.items()), (
                f"{spec.label} bb{block.bb_id} on {datapath.describe()}"
            )
            schedules += 1
    assert schedules > 0
