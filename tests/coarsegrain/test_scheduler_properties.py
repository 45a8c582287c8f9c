"""Property-based tests of the CGC list scheduler and binder."""

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_schedule_dfg

from repro.coarsegrain import bind_schedule, schedule_dfg
from repro.coarsegrain.datapath import CGCDatapath
from repro.coarsegrain.cgc import CGC, CGCGeometry, make_cgc_array
from repro.workloads import SyntheticBlockProfile, generate_dfg

profiles = st.builds(
    SyntheticBlockProfile,
    bb_id=st.integers(1, 400),
    exec_freq=st.just(1),
    alu_ops=st.integers(1, 30),
    mul_ops=st.integers(0, 12),
    load_ops=st.integers(0, 14),
    store_ops=st.integers(0, 5),
    width=st.floats(1.0, 5.0),
    serial_memory=st.just(False),
)

serial_profiles = st.builds(
    SyntheticBlockProfile,
    bb_id=st.integers(1, 400),
    exec_freq=st.just(1),
    alu_ops=st.integers(1, 15),
    mul_ops=st.integers(0, 6),
    load_ops=st.integers(0, 12),
    store_ops=st.integers(1, 5),
    width=st.just(1.0),
    serial_memory=st.just(True),
)

geometries = st.sampled_from(
    [CGCGeometry(2, 2), CGCGeometry(2, 3), CGCGeometry(4, 2), CGCGeometry(1, 3)]
)

#: 1–3 identical CGCs, or 2–3 CGCs of mixed shapes (chain depths differ).
cgc_arrays = st.one_of(
    st.integers(1, 3).map(lambda n: make_cgc_array(n)),
    st.lists(geometries, min_size=2, max_size=3).map(
        lambda shapes: [CGC(index, shape) for index, shape in enumerate(shapes)]
    ),
)

datapaths = st.builds(
    CGCDatapath,
    cgcs=cgc_arrays,
    memory_ports=st.integers(1, 3),
    register_bank_size=st.just(256),
    memory_latency=st.integers(1, 4),
)


@settings(max_examples=40, deadline=None)
@given(profile=profiles, datapath=datapaths)
def test_schedule_always_legal(profile, datapath):
    """validate() (deps, chains, ports, slots) passes for every schedule."""
    schedule = schedule_dfg(generate_dfg(profile), datapath)
    schedule.validate()


@settings(max_examples=30, deadline=None)
@given(profile=serial_profiles, datapath=datapaths)
def test_schedule_legal_on_serial_blocks(profile, datapath):
    schedule = schedule_dfg(generate_dfg(profile), datapath)
    schedule.validate()


@settings(max_examples=60, deadline=None)
@given(
    profile=st.one_of(profiles, serial_profiles), datapath=datapaths
)
def test_schedule_equals_reference(profile, datapath):
    """The ready-list scheduler places every op as the reference does:
    same fields, same ``ops`` insertion order."""
    dfg = generate_dfg(profile)
    ops = schedule_dfg(dfg, datapath).ops
    assert list(ops.items()) == list(oracle_schedule_dfg(dfg, datapath).ops.items())


@settings(max_examples=30, deadline=None)
@given(profile=profiles, datapath=datapaths)
def test_binding_always_feasible(profile, datapath):
    """Every schedule binds onto physical nodes with no double booking."""
    schedule = schedule_dfg(generate_dfg(profile), datapath)
    binding = bind_schedule(schedule)
    binding.validate()


@settings(max_examples=30, deadline=None)
@given(profile=profiles)
def test_makespan_bounds(profile):
    """Makespan is at least the slot/critical-path lower bound and at most
    fully serial execution."""
    dfg = generate_dfg(profile)
    datapath = CGCDatapath(cgcs=make_cgc_array(2))
    schedule = schedule_dfg(dfg, datapath)
    compute = len([n for n in dfg.nodes if n.op_class.value in ("alu", "mul")])
    mem = len([n for n in dfg.nodes if n.op_class.value == "mem"])
    lower = max(
        -(-compute // datapath.node_slots_per_cycle),
        -(-mem // datapath.memory_ports) if mem else 0,
    )
    upper = compute + mem * datapath.memory_latency + 1
    assert lower <= schedule.makespan <= upper


@settings(max_examples=25, deadline=None)
@given(profile=profiles)
def test_more_resources_bounded_anomaly(profile):
    """Greedy list scheduling exhibits Graham's timing anomalies: adding a
    CGC can occasionally lengthen a schedule by spreading a chain across
    components.  The anomaly is bounded — the bigger data-path can never be
    worse than 2x the smaller one (Graham's factor for list scheduling) —
    and on average it helps (asserted deterministically elsewhere)."""
    dfg = generate_dfg(profile)
    small = CGCDatapath(cgcs=make_cgc_array(2), memory_ports=2)
    large = CGCDatapath(cgcs=make_cgc_array(3), memory_ports=3)
    small_makespan = schedule_dfg(dfg, small).makespan
    large_makespan = schedule_dfg(dfg, large).makespan
    assert large_makespan <= 2 * max(small_makespan, 1)
