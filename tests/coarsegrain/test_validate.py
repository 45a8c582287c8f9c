"""``CGCSchedule.validate()`` rejects every kind of illegal schedule.

Each bad schedule below is built by hand from a legal one and breaks
exactly one rule.  The one-pass production check and the per-cycle
reference (``oracles.validate_per_cycle``) must both accept the legal
schedule and reject the bad one, with the same message.
"""

import pytest
from oracles import validate_per_cycle

from repro.coarsegrain import (
    CGCDatapath,
    CGCSchedule,
    ScheduledOp,
    make_cgc_array,
    schedule_dfg,
    standard_datapath,
)
from repro.frontend.ast_nodes import Type
from repro.ir import (
    ArrayBase,
    BasicBlock,
    Const,
    DataFlowGraph,
    Instruction,
    Opcode,
    Temp,
)

VALIDATORS = [
    pytest.param(CGCSchedule.validate, id="one-pass"),
    pytest.param(validate_per_cycle, id="per-cycle"),
]

SHARED = ArrayBase("g", Type.INT)


def t(i):
    return Temp(i, Type.INT)


def make_dfg(instructions):
    block = BasicBlock("t")
    for ins in instructions:
        block.append(ins)
    block.append(Instruction(Opcode.RET))
    return DataFlowGraph(block)


def add(dest, source=None):
    operand = Const(1) if source is None else t(source)
    return Instruction(Opcode.ADD, dest=t(dest), operands=(operand, Const(1)))


def copy(dest, source=None):
    operand = Const(1) if source is None else t(source)
    return Instruction(Opcode.COPY, dest=t(dest), operands=(operand,))


def load(dest, index):
    return Instruction(Opcode.LOAD, dest=t(dest), operands=(SHARED, Const(index)))


def store(value):
    return Instruction(Opcode.STORE, operands=(SHARED, Const(0), t(value)))


def node(node_id, cycle, depth, cgc):
    return ScheduledOp(node_id, cycle, depth, cgc, "node")


def move(node_id, cycle, depth, cgc):
    return ScheduledOp(node_id, cycle, depth, cgc, "move", duration=0)


def mem(node_id, cycle, port):
    return ScheduledOp(node_id, cycle, 0, None, "mem", duration=3, port=port)


def schedule_of(dfg, datapath, ops):
    return CGCSchedule(dfg, datapath, {op.node_id: op for op in ops})


TWO_2X2 = standard_datapath(2)  # two 2-row CGCs, 2 ports, latency 3
ONE_PORT = CGCDatapath(cgcs=make_cgc_array(2), memory_ports=1)

#: (name, dfg, datapath, legal ops, bad ops, expected message).
CASES = [
    (
        "node-missing",
        make_dfg([add(0), add(1)]),
        TWO_2X2,
        [node(0, 0, 1, 0), node(1, 0, 1, 1)],
        [node(0, 0, 1, 0)],
        "does not cover every DFG node",
    ),
    (
        "ports-over-count",
        make_dfg([load(0, 0), load(1, 1)]),
        ONE_PORT,
        [mem(0, 0, 0), mem(1, 3, 0)],
        [mem(0, 0, 0), mem(1, 0, 1)],
        "2 memory ops exceed 1 ports",
    ),
    (
        "port-double-booked",
        make_dfg([load(0, 0), load(1, 1)]),
        TWO_2X2,
        [mem(0, 0, 0), mem(1, 1, 1)],
        [mem(0, 0, 0), mem(1, 1, 0)],
        "port double-booked",
    ),
    (
        "cgc-over-capacity",
        make_dfg([add(i) for i in range(5)]),
        TWO_2X2,
        [*(node(i, 0, 1, 0) for i in range(4)), node(4, 0, 1, 1)],
        [node(i, 0, 1, 0) for i in range(5)],
        "CGC 0 issues 5 ops, capacity 4",
    ),
    (
        "consumer-before-producer-ends",
        make_dfg([load(0, 0), add(1, source=0)]),
        TWO_2X2,
        [mem(0, 0, 0), node(1, 3, 1, 0)],
        [mem(0, 0, 0), node(1, 1, 1, 0)],
        "consumer starts at 1 before producer finishes at 3",
    ),
    (
        "memory-op-chained",
        make_dfg([add(0), store(0)]),
        TWO_2X2,
        [node(0, 0, 1, 0), mem(1, 1, 0)],
        [node(0, 0, 1, 0), mem(1, 0, 0)],
        "memory ops cannot chain in-cycle",
    ),
    (
        "chain-crosses-cgcs",
        make_dfg([add(0), add(1, source=0)]),
        TWO_2X2,
        [node(0, 0, 1, 0), node(1, 0, 2, 0)],
        [node(0, 0, 1, 0), node(1, 0, 2, 1)],
        "chain crosses CGC boundary",
    ),
    (
        "chain-deeper-than-rows",
        make_dfg([add(0), add(1, source=0), add(2, source=1)]),
        TWO_2X2,
        [node(0, 0, 1, 0), node(1, 0, 2, 0), node(2, 1, 1, 0)],
        [node(0, 0, 1, 0), node(1, 0, 2, 0), node(2, 0, 3, 0)],
        "chain depth 3 exceeds limit 2",
    ),
    (
        "chain-depth-not-increasing",
        make_dfg([add(0), add(1, source=0)]),
        TWO_2X2,
        [node(0, 0, 1, 0), node(1, 0, 2, 0)],
        [node(0, 0, 1, 0), node(1, 0, 1, 0)],
        "chain depth not increasing",
    ),
]


@pytest.mark.parametrize("validate", VALIDATORS)
@pytest.mark.parametrize(
    "dfg, datapath, legal, bad, message",
    [pytest.param(*case[1:], id=case[0]) for case in CASES],
)
def test_rejects_each_broken_rule(validate, dfg, datapath, legal, bad, message):
    validate(schedule_of(dfg, datapath, legal))
    with pytest.raises(AssertionError, match=message):
        validate(schedule_of(dfg, datapath, bad))


# A move (copy or constant routing) takes no time: its ``end`` is its own
# cycle, so a same-cycle edge out of it must still obey the chain rules.
# Each schedule below hides an illegal chain behind a move.
MOVE_CHAINS = [
    (
        "crosses-cgcs-through-move",
        make_dfg([add(0), copy(1, source=0), add(2, source=1)]),
        [node(0, 0, 1, 0), move(1, 0, 1, 0), node(2, 0, 2, 1)],
        "chain crosses CGC boundary",
    ),
    (
        "deeper-than-rows-through-moves",
        make_dfg(
            [
                add(0),
                copy(1, source=0),
                add(2, source=1),
                copy(3, source=2),
                add(4, source=3),
            ]
        ),
        [
            node(0, 0, 1, 0),
            move(1, 0, 1, 0),
            node(2, 0, 2, 0),
            move(3, 0, 2, 0),
            node(4, 0, 3, 0),
        ],
        "chain depth 3 exceeds limit 2",
    ),
    (
        "depth-not-increasing-through-move",
        make_dfg([add(0), copy(1, source=0), add(2, source=1)]),
        [node(0, 0, 1, 0), move(1, 0, 1, 0), node(2, 0, 1, 0)],
        "chain depth not increasing",
    ),
    (
        "move-shallower-than-producer",
        make_dfg([add(0), add(1, source=0), copy(2, source=1)]),
        [node(0, 0, 1, 0), node(1, 0, 2, 0), move(2, 0, 1, 0)],
        "chain depth decreases into a move",
    ),
    (
        "memory-op-chained-after-move",
        make_dfg([copy(0), store(0)]),
        [move(0, 0, 0, None), mem(1, 0, 0)],
        "memory ops cannot chain in-cycle",
    ),
]


@pytest.mark.parametrize("validate", VALIDATORS)
@pytest.mark.parametrize(
    "dfg, bad, message",
    [pytest.param(*case[1:], id=case[0]) for case in MOVE_CHAINS],
)
def test_rejects_illegal_chain_through_move(validate, dfg, bad, message):
    with pytest.raises(AssertionError, match=message):
        validate(schedule_of(dfg, TWO_2X2, bad))


@pytest.mark.parametrize("validate", VALIDATORS)
def test_accepts_legal_chain_through_move(validate):
    dfg = make_dfg([add(0), copy(1, source=0), add(2, source=1)])
    legal = schedule_of(
        dfg, TWO_2X2, [node(0, 0, 1, 0), move(1, 0, 1, 0), node(2, 0, 2, 0)]
    )
    validate(legal)
    assert schedule_dfg(dfg, TWO_2X2).ops == legal.ops
