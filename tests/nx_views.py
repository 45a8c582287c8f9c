"""NetworkX views of the IR graphs, for tests that want graph algorithms.

networkx is a test-only dependency: the library keeps DFG edges as
predecessor/successor tuples and CFG edges on the blocks' terminators,
and never imports it.
"""

from __future__ import annotations

import networkx as nx

from repro.ir.cfg import ControlFlowGraph
from repro.ir.dfg import DataFlowGraph


def to_networkx(graph: DataFlowGraph | ControlFlowGraph) -> nx.DiGraph:
    """A labelled copy of a DFG (nodes = node ids) or CFG (nodes = labels)."""
    if isinstance(graph, ControlFlowGraph):
        view = nx.DiGraph(function=graph.function_name)
        for label, block in graph.blocks.items():
            view.add_node(label, size=len(block), bb_id=block.bb_id)
        for label in graph.blocks:
            for successor in graph.successors(label):
                view.add_edge(label, successor)
        return view
    view = nx.DiGraph(block=graph.block.label)
    for node in graph.nodes:
        view.add_node(
            node.node_id,
            opcode=node.opcode.mnemonic,
            op_class=node.op_class.value,
        )
    view.add_edges_from(graph.edges())
    return view


def is_acyclic(graph: DataFlowGraph | ControlFlowGraph) -> bool:
    return nx.is_directed_acyclic_graph(to_networkx(graph))
