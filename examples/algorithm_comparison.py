"""Comparing partitioning algorithms head-to-head.

The paper's Figure 2 flow is one specific search strategy — greedy by
Eq. 1 weight.  :mod:`repro.search` makes the strategy pluggable: this
example runs all three registered algorithms (greedy, the closed-form
exhaustive search, simulated annealing) on the OFDM transmitter and on
a skewed synthetic workload under a kernel-move budget, prints the
head-to-head table, and renders the combined Pareto front of
(total cycles, kernels moved, CGC rows) — the multi-objective view a
single greedy answer hides.

Run:  PYTHONPATH=src python examples/algorithm_comparison.py
"""

import tempfile
from pathlib import Path

from repro.partition import (
    ApplicationWorkload,
    BlockWorkload,
    EngineConfig,
)
from repro.platform import paper_platform
from repro.reporting import render_pareto, write_pareto_csv
from repro.reporting.tables import format_grid
from repro.search import AlgorithmSpec, front_of_results, make_partitioner
from repro.workloads import generate_dfg, make_profile, ofdm_workload

ALL_SPECS = (
    AlgorithmSpec.greedy(),
    AlgorithmSpec.exhaustive(),
    AlgorithmSpec.annealing(seed=1),
)


def skewed_workload() -> ApplicationWorkload:
    """The greedy trap: the heaviest kernel (BB 1, Eq. 1 weight 60000)
    saves almost nothing because its 55-word live sets make communication
    eat the FPGA time it frees, while two lighter kernels each save an
    order of magnitude more."""

    def block(bb_id, freq, weight, **kwargs):
        profile = make_profile(bb_id, freq, weight, **kwargs)
        return BlockWorkload(
            bb_id=bb_id,
            exec_freq=freq,
            dfg=generate_dfg(profile),
            comm_words_in=profile.live_in_words,
            comm_words_out=profile.live_out_words,
        )

    return ApplicationWorkload(
        name="skewed",
        blocks=[
            block(1, 3000, 20, width=1.0, live=(55, 55)),
            block(2, 900, 50, mul_fraction=0.5, live=(2, 1)),
            block(3, 800, 48, mul_fraction=0.5, live=(2, 1)),
            block(4, 50, 6),
        ],
    )


def compare(workload, platform, specs, *, move_budget=None, fraction=0.5):
    """Run every algorithm on one scenario; returns (rows, fronts)."""
    rows = []
    fronts = []
    for spec in specs:
        partitioner = make_partitioner(
            spec,
            workload,
            platform,
            config=EngineConfig(
                stop_at_constraint=False, max_kernels_moved=move_budget
            ),
        )
        constraint = max(
            1, round(partitioner.initial_cycles() * fraction)
        )
        result = partitioner.run(constraint)
        fronts.append(partitioner.pareto_front())
        rows.append(
            [
                spec.label,
                str(result.final_cycles),
                f"{result.reduction_percent:.1f}",
                str(result.kernels_moved),
                str(partitioner.visited_count),
                "yes" if result.constraint_met else "no",
            ]
        )
    return rows, fronts


def main() -> None:
    headers = ["algorithm", "final", "red %", "moved", "visited", "met"]

    print("=== OFDM transmitter, A_FPGA=1500, 2 CGCs, C = 0.5 x initial ===")
    rows, __ = compare(ofdm_workload(), paper_platform(1500, 2), ALL_SPECS)
    print(format_grid(headers, rows))

    print(
        "\n=== Skewed synthetic workload, 2-kernel move budget ===\n"
        "(the heaviest kernel saves the least: weight-order greedy wastes "
        "a budget slot)"
    )
    rows, fronts = compare(
        skewed_workload(), paper_platform(1500, 2), ALL_SPECS, move_budget=2
    )
    print(format_grid(headers, rows))

    combined = front_of_results(fronts)
    print("\nCombined Pareto front (cycles vs kernels moved vs CGC rows):")
    print(render_pareto(combined))

    out = Path(tempfile.mkdtemp(prefix="search-")) / "pareto.csv"
    write_pareto_csv(combined, out)
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
