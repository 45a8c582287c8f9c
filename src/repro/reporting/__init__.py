"""Experiment reproduction runners and table rendering.

Names resolve on first use, so rendering a Pareto front or an
exploration grid does not load the suite store (sqlite3).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .experiments import (
        HeadlineClaims as HeadlineClaims,
        PartitionComparison as PartitionComparison,
        Table1Comparison as Table1Comparison,
        TableReproduction as TableReproduction,
        reproduce_headline_claims as reproduce_headline_claims,
        reproduce_partition_table as reproduce_partition_table,
        reproduce_table1 as reproduce_table1,
        reproduce_table1_jpeg as reproduce_table1_jpeg,
        reproduce_table1_ofdm as reproduce_table1_ofdm,
        reproduce_table2 as reproduce_table2,
        reproduce_table3 as reproduce_table3,
        scaled_constraint as scaled_constraint,
    )
    from .exploration import (
        render_exploration as render_exploration,
        render_pareto as render_pareto,
        write_exploration_csv as write_exploration_csv,
        write_exploration_json as write_exploration_json,
        write_pareto_csv as write_pareto_csv,
    )
    from .suite import (
        render_suite as render_suite,
        render_suite_diff as render_suite_diff,
        write_suite_csv as write_suite_csv,
        write_suite_json as write_suite_json,
    )
    from .tables import (
        format_grid as format_grid,
        render_partition_table as render_partition_table,
        render_table1 as render_table1,
    )
    from .trends import (
        MetricStep as MetricStep,
        ScenarioTrend as ScenarioTrend,
        StepThresholds as StepThresholds,
        TrendsReport as TrendsReport,
        compute_trends as compute_trends,
        detect_first_step as detect_first_step,
        render_trends as render_trends,
        write_trends_csv as write_trends_csv,
        write_trends_html as write_trends_html,
    )

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".experiments": (
        "HeadlineClaims", "PartitionComparison", "Table1Comparison",
        "TableReproduction", "reproduce_headline_claims", "reproduce_partition_table",
        "reproduce_table1", "reproduce_table1_jpeg", "reproduce_table1_ofdm",
        "reproduce_table2", "reproduce_table3", "scaled_constraint",
    ),
    ".exploration": (
        "render_exploration", "render_pareto", "write_exploration_csv",
        "write_exploration_json", "write_pareto_csv",
    ),
    ".suite": (
        "render_suite", "render_suite_diff", "write_suite_csv", "write_suite_json",
    ),
    ".tables": ("format_grid", "render_partition_table", "render_table1"),
    ".trends": (
        "MetricStep", "ScenarioTrend", "StepThresholds", "TrendsReport",
        "compute_trends", "detect_first_step", "render_trends", "write_trends_csv",
        "write_trends_html",
    ),
})
