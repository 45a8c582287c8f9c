"""Named scenario suite with persistent results and regression gating.

The answer to "did I regress anything?": a registry of named end-to-end
scenarios (:mod:`.scenarios`), a batched runner executing each
scenario's :class:`~repro.job.Job` through :func:`~repro.job.run_job`,
the path the CLI, explore and serve share (:mod:`.runner`), an
SQLite/JSON result store stamping every run with a code fingerprint
(:mod:`.store`, :mod:`.fingerprint`), and a thresholded comparison
layer (:mod:`.compare`) that CI gates on via
``python -m repro suite compare``.
"""

from .compare import (
    RegressionThresholds,
    ScenarioDelta,
    SuiteComparison,
    assert_no_regressions,
    compare_runs,
)
from .fingerprint import content_fingerprint, git_describe, repo_fingerprint
from .runner import run_scenario, run_suite
from .scenarios import (
    SCENARIOS,
    Scenario,
    default_suite,
    get_scenario,
    register_scenario,
    scenario_names,
    select_scenarios,
)
from .store import (
    ResultStore,
    ScenarioResult,
    ScenarioTrendPoint,
    SuiteRun,
    read_run_json,
)

__all__ = [
    "SCENARIOS",
    "RegressionThresholds",
    "ResultStore",
    "Scenario",
    "ScenarioDelta",
    "ScenarioResult",
    "ScenarioTrendPoint",
    "SuiteComparison",
    "SuiteRun",
    "assert_no_regressions",
    "compare_runs",
    "content_fingerprint",
    "default_suite",
    "get_scenario",
    "git_describe",
    "read_run_json",
    "register_scenario",
    "repo_fingerprint",
    "run_scenario",
    "run_suite",
    "scenario_names",
    "select_scenarios",
]
