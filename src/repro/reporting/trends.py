"""Longitudinal trend analytics over the suite result store.

The SQLite :class:`~repro.suite.store.ResultStore` records every suite
run with a code fingerprint; this module reads it *longitudinally*: one
trajectory per scenario across runs, for the three gated metrics
(total cycles, wall seconds, configs/second) plus the per-phase
breakdowns schema v4 stores from the telemetry traces.

On each trajectory a simple step detector flags the **first** run where
a metric moved beyond a noise threshold in the bad direction (cycles or
wall up, throughput down), comparing each value against the median of
all prior values — the median is robust to one-off spikes, so a step
is a *sustained* change, and the flag names the first offending run's
fingerprint, which is exactly the commit a perf regression hunt starts
from.  Noise floors keep micro-scenarios (sub-ms walls, tiny searches)
from flagging timer jitter.

Legacy runs with an empty ``created_at`` (a pre-fix bench artifact) are
handled throughout by ordering on run id — which the store's queries do
inherently — and displaying ``-`` for the missing timestamp.

Outputs: an ASCII report (:func:`render_trends`), a CSV of every
(scenario × run) row (:func:`write_trends_csv`) and a self-contained
HTML artifact (:func:`write_trends_html`) for CI uploads.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..suite.store import ResultStore, ScenarioTrendPoint
from .tables import format_grid

#: (metric key, attribute on ScenarioTrendPoint, worse direction).
_METRICS: tuple[tuple[str, str, str], ...] = (
    ("total_cycles", "total_cycles", "up"),
    ("wall_time_seconds", "wall_time_seconds", "up"),
    ("configs_per_second", "configs_per_second", "down"),
)


@dataclass(frozen=True)
class StepThresholds:
    """Noise thresholds of the step detector, per metric.

    ``*_percent`` is the minimum deviation from the median of prior
    values (in the worse direction) that counts as a step.  Cycles are
    deterministic on this codebase, so their threshold is tight; wall
    time and throughput are timer-noisy, so theirs are wide.  The
    ``min_*`` floors exempt values too small to time reliably.
    """

    cycle_percent: float = 10.0
    wall_percent: float = 75.0
    throughput_percent: float = 60.0
    #: Wall values below this (seconds) never flag — timer jitter.
    min_wall_seconds: float = 0.05
    #: Throughput values below this (cfg/s) never flag.
    min_configs_per_second: float = 1000.0

    def percent_for(self, metric: str) -> float:
        return {
            "total_cycles": self.cycle_percent,
            "wall_time_seconds": self.wall_percent,
            "configs_per_second": self.throughput_percent,
        }[metric]

    def floor_for(self, metric: str) -> float:
        return {
            "total_cycles": 0.0,
            "wall_time_seconds": self.min_wall_seconds,
            "configs_per_second": self.min_configs_per_second,
        }[metric]


@dataclass(frozen=True)
class MetricStep:
    """The first run where one scenario metric stepped."""

    scenario: str
    metric: str
    run_id: int
    fingerprint: str
    created_at: str
    baseline_value: float
    value: float
    delta_percent: float

    def describe(self) -> str:
        when = self.created_at or "-"
        return (
            f"{self.scenario}: {self.metric} stepped "
            f"{self.delta_percent:+.1f}% at run {self.run_id} "
            f"(fingerprint {self.fingerprint}, {when}) — "
            f"{self.baseline_value:g} -> {self.value:g}"
        )


@dataclass
class ScenarioTrend:
    """One scenario's trajectory plus any detected steps."""

    name: str
    points: list[ScenarioTrendPoint] = field(default_factory=list)
    steps: list[MetricStep] = field(default_factory=list)

    @property
    def latest(self) -> ScenarioTrendPoint | None:
        return self.points[-1] if self.points else None

    def phase_names(self) -> list[str]:
        names: set[str] = set()
        for point in self.points:
            names.update(name for name, _ in point.phases)
        return sorted(names)


@dataclass
class TrendsReport:
    """Every requested scenario's trend in one report."""

    trends: list[ScenarioTrend] = field(default_factory=list)
    thresholds: StepThresholds = field(default_factory=StepThresholds)

    @property
    def steps(self) -> list[MetricStep]:
        return [step for trend in self.trends for step in trend.steps]

    def phase_names(self) -> list[str]:
        names: set[str] = set()
        for trend in self.trends:
            names.update(trend.phase_names())
        return sorted(names)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def detect_first_step(
    values: Sequence[float],
    threshold_percent: float,
    worse_direction: str = "up",
    floor: float = 0.0,
) -> tuple[int, float, float] | None:
    """The first index where a series stepped beyond the threshold.

    Each value is compared against the **median of all prior values**
    (so a detected step survives earlier one-off outliers); the first
    deviation beyond ``threshold_percent`` in ``worse_direction``
    (``"up"`` or ``"down"``) is returned as
    ``(index, baseline_median, delta_percent)``.  A comparison is
    skipped while both sides sit below ``floor`` (too small to measure)
    or the baseline is zero.  ``None`` means the series never stepped.
    """
    if worse_direction not in ("up", "down"):
        raise ValueError("worse_direction must be 'up' or 'down'")
    for index in range(1, len(values)):
        baseline = _median(values[:index])
        value = values[index]
        if baseline <= 0:
            continue
        if value < floor and baseline < floor:
            continue
        delta_percent = (value - baseline) / baseline * 100.0
        if worse_direction == "up" and delta_percent > threshold_percent:
            return index, baseline, delta_percent
        if worse_direction == "down" and delta_percent < -threshold_percent:
            return index, baseline, delta_percent
    return None


def _detect_steps(
    trend: ScenarioTrend, thresholds: StepThresholds
) -> list[MetricStep]:
    steps: list[MetricStep] = []
    for metric, attribute, direction in _METRICS:
        series = [
            float(getattr(point, attribute)) for point in trend.points
        ]
        hit = detect_first_step(
            series,
            thresholds.percent_for(metric),
            direction,
            thresholds.floor_for(metric),
        )
        if hit is None:
            continue
        index, baseline, delta_percent = hit
        point = trend.points[index]
        steps.append(
            MetricStep(
                scenario=trend.name,
                metric=metric,
                run_id=point.run_id,
                fingerprint=point.fingerprint,
                created_at=point.created_at,
                baseline_value=baseline,
                value=series[index],
                delta_percent=delta_percent,
            )
        )
    return steps


def compute_trends(
    store: ResultStore,
    scenarios: Iterable[str] | None = None,
    thresholds: StepThresholds | None = None,
) -> TrendsReport:
    """Trend + step detection for each scenario in the store.

    ``scenarios=None`` covers every scenario with recorded results;
    passing names keeps them in the given order (unknown names yield an
    empty trend rather than an error, so a report over a fixed scenario
    list tolerates stores that have not run all of them yet).
    """
    thresholds = thresholds or StepThresholds()
    names = (
        store.scenario_names_recorded()
        if scenarios is None
        else list(scenarios)
    )
    report = TrendsReport(thresholds=thresholds)
    for name in names:
        trend = ScenarioTrend(
            name=name, points=store.scenario_trend_points(name)
        )
        trend.steps = _detect_steps(trend, thresholds)
        report.trends.append(trend)
    return report


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt_when(created_at: str) -> str:
    return created_at or "-"


def render_trends(report: TrendsReport) -> str:
    """The report as ASCII tables: one summary grid (latest values and
    phase-breakdown columns) plus one line per flagged step."""
    phase_names = report.phase_names()
    headers = [
        "scenario",
        "runs",
        "cycles",
        "cycles Δ%",
        "wall s",
        "cfg/s",
    ] + [f"{name} s" for name in phase_names]
    rows = []
    for trend in report.trends:
        latest = trend.latest
        if latest is None:
            rows.append(
                [trend.name, "0", "-", "-", "-", "-"]
                + ["-"] * len(phase_names)
            )
            continue
        first_cycles = trend.points[0].total_cycles
        drift = (
            (latest.total_cycles - first_cycles) / first_cycles * 100.0
            if first_cycles
            else 0.0
        )
        phases = latest.phases_dict()
        rows.append(
            [
                trend.name,
                str(len(trend.points)),
                str(latest.total_cycles),
                f"{drift:+.1f}",
                f"{latest.wall_time_seconds:.3f}",
                f"{latest.configs_per_second:.0f}",
            ]
            + [
                f"{phases[name]:.3f}" if name in phases else "-"
                for name in phase_names
            ]
        )
    table = format_grid(headers, rows)
    if not report.steps:
        return f"{table}\nno metric steps detected"
    lines = [table, f"{len(report.steps)} metric step(s) detected:"]
    lines.extend(f"  {step.describe()}" for step in report.steps)
    return "\n".join(lines)


def write_trends_csv(report: TrendsReport, path: str | Path) -> Path:
    """One row per (scenario × run), with per-phase columns and a
    ``stepped_metrics`` marker naming any metric that first stepped at
    that run."""
    import csv

    phase_names = report.phase_names()
    path = Path(path)
    fields = [
        "scenario",
        "run_id",
        "created_at",
        "fingerprint",
        "label",
        "total_cycles",
        "wall_time_seconds",
        "configs_per_second",
        "stepped_metrics",
    ] + [f"phase_{name}" for name in phase_names]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(fields)
        for trend in report.trends:
            stepped_at = {}
            for step in trend.steps:
                stepped_at.setdefault(step.run_id, []).append(step.metric)
            for point in trend.points:
                phases = point.phases_dict()
                writer.writerow(
                    [
                        trend.name,
                        point.run_id,
                        _fmt_when(point.created_at),
                        point.fingerprint,
                        point.label,
                        point.total_cycles,
                        f"{point.wall_time_seconds:.6f}",
                        f"{point.configs_per_second:.1f}",
                        ";".join(stepped_at.get(point.run_id, [])),
                    ]
                    + [
                        f"{phases[name]:.6f}" if name in phases else ""
                        for name in phase_names
                    ]
                )
    return path


_HTML_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem; color: #222; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: 0.5rem 0; }
th, td { border: 1px solid #ccc; padding: 0.25rem 0.6rem;
         font-size: 0.85rem; text-align: right; }
th { background: #f0f0f0; } td.name { text-align: left; }
tr.stepped td { background: #ffe4e1; }
p.step { color: #a00; margin: 0.2rem 0; }
p.ok { color: #070; }
""".strip()


def write_trends_html(report: TrendsReport, path: str | Path) -> Path:
    """A self-contained HTML artifact: the flagged steps up top, then
    one longitudinal table per scenario (rows where a metric first
    stepped are highlighted).  Tables only — no scripts, no external
    assets — so the file renders anywhere CI archives it."""
    def esc(value: object) -> str:
        return html.escape(str(value))

    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        "<title>suite trends</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
        "<h1>Suite trends</h1>",
    ]
    if report.steps:
        parts.append(f"<p>{len(report.steps)} metric step(s) detected:</p>")
        parts.extend(
            f"<p class='step'>{esc(step.describe())}</p>"
            for step in report.steps
        )
    else:
        parts.append("<p class='ok'>No metric steps detected.</p>")
    for trend in report.trends:
        parts.append(f"<h2>{esc(trend.name)}</h2>")
        if not trend.points:
            parts.append("<p>No recorded runs.</p>")
            continue
        phase_names = trend.phase_names()
        stepped_runs = {step.run_id for step in trend.steps}
        header_cells = "".join(
            f"<th>{esc(column)}</th>"
            for column in (
                ["run", "when", "fingerprint", "label", "cycles",
                 "wall s", "cfg/s"]
                + [f"{name} s" for name in phase_names]
            )
        )
        parts.append(f"<table><tr>{header_cells}</tr>")
        for point in trend.points:
            phases = point.phases_dict()
            cells = [
                str(point.run_id),
                _fmt_when(point.created_at),
                point.fingerprint,
                point.label or "-",
                str(point.total_cycles),
                f"{point.wall_time_seconds:.4f}",
                f"{point.configs_per_second:.0f}",
            ] + [
                f"{phases[name]:.4f}" if name in phases else "-"
                for name in phase_names
            ]
            row_class = (
                " class='stepped'" if point.run_id in stepped_runs else ""
            )
            row = "".join(f"<td>{esc(cell)}</td>" for cell in cells)
            parts.append(f"<tr{row_class}>{row}</tr>")
        parts.append("</table>")
    parts.append("</body></html>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n")
    return path


def trends_json_dict(report: TrendsReport) -> dict[str, object]:
    """The report as a JSON-ready dict (machine consumers / tests)."""
    return {
        "scenarios": [
            {
                "name": trend.name,
                "runs": len(trend.points),
                "steps": [
                    {
                        "metric": step.metric,
                        "run_id": step.run_id,
                        "fingerprint": step.fingerprint,
                        "delta_percent": round(step.delta_percent, 2),
                    }
                    for step in trend.steps
                ],
            }
            for trend in report.trends
        ],
    }
