"""Persistent suite results: records, SQLite store, JSON baselines.

Two complementary persistence formats share one record model:

* :class:`ResultStore` — an append-only SQLite database accumulating
  every run on a machine (``runs`` × ``results`` tables), the substrate
  for "did I regress anything since last week?" queries.
* JSON — a single run serialized as one reviewable file
  (:meth:`SuiteRun.write_json` / :func:`read_run_json`), the format the
  committed CI baseline uses so baseline refreshes show up as readable
  diffs.
"""

from __future__ import annotations

import datetime
import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

#: Bumped when the schema changes; stored via PRAGMA user_version.
#: v2 added ``results.configs_per_second`` (evaluation throughput is a
#: first-class longitudinal metric next to cycles and wall time).
#: v3 added ``results.pruned_subtrees`` (how much of the exact search
#: space the former branch-and-bound certified without visiting; new
#: records hold 0).
#: v4 added ``results.phases`` (per-scenario phase breakdown from the
#: telemetry trace, a JSON object of phase name -> seconds).
SCHEMA_VERSION = 4

#: Individual statements (not one executescript) so schema creation and
#: migration can run inside a single immediate transaction — see
#: ResultStore.__init__.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id INTEGER PRIMARY KEY AUTOINCREMENT,
    label TEXT NOT NULL DEFAULT '',
    fingerprint TEXT NOT NULL,
    created_at TEXT NOT NULL,
    elapsed_seconds REAL NOT NULL DEFAULT 0.0
);
CREATE TABLE IF NOT EXISTS results (
    run_id INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    scenario TEXT NOT NULL,
    workload TEXT NOT NULL,
    platform TEXT NOT NULL,
    algorithm TEXT NOT NULL,
    constraint_fraction REAL NOT NULL,
    timing_constraint INTEGER NOT NULL,
    initial_cycles INTEGER NOT NULL,
    total_cycles INTEGER NOT NULL,
    reduction_percent REAL NOT NULL,
    kernels_moved INTEGER NOT NULL,
    moved_bb_ids TEXT NOT NULL,
    rows_used INTEGER NOT NULL,
    constraint_met INTEGER NOT NULL,
    wall_time_seconds REAL NOT NULL,
    configs_per_second REAL NOT NULL DEFAULT 0.0,
    pruned_subtrees INTEGER NOT NULL DEFAULT 0,
    phases TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (run_id, scenario)
);
CREATE INDEX IF NOT EXISTS idx_results_scenario ON results(scenario);
"""


def _phases_from_json_text(text: object) -> tuple[tuple[str, float], ...]:
    """Decode a ``phases`` JSON column value, tolerating junk as ()."""
    if not isinstance(text, str) or not text:
        return ()
    try:
        return _phases_from_payload(json.loads(text))
    except ValueError:
        return ()


def _phases_from_payload(payload: object) -> tuple[tuple[str, float], ...]:
    """A phases mapping from untrusted JSON/SQLite data, or ().

    Sorted by phase name so equal breakdowns compare equal regardless
    of the order a producer emitted them in.
    """
    if not isinstance(payload, dict):
        return ()
    try:
        return tuple(
            sorted((str(name), float(seconds))
                   for name, seconds in payload.items())
        )
    except (TypeError, ValueError):
        return ()


def _utcnow() -> str:
    return (
        datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat()
    )


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's outcome within one suite run."""

    scenario: str
    workload: str
    platform: str
    algorithm: str
    constraint_fraction: float
    timing_constraint: int
    initial_cycles: int
    total_cycles: int
    reduction_percent: float
    kernels_moved: int
    moved_bb_ids: tuple[int, ...]
    rows_used: int
    constraint_met: bool
    wall_time_seconds: float
    #: Visited configurations per second of search time — the
    #: evaluation-throughput metric the packed substrate is judged on.
    #: 0.0 in records predating schema v2.
    configs_per_second: float = 0.0
    #: Subtrees the branch-and-bound exact search used to prune.  Old
    #: stores and baselines carry it; the closed-form exact search
    #: prunes nothing, so new records hold 0.
    pruned_subtrees: int = 0
    #: Per-phase wall seconds from the telemetry trace, sorted by phase
    #: name (a tuple of pairs so the record stays frozen/hashable).
    #: Empty when telemetry was off or the record predates schema v4.
    phases: tuple[tuple[str, float], ...] = ()

    def phases_dict(self) -> dict[str, float]:
        return dict(self.phases)

    def to_dict(self) -> dict[str, object]:
        return {
            "scenario": self.scenario,
            "workload": self.workload,
            "platform": self.platform,
            "algorithm": self.algorithm,
            "constraint_fraction": self.constraint_fraction,
            "timing_constraint": self.timing_constraint,
            "initial_cycles": self.initial_cycles,
            "total_cycles": self.total_cycles,
            "reduction_percent": round(self.reduction_percent, 3),
            "kernels_moved": self.kernels_moved,
            "moved_bb_ids": list(self.moved_bb_ids),
            "rows_used": self.rows_used,
            "constraint_met": self.constraint_met,
            "wall_time_seconds": round(self.wall_time_seconds, 6),
            "configs_per_second": round(self.configs_per_second, 1),
            "pruned_subtrees": self.pruned_subtrees,
            "phases": {
                name: round(seconds, 6) for name, seconds in self.phases
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioResult":
        return cls(
            scenario=str(payload["scenario"]),
            workload=str(payload["workload"]),
            platform=str(payload["platform"]),
            algorithm=str(payload["algorithm"]),
            constraint_fraction=float(payload["constraint_fraction"]),
            timing_constraint=int(payload["timing_constraint"]),
            initial_cycles=int(payload["initial_cycles"]),
            total_cycles=int(payload["total_cycles"]),
            reduction_percent=float(payload["reduction_percent"]),
            kernels_moved=int(payload["kernels_moved"]),
            moved_bb_ids=tuple(int(b) for b in payload["moved_bb_ids"]),
            rows_used=int(payload["rows_used"]),
            constraint_met=bool(payload["constraint_met"]),
            wall_time_seconds=float(payload["wall_time_seconds"]),
            # Absent in pre-v2 baselines; 0.0 disables throughput gating
            # for the record.
            configs_per_second=float(payload.get("configs_per_second", 0.0)),
            # Absent in pre-v3 baselines.
            pruned_subtrees=int(payload.get("pruned_subtrees", 0)),
            # Absent in pre-v4 baselines and telemetry-off runs.
            phases=_phases_from_payload(payload.get("phases")),
        )


@dataclass
class SuiteRun:
    """One complete suite execution (metadata + per-scenario results)."""

    fingerprint: str
    label: str = ""
    #: Stamped at construction so every producer (suite runner, bench
    #: scripts, ad-hoc callers) writes a real timestamp; consumers still
    #: tolerate "" in legacy JSON by falling back to run-id order.
    created_at: str = field(default_factory=_utcnow)
    elapsed_seconds: float = 0.0
    results: list[ScenarioResult] = field(default_factory=list)
    #: Assigned by the store on record; None for unpersisted/JSON runs.
    run_id: int | None = None

    def scenario_names(self) -> list[str]:
        return [result.scenario for result in self.results]

    def result_for(self, scenario: str) -> ScenarioResult | None:
        for result in self.results:
            if result.scenario == scenario:
                return result
        return None

    def to_json_dict(self) -> dict[str, object]:
        return {
            "schema_version": SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "label": self.label,
            "created_at": self.created_at,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "results": [result.to_dict() for result in self.results],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SuiteRun":
        return cls(
            fingerprint=str(payload["fingerprint"]),
            label=str(payload.get("label", "")),
            created_at=str(payload.get("created_at", "")),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            results=[
                ScenarioResult.from_dict(entry)
                for entry in payload["results"]
            ],
        )

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path


def read_run_json(path: str | Path) -> SuiteRun:
    """Load a run previously written with :meth:`SuiteRun.write_json`."""
    payload = json.loads(Path(path).read_text())
    return SuiteRun.from_json_dict(payload)


@dataclass(frozen=True)
class ScenarioTrendPoint:
    """One scenario's metrics in one run — a row of the trends view."""

    run_id: int
    created_at: str
    fingerprint: str
    label: str
    total_cycles: int
    wall_time_seconds: float
    configs_per_second: float
    phases: tuple[tuple[str, float], ...] = ()

    def phases_dict(self) -> dict[str, float]:
        return dict(self.phases)


class ResultStore:
    """Append-only SQLite store of suite runs.

    Usable as a context manager; ``path=":memory:"`` gives an ephemeral
    store for tests.
    """

    #: How long a connection waits on another writer's lock before
    #: giving up — generous, because concurrent `suite run` processes
    #: legitimately serialize on the migration and on run inserts.
    BUSY_TIMEOUT_SECONDS = 30.0

    def __init__(self, path: str | Path = "suite_results.sqlite"):
        self.path = str(path)
        self._conn = sqlite3.connect(
            self.path, timeout=self.BUSY_TIMEOUT_SECONDS
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA foreign_keys = ON")
        # Schema creation + migration run under one immediate
        # transaction: BEGIN IMMEDIATE takes the write lock up front, so
        # two processes opening the same store concurrently serialize
        # here instead of racing each other's ALTERs (the loser of the
        # race re-reads the version inside its own transaction and sees
        # the migration already done).  sqlite3's autocommit machinery
        # never begins a transaction for DDL, so the explicit BEGIN is
        # the whole story.
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            for statement in _SCHEMA.split(";"):
                if statement.strip():
                    self._conn.execute(statement)
            version = self._conn.execute("PRAGMA user_version").fetchone()[0]
            if 0 < version < SCHEMA_VERSION:
                # Older schema: add every missing column.  A crash
                # between an ALTER and the version bump rolls the whole
                # transaction back now, but guard on the actual column
                # set anyway so stores half-migrated by older code
                # converge instead of failing on a duplicate column.
                columns = {
                    row["name"]
                    for row in self._conn.execute(
                        "PRAGMA table_info(results)"
                    )
                }
                if "configs_per_second" not in columns:
                    # v1 -> v2: evaluation throughput joins the results.
                    self._conn.execute(
                        "ALTER TABLE results ADD COLUMN configs_per_second "
                        "REAL NOT NULL DEFAULT 0.0"
                    )
                if "pruned_subtrees" not in columns:
                    # v2 -> v3: exact-search pruning counts join the
                    # results.
                    self._conn.execute(
                        "ALTER TABLE results ADD COLUMN pruned_subtrees "
                        "INTEGER NOT NULL DEFAULT 0"
                    )
                if "phases" not in columns:
                    # v3 -> v4: telemetry phase breakdowns join the
                    # results.
                    self._conn.execute(
                        "ALTER TABLE results ADD COLUMN phases "
                        "TEXT NOT NULL DEFAULT '{}'"
                    )
                version = 0
            if version == 0:
                self._conn.execute(
                    f"PRAGMA user_version = {SCHEMA_VERSION}"
                )
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            self._conn.close()
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def record_run(self, run: SuiteRun) -> int:
        """Persist a run and its results atomically; returns (and sets)
        run_id.  A failure inserting any result rolls the whole run
        back, so the store never holds a run row without its results."""
        created_at = run.created_at or _utcnow()
        # sqlite3 connections as context managers commit on success and
        # roll back on exception.
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO runs (label, fingerprint, created_at,"
                " elapsed_seconds) VALUES (?, ?, ?, ?)",
                (run.label, run.fingerprint, created_at, run.elapsed_seconds),
            )
            run_id = cursor.lastrowid
            assert run_id is not None
            # Columns are named because migrated databases can hold them
            # in a different physical order (ALTER TABLE appends).
            self._conn.executemany(
                "INSERT INTO results (run_id, scenario, workload,"
                " platform, algorithm, constraint_fraction,"
                " timing_constraint, initial_cycles, total_cycles,"
                " reduction_percent, kernels_moved, moved_bb_ids,"
                " rows_used, constraint_met, wall_time_seconds,"
                " configs_per_second, pruned_subtrees, phases) VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        run_id,
                        r.scenario,
                        r.workload,
                        r.platform,
                        r.algorithm,
                        r.constraint_fraction,
                        r.timing_constraint,
                        r.initial_cycles,
                        r.total_cycles,
                        r.reduction_percent,
                        r.kernels_moved,
                        ",".join(str(b) for b in r.moved_bb_ids),
                        r.rows_used,
                        int(r.constraint_met),
                        r.wall_time_seconds,
                        r.configs_per_second,
                        r.pruned_subtrees,
                        json.dumps(dict(r.phases), sort_keys=True),
                    )
                    for r in run.results
                ],
            )
        run.run_id = run_id
        run.created_at = created_at
        return run_id

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def run_ids(self, label: str | None = None) -> list[int]:
        """Recorded run ids, oldest first; optionally filtered by label."""
        if label is None:
            rows = self._conn.execute(
                "SELECT run_id FROM runs ORDER BY run_id"
            )
        else:
            rows = self._conn.execute(
                "SELECT run_id FROM runs WHERE label = ? ORDER BY run_id",
                (label,),
            )
        return [row["run_id"] for row in rows]

    def latest_run_id(self, label: str | None = None) -> int | None:
        ids = self.run_ids(label)
        return ids[-1] if ids else None

    def load_run(self, run_id: int) -> SuiteRun:
        row = self._conn.execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no run with id {run_id}")
        run = SuiteRun(
            fingerprint=row["fingerprint"],
            label=row["label"],
            created_at=row["created_at"],
            elapsed_seconds=row["elapsed_seconds"],
            run_id=run_id,
        )
        for record in self._conn.execute(
            "SELECT * FROM results WHERE run_id = ? ORDER BY rowid",
            (run_id,),
        ):
            moved = tuple(
                int(b) for b in record["moved_bb_ids"].split(",") if b
            )
            run.results.append(
                ScenarioResult(
                    scenario=record["scenario"],
                    workload=record["workload"],
                    platform=record["platform"],
                    algorithm=record["algorithm"],
                    constraint_fraction=record["constraint_fraction"],
                    timing_constraint=record["timing_constraint"],
                    initial_cycles=record["initial_cycles"],
                    total_cycles=record["total_cycles"],
                    reduction_percent=record["reduction_percent"],
                    kernels_moved=record["kernels_moved"],
                    moved_bb_ids=moved,
                    rows_used=record["rows_used"],
                    constraint_met=bool(record["constraint_met"]),
                    wall_time_seconds=record["wall_time_seconds"],
                    configs_per_second=record["configs_per_second"],
                    pruned_subtrees=record["pruned_subtrees"],
                    phases=_phases_from_json_text(record["phases"]),
                )
            )
        return run

    def load_latest(self, label: str | None = None) -> SuiteRun | None:
        run_id = self.latest_run_id(label)
        if run_id is None:
            return None
        return self.load_run(run_id)

    def scenario_history(
        self, scenario: str
    ) -> list[tuple[int, str, int, float, float]]:
        """(run_id, created_at, total_cycles, wall_time,
        configs_per_second) per run, oldest first — the longitudinal
        view of one scenario."""
        rows = self._conn.execute(
            "SELECT r.run_id, runs.created_at, r.total_cycles,"
            " r.wall_time_seconds, r.configs_per_second"
            " FROM results r JOIN runs USING (run_id)"
            " WHERE r.scenario = ? ORDER BY r.run_id",
            (scenario,),
        )
        return [
            (
                row["run_id"],
                row["created_at"],
                row["total_cycles"],
                row["wall_time_seconds"],
                row["configs_per_second"],
            )
            for row in rows
        ]

    def scenario_names_recorded(self) -> list[str]:
        """Every scenario name with at least one recorded result."""
        rows = self._conn.execute(
            "SELECT DISTINCT scenario FROM results ORDER BY scenario"
        )
        return [row["scenario"] for row in rows]

    def scenario_trend_points(
        self, scenario: str
    ) -> list[ScenarioTrendPoint]:
        """The full longitudinal view of one scenario, oldest first.

        Richer than :meth:`scenario_history` (whose 5-tuple shape is
        pinned by existing callers): adds the run's fingerprint/label
        and the per-phase breakdown, which is what the trends report
        needs to name the first offending commit.
        """
        rows = self._conn.execute(
            "SELECT r.run_id, runs.created_at, runs.fingerprint,"
            " runs.label, r.total_cycles, r.wall_time_seconds,"
            " r.configs_per_second, r.phases"
            " FROM results r JOIN runs USING (run_id)"
            " WHERE r.scenario = ? ORDER BY r.run_id",
            (scenario,),
        )
        return [
            ScenarioTrendPoint(
                run_id=row["run_id"],
                created_at=row["created_at"],
                fingerprint=row["fingerprint"],
                label=row["label"],
                total_cycles=row["total_cycles"],
                wall_time_seconds=row["wall_time_seconds"],
                configs_per_second=row["configs_per_second"],
                phases=_phases_from_json_text(row["phases"]),
            )
            for row in rows
        ]

    def runs_summary(self) -> list[dict[str, object]]:
        """One dict per recorded run (id, label, fingerprint, when,
        scenario count) for ``suite list``-style displays."""
        rows = self._conn.execute(
            "SELECT runs.run_id, runs.label, runs.fingerprint,"
            " runs.created_at, runs.elapsed_seconds,"
            " COUNT(results.scenario) AS scenarios"
            " FROM runs LEFT JOIN results USING (run_id)"
            " GROUP BY runs.run_id ORDER BY runs.run_id"
        )
        return [dict(row) for row in rows]
