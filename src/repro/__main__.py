"""Command-line entry point: ``python -m repro``.

Three subcommands wrap the existing factories so the common scenarios
run without writing a script:

``partition``
    One workload on one platform against one timing constraint
    (absolute ``--constraint`` or relative ``--fraction``), with any
    registered search algorithm::

        python -m repro partition --workload ofdm --fraction 0.5
        python -m repro partition --workload synthetic:40:seed=3 \\
            --algorithm annealing:seed=7 --constraint 250000 --pareto

``explore``
    A (workload × platform × constraint × algorithm) grid fanned out
    over worker processes, with optional CSV/JSON export::

        python -m repro explore --workloads ofdm jpeg \\
            --afpga 1500 5000 --cgcs 2 3 --fractions 0.9 0.5 \\
            --algorithms greedy exhaustive --csv grid.csv

``suite``
    The named scenario suite with its persistent result store,
    regression gating and longitudinal analytics (``suite list``,
    ``suite run``, ``suite compare``, ``suite history``,
    ``suite trends``)::

        python -m repro suite run --db results.sqlite --label nightly
        python -m repro suite compare \\
            --baseline benchmarks/suite_baseline.json --cycle-threshold 20
        python -m repro suite history ofdm-greedy --db results.sqlite
        python -m repro suite trends --db results.sqlite \\
            --html trends.html --csv trends.csv

``serve``
    The long-running partitioning daemon: JSON jobs over HTTP, batched
    by (workload × platform) onto shared priced cost tables, with
    bounded-queue backpressure and graceful SIGTERM drain::

        python -m repro serve --workers 2 --port 8023
        curl -d '{"workload": "ofdm", "fraction": 0.5}' \\
            http://127.0.0.1:8023/jobs

``verify``
    Static IR sanitization: lower each workload's program to its CDFG,
    run the structural/dataflow verifier, and print a diagnostic
    report (``--all`` covers every registered suite scenario)::

        python -m repro verify ofdm-measured minic:0
        python -m repro verify --all

Workload syntax: ``ofdm`` | ``jpeg`` | ``ofdm-measured`` |
``jpeg-measured`` | ``filterbank`` | ``viterbi`` | ``minic:<seed>`` |
``synthetic:<blocks>``, each optionally followed by
``:key=value,...`` parameters.
Algorithm syntax: ``<name>[:key=value,...]`` with the
:class:`repro.search.AlgorithmSpec` factory parameters.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .explore.space import DesignSpace, PlatformSpec, WorkloadSpec
from .job import Job, run_job
from .partition import EngineConfig, TableResolver
from .search import AlgorithmSpec
from .specs import algorithm_spec_from_text, workload_spec_from_text

# The suite, reporting, serve and explore-runner names are imported
# inside the handlers that use them: a `partition` run loads neither
# sqlite3 nor the process pool.
if TYPE_CHECKING:
    from .suite import ResultStore, SuiteRun


def parse_workload(text: str) -> WorkloadSpec:
    """The shared spec syntax (:mod:`repro.specs`) as an argparse type."""
    try:
        return workload_spec_from_text(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def parse_algorithm(text: str) -> AlgorithmSpec:
    try:
        return algorithm_spec_from_text(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Hardware/software partitioning for hybrid reconfigurable "
            "platforms (conf_date_GalanisMTSG04 reproduction)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    part = sub.add_parser(
        "partition", help="partition one workload on one platform"
    )
    part.add_argument(
        "--workload", type=parse_workload, required=True,
        help="ofdm | jpeg | *-measured | synthetic:<blocks>[:key=value,...]",
    )
    part.add_argument("--afpga", type=int, default=1500)
    part.add_argument("--cgcs", type=int, default=2)
    part.add_argument("--clock-ratio", type=int, default=3)
    part.add_argument("--reconfig-cycles", type=int, default=20)
    group = part.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--constraint", type=int, help="timing constraint in FPGA cycles"
    )
    group.add_argument(
        "--fraction", type=float,
        help="constraint as a fraction of the all-FPGA cycle count",
    )
    part.add_argument(
        "--algorithm", type=parse_algorithm,
        default=AlgorithmSpec.greedy(),
        help="greedy | exhaustive[:max_candidates=N] | annealing[:seed=N]",
    )
    part.add_argument(
        "--max-kernels", type=int, default=None,
        help="move budget (EngineConfig.max_kernels_moved)",
    )
    part.add_argument(
        "--pareto", action="store_true",
        help="also print the Pareto front of visited configurations",
    )

    expl = sub.add_parser(
        "explore", help="sweep a (workload x platform x constraint x "
        "algorithm) grid",
    )
    expl.add_argument(
        "--workloads", type=parse_workload, nargs="+", required=True
    )
    expl.add_argument("--afpga", type=int, nargs="+", default=[1500, 5000])
    expl.add_argument("--cgcs", type=int, nargs="+", default=[2, 3])
    expl.add_argument(
        "--fractions", type=float, nargs="+", default=[0.9, 0.75, 0.5]
    )
    expl.add_argument(
        "--algorithms", type=parse_algorithm, nargs="+",
        default=[AlgorithmSpec.greedy()],
    )
    expl.add_argument("--workers", type=int, default=1)
    expl.add_argument("--csv", help="write the grid as CSV to this path")
    expl.add_argument("--json", help="write the full report as JSON")

    suite = sub.add_parser(
        "suite", help="named scenario suite: run, persist, diff, gate"
    )
    suite_sub = suite.add_subparsers(dest="suite_command", required=True)

    slist = suite_sub.add_parser(
        "list", help="list registered scenarios (or recorded runs)"
    )
    slist.add_argument("--tag", help="only scenarios carrying this tag")
    slist.add_argument(
        "--db", help="list runs recorded in this SQLite store instead"
    )

    srun = suite_sub.add_parser(
        "run", help="run scenarios, print the table, persist results"
    )
    srun.add_argument(
        "--scenarios", nargs="+", metavar="NAME",
        help="subset of scenario names (default: the whole registry)",
    )
    srun.add_argument("--tag", help="only scenarios carrying this tag")
    srun.add_argument(
        "--db", help="record the run into this SQLite result store"
    )
    srun.add_argument(
        "--label", default="", help="label stored with the run"
    )
    srun.add_argument("--workers", type=int, default=1)
    srun.add_argument(
        "--json", help="write the run as baseline-format JSON"
    )
    srun.add_argument("--csv", help="write the per-scenario results as CSV")

    scmp = suite_sub.add_parser(
        "compare",
        help="diff a candidate run against a baseline; exit 1 on "
        "regression",
    )
    scmp.add_argument(
        "--baseline", required=True, metavar="REF",
        help="baseline: a suite-run JSON file, or (with --db) a run id "
        "or label",
    )
    scmp.add_argument(
        "--candidate", metavar="REF",
        help="candidate: same forms as --baseline; omitted = run the "
        "suite now",
    )
    scmp.add_argument("--db", help="SQLite store run references resolve in")
    scmp.add_argument(
        "--scenarios", nargs="+", metavar="NAME",
        help="scenario subset when the candidate is run fresh",
    )
    scmp.add_argument("--tag", help="scenario tag filter for a fresh run")
    scmp.add_argument("--workers", type=int, default=1)
    scmp.add_argument(
        "--cycle-threshold", type=float, default=20.0,
        help="fail on total-cycle growth beyond this percent "
        "(default 20)",
    )
    scmp.add_argument(
        "--wall-threshold", type=float, default=None,
        help="also fail on wall-time growth beyond this percent "
        "(off by default: wall times are machine-dependent)",
    )
    scmp.add_argument(
        "--min-wall", type=float, default=0.25,
        help="wall gating noise floor in seconds (default 0.25)",
    )
    scmp.add_argument(
        "--throughput-threshold", type=float, default=None,
        help="also fail on configs_per_second drops beyond this percent "
        "(off by default: throughput is machine-dependent)",
    )
    scmp.add_argument(
        "--min-throughput", type=float, default=1000.0,
        help="throughput gating noise floor in configs/second "
        "(default 1000)",
    )
    scmp.add_argument(
        "--save-candidate",
        help="also write the candidate run as baseline-format JSON "
        "(baseline refresh)",
    )

    shist = suite_sub.add_parser(
        "history",
        help="one scenario's longitudinal metrics from the result store",
    )
    shist.add_argument("scenario", help="scenario name to trace")
    shist.add_argument(
        "--db", required=True, help="SQLite result store to read"
    )
    shist.add_argument("--csv", help="also write the history as CSV")

    strd = suite_sub.add_parser(
        "trends",
        help="longitudinal trends + first-step detection over recorded "
        "runs (informational: steps print but do not fail the command)",
    )
    strd.add_argument("--db", help="SQLite result store to analyze")
    strd.add_argument(
        "--runs", nargs="+", metavar="JSON",
        help="suite-run JSON files, oldest first, to analyze instead of "
        "--db (loaded into an ephemeral store)",
    )
    strd.add_argument(
        "--scenarios", nargs="+", metavar="NAME",
        help="scenario subset (default: every scenario with results)",
    )
    strd.add_argument("--html", help="write the HTML report artifact")
    strd.add_argument("--csv", help="write the per-run CSV artifact")
    strd.add_argument(
        "--cycle-step", type=float, default=10.0,
        help="flag total-cycle steps beyond this percent (default 10)",
    )
    strd.add_argument(
        "--wall-step", type=float, default=75.0,
        help="flag wall-time steps beyond this percent (default 75)",
    )
    strd.add_argument(
        "--throughput-step", type=float, default=60.0,
        help="flag configs/second drops beyond this percent (default 60)",
    )
    strd.add_argument(
        "--min-wall", type=float, default=0.05,
        help="wall step-detection noise floor in seconds (default 0.05)",
    )
    strd.add_argument(
        "--min-throughput", type=float, default=1000.0,
        help="throughput step-detection noise floor in configs/second "
        "(default 1000)",
    )

    srv = sub.add_parser(
        "serve",
        help="run the partitioning daemon (JSON jobs over HTTP)",
    )
    srv.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    srv.add_argument(
        "--port", type=int, default=8023,
        help="TCP port to bind; 0 picks an ephemeral port (default 8023)",
    )
    srv.add_argument(
        "--workers", type=int, default=1,
        help="processes per batch group of several jobs, each group on "
        "a freshly forked pool; there is no batching pause, a batch is "
        "whatever queued while the dispatcher was busy; 1 runs every "
        "job in the dispatcher thread (default 1)",
    )
    srv.add_argument(
        "--queue-capacity", type=int, default=256,
        help="bounded job queue size; submissions beyond it get a "
        "retry-after rejection (default 256)",
    )
    srv.add_argument(
        "--cache-capacity", type=int, default=8,
        help="LRU capacity of the priced-table / workload caches "
        "(default 8)",
    )
    srv.add_argument(
        "--default-timeout", type=float, default=None,
        help="default per-job queue timeout in seconds (default: none)",
    )
    srv.add_argument(
        "--drain-deadline", type=float, default=None,
        help="hard cap in seconds on the SIGTERM/shutdown drain; past "
        "it pending jobs are failed fast so a stuck job cannot wedge "
        "process exit (default: drain without limit)",
    )
    srv.add_argument(
        "--verbose", action="store_true",
        help="log every HTTP request",
    )

    ver = sub.add_parser(
        "verify",
        help="lower workloads to CDFGs and run the static IR verifier",
    )
    ver.add_argument(
        "workloads", type=parse_workload, nargs="*", metavar="WORKLOAD",
        help="workload specs to verify (same syntax as --workload)",
    )
    ver.add_argument(
        "--all", action="store_true",
        help="also verify every registered suite scenario workload plus "
        "the IR-backed application kinds (ofdm-measured, jpeg-measured, "
        "minic)",
    )
    ver.add_argument(
        "--no-optimize", action="store_true",
        help="verify the raw lowered IR instead of the optimized form",
    )
    ver.add_argument(
        "--stats", action="store_true",
        help="print per-function block/op/loop/liveness statistics",
    )
    return parser


def _export(writer: Callable[[], Path], what: str) -> bool:
    """Run one artifact write; report (not raise) filesystem errors."""
    try:
        print(f"wrote {writer()}")
    except OSError as error:
        print(f"error: cannot write {what}: {error}", file=sys.stderr)
        return False
    return True


def _open_store(path: str) -> ResultStore | None:
    """Open (or create) the SQLite store; report failures instead of
    crashing with an sqlite3 traceback."""
    import sqlite3

    from .suite import ResultStore

    try:
        return ResultStore(path)
    except (sqlite3.Error, OSError) as error:
        print(
            f"error: cannot open result store {path!r}: {error}",
            file=sys.stderr,
        )
        return None


def _cmd_partition(args: argparse.Namespace) -> int:
    try:
        job = Job(
            args.workload,
            PlatformSpec(
                args.afpga, args.cgcs, args.clock_ratio, args.reconfig_cycles
            ),
            args.algorithm,
            () if args.constraint is None else (args.constraint,),
            () if args.fraction is None else (args.fraction,),
            EngineConfig(max_kernels_moved=args.max_kernels),
        )
        run = run_job(job, TableResolver())
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    [result] = run.results
    print(f"algorithm: {job.algorithm.label}")
    print(result.summary())
    for step in result.steps:
        marker = "met" if step.constraint_met else "   "
        print(
            f"  moved BB {step.moved_bb_id:>3}: total {step.total_cycles} "
            f"(fpga {step.fpga_cycles}, cgc {step.cgc_fpga_cycles}, "
            f"comm {step.comm_cycles}) {marker}"
        )
    if args.pareto:
        from .reporting import render_pareto

        print("\nPareto front (cycles / kernels moved / CGC rows):")
        print(render_pareto(run.partitioner.pareto_front()))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from .explore.runner import explore
    from .reporting import (
        render_exploration,
        write_exploration_csv,
        write_exploration_json,
    )

    space = DesignSpace.grid(
        args.workloads,
        afpga_values=tuple(args.afpga),
        cgc_counts=tuple(args.cgcs),
        constraint_fractions=tuple(args.fractions),
        algorithms=tuple(args.algorithms),
    )
    try:
        report = explore(space, max_workers=args.workers)
    except ValueError as error:
        print(f"error: cannot explore the grid: {error}", file=sys.stderr)
        return 2
    print(render_exploration(report))
    if len(report.algorithms()) > 1:
        # Compared per workload: absolute cycle counts are only
        # commensurable within one application.
        print("\nBest point per algorithm:")
        for workload in report.workload_names():
            print(f"  {workload}:")
            for label, best in report.best_per_algorithm(workload).items():
                print(
                    f"    {label}: {best.final_cycles} cycles "
                    f"(A={best.afpga}, {best.cgc_count} CGCs, "
                    f"{best.kernels_moved} moved)"
                )
    ok = True
    if args.csv:
        ok &= _export(
            lambda: write_exploration_csv(report.results, args.csv),
            "exploration CSV",
        )
    if args.json:
        ok &= _export(
            lambda: write_exploration_json(report, args.json),
            "exploration JSON",
        )
    return 0 if ok else 2


def _selected_scenarios(args: argparse.Namespace):
    from .suite import scenario_names, select_scenarios

    try:
        scenarios = select_scenarios(args.scenarios, args.tag)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return None
    if not scenarios:
        print(
            "error: no scenarios selected "
            f"(registry: {', '.join(scenario_names())})",
            file=sys.stderr,
        )
        return None
    return scenarios


def _cmd_suite_list(args: argparse.Namespace) -> int:
    from .suite import select_scenarios

    if args.db:
        store = _open_store(args.db)
        if store is None:
            return 2
        with store:
            runs = store.runs_summary()
        if not runs:
            print(f"no runs recorded in {args.db}")
            return 0
        for entry in runs:
            label = f" [{entry['label']}]" if entry["label"] else ""
            print(
                f"run {entry['run_id']}{label}: {entry['scenarios']} "
                f"scenario(s) @ {entry['fingerprint']} "
                f"({entry['created_at']}, {entry['elapsed_seconds']:.2f}s)"
            )
        return 0
    scenarios = select_scenarios(None, args.tag)
    for scenario in scenarios:
        tags = f"  [{', '.join(scenario.tags)}]" if scenario.tags else ""
        print(f"{scenario.name}: {scenario.describe()}{tags}")
    print(f"{len(scenarios)} scenario(s)")
    return 0


def _cmd_suite_run(args: argparse.Namespace) -> int:
    from .reporting import render_suite, write_suite_csv, write_suite_json
    from .suite import run_suite

    scenarios = _selected_scenarios(args)
    if scenarios is None:
        return 2
    store = None
    if args.db:
        store = _open_store(args.db)
        if store is None:
            return 2
    try:
        run = run_suite(
            scenarios,
            store=store,
            label=args.label,
            max_workers=args.workers,
        )
    finally:
        if store is not None:
            store.close()
    print(render_suite(run))
    if args.db:
        print(f"recorded as run {run.run_id} in {args.db}")
    ok = True
    if args.json:
        ok &= _export(lambda: write_suite_json(run, args.json), "suite JSON")
    if args.csv:
        ok &= _export(
            lambda: write_suite_csv(run.results, args.csv), "suite CSV"
        )
    return 0 if ok else 2


def _resolve_run(
    ref: str, store: ResultStore | None, role: str
) -> SuiteRun | None:
    """A run reference: a JSON file path, or a store run id / label."""
    from .suite import read_run_json

    path = Path(ref)
    if path.is_file():
        try:
            return read_run_json(path)
        except (ValueError, KeyError) as error:
            print(
                f"error: {role} {ref!r} is not a suite-run JSON file "
                f"({error})",
                file=sys.stderr,
            )
            return None
    if store is None:
        print(
            f"error: {role} {ref!r} is not a file and no --db was given",
            file=sys.stderr,
        )
        return None
    # Labels win over run ids so a digit-only label stays reachable;
    # ids are only generated, labels are what users chose.  A run id is
    # ASCII digits only: "²" passes str.isdigit and fails int().
    run = store.load_latest(label=ref)
    if run is not None:
        return run
    if ref.isascii() and ref.isdigit():
        try:
            return store.load_run(int(ref))
        except KeyError:
            print(
                f"error: no run {ref} (as label or id) in the result "
                "store",
                file=sys.stderr,
            )
            return None
    print(
        f"error: no run labelled {ref!r} in the result store",
        file=sys.stderr,
    )
    return None


def _cmd_suite_compare(args: argparse.Namespace) -> int:
    from .reporting import render_suite_diff, write_suite_json
    from .suite import RegressionThresholds, compare_runs, run_suite

    # Validate thresholds first: a bad flag must not cost a suite run.
    try:
        thresholds = RegressionThresholds(
            cycle_percent=args.cycle_threshold,
            wall_percent=args.wall_threshold,
            min_wall_seconds=args.min_wall,
            throughput_percent=args.throughput_threshold,
            min_configs_per_second=args.min_throughput,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store = None
    if args.db:
        store = _open_store(args.db)
        if store is None:
            return 2
    try:
        baseline = _resolve_run(args.baseline, store, "baseline")
        if baseline is None:
            return 2
        if args.candidate is not None:
            candidate = _resolve_run(args.candidate, store, "candidate")
            if candidate is None:
                return 2
        else:
            scenarios = _selected_scenarios(args)
            if scenarios is None:
                return 2
            candidate = run_suite(scenarios, max_workers=args.workers)
    finally:
        if store is not None:
            store.close()
    comparison = compare_runs(baseline, candidate, thresholds)
    print(render_suite_diff(comparison))
    if args.save_candidate and not _export(
        lambda: write_suite_json(candidate, args.save_candidate),
        "candidate JSON",
    ):
        return 2
    return 1 if comparison.has_regressions else 0


def _cmd_suite_history(args: argparse.Namespace) -> int:
    from .reporting import format_grid

    store = _open_store(args.db)
    if store is None:
        return 2
    with store:
        history = store.scenario_history(args.scenario)
    if not history:
        print(
            f"error: no recorded results for scenario "
            f"{args.scenario!r} in {args.db}",
            file=sys.stderr,
        )
        return 2
    headers = ["run", "when", "cycles", "wall s", "cfg/s"]
    rows = [
        [
            str(run_id),
            created_at or "-",  # legacy runs predate the timestamp fix
            str(cycles),
            f"{wall:.4f}",
            f"{cps:.0f}",
        ]
        for run_id, created_at, cycles, wall, cps in history
    ]
    print(format_grid(headers, rows))
    print(f"{len(history)} run(s) of {args.scenario}")
    if args.csv:

        def write_csv() -> Path:
            import csv

            path = Path(args.csv)
            with path.open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(
                    [
                        "run_id",
                        "created_at",
                        "total_cycles",
                        "wall_time_seconds",
                        "configs_per_second",
                    ]
                )
                for run_id, created_at, cycles, wall, cps in history:
                    writer.writerow(
                        [run_id, created_at, cycles,
                         f"{wall:.6f}", f"{cps:.1f}"]
                    )
            return path

        if not _export(write_csv, "history CSV"):
            return 2
    return 0


def _cmd_suite_trends(args: argparse.Namespace) -> int:
    from .reporting import (
        StepThresholds,
        compute_trends,
        render_trends,
        write_trends_csv,
        write_trends_html,
    )
    from .suite import ResultStore

    if bool(args.db) == bool(args.runs):
        print(
            "error: pass exactly one of --db or --runs",
            file=sys.stderr,
        )
        return 2
    if args.db:
        store = _open_store(args.db)
        if store is None:
            return 2
    else:
        # JSON runs (oldest first) load into an ephemeral store, so one
        # code path serves both sources; run ids follow file order.
        store = ResultStore(":memory:")
        for ref in args.runs:
            run = _resolve_run(ref, None, "run")
            if run is None:
                store.close()
                return 2
            store.record_run(run)
    thresholds = StepThresholds(
        cycle_percent=args.cycle_step,
        wall_percent=args.wall_step,
        throughput_percent=args.throughput_step,
        min_wall_seconds=args.min_wall,
        min_configs_per_second=args.min_throughput,
    )
    with store:
        report = compute_trends(store, args.scenarios, thresholds)
    if not report.trends:
        print("no scenarios with recorded results", file=sys.stderr)
        return 2
    print(render_trends(report))
    ok = True
    if args.html:
        ok &= _export(
            lambda: write_trends_html(report, args.html), "trends HTML"
        )
    if args.csv:
        ok &= _export(
            lambda: write_trends_csv(report, args.csv), "trends CSV"
        )
    return 0 if ok else 2


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.suite_command == "list":
        return _cmd_suite_list(args)
    if args.suite_command == "run":
        return _cmd_suite_run(args)
    if args.suite_command == "history":
        return _cmd_suite_history(args)
    if args.suite_command == "trends":
        return _cmd_suite_trends(args)
    return _cmd_suite_compare(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeDaemon, ServerConfig, run_daemon

    if not 0 <= args.port <= 65535:
        print(
            f"error: --port must be in 0..65535, got {args.port}",
            file=sys.stderr,
        )
        return 2
    try:
        daemon = ServeDaemon(
            ServerConfig(
                workers=args.workers,
                queue_capacity=args.queue_capacity,
                cache_capacity=args.cache_capacity,
                default_timeout_seconds=args.default_timeout,
            ),
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            drain_deadline_seconds=args.drain_deadline,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(
            f"error: cannot bind {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 2
    return run_daemon(daemon)


def _cmd_verify(args: argparse.Namespace) -> int:
    from .ir import find_loops, live_variable_sets, verify_cdfg

    specs: list[WorkloadSpec] = list(args.workloads)
    if args.all:
        from .suite import SCENARIOS

        seen = {spec.label for spec in specs}
        candidates = [s.workload for s in SCENARIOS.values()]
        # The registered suite is partly table-driven; always cover the
        # IR-backed application kinds as well so --all exercises the
        # verifier on real lowered programs.
        candidates += [
            WorkloadSpec.ofdm_measured(),
            WorkloadSpec.jpeg_measured(),
            WorkloadSpec.minic(0),
        ]
        for spec in candidates:
            if spec.label not in seen:
                seen.add(spec.label)
                specs.append(spec)
    if not specs:
        print(
            "error: no workloads to verify (name some or pass --all)",
            file=sys.stderr,
        )
        return 2

    failed = 0
    skipped = 0
    for spec in specs:
        cdfg = spec.cdfg(optimize=False if args.no_optimize else None)
        if cdfg is None:
            skipped += 1
            print(f"{spec.label}: skipped (no IR behind this workload kind)")
            continue
        report = verify_cdfg(cdfg)
        ops = sum(
            len(block.instructions)
            for cfg in cdfg.cfgs.values()
            for block in cfg.blocks.values()
        )
        status = "ok" if report.ok else "FAIL"
        print(
            f"{spec.label}: {status} "
            f"({len(cdfg.cfgs)} functions, {cdfg.block_count} blocks, "
            f"{ops} ops, {len(report.errors)} errors, "
            f"{len(report.warnings)} warnings)"
        )
        if report.diagnostics:
            for line in report.render().splitlines():
                print(f"  {line}")
        if args.stats:
            for name, cfg in cdfg.cfgs.items():
                liveness = live_variable_sets(cfg)
                peak_live = max(
                    (len(s) for s in liveness.in_sets.values()), default=0
                )
                print(
                    f"  {name}: {len(cfg.blocks)} blocks, "
                    f"{sum(len(b.instructions) for b in cfg.blocks.values())}"
                    f" ops, {len(find_loops(cfg).loops)} loops, "
                    f"peak live scalars {peak_live} "
                    f"(liveness converged in {liveness.iterations} sweeps)"
                )
        if not report.ok:
            failed += 1
    verified = len(specs) - skipped
    print(
        f"verified {verified} workload{'s' if verified != 1 else ''}: "
        f"{verified - failed} clean, {failed} failing, {skipped} skipped"
    )
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "partition":
        return _cmd_partition(args)
    if args.command == "explore":
        return _cmd_explore(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_suite(args)


if __name__ == "__main__":
    sys.exit(main())
