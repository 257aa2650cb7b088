"""Command-line entry point: list and run paper experiments.

Usage::

    python -m repro list                  # what can be reproduced
    python -m repro run fig10_speedup_2way [--accesses N] [--quick] [-j 4]
    python -m repro run all [--quick]     # every experiment, in order
    python -m repro sweep --designs direct,accord:2,sws:8:2 [-j 8]
    python -m repro profile soplex        # workload trace characteristics
    python -m repro info                  # system configuration summary
    python -m repro serve -j 4            # long-lived sweep service (HTTP)
    python -m repro submit --designs direct,accord:2 --quick   # client
    python -m repro audit                 # verify result-store integrity

``run`` and ``sweep`` share the executor flags: ``--jobs/-j`` fans
simulations out over worker processes, and results are memoized in a
content-addressed store (``--results-dir``, default
``$REPRO_RESULTS_DIR`` or ``~/.cache/repro``; ``--no-store`` disables
it), so re-running a sweep only simulates what changed. Resilience
knobs (``--retries``, ``--timeout``) and the sweep journal
(``--resume`` after a kill) are described in ``docs/robustness.md``,
as is the trust layer (``--verify-fraction`` shadow verification and
the ``audit`` subcommand).

Exit codes: 0 on success, :data:`EXIT_CONFIG` (2) for bad flags or
configuration, :data:`EXIT_EXECUTION` (3) when a sweep fails while
executing, :data:`EXIT_VERIFICATION` (4) when verification or an audit
finds an integrity failure that fallback cannot heal.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional

from repro.experiments import EXPERIMENT_MODULES

#: Bad flags / configuration (argparse's own error exit code).
EXIT_CONFIG = 2
#: A sweep accepted its configuration but failed while executing.
EXIT_EXECUTION = 3
#: Shadow verification caught an unhealable mismatch, or an audit
#: found integrity failures (digest or recompute mismatches).
EXIT_VERIFICATION = 4

_DESCRIPTIONS = {
    "fig1_associativity": "Fig 1: hit-rate & speedup vs associativity",
    "table1_lookup_cost": "Table I: lookup cost model",
    "table2_predictor_storage": "Table II: predictor accuracy & storage",
    "table4_workloads": "Table IV: workload characteristics",
    "fig6_cyclic": "Fig 6: cyclic kernel vs PIP",
    "table5_pip": "Table V: PWS sensitivity to PIP",
    "fig7_accuracy": "Fig 7: way-prediction accuracy",
    "table6_hitrate": "Table VI: hit-rate under way steering",
    "fig10_speedup_2way": "Fig 10: 2-way design speedups",
    "table7_sws_hitrate": "Table VII: SWS hit-rates",
    "fig13_sws_speedup": "Fig 13: SWS speedups",
    "fig12_all_workloads": "Fig 12: all 46 workloads",
    "table8_cache_size": "Table VIII: cache-size sensitivity",
    "table9_storage": "Table IX: ACCORD storage",
    "table10_predictors": "Table X: way-predictor comparison",
    "fig14_predictor_speedup": "Fig 14: predictor speedups",
    "fig15_energy": "Fig 15: energy / power / EDP",
    "ablations": "Ablations: replacement, GWS tables, SWS hashes, ...",
}


def _cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENT_MODULES)
    print("Available experiments (python -m repro run <name>):\n")
    for name in EXPERIMENT_MODULES:
        print(f"  {name.ljust(width)}  {_DESCRIPTIONS.get(name, '')}")
    return 0


def _cmd_info() -> int:
    from repro.params.system import paper_system, scaled_system

    paper = paper_system()
    scaled = scaled_system()
    print("Paper system (Table III):")
    print(f"  cores            {paper.cores.num_cores} x "
          f"{paper.cores.frequency_ghz}GHz, {paper.cores.issue_width}-wide")
    print(f"  DRAM cache       {paper.dram_cache.capacity_bytes // 2**30}GB, "
          f"{paper.dram_bus.aggregate_bandwidth_gbps:.0f} GB/s")
    print(f"  NVM              {paper.nvm_capacity_bytes // 2**30}GB, "
          f"{paper.nvm_bus.aggregate_bandwidth_gbps:.0f} GB/s, "
          f"read {paper.nvm_timing.read_ns:.0f}ns / "
          f"write {paper.nvm_timing.write_ns:.0f}ns")
    print("Default experiment scale:")
    print(f"  scale            {scaled.scale:.6f} "
          f"(cache {scaled.dram_cache.capacity_bytes // 2**20}MB)")
    return 0


def _cmd_run(names: List[str], passthrough: List[str]) -> int:
    targets = EXPERIMENT_MODULES if names == ["all"] else names
    unknown = [n for n in targets if n not in EXPERIMENT_MODULES]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use 'python -m repro list' to see what is available",
              file=sys.stderr)
        return 2
    from repro.errors import ReproError

    for name in targets:
        module = importlib.import_module(f"repro.experiments.{name}")
        print(f"==> {name}")
        try:
            module.main(passthrough)
        except ReproError as exc:
            print(f"{name} failed: {exc}", file=sys.stderr)
            return EXIT_EXECUTION
        print()
    return 0


def _progress(done: int, total: int, key, source: str) -> None:
    print(f"[{done}/{total}] {key.display} ({source})", file=sys.stderr)


def _print_sweep_tables(per_design, labels, num_workloads, phase_csv=None):
    """Render sweep tables; returns the CSV columns (None on failure).

    Shared by the CLI ``sweep`` and the service client ``submit`` so
    both paths produce byte-identical tables and CSV exports from the
    same per-design result grids.
    """
    from repro.analysis.report import per_workload_table
    from repro.sim.runner import mean_hit_rate

    hit_columns = {
        label: {w: r.hit_rate for w, r in results.items()}
        for label, results in per_design.items()
    }
    print(per_workload_table(
        hit_columns,
        title=f"Sweep: hit rate, {len(labels)} designs x "
              f"{num_workloads} workloads",
        gmean_row=False,
    ))
    print("Mean hit rate: " + " | ".join(
        f"{label}={mean_hit_rate(results):.3f}"
        for label, results in per_design.items()
    ))

    if phase_csv:
        from repro.analysis.export import save_phases_csv
        from repro.errors import SimulationError

        try:
            save_phases_csv(per_design, phase_csv)
        except SimulationError as exc:
            print(f"phase CSV not written: {exc}", file=sys.stderr)
            return None
        print(f"wrote {phase_csv}")

    csv_columns = hit_columns
    if len(labels) > 1:
        base_label = labels[0]
        speedup_columns = {
            label: {
                w: r.speedup_over(per_design[base_label][w])
                for w, r in results.items()
            }
            for label, results in per_design.items()
            if label != base_label
        }
        print()
        print(per_workload_table(
            speedup_columns, title=f"Sweep: speedup over {base_label}"
        ))
        csv_columns = speedup_columns
    return csv_columns


def _cmd_profile(args: argparse.Namespace,
                 parser: argparse.ArgumentParser) -> int:
    from repro.errors import ReproError
    from repro.params.system import scaled_system
    from repro.sim.profile import profile_shards, profile_trace, shard_summary
    from repro.sim.runner import TraceFactory
    from repro.workloads.trace_cache import shared_trace_cache

    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must be in (0, 1]")
    if args.accesses <= 0:
        parser.error("--accesses must be positive")
    if args.shards < 1:
        parser.error("--shards must be >= 1")
    try:
        factory = TraceFactory(
            scaled_system(ways=1, scale=args.scale), args.accesses, args.seed
        )
        trace = factory.trace_for(args.workload)
        profile = profile_trace(
            trace,
            region_window=args.region_window,
            reuse_distances=not args.no_reuse,
        )
    except ReproError as exc:
        parser.error(str(exc))
    print(f"Trace profile: {args.workload} "
          f"(scale {args.scale:g}, seed {args.seed})")
    print(profile.summary())
    disk = shared_trace_cache()
    if disk is not None:
        counters = disk.stats
        print(f"trace cache: {counters.hits} hits, "
              f"{counters.misses} misses, "
              f"{counters.bytes_read} bytes read")
    if args.shards > 1:
        try:
            shard_profiles = profile_shards(
                trace, args.shards, scale=args.scale, seed=args.seed,
                engine=args.engine,
            )
        except ReproError as exc:
            parser.error(str(exc))
        print()
        print(f"Shard attribution ({args.shards} set-range shards):")
        print(shard_summary(shard_profiles))
    return 0


def _cmd_sweep(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> int:
    from pathlib import Path

    from repro.analysis.export import save_series_csv
    from repro.errors import (
        ConfigError,
        JournalError,
        ReproError,
        VerificationError,
    )
    from repro.exec import (
        FAULT_PLAN_ENV,
        JobKey,
        SweepJournal,
        default_store_root,
        parse_design_spec,
    )
    from repro.exec.faults import active_plan
    from repro.experiments.common import settings_from_args

    settings = settings_from_args(args, parser)
    if args.phase_csv and settings.epoch is None:
        parser.error("--phase-csv requires --epoch-metrics")
    if args.resume and args.no_journal:
        parser.error("--resume needs the sweep journal (drop --no-journal)")
    try:
        # Reject a malformed $REPRO_FAULT_PLAN before any work happens.
        active_plan()
    except ConfigError as exc:
        parser.error(f"{FAULT_PLAN_ENV}: {exc}")
    try:
        designs = [
            parse_design_spec(spec)
            for spec in args.designs.split(",") if spec.strip()
        ]
    except ConfigError as exc:
        parser.error(str(exc))
    if not designs:
        parser.error("--designs: no design specs given")
    labels = [design.display_name for design in designs]
    if len(set(labels)) != len(labels):
        parser.error("--designs: duplicate designs in sweep")

    keys = {
        label: [
            JobKey(
                design=design,
                workload=workload,
                num_accesses=settings.num_accesses,
                warmup=settings.warmup,
                seed=settings.seed,
                scale=settings.scale,
                epoch=settings.epoch,
                engine=settings.engine,
            )
            for workload in settings.suite
        ]
        for label, design in zip(labels, designs)
    }
    flat = [key for per_label in keys.values() for key in per_label]

    if settings.engine_strict and settings.engine != "auto":
        # Fail fast before any job is scheduled: probe each design's
        # engine eligibility with the same resolver the workers use.
        from repro.sim.engines import resolve_engine
        from repro.sim.system import build_dram_cache
        from repro.params.system import scaled_system

        for label, design in zip(labels, designs):
            cache = build_dram_cache(
                design,
                scaled_system(ways=design.ways, scale=settings.scale),
                seed=settings.seed,
            )
            try:
                resolve_engine(cache, requested=settings.engine,
                               strict=True, design=design)
            except ReproError as exc:
                parser.error(f"--engine-strict: {exc}")

    journal = None
    if not args.no_journal:
        if args.journal:
            journal_path = Path(args.journal)
        else:
            root = Path(args.results_dir) if args.results_dir \
                else default_store_root()
            journal_path = root / "sweep.journal.jsonl"
        journal = SweepJournal(journal_path)
        if args.resume:
            try:
                done = journal.load()
            except JournalError as exc:
                parser.error(f"--resume: {exc}")
            if journal.header.get("sweep") != SweepJournal.sweep_digest(flat):
                parser.error(
                    f"--resume: journal at {journal_path} records a "
                    "different sweep (designs, workloads or settings "
                    "changed); rerun without --resume to start over"
                )
            print(f"resuming: {done}/{len(flat)} jobs already journaled",
                  file=sys.stderr)
        else:
            try:
                journal.begin(flat, meta={
                    "designs": args.designs,
                    "workloads": ",".join(settings.suite),
                    "accesses": settings.num_accesses,
                    "seed": settings.seed,
                })
            except JournalError as exc:
                parser.error(str(exc))

    executor = settings.make_executor(
        progress=_progress if args.progress else None, journal=journal
    )
    try:
        resolved = executor.run(flat)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        if journal is not None:
            print(f"rerun with --resume to continue from {journal.path}",
                  file=sys.stderr)
        return EXIT_VERIFICATION
    except ReproError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        if journal is not None:
            print(f"rerun with --resume to continue from {journal.path}",
                  file=sys.stderr)
        return EXIT_EXECUTION
    per_design = {
        label: {key.workload: resolved[key] for key in per_label}
        for label, per_label in keys.items()
    }

    csv_columns = _print_sweep_tables(
        per_design, labels, len(settings.suite), phase_csv=args.phase_csv
    )
    if csv_columns is None:
        return 1
    stats = executor.stats
    line = f"\n{stats.executed} simulated, {stats.cached} from cache"
    if stats.resumed:
        line += f", {stats.resumed} resumed from journal"
    if stats.retried:
        line += f", {stats.retried} retried"
    if stats.transient_retries:
        line += f", {stats.transient_retries} transient retries"
    if stats.timeouts:
        line += f", {stats.timeouts} timed out"
    if settings.verify_fraction > 0 or stats.verified or stats.mismatches:
        line += f", {stats.verified} verified"
    if stats.mismatches:
        line += f", {stats.mismatches} mismatches healed"
    store = executor.store
    if store is not None and (
        store.stats.degraded_writes or store.stats.quarantined
    ):
        line += (f" (store: {store.stats.degraded_writes} degraded writes, "
                 f"{store.stats.quarantined} quarantined)")
    print(line)
    if args.csv:
        save_series_csv(csv_columns, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_serve(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> int:
    import asyncio

    from repro.errors import ConfigError, ReproError
    from repro.service.server import ServiceConfig, run_service

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            shards=args.shards,
            retries=args.retries,
            timeout=args.timeout,
            results_dir=args.results_dir,
            use_store=not args.no_store,
            max_pending=args.max_queue,
            rate=args.rate,
            burst=args.burst,
            resume=not args.no_resume,
            verify_fraction=args.verify_fraction,
            verify_engine=args.verify_engine,
        )
        asyncio.run(run_service(config))
    except ConfigError as exc:
        parser.error(str(exc))
    except KeyboardInterrupt:
        pass
    except (ReproError, OSError) as exc:
        print(f"service failed: {exc}", file=sys.stderr)
        return EXIT_EXECUTION
    return 0


def _cmd_audit(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> int:
    import json as _json
    from pathlib import Path

    from repro.errors import ReproError
    from repro.exec.store import default_store_root
    from repro.verify.audit import audit_store, audit_traces, format_report

    if not 0.0 <= args.recompute_fraction <= 1.0:
        parser.error("--recompute-fraction must be in [0, 1]")
    root = Path(args.results_dir) if args.results_dir else default_store_root()
    if not root.is_dir():
        print(f"no result store at {root} (nothing to audit)",
              file=sys.stderr)
        return 0
    try:
        report = audit_store(
            root,
            recompute_fraction=args.recompute_fraction,
            engine=args.verify_engine,
            quarantine=not args.no_quarantine,
        )
        if not args.no_traces:
            trace_root = Path(args.trace_dir) if args.trace_dir else None
            audit_traces(report, root=trace_root,
                         quarantine=not args.no_quarantine)
    except ReproError as exc:
        print(f"audit failed: {exc}", file=sys.stderr)
        return EXIT_EXECUTION
    print(format_report(report))
    if args.json:
        Path(args.json).write_text(
            _json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.json}")
    return EXIT_VERIFICATION if report.mismatches else 0


def _cmd_submit(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> int:
    from repro.analysis.export import save_series_csv
    from repro.errors import ConfigError, ExecutionError
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.jobspec import expand_spec
    from repro.sim.system import RunResult

    if args.phase_csv and args.epoch_metrics is None:
        parser.error("--phase-csv requires --epoch-metrics")
    spec = {"kind": "sweep", "designs": args.designs}
    if args.workloads is not None:
        spec["workloads"] = args.workloads
    if args.accesses is not None:
        spec["accesses"] = args.accesses
    if args.seed is not None:
        spec["seed"] = args.seed
    if args.scale is not None:
        spec["scale"] = args.scale
    if args.epoch_metrics is not None:
        spec["epoch"] = args.epoch_metrics
    if args.quick:
        spec["quick"] = True
    if args.engine is not None and args.engine != "auto":
        spec["engine"] = args.engine
    try:
        # Expand locally with the same code the server runs, so streamed
        # result digests map straight back onto (design, workload) cells.
        keys, labels, workloads = expand_spec(spec)
    except ConfigError as exc:
        parser.error(str(exc))

    key_cell = {}
    it = iter(keys)
    for label in labels:
        for workload in workloads:
            key_cell[next(it).digest()] = (label, workload)

    def on_event(event):
        if not args.progress:
            return
        kind = event.get("event")
        if kind == "progress":
            print(f"[{event['batch_done']}/{event['batch_total']}] "
                  f"{event['display']} ({event['source']})", file=sys.stderr)
        elif kind == "scheduled":
            state = ("deduplicated" if event.get("deduplicated")
                     else event.get("state"))
            print(f"scheduled {event['display']} ({state})", file=sys.stderr)
        elif kind == "error":
            error = event.get("error", {})
            print(f"job failed: {event.get('display')}: "
                  f"{error.get('message')}", file=sys.stderr)

    client = ServiceClient(
        host=args.host, port=args.port, timeout=args.timeout
    )
    try:
        results = client.submit(spec, on_event=on_event)
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        if exc.retry_after is not None:
            print(f"retry after ~{exc.retry_after:.0f}s", file=sys.stderr)
        return exc.exit_code
    except ExecutionError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return EXIT_EXECUTION

    per_design = {label: {} for label in labels}
    missing = []
    for digest, (label, workload) in key_cell.items():
        event = results.get(digest)
        if event is None:
            missing.append(f"{label}/{workload}")
            continue
        per_design[label][workload] = RunResult.from_dict(event["result"])
    if missing:
        print(f"service did not return: {', '.join(missing)}",
              file=sys.stderr)
        return EXIT_EXECUTION

    csv_columns = _print_sweep_tables(
        per_design, labels, len(workloads), phase_csv=args.phase_csv
    )
    if csv_columns is None:
        return 1
    cached = sum(
        1 for event in results.values() if event.get("source") == "cached"
    )
    print(f"\n{len(results) - cached} computed by service, "
          f"{cached} answered from warm store")
    if args.csv:
        save_series_csv(csv_columns, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _add_endpoint_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1",
                   help="service address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8765,
                   help="service port (default 8765)")


def main(argv: Optional[List[str]] = None) -> int:
    from repro.experiments.common import add_settings_arguments

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ACCORD (ISCA 2018) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("info", help="show system configuration")
    run_parser = sub.add_parser("run", help="run one or more experiments")
    run_parser.add_argument("names", nargs="+",
                            help="experiment names, or 'all'")
    add_settings_arguments(run_parser)
    sweep_parser = sub.add_parser(
        "sweep",
        help="run a designs x workloads grid through the parallel executor",
    )
    sweep_parser.add_argument(
        "--designs", required=True,
        help="comma-separated design specs: kind[:ways[:hashes]][:key=value...]"
             " e.g. 'direct,accord:2,sws:8:2,pws:2:pip=0.9'",
    )
    sweep_parser.add_argument("--csv", default=None,
                              help="also write the sweep table as tidy CSV")
    sweep_parser.add_argument("--phase-csv", default=None, dest="phase_csv",
                              help="write per-epoch phase metrics as tidy CSV "
                                   "(requires --epoch-metrics)")
    sweep_parser.add_argument("--progress", action="store_true",
                              help="print per-job progress to stderr")
    sweep_parser.add_argument("--journal", default=None, metavar="PATH",
                              help="sweep journal path (default: "
                                   "<results-dir>/sweep.journal.jsonl)")
    sweep_parser.add_argument("--no-journal", action="store_true",
                              help="do not write a resume journal")
    sweep_parser.add_argument("--resume", action="store_true",
                              help="finish a killed sweep: replay journaled "
                                   "results and execute only the rest")
    add_settings_arguments(sweep_parser)
    profile_parser = sub.add_parser(
        "profile",
        help="profile a workload trace (footprint, runs, reuse distances)",
    )
    profile_parser.add_argument("workload",
                                help="workload or mix name (see workloads/)")
    profile_parser.add_argument("--accesses", type=int, default=150_000,
                                help="trace length to generate (default 150000)")
    profile_parser.add_argument("--seed", type=int, default=7)
    profile_parser.add_argument("--scale", type=float, default=1.0 / 128.0,
                                help="system scale factor in (0, 1] "
                                     "(default 1/128: 32MB cache)")
    profile_parser.add_argument("--region-window", type=int, default=64,
                                help="recent-region window (RLT-sized, "
                                     "default 64)")
    profile_parser.add_argument("--no-reuse", action="store_true",
                                help="skip the reuse-distance estimate "
                                     "(faster on long traces)")
    profile_parser.add_argument("--shards", type=int, default=1,
                                help="also time each of N set-range shards "
                                     "to attribute where a sharded run's "
                                     "wall-clock goes (default: off)")
    profile_parser.add_argument("--engine", default="stream",
                                choices=("auto", "vector", "replay", "stream", "loop"),
                                help="drive engine the shard attribution is "
                                     "timed under (default stream, the shard "
                                     "workers' batched loop)")
    serve_parser = sub.add_parser(
        "serve",
        help="run the long-lived sweep service (HTTP, see docs/service.md)",
    )
    _add_endpoint_arguments(serve_parser)
    serve_parser.add_argument("--jobs", "-j", type=int, default=1,
                              help="parallel worker processes (default 1)")
    serve_parser.add_argument("--shards", type=int, default=1,
                              help="set-range shards per simulation "
                                   "(default 1)")
    serve_parser.add_argument("--retries", type=int, default=1,
                              help="attempts per failing job (default 1)")
    serve_parser.add_argument("--timeout", type=float, default=None,
                              help="per-job watchdog timeout in seconds")
    serve_parser.add_argument("--results-dir", default=None,
                              dest="results_dir",
                              help="result store root (default "
                                   "$REPRO_RESULTS_DIR or ~/.cache/repro)")
    serve_parser.add_argument("--no-store", action="store_true",
                              dest="no_store",
                              help="disable the result store (and with it "
                                   "warm answers and restart resume)")
    serve_parser.add_argument("--max-queue", type=int, default=256,
                              dest="max_queue",
                              help="admission queue bound; overflow sheds "
                                   "with 503 (default 256)")
    serve_parser.add_argument("--rate", type=float, default=5.0,
                              help="per-client submissions/sec before 429 "
                                   "(default 5)")
    serve_parser.add_argument("--burst", type=float, default=10.0,
                              help="per-client burst capacity (default 10)")
    serve_parser.add_argument("--no-resume", action="store_true",
                              dest="no_resume",
                              help="do not resume journaled in-flight "
                                   "batches from a previous daemon")
    serve_parser.add_argument("--verify-fraction", type=float, default=0.0,
                              dest="verify_fraction", metavar="F",
                              help="shadow-verify this fraction of computed "
                                   "jobs on the reference engine (default 0)")
    serve_parser.add_argument("--verify-engine", default="stream",
                              dest="verify_engine",
                              choices=("stream", "loop"),
                              help="reference engine for shadow verification "
                                   "(default stream)")
    audit_parser = sub.add_parser(
        "audit",
        help="verify result-store integrity (schemas, payload digests)",
    )
    audit_parser.add_argument("--results-dir", default=None,
                              dest="results_dir",
                              help="result store root to audit (default "
                                   "$REPRO_RESULTS_DIR or ~/.cache/repro)")
    audit_parser.add_argument("--recompute-fraction", type=float, default=0.0,
                              dest="recompute_fraction", metavar="F",
                              help="re-execute this fraction of entries on "
                                   "the reference engine and compare digests "
                                   "(default 0: digest checks only)")
    audit_parser.add_argument("--verify-engine", default="stream",
                              dest="verify_engine",
                              choices=("stream", "loop"),
                              help="reference engine for --recompute-fraction "
                                   "(default stream)")
    audit_parser.add_argument("--no-traces", action="store_true",
                              dest="no_traces",
                              help="skip the trace-cache audit")
    audit_parser.add_argument("--trace-dir", default=None, dest="trace_dir",
                              help="trace cache root (default "
                                   "$REPRO_TRACE_DIR or <store>/traces)")
    audit_parser.add_argument("--no-quarantine", action="store_true",
                              dest="no_quarantine",
                              help="report corrupt entries without moving "
                                   "them to quarantine/")
    audit_parser.add_argument("--json", default=None,
                              help="write the audit report as JSON to "
                                   "this path")
    submit_parser = sub.add_parser(
        "submit",
        help="submit a sweep to a running service and render the tables",
    )
    _add_endpoint_arguments(submit_parser)
    submit_parser.add_argument(
        "--designs", required=True,
        help="comma-separated design specs, same grammar as 'sweep'",
    )
    submit_parser.add_argument("--workloads", default=None,
                               help="comma-separated workloads "
                                    "(default: the full suite)")
    submit_parser.add_argument("--accesses", type=int, default=None,
                               help="trace length per job")
    submit_parser.add_argument("--seed", type=int, default=None)
    submit_parser.add_argument("--scale", type=float, default=None,
                               help="system scale factor in (0, 1]")
    submit_parser.add_argument("--quick", action="store_true",
                               help="small suite and short traces")
    submit_parser.add_argument("--engine", default=None,
                               choices=("auto", "vector", "replay", "stream", "loop"),
                               help="drive engine request forwarded to the "
                                    "service (results are engine-invariant)")
    submit_parser.add_argument("--epoch-metrics", type=int, default=None,
                               dest="epoch_metrics", metavar="N",
                               help="per-epoch phase metrics every N reads")
    submit_parser.add_argument("--csv", default=None,
                               help="also write the sweep table as tidy CSV")
    submit_parser.add_argument("--phase-csv", default=None, dest="phase_csv",
                               help="write per-epoch phase metrics as tidy "
                                    "CSV (requires --epoch-metrics)")
    submit_parser.add_argument("--progress", action="store_true",
                               help="print streamed job progress to stderr")
    submit_parser.add_argument("--timeout", type=float, default=600.0,
                               help="client-side HTTP timeout in seconds "
                                    "(default 600)")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "info":
        return _cmd_info()
    if args.command == "sweep":
        return _cmd_sweep(args, parser)
    if args.command == "profile":
        return _cmd_profile(args, parser)
    if args.command == "serve":
        return _cmd_serve(args, parser)
    if args.command == "submit":
        return _cmd_submit(args, parser)
    if args.command == "audit":
        return _cmd_audit(args, parser)
    passthrough: List[str] = []
    if args.accesses is not None:
        passthrough += ["--accesses", str(args.accesses)]
    if args.seed is not None:
        passthrough += ["--seed", str(args.seed)]
    if args.scale is not None:
        passthrough += ["--scale", str(args.scale)]
    if args.workloads is not None:
        passthrough += ["--workloads", args.workloads]
    if args.quick:
        passthrough += ["--quick"]
    if args.jobs != 1:
        passthrough += ["--jobs", str(args.jobs)]
    if args.shards != 1:
        passthrough += ["--shards", str(args.shards)]
    if args.results_dir is not None:
        passthrough += ["--results-dir", args.results_dir]
    if args.no_store:
        passthrough += ["--no-store"]
    if args.epoch_metrics is not None:
        passthrough += ["--epoch-metrics", str(args.epoch_metrics)]
    if args.retries != 1:
        passthrough += ["--retries", str(args.retries)]
    if args.timeout is not None:
        passthrough += ["--timeout", str(args.timeout)]
    if args.engine != "auto":
        passthrough += ["--engine", args.engine]
    if args.engine_strict:
        passthrough += ["--engine-strict"]
    if args.verify_fraction:
        passthrough += ["--verify-fraction", str(args.verify_fraction)]
    if args.verify_engine != "stream":
        passthrough += ["--verify-engine", args.verify_engine]
    return _cmd_run(args.names, passthrough)


if __name__ == "__main__":
    raise SystemExit(main())
