"""``python -m repro`` — the command-line face of the experiment API.

Five subcommands cover the paper's evaluation surface:

* ``run``      — execute one experiment (flags or ``--spec-file`` JSON);
* ``grid``     — a (schemes x PECs x workloads) campaign with the
  normalized read-tail table the figures use;
* ``compare``  — the Figure 13 lifetime comparison across schemes
  (flags or a ``--spec-file`` LifetimeSpec file);
* ``campaign`` — orchestrated large campaigns against the
  result store (``run`` with live progress/ETA and crash-resume,
  ``status``, ``ls``, ``compact``);
* ``metrics``  — dump/validate the telemetry registry (``dump`` reads
  the in-process registry, a ``--metrics-port`` endpoint via
  ``--url``, or a ``--metrics-json`` snapshot file).

``run``, ``grid`` and ``compare`` only build jobs: each runs its
spec's jobs through one ``GridRunner.execute_jobs`` call, honouring
``--workers`` (fan-out over supervised worker processes) and
``--store`` (the result store, shared with the Python API and
``campaign run``), and ends with one ``<cells|curves> executed: X,
served from cache: Y`` line. Everything resolves through the plugin
registries and exits 2 on configuration errors with the registry's
rich unknown-key messages.

``run``, ``grid``, ``compare`` and ``campaign run`` build their spec
(:class:`ExperimentSpec`, :class:`CampaignSpec` or
:class:`LifetimeSpec`) from only the spec flags they were given: every
spec flag defaults to ``None`` and sets the field its ``dest`` names,
so every default lives once, on its spec class. A spec file describes
the whole spec, so any spec flag given with one exits 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.campaign.orchestrator import CampaignOrchestrator, format_duration
from repro.campaign.spec import CampaignSpec, load_campaign_file
from repro.campaign.store import ShardedResultStore, is_store
from repro.config import SsdSpec
from repro.errors import ConfigError, InjectedFault, ReproError
from repro.experiments.spec import ExperimentSpec, load_spec_file
from repro.faults import FaultInjector, FaultPlan, FaultSpec, load_fault_file
from repro.harness.runner import GridRunner, grid_from_jobs
from repro.kernels import ENGINES
from repro.lifetime.spec import LifetimeSpec, load_lifetime_file

_SSD_PRESETS = {
    "small": SsdSpec.small_test,
    "bench": SsdSpec.bench,
    "paper": lambda seed: SsdSpec.paper_table2(),
}

def _parse_age(text: str) -> float:
    """Parse ``90``, ``90s``, ``15m``, ``2h``, or ``7d`` into seconds."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    text = text.strip().lower()
    suffix = text[-1:] if text[-1:] in units else ""
    number = text[: len(text) - len(suffix)] if suffix else text
    try:
        value = float(number)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid age {text!r}; use e.g. 90, 90s, 15m, 2h, or 7d"
        ) from None
    if not value >= 0:  # refuses NaN too: it compares false with all
        raise argparse.ArgumentTypeError("age must be >= 0")
    return value * units.get(suffix, 1.0)


def _percentile(text: str) -> float:
    """Parse ``grid --percentile``: a number within [0, 100]."""
    try:
        if 0.0 <= float(text) <= 100.0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"percentile must be a number within [0, 100], got {text!r}"
    )


def _parse_param(text: str) -> tuple:
    """Parse a ``--param key=value`` pair; values decode as JSON."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"invalid param {text!r}; expected key=value"
        )
    try:
        return key, json.loads(value)
    except ValueError:
        return key, value  # bare strings stay strings


def _csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _csv_ints(text: str) -> List[int]:
    try:
        return [int(item) for item in _csv(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid integer list {text!r}"
        ) from None


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    """The :class:`CampaignSpec` flags ``grid`` and ``campaign run`` share."""
    _spec_flag(parser, "--schemes", type=_csv,
               help="comma-separated scheme keys (first = baseline)")
    _spec_flag(parser, "--pecs", dest="pec_points", type=_csv_ints,
               metavar="PECS", help="comma-separated PEC setpoints")
    _spec_flag(parser, "--workloads", type=_csv,
               help="comma-separated workload abbreviations")
    _spec_flag(parser, "--requests", type=int)
    _spec_flag(parser, "--seed", type=int)
    _spec_flag(parser, "--no-suspension", dest="erase_suspension",
               action="store_const", const=False)
    _spec_flag(parser, "--engine", choices=list(ENGINES),
               help="grid-cell engine (see `run --engine`)")


def _add_execution_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes to fan jobs out over (default: 1, inline)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="result store: persist finished results here and reuse "
             "them on re-run (shared with `campaign run --store`)",
    )


def _spec_flag(parser: argparse.ArgumentParser, *names: str, **kwargs) -> None:
    """Add a flag that sets one spec field (its ``dest``).

    The flag defaults to None, so the flags a command was given are
    exactly the non-None ones and each field's default stays on its
    spec class.
    """
    action = parser.add_argument(*names, default=None, **kwargs)
    flags = parser.get_default("spec_flags") or {}
    parser.set_defaults(spec_flags={**flags, action.dest: names[0]})


def _spec_from_args(args: argparse.Namespace) -> Any:
    """The command's spec, built from only the spec flags it was given.

    A spec file describes the whole spec, so any spec flag given with
    one is a conflict.
    """
    given = {
        dest: getattr(args, dest)
        for dest in args.spec_flags
        if getattr(args, dest) is not None
    }
    spec_file = getattr(args, "spec_file", None)
    if not spec_file:
        return args.build_spec(**given)
    if given:
        raise ConfigError(
            "--spec-file fully describes the spec; drop the conflicting "
            f"flags: {', '.join(args.spec_flags[dest] for dest in given)}"
        )
    return args.load_spec(spec_file)


def _experiments_from_flags(
    param=(), mispredict_rate=None, rber_requirement=None, ssd=None, **fields
) -> List[ExperimentSpec]:
    """``run``'s one spec: scheme-param flags fold into ``scheme_params``
    and ``--ssd`` picks a preset seeded with the spec's seed."""
    params: Dict[str, Any] = dict(param)
    if mispredict_rate:
        params.setdefault("mispredict_rate", mispredict_rate)
    if rber_requirement is not None:
        params.setdefault("rber_requirement", rber_requirement)
    spec = ExperimentSpec(scheme_params=params, **fields)
    if ssd not in (None, "default"):
        spec = replace(spec, ssd=_SSD_PRESETS[ssd](seed=spec.seed))
    return [spec]


def _check_fail_after(args: argparse.Namespace) -> None:
    if args.fail_after is not None and args.fail_after < 1:
        raise ConfigError("--fail-after must be >= 1")


def _armed_store(store: Optional[str], plan: Optional[FaultPlan]) -> Any:
    """The store at ``store``, with ``plan`` armed on its put and
    compact hooks when there is one (crash and chaos testing)."""
    if plan is None:
        return store
    return ShardedResultStore(store, fault_injector=FaultInjector(plan))


def _execute(
    args: argparse.Namespace,
    jobs: Sequence[Any],
    show: Callable[[List[Any]], None],
    noun: str = "cells",
    fault_plan: Optional[FaultPlan] = None,
) -> int:
    """Run ``jobs`` through one :class:`GridRunner` call, ``show`` the
    results, and end with the executed/cached footer (not after
    ``--json``)."""
    runner = GridRunner(
        workers=args.workers, cache=_armed_store(args.store, fault_plan)
    )
    show(runner.execute_jobs(jobs))
    if not getattr(args, "json", False):
        print(
            f"  {noun} executed: {runner.stats.executed}, "
            f"served from cache: {runner.stats.cached}"
        )
    return 0


# --- run ---------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    specs = _spec_from_args(args)
    jobs = [spec.resolve() for spec in specs]

    def show(reports: List[Any]) -> None:
        if args.json:
            payload = [
                {
                    "spec": spec.to_dict(),
                    "fingerprint": job.fingerprint,
                    "report": report.to_json_dict(),
                }
                for spec, job, report in zip(specs, jobs, reports)
            ]
            print(json.dumps(
                payload if len(payload) > 1 else payload[0], indent=2
            ))
            return
        rows = [
            [
                spec.scheme,
                spec.pec,
                spec.workload,
                spec.requests,
                f"{report.reads.mean_us:.0f} us",
                f"{report.reads.percentile(99.0) / 1000:.2f} ms",
                f"{report.iops:,.0f}",
                report.erases,
            ]
            for spec, report in zip(specs, reports)
        ]
        print(
            format_table(
                ["scheme", "PEC", "workload", "requests",
                 "read mean", "p99 read", "IOPS", "erases"],
                rows,
                title="Experiment results",
            )
        )

    return _execute(args, jobs, show)


# --- grid --------------------------------------------------------------------


def _cmd_grid(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    jobs = spec.jobs()
    baseline = spec.schemes[0]

    def show(reports: List[Any]) -> None:
        grid = grid_from_jobs(jobs, reports)
        for pec in spec.pec_points:
            table = grid.normalized_read_tail(args.percentile, pec, baseline)
            rows = [
                [workload]
                + [f"{table[workload][scheme]:.3f}" for scheme in spec.schemes]
                for workload in spec.workloads
            ]
            geomean = grid.geomean_normalized(
                lambda r: r.read_tail(args.percentile), pec, baseline
            )
            rows.append(
                ["geomean"]
                + [f"{geomean[scheme]:.3f}" for scheme in spec.schemes]
            )
            print(
                format_table(
                    ["workload"] + list(spec.schemes),
                    rows,
                    title=(
                        f"p{args.percentile:g} read latency at {pec} PEC "
                        "(normalized to first scheme column's baseline)"
                    ),
                )
            )
            print()

    return _execute(args, jobs, show)


# --- compare -----------------------------------------------------------------


def _cmd_compare(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    jobs = spec.jobs()
    _check_fail_after(args)
    plan = None
    if args.fail_after is not None:
        if args.store is None:
            raise ConfigError("--fail-after needs --store")
        # The Nth curve is durable before the store's crash_after_put
        # fault fires, so a rerun resumes past it.
        plan = FaultPlan(faults=(
            FaultSpec("crash_after_put", put_index=args.fail_after - 1),
        ))

    def show(curves: List[Any]) -> None:
        comparison = spec.comparison(curves)
        baseline_key = spec.schemes[0]
        base = comparison.curves[baseline_key].lifetime_pec
        rows = []
        for key in spec.schemes:
            lifetime = comparison.curves[key].lifetime_pec
            if key == baseline_key or not base:
                delta = "--"
            elif lifetime is None:
                delta = "never crossed"
            else:
                delta = f"{lifetime / base - 1:+.1%}"
            if lifetime is None:
                lifetime = f">{spec.max_pec}"
            rows.append([key, lifetime, delta])
        print(
            format_table(
                ["scheme", "lifetime (PEC)", f"vs {baseline_key}"],
                rows,
                title=f"Lifetime comparison on {spec.profile}",
            )
        )

    return _execute(args, jobs, show, noun="curves", fault_plan=plan)


# --- campaign ----------------------------------------------------------------


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    import signal
    import threading

    spec = _spec_from_args(args).validate()
    _check_fail_after(args)
    on_cell = None
    if args.fail_after is not None:
        # Crash injection for resume testing (the CI kill+resume smoke
        # step): abort after N executed cells; everything persisted so
        # far resumes on the next run.
        executed = itertools.count(1)

        def on_cell(index, job, report) -> None:
            if next(executed) >= args.fail_after:
                raise InjectedFault(
                    f"injected failure after {args.fail_after} cells"
                )

    fault_plan = load_fault_file(args.fault_plan) if args.fault_plan else None

    # Graceful shutdown: the first SIGINT/SIGTERM stops admitting
    # cells and drains in-flight ones; a second signal gives up
    # immediately. Installed only on the main thread's handlers.
    shutdown = threading.Event()
    caught: dict = {}
    previous = {}

    def handle_signal(signum, frame) -> None:
        if shutdown.is_set():
            raise KeyboardInterrupt  # second signal: stop draining
        caught["signum"] = signum
        shutdown.set()
        print(
            f"[campaign] caught {signal.Signals(signum).name}; "
            "draining in-flight cells (signal again to abort)",
            flush=True,
        )

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handle_signal)
        except ValueError:  # not the main thread (tests)
            break

    orchestrator = CampaignOrchestrator(
        spec,
        # The plan's put/compact faults fire on the store; its cell
        # faults on the supervisor.
        _armed_store(args.store, fault_plan),
        process_workers=args.workers,
        progress=None if args.quiet else (
            lambda progress: print(f"[campaign] {progress.format()}",
                                   flush=True)
        ),
        progress_interval_s=args.progress_interval,
        on_cell=on_cell,
        cell_timeout_s=args.cell_timeout,
        max_retries=args.max_retries,
        on_poison=args.on_poison,
        fault_plan=fault_plan,
        shutdown=shutdown,
    )
    server = None
    if args.metrics_port is not None:
        from repro.telemetry import MetricsServer

        server = MetricsServer(port=args.metrics_port).start()
        print(f"[metrics] serving on {server.url}", flush=True)
    try:
        result = orchestrator.run()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        # The snapshot lands even when the run aborts (e.g. the
        # --fail-after crash injection) — that is the state a
        # post-mortem wants; the linger window keeps the endpoint
        # scrapable after the last cell for the CI smoke step.
        if args.metrics_json:
            from repro.telemetry import get_default_registry

            Path(args.metrics_json).write_text(
                json.dumps(get_default_registry().snapshot(), indent=2),
                encoding="utf-8",
            )
        if server is not None:
            if args.metrics_linger > 0:
                time.sleep(args.metrics_linger)
            server.close()
    stats = result.stats
    exit_code = 128 + caught["signum"] if caught else 0
    if args.json:
        print(json.dumps({
            "spec": spec.to_dict(),
            "stats": asdict(stats),
            "quarantined": list(result.quarantined),
        }, indent=2))
        return exit_code
    print(
        f"campaign {'interrupted' if stats.interrupted else 'complete'}: "
        f"{stats.total} cells in {stats.wall_s:.1f}s "
        f"(executed {stats.executed}; resumed {stats.resumed} "
        f"from {args.store})"
    )
    if stats.retried or stats.timeouts or stats.pool_rebuilds:
        print(
            f"  supervision: {stats.retried} retries, "
            f"{stats.timeouts} timeouts, {stats.pool_rebuilds} worker "
            f"rebuilds"
        )
    for record in result.quarantined:
        print(
            f"  quarantined cell {record['index']} "
            f"({result.jobs[record['index']].describe()}): "
            f"{record['reason']} after {record['attempts']} attempts — "
            f"{record['error']}"
        )
    if stats.interrupted:
        print(
            f"  interrupted: {stats.interrupted} cells not started "
            "(resume with the same command)"
        )
    return exit_code


def _open_store(store_dir: str):
    """Open an existing store; status/ls/compact never create one."""
    if not Path(store_dir).is_dir():
        raise ConfigError(f"no such store directory: {store_dir}")
    if not is_store(store_dir):
        raise ConfigError(f"not a result store: {store_dir}")
    return ShardedResultStore(store_dir)


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    spec = None
    if args.spec_file:
        # Report a malformed spec file before looking at the store.
        spec = load_campaign_file(args.spec_file).validate()
    store = _open_store(args.store)
    stats = store.stats()
    payload: Dict[str, Any] = {
        "store": {
            "path": args.store,
            "keys": stats.keys,
            "data_bytes": stats.data_bytes,
            "superseded": stats.superseded,
            "stale": stats.stale,
            "corrupt": stats.corrupt,
            "corrupt_lines": stats.corrupt_lines,
            "families": dict(stats.families),
        },
    }
    if spec is not None:
        families = CampaignOrchestrator(spec, store).family_status()
        total = sum(counts["total"] for counts in families.values())
        done = sum(counts["done"] for counts in families.values())
        payload["campaign"] = {
            "family": spec.family,
            "total": total,
            "done": done,
            "remaining": total - done,
            "families": families,
        }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    if spec is not None:
        print(
            f"campaign: {done}/{total} cells done "
            f"({done / total:.1%}), {total - done} pending"
        )
        for family, counts in sorted(families.items()):
            print(
                f"  {family}: {counts['done']}/{counts['total']} done"
            )
    print(
        f"store {args.store}: {stats.keys} entries, "
        f"{stats.data_bytes:,} bytes"
    )
    if stats.families:
        print(
            "  families: "
            + ", ".join(f"{name} x{count}" for name, count in stats.families)
        )
    dead = stats.stale + stats.corrupt + stats.superseded
    if dead or stats.corrupt_lines:
        print(
            f"  reclaimable: {stats.superseded} superseded, "
            f"{stats.stale} stale, {stats.corrupt} corrupt, "
            f"{stats.corrupt_lines} torn "
            "(`campaign compact` prunes them)"
        )
    return 0


def _cmd_campaign_ls(args: argparse.Namespace) -> int:
    entries = _open_store(args.store).entries()
    now = time.time()
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "key": entry.key,
                        "age_seconds": entry.age_seconds(now),
                        "size_bytes": entry.size,
                        "meta": entry.meta,
                        "corrupt": entry.corrupt,
                        "stale": entry.stale,
                    }
                    for entry in entries
                ],
                indent=2,
            )
        )
        return 0
    if not entries:
        print(f"store {args.store}: empty")
        return 0
    rows = [
        [
            entry.key[:12],
            format_duration(entry.age_seconds(now)),
            f"{entry.size:,} B",
            entry.summary(),
        ]
        for entry in entries
    ]
    print(
        format_table(
            ["key", "age", "size", "experiment"],
            rows,
            title=f"Result store {args.store}",
        )
    )
    corrupt = sum(1 for entry in entries if entry.corrupt or entry.stale)
    healthy = len(entries) - corrupt
    total = sum(entry.size for entry in entries)
    print(f"  {healthy} entries, {total:,} bytes", end="")
    if corrupt:
        print(f" ({corrupt} corrupt/stale — `campaign compact` prunes them)")
    else:
        print()
    return 0


def _cmd_campaign_compact(args: argparse.Namespace) -> int:
    gc = args.max_entries is not None or args.older_than is not None
    if args.keep_corrupt and not gc:
        # Plain compaction keeps only healthy records, so the flag
        # would be silently ignored; refuse before touching the store.
        raise ConfigError(
            "--keep-corrupt needs --max-entries or --older-than"
        )
    store = _open_store(args.store)
    if gc:
        result = store.gc(
            max_entries=args.max_entries,
            older_than_s=args.older_than,
            remove_corrupt=not args.keep_corrupt,
            dry_run=args.dry_run,
        )
        verb = "would remove" if args.dry_run else "removed"
        print(
            f"store {args.store}: {verb} {result.removed_count} entries "
            f"({result.removed_bytes:,} bytes), kept {result.kept}"
        )
        return 0
    result = store.compact(dry_run=args.dry_run)
    verb = "would drop" if args.dry_run else "dropped"
    print(
        f"store {args.store}: {verb} {result.records_dropped} dead "
        f"records, reclaimed {result.bytes_reclaimed:,} bytes"
    )
    return 0


# --- metrics -----------------------------------------------------------------


def _cmd_metrics_dump(args: argparse.Namespace) -> int:
    """Dump (and structurally validate) one telemetry exposition.

    Sources, mutually exclusive: ``--url`` scrapes a live
    ``--metrics-port`` endpoint; ``--from-json`` renders a
    ``--metrics-json`` snapshot file; neither reads the in-process
    default registry. Whatever the source, the text format is run
    through the scrape-side parser, so a malformed exposition (or a
    ``--require``-d family that is absent) exits 2 — the CI smoke
    step's assertion.
    """
    from repro.telemetry import (
        get_default_registry,
        parse_text_format,
        render_text,
    )

    if args.url and args.from_json:
        raise ConfigError("pass either --url or --from-json, not both")
    snapshot = None
    if args.url:
        import urllib.error
        import urllib.request

        try:
            with urllib.request.urlopen(
                args.url, timeout=args.timeout
            ) as response:
                text = response.read().decode("utf-8")
        except (OSError, urllib.error.URLError) as exc:
            raise ConfigError(
                f"cannot scrape {args.url}: {exc}"
            ) from exc
    else:
        if args.from_json:
            try:
                snapshot = json.loads(
                    Path(args.from_json).read_text(encoding="utf-8")
                )
            except (OSError, ValueError) as exc:
                raise ConfigError(
                    f"cannot read snapshot {args.from_json}: {exc}"
                ) from exc
        else:
            snapshot = get_default_registry().snapshot()
        text = render_text(snapshot)
    families = parse_text_format(text)
    missing = [
        name for name in (args.require or []) if name not in families
    ]
    if missing:
        raise ConfigError(
            f"required metric families missing: {', '.join(missing)}"
        )
    if args.format == "json":
        if snapshot is None:
            raise ConfigError(
                "--format json needs a snapshot source; scrape "
                "<url>/metrics.json directly or use --from-json"
            )
        print(json.dumps(snapshot, indent=2))
    else:
        print(text, end="")
    return 0


# --- parser ------------------------------------------------------------------


def _command(sub, name: str, summary: str, func, **defaults) -> Any:
    """Add subcommand ``name`` that runs ``func``; ``defaults`` (e.g.
    ``build_spec``/``load_spec``) land on its namespace. Every option
    has one spelling, so no prefix of it is accepted either."""
    parser = sub.add_parser(name, help=summary, allow_abbrev=False)
    parser.set_defaults(func=func, **defaults)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = _command(sub, "run", "run one experiment from flags or a JSON "
                   "spec file", _cmd_run,
                   build_spec=_experiments_from_flags,
                   load_spec=load_spec_file)
    _spec_flag(run, "--scheme",
               help="erase scheme key (see the scheme registry)")
    _spec_flag(run, "--pec", type=int, help="P/E-cycle wear setpoint")
    _spec_flag(run, "--workload", help="workload abbreviation (Table 3)")
    _spec_flag(run, "--requests", type=int, help="trace requests to replay")
    _spec_flag(run, "--seed", type=int, help="campaign seed")
    _spec_flag(run, "--no-suspension", dest="erase_suspension",
               action="store_const", const=False,
               help="disable erase suspension in the scheduler")
    _spec_flag(run, "--mispredict-rate", type=float,
               help="forced AERO misprediction rate (Figure 16)")
    _spec_flag(run, "--rber-requirement", type=int,
               help="ECC requirement in bits/KiB (Figure 17)")
    _spec_flag(run, "--param", action="append", type=_parse_param,
               metavar="KEY=VALUE",
               help="extra scheme param (repeatable; JSON values)")
    _spec_flag(run, "--ssd", choices=["default", "small", "bench", "paper"],
               help="SSD preset (default: deterministic small SSD)")
    _spec_flag(run, "--engine", choices=list(ENGINES),
               help="grid-cell engine: lean event-loop replay kernel "
                    "when the drive supports it (auto), or force "
                    "one path; results are identical either way")
    run.add_argument("--spec-file", default=None,
                     help="JSON file with one spec or a list of specs")
    run.add_argument("--json", action="store_true",
                     help="emit spec + report as JSON")
    _add_execution_args(run)

    grid = _command(sub, "grid", "run a (schemes x PECs x workloads) "
                    "campaign", _cmd_grid, build_spec=CampaignSpec)
    _add_campaign_flags(grid)
    grid.add_argument("--percentile", type=_percentile, default=99.0,
                      help="read-tail percentile to tabulate, 0-100 "
                           "(default: 99)")
    _add_execution_args(grid)

    compare = _command(sub, "compare", "lifetime comparison across "
                       "schemes (Figure 13)", _cmd_compare,
                       build_spec=LifetimeSpec,
                       load_spec=load_lifetime_file)
    _spec_flag(compare, "--profile", help="chip profile name")
    _spec_flag(compare, "--schemes", type=_csv,
               help="comma-separated scheme keys (first = baseline)")
    _spec_flag(compare, "--blocks", dest="block_count", type=int,
               metavar="BLOCKS", help="blocks per scheme set")
    _spec_flag(compare, "--step", type=int,
               help="P/E cycles per simulated erase")
    _spec_flag(compare, "--seed", type=int)
    _spec_flag(compare, "--max-pec", type=int)
    _spec_flag(compare, "--requirement", type=int,
               help="ECC requirement in bits/KiB (Figure 17)")
    _spec_flag(compare, "--mispredict-rate", type=float,
               help="forced AERO misprediction rate (Figure 16)")
    _spec_flag(compare, "--engine", choices=list(ENGINES),
               help="lifetime engine: vectorized batch kernel when the "
                    "scheme provides one (auto), or force one path")
    compare.add_argument("--spec-file", default=None, metavar="PATH",
                         help="JSON LifetimeSpec file; fully describes the "
                              "comparison, so the sweep flags above "
                              "conflict with it")
    _add_execution_args(compare)
    compare.add_argument("--fail-after", type=int, default=None,
                         metavar="N",
                         help="crash injection: abort after N curves "
                              "persisted (resume smoke testing; needs "
                              "--store)")

    from repro.harness.bench import add_bench_arguments, run_from_args

    add_bench_arguments(_command(
        sub, "bench", "time the hot campaigns, write the perf artifact",
        run_from_args,
    ))

    campaign = sub.add_parser(
        "campaign", help="orchestrated campaigns on the result store"
    )
    campaign_sub = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    campaign_run = _command(campaign_sub, "run", "run a campaign under "
                            "supervision with live progress and "
                            "crash-resume", _cmd_campaign_run,
                            build_spec=CampaignSpec,
                            load_spec=load_campaign_file)
    add = campaign_run.add_argument
    add("--store", required=True,
        help="result store directory (created if missing)")
    add("--spec-file", default=None,
        help='JSON campaign spec (bare object or {"campaign": {...}})')
    _add_campaign_flags(campaign_run)
    add("--workers", type=int, default=1,
        help="worker processes for cell fan-out (default: 1, in this "
             "process unless --cell-timeout needs a killable worker)")
    add("--progress-interval", type=float, default=1.0,
        help="seconds between progress lines (default: 1.0)")
    add("--quiet", action="store_true", help="suppress progress lines")
    add("--fail-after", type=int, default=None, metavar="N",
        help="abort after N executed cells (crash-injection for resume "
             "testing)")
    add("--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry any cell attempt running longer than this")
    add("--max-retries", type=int, default=2,
        help="retry attempts per failing cell before quarantine "
             "(default: 2)")
    add("--on-poison", choices=["skip", "fail"], default="skip",
        help="quarantined cell handling: record and continue (skip, "
             "default) or abort the campaign (fail)")
    add("--fault-plan", default=None, metavar="PATH",
        help="JSON fault plan to arm on the store and workers "
             "(deterministic chaos testing; see repro.faults)")
    add("--json", action="store_true", help="emit spec + run stats as JSON")
    add("--metrics-port", type=int, default=None, metavar="PORT",
        help="serve /metrics (Prometheus text) and /metrics.json on this "
             "port for the duration of the run; 0 = ephemeral")
    add("--metrics-json", default=None, metavar="PATH",
        help="write a JSON metrics snapshot here when the run ends (even "
             "on a crash)")
    add("--metrics-linger", type=float, default=0.0, metavar="SECONDS",
        help="keep the --metrics-port endpoint up this long after the run "
             "(scrape window for CI)")

    add = _command(campaign_sub, "status", "report store contents and "
                   "campaign completion", _cmd_campaign_status).add_argument
    add("--store", required=True)
    add("--json", action="store_true",
        help="machine-readable status: store stats (incl. per-family "
             "entry counts) plus per-family campaign progress when "
             "--spec-file is given")
    add("--spec-file", default=None,
        help="campaign spec to report done/total against")

    add = _command(campaign_sub, "ls", "list the store's entries, oldest "
                   "first", _cmd_campaign_ls).add_argument
    add("--store", required=True)
    add("--json", action="store_true")

    add = _command(campaign_sub, "compact", "drop dead records and vacuum "
                   "(gc knobs supported)", _cmd_campaign_compact).add_argument
    add("--store", required=True)
    add("--max-entries", type=int, default=None,
        help="keep only the newest N healthy entries")
    add("--older-than", type=_parse_age, default=None, metavar="AGE",
        help="drop entries older than AGE (e.g. 12h, 7d)")
    add("--keep-corrupt", action="store_true",
        help="do not prune corrupt/stale entries (needs --max-entries or "
             "--older-than)")
    add("--dry-run", action="store_true", help="report without deleting")

    metrics = sub.add_parser(
        "metrics", help="dump and validate telemetry expositions"
    )
    metrics_sub = metrics.add_subparsers(
        dest="metrics_command", required=True
    )
    add = _command(metrics_sub, "dump", "print one exposition (validated) "
                   "from the in-process registry, a live /metrics "
                   "endpoint, or a snapshot file",
                   _cmd_metrics_dump).add_argument
    add("--url", default=None,
        help="scrape this /metrics endpoint (from `campaign run "
             "--metrics-port`)")
    add("--from-json", default=None, metavar="PATH",
        help="render a --metrics-json snapshot file")
    add("--format", choices=["text", "json"], default="text",
        help="output format (default: text)")
    add("--require", action="append", default=None, metavar="NAME",
        help="fail unless this metric family is present (repeatable)")
    add("--timeout", type=float, default=5.0,
        help="scrape timeout in seconds (default: 5)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
