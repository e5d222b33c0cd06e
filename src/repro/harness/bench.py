"""Perf-tracking bench harness: the ``BENCH_<label>.json`` trajectory artifact.

Times the two hot campaign shapes — the five-scheme Figure 13 lifetime
sweep (object vs kernel engine, equal block count and step) and one
evaluation-grid cell (object event loop vs lean replay kernel,
bit-identical reports), each timed repeat starting cold (no share
holds its cell or block set) and the engines alternating — as
median-of-N wall times with their quartiles, plus the result store's
``put``, ``get`` and ``in`` per record, and writes a JSON artifact
future PRs can diff to catch regressions. ``--out`` names the
artifact and its stem is the artifact's ``label`` (``BENCH_smoke.json``
is labelled ``BENCH_smoke``). Exposed as ``python -m repro bench`` and
as the standalone ``benchmarks/perf_bench.py`` script; CI runs it in
``--smoke`` mode (tiny block counts) on every push and uploads the
artifact.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform as _platform
import statistics
import tempfile
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Bump when the artifact layout changes (adding keys does not).
ARTIFACT_VERSION = 1

#: Grid-cell records the store section puts, reads and tests
#: (full run, ``--smoke``).
STORE_RECORDS = 1000
SMOKE_STORE_RECORDS = 50


@dataclass(frozen=True)
class BenchConfig:
    """One bench campaign's knobs (recorded verbatim in the artifact)."""

    profile: str = "3D-TLC-48L"
    schemes: Tuple[str, ...] = ("baseline", "iispe", "dpes", "aero_cons", "aero")
    blocks: int = 128
    step: int = 50
    max_pec: int = 12000
    seed: int = 0xAE20
    repeats: int = 3
    grid_scheme: str = "aero"
    grid_pec: int = 2500
    grid_workload: str = "ali.A"
    grid_requests: int = 600
    grid_repeats: int = 7
    smoke: bool = False

    @classmethod
    def smoke_config(cls) -> "BenchConfig":
        """Tiny CI-sized campaign: exercises both engines in seconds."""
        return cls(
            blocks=16,
            step=100,
            max_pec=3000,
            repeats=2,
            grid_requests=120,
            grid_repeats=2,
            smoke=True,
        )


def _time_repeats(fn: Callable[[], object], repeats: int) -> List[float]:
    """Wall-time ``fn`` ``repeats`` times (perf_counter seconds).

    Garbage is collected before and collection disabled during each
    timed run, so GC pauses land neither inside a measurement nor
    differently across the engines being compared.
    """
    times = []
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        finally:
            gc.enable()
    return times


def _quartiles(times: Sequence[float]) -> List[float]:
    """``[p25, p75]`` of ``times``, interpolated within the sample as
    NumPy's default percentiles are (a single time is both)."""
    if len(times) < 2:
        return [round(times[0], 6)] * 2
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return [round(q1, 6), round(q3, 6)]


def _summary(times: Sequence[float]) -> Dict[str, object]:
    return {
        "times_s": [round(value, 6) for value in times],
        "median_s": round(statistics.median(times), 6),
        "quartiles_s": _quartiles(times),
    }


def bench_lifetime_sweep(config: BenchConfig) -> Dict[str, object]:
    """Time the Figure 13 sweep on both engines at equal work, cold.

    Both engines cycle the same block sets with the same seeds, so the
    produced curves (recorded in the payload for cross-checking) cover
    the same P/E range — the speedup ratio compares equal work.

    Consecutive kernel curves of one block set share its draws and
    jitter table (see :mod:`repro.lifetime.simulator`), so an untimed
    kernel curve of another seed runs before each timed sweep and each
    per-scheme repeat: every timed kernel sweep draws its block set, as
    a first sweep does, and the artifact records ``cold``. The engines
    alternate repeat by repeat, as in :func:`bench_grid_cell`.
    """
    from repro.lifetime.comparison import compare_schemes
    from repro.nand.chip_types import profile_by_name

    profile = profile_by_name(config.profile)

    def sweep(engine: str, schemes=config.schemes, seed=config.seed):
        return compare_schemes(
            profile,
            scheme_keys=schemes,
            block_count=config.blocks,
            step=config.step,
            seed=seed,
            max_pec=config.max_pec,
            engine=engine,
        )

    def timed(schemes: Tuple[str, ...]) -> Dict[str, List[float]]:
        times: Dict[str, List[float]] = {"object": [], "kernel": []}
        for _ in range(config.repeats):
            for engine in times:
                # Leave another seed's set in the block-set share.
                sweep("kernel", schemes[:1], config.seed + 1)
                times[engine] += _time_repeats(
                    lambda: sweep(engine, schemes), 1
                )
        return times

    result: Dict[str, object] = {}
    # Warm-up + lifetime capture.
    comparisons = {engine: sweep(engine) for engine in ("object", "kernel")}
    times = timed(config.schemes)
    for engine, comparison in comparisons.items():
        result[f"engine_{engine}"] = {
            **_summary(times[engine]),
            "lifetime_pec": {
                key: curve.lifetime_pec
                for key, curve in comparison.curves.items()
            },
        }
    medians = {engine: statistics.median(t) for engine, t in times.items()}
    result["speedup"] = round(medians["object"] / medians["kernel"], 2)
    result["cold"] = True
    per_scheme: Dict[str, object] = {}
    for key in config.schemes:
        scheme_times = {}
        for engine, values in timed((key,)).items():
            scheme_times[f"{engine}_s"] = round(statistics.median(values), 6)
            scheme_times[f"{engine}_quartiles_s"] = _quartiles(values)
        scheme_times["speedup"] = round(
            scheme_times["object_s"] / scheme_times["kernel_s"], 2
        )
        per_scheme[key] = scheme_times
    result["per_scheme"] = per_scheme
    return result


def _other_point(config: BenchConfig) -> Dict[str, object]:
    """A cell of another (PEC, workload) point, with its own seed."""
    return {
        "pec": config.grid_pec + 500,
        "workload": "hm" if config.grid_workload != "hm" else "ali.A",
        "seed": config.seed + 1,
    }


def bench_grid_cell(config: BenchConfig) -> Dict[str, object]:
    """Time one evaluation-grid cell on both replay engines, cold.

    The same (scheme, PEC, workload) cell is replayed by the object
    event loop and by the lean cell kernel — the two produce
    bit-identical reports (pinned by tests), so the speedup compares
    strictly equal work. Runs are interleaved object/kernel so slow
    drift (thermal, cache, background load) hits both engines alike.

    Consecutive cells of one point share their trace and draws (both
    engines) and their preconditioned layout and replay log (kernel
    only; see :mod:`repro.harness.cells`), so an untimed cell of
    another point runs before each timed repeat on the same engine: no
    timed cell hits a share, and the artifact records ``cold``.
    """
    from repro.harness.cells import run_workload_cell

    def cell(engine, pec=config.grid_pec, workload=config.grid_workload,
             seed=config.seed):
        return run_workload_cell(
            config.grid_scheme,
            pec,
            workload,
            requests=config.grid_requests,
            seed=seed,
            engine=engine,
        )

    other = _other_point(config)
    # Warm-up (trace synthesis, kernel import).
    cell("object")
    cell("kernel")
    times: Dict[str, List[float]] = {"object": [], "kernel": []}
    for _ in range(config.grid_repeats):
        for engine in ("object", "kernel"):
            cell(engine, **other)  # the shares now hold another point
            times[engine] += _time_repeats(lambda: cell(engine), 1)
    medians = {
        engine: statistics.median(values) for engine, values in times.items()
    }
    return {
        "engine_object": _summary(times["object"]),
        "engine_kernel": _summary(times["kernel"]),
        "speedup": round(medians["object"] / medians["kernel"], 2),
        "cold": True,
        "cell": {
            "scheme": config.grid_scheme,
            "pec": config.grid_pec,
            "workload": config.grid_workload,
            "requests": config.grid_requests,
        },
        "between_repeats": other,
    }


def _quartiles_us(times_ns: Sequence[int]) -> Dict[str, float]:
    """Median and quartiles of per-operation times, in µs."""
    q1, median, q3 = statistics.quantiles(times_ns, n=4, method="inclusive")
    return {"p25": round(q1 / 1e3, 1), "p50": round(median / 1e3, 1),
            "p75": round(q3 / 1e3, 1)}


def _time_each(fn: Callable[[str], object], keys: Sequence[str]) -> List[int]:
    """perf_counter_ns of ``fn(key)`` per key, GC disabled throughout."""
    times = []
    gc.collect()
    gc.disable()
    try:
        for key in keys:
            start = time.perf_counter_ns()
            fn(key)
            times.append(time.perf_counter_ns() - start)
    finally:
        gc.enable()
    return times


def bench_store(config: BenchConfig) -> Dict[str, object]:
    """Time the result store per record: ``put``, ``get`` and ``in``.

    The ``grid_cell`` cell's report is put under :data:`STORE_RECORDS`
    distinct keys (:data:`SMOKE_STORE_RECORDS` under ``--smoke``) into
    a fresh store; a handle opened anew, as a resumed campaign opens
    one, then reads (``get``) and tests (``in``) every key. Each
    operation is timed alone; ``bytes_per_record`` is the database's
    size over its records.
    """
    from repro.campaign.store import ShardedResultStore
    from repro.harness.cells import run_workload_cell

    report = run_workload_cell(
        config.grid_scheme, config.grid_pec, config.grid_workload,
        requests=config.grid_requests, seed=config.seed,
    )
    records = SMOKE_STORE_RECORDS if config.smoke else STORE_RECORDS
    # Keys shaped like fingerprints, arriving in no particular order.
    keys = [hashlib.sha256(str(n).encode()).hexdigest()
            for n in range(records)]
    with tempfile.TemporaryDirectory() as root:
        writer = ShardedResultStore(root)
        puts = _time_each(lambda key: writer.put(key, report), keys)
        reader = ShardedResultStore(root)
        gets = _time_each(reader.get, keys)
        contains = _time_each(reader.__contains__, keys)
        stats = reader.stats()
        # A miss would time as a fast get: check what was served.
        if stats.keys != records or reader.get(keys[-1]) != report:
            raise RuntimeError("the store did not serve the reports put")
        del writer, reader  # close both connections before the cleanup
    return {
        "records": records,
        "put_us": _quartiles_us(puts),
        "get_us": _quartiles_us(gets),
        "in_us": _quartiles_us(contains),
        "bytes_per_record": round(stats.data_bytes / stats.keys, 1),
    }


def run_bench(config: BenchConfig, label: str) -> Dict[str, object]:
    """Run the full bench and assemble the artifact payload."""
    return {
        "version": ARTIFACT_VERSION,
        "label": label,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": _platform.python_version(),
        "machine": _platform.machine(),
        "config": asdict(config),
        "lifetime_sweep": bench_lifetime_sweep(config),
        "grid_cell": bench_grid_cell(config),
        "store": bench_store(config),
    }


def write_artifact(payload: Dict[str, object], path: str) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def _count(text: str) -> int:
    """Parse a count flag: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the bench flags (shared by the CLI and the script)."""
    defaults = BenchConfig()
    parser.add_argument("--out", required=True,
                        help="artifact path; its stem is the artifact label "
                             "(e.g. BENCH_PR<N>.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI-sized campaign (seconds, not minutes)")
    parser.add_argument("--profile", default=defaults.profile)
    parser.add_argument("--schemes", default=",".join(defaults.schemes),
                        help="comma-separated scheme keys to sweep")
    parser.add_argument("--blocks", type=int, default=None,
                        help=f"blocks per scheme set (default: {defaults.blocks})")
    parser.add_argument("--step", type=int, default=None)
    parser.add_argument("--max-pec", type=int, default=None)
    parser.add_argument("--repeats", type=_count, default=None,
                        help="timed repetitions per measurement (median wins)")
    parser.add_argument("--grid-requests", type=_count, default=None)
    parser.add_argument("--grid-repeats", type=_count, default=None,
                        help="interleaved object/kernel repetitions per "
                             "engine for the grid cell (median wins)")
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--json", action="store_true",
                        help="print the payload to stdout as well")


def config_from_args(args: argparse.Namespace) -> BenchConfig:
    config = BenchConfig.smoke_config() if args.smoke else BenchConfig()
    overrides = {
        "profile": args.profile,
        "schemes": tuple(
            key.strip() for key in args.schemes.split(",") if key.strip()
        ),
        "seed": args.seed,
    }
    for name in (
        "blocks", "step", "max_pec", "repeats", "grid_requests",
        "grid_repeats",
    ):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    return replace(config, **overrides)


def run_from_args(args: argparse.Namespace) -> int:
    """Execute the bench described by parsed flags; returns exit code."""
    config = config_from_args(args)
    payload = run_bench(config, Path(args.out).stem)
    write_artifact(payload, args.out)
    sweep = payload["lifetime_sweep"]
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"lifetime sweep ({len(config.schemes)} schemes, "
            f"{config.blocks} blocks, step {config.step}, cold): "
            f"object {sweep['engine_object']['median_s']:.3f}s, "
            f"kernel {sweep['engine_kernel']['median_s']:.3f}s "
            f"-> {sweep['speedup']:.1f}x"
        )
        cell = payload["grid_cell"]
        print(
            f"grid cell ({config.grid_scheme}@{config.grid_pec} "
            f"{config.grid_workload}, {config.grid_requests} requests, "
            f"cold): "
            f"object {cell['engine_object']['median_s']:.3f}s, "
            f"kernel {cell['engine_kernel']['median_s']:.3f}s "
            f"-> {cell['speedup']:.1f}x"
        )
        store = payload["store"]
        print(
            f"store ({store['records']} grid-cell records, p50): "
            f"put {store['put_us']['p50']:.0f}us, "
            f"get {store['get_us']['p50']:.0f}us, "
            f"in {store['in_us']['p50']:.0f}us, "
            f"{store['bytes_per_record']:.0f} bytes/record"
        )
    print(f"wrote {args.out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (used by ``benchmarks/perf_bench.py``)."""
    parser = argparse.ArgumentParser(description=__doc__)
    add_bench_arguments(parser)
    return run_from_args(parser.parse_args(argv))
