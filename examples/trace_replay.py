#!/usr/bin/env python3
"""Replay a block trace (real or synthetic) on an AERO SSD.

Demonstrates the full user path: load an MSRC- or Alibaba-format trace
(or synthesize one from a Table 3 profile), build an SSD with a chosen
erase scheme, precondition to steady state, replay, and dump the
performance report plus AERO's internal statistics (SEF state, feature
commands, FELP savings).

Run:  python examples/trace_replay.py [trace.csv] [--scheme aero]
      With no file, synthesizes the 'prxy' workload.
"""

import argparse
from pathlib import Path

from repro import ALL_SCHEME_KEYS, SsdSpec, build_ssd
from repro.experiments import WORKLOADS
from repro.ftl.aeroftl import AeroFtl
from repro.workloads import (
    SyntheticTraceGenerator,
    Trace,
    load_alibaba_csv,
    load_msrc_csv,
)


def load_trace(path: Path, spec: SsdSpec):
    """Try both supported CSV dialects."""
    try:
        return load_msrc_csv(path)
    except Exception:
        return load_alibaba_csv(path)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", nargs="?", help="MSRC/Alibaba CSV trace")
    parser.add_argument("--scheme", default="aero",
                        choices=list(ALL_SCHEME_KEYS),
                        help="erase scheme (from the scheme registry)")
    parser.add_argument("--workload", default="prxy",
                        choices=list(WORKLOADS.keys()),
                        help="Table 3 profile to synthesize when no trace file")
    parser.add_argument("--pec", type=int, default=500,
                        help="wear setpoint in P/E cycles")
    parser.add_argument("--requests", type=int, default=1000)
    args = parser.parse_args()

    spec = SsdSpec.small_test(seed=11)
    ssd = build_ssd(spec, args.scheme, pec_setpoint=args.pec)
    print(f"SSD: {spec.geometry.channels} ch x {spec.geometry.chips_per_channel} "
          f"chips x {spec.geometry.planes_per_chip} planes, "
          f"{spec.logical_bytes >> 20} MiB logical, scheme={args.scheme}, "
          f"PEC={args.pec}")

    print("Preconditioning to steady state...")
    ssd.precondition(footprint_pages=int(spec.logical_pages * 0.9))

    if args.trace:
        trace = load_trace(Path(args.trace), spec)
        trace = Trace(trace.requests[: args.requests], name=trace.name)
        print(f"Loaded {len(trace)} requests from {args.trace}")
    else:
        generator = SyntheticTraceGenerator(
            WORKLOADS.resolve(args.workload),
            footprint_bytes=int(spec.logical_bytes * 0.85),
            seed=5,
        )
        trace = generator.generate(args.requests)
        print(f"Synthesized {len(trace)} {args.workload!r} requests "
              f"(read ratio {trace.read_ratio:.0%})")

    report = ssd.run_trace(trace)
    print(f"\n== Performance ==")
    print(f"  requests: {report.requests_completed}, IOPS: {report.iops:,.0f}")
    print(f"  read  mean {report.reads.mean_us:8.0f} us   "
          f"p99 {report.reads.percentile(99):8.0f} us   "
          f"p99.9 {report.reads.percentile(99.9):8.0f} us")
    if len(report.writes):
        print(f"  write mean {report.writes.mean_us:8.0f} us   "
              f"p99 {report.writes.percentile(99):8.0f} us")
    print(f"  erases: {report.erases} (busy {report.erase_busy_us/1000:.1f} ms, "
          f"{report.erase_suspensions} suspensions)")
    print(f"  GC: {report.gc_jobs} jobs, {report.gc_page_moves} page moves, "
          f"WAF {report.extra['waf']:.2f}")

    if isinstance(ssd.ftl, AeroFtl):
        print(f"\n== AEROFTL internals ==")
        overhead = ssd.ftl.overhead_report()
        print(f"  EPT: {overhead['ept_entries']} entries, {overhead['ept_bytes']} B; "
              f"SEF: {ssd.ftl.sef.enabled_count}/{len(ssd.ftl.sef)} blocks shallow")
        print(f"  feature commands: {overhead['set_feature_commands']} SET, "
              f"{overhead['get_feature_commands']} GET")
        stats = ssd.scheme.stats
        print(f"  shallow probes: {stats.shallow_probes} "
              f"({stats.shallow_useful} useful), "
              f"aggressive accepts: {stats.aggressive_accepts}, "
              f"mispredictions: {stats.mispredictions}")
        print(f"  pulses saved vs Baseline: {stats.pulses_saved_vs_baseline} "
              f"({stats.pulses_saved_vs_baseline * 0.5:.0f} ms of erase stress)")


if __name__ == "__main__":
    main()
