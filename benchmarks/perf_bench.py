#!/usr/bin/env python3
"""Perf-trajectory bench: times the hot campaigns, writes ``--out``.

Standalone face of ``python -m repro bench`` (same flags, same
artifact). Not a pytest module — run it directly:

    PYTHONPATH=src python benchmarks/perf_bench.py --out BENCH_PR<N>.json
    PYTHONPATH=src python benchmarks/perf_bench.py --smoke --out BENCH_smoke.json

The artifact records median-of-N wall times for the five-scheme
Figure 13 lifetime sweep on both engines (object vs vectorized kernel,
equal block count and step), per-scheme speedup ratios, and one
evaluation-grid cell replayed by both the object event loop and the
lean cell kernel (bit-identical reports), so perf regressions show up
as a diff against the committed baseline.
"""

from repro.harness.bench import main

if __name__ == "__main__":
    raise SystemExit(main())
