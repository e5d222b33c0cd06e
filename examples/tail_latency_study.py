#!/usr/bin/env python3
"""Figure 14/15 in miniature: read tail latency across erase schemes.

Builds bench-scale SSDs at three wear points, replays a write-heavy
datacenter workload (ali.A) and a mixed enterprise workload (hm), and
reports read tail percentiles per scheme — with and without erase
suspension. The campaign is described declaratively: one
:class:`repro.ExperimentSpec` per cell, executed through
``run_experiments`` so it fans out across worker processes and resumes
from a result store; serial, parallel, and cached runs print identical
tables. The equivalent shell command is::

    python -m repro grid --schemes baseline,aero_cons,aero \\
        --pecs 500,2500 --workloads ali.A,hm --requests 800 --seed 77

Run:  python examples/tail_latency_study.py
      python examples/tail_latency_study.py --workers 4
      python examples/tail_latency_study.py --store .repro-store
"""

import argparse

from repro import ExperimentSpec
from repro.analysis.tables import format_table
from repro.experiments import run_experiments


SCHEMES = ("baseline", "aero_cons", "aero")
PEC_POINTS = (500, 2500)
WORKLOADS = ("ali.A", "hm")
REQUESTS = 800
SEED = 77


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for grid cells (default: serial)",
    )
    parser.add_argument(
        "--store", "--cache-dir", dest="store", default=None,
        help="result store: keep finished cells here and resume on re-run",
    )
    args = parser.parse_args()

    print("Replaying traces on bench-scale SSDs (a minute or so)...\n")
    for suspension in (True, False):
        specs = [
            ExperimentSpec(
                scheme=scheme,
                pec=pec,
                workload=workload,
                requests=REQUESTS,
                seed=SEED,
                erase_suspension=suspension,
            )
            for pec in PEC_POINTS
            for workload in WORKLOADS
            for scheme in SCHEMES
        ]
        result = run_experiments(specs, workers=args.workers, cache=args.store)
        grid = result.grid
        rows = []
        for workload in WORKLOADS:
            for pec in PEC_POINTS:
                base_tail = grid.report("baseline", pec, workload).read_tail(99.0)
                for scheme in SCHEMES:
                    report = grid.report(scheme, pec, workload)
                    tail = report.read_tail(99.0)
                    rows.append(
                        [
                            workload,
                            pec,
                            scheme,
                            f"{tail / 1000:.2f} ms",
                            f"{tail / base_tail:.2f}" if base_tail else "--",
                            report.erases,
                            report.erase_suspensions,
                        ]
                    )
        mode = "ENABLED" if suspension else "DISABLED"
        print(
            format_table(
                ["workload", "PEC", "scheme", "p99 read", "vs baseline",
                 "erases", "suspensions"],
                rows,
                title=f"Read tail latency — erase suspension {mode}",
            )
        )
        print(
            f"  (cells executed: {result.stats.executed}, "
            f"loaded from cache: {result.stats.cached})"
        )
        print()
    print("AERO's shorter erases shrink the window in which a read can")
    print("get stuck behind an erase; without suspension the effect is")
    print("even larger because reads must wait out the whole operation.")


if __name__ == "__main__":
    main()
