#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

Prints, in order: Fig. 1 (the motivating dual-core example), Fig. 6
(normalised time/energy for the seven benchmarks), Fig. 7 (fixed
asymmetric configurations), Fig. 8 (SHA-1 frequency histogram per batch),
Fig. 9 (DMC scalability) and Table III (adjuster overhead).

This is the long-form version of the benchmark harness
(``pytest benchmarks/ --benchmark-only`` asserts the same shapes). It
takes about 3 s on a 2-CPU Xeon VM under CPython 3.11 (about 1.6 s with
``--quick``, which runs one seed instead of three).

Usage:
    python examples/paper_figures.py [--quick]
"""

from __future__ import annotations

import sys
import time

from repro.experiments import (
    fig1_rows,
    format_table,
    frequency_timeline,
    grouped_bar_chart,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_table3,
)


def main() -> None:
    quick = "--quick" in sys.argv
    seeds = (11,) if quick else (11, 23, 37)

    t0 = time.time()
    print("=" * 72)
    rows = fig1_rows(0.1)
    print(format_table(
        ["schedule", "time (s)", "energy (J)"], rows,
        title="Fig. 1 — four dual-core schedules + simulated EEWA",
    ))

    print("\n" + "=" * 72)
    fig6 = run_fig6(seeds=seeds)
    print(fig6.table())
    print()
    print(grouped_bar_chart(
        [r.benchmark for r in fig6.rows],
        {
            "cilk  ": [r.energy_cilk for r in fig6.rows],
            "cilk-d": [r.energy_cilk_d for r in fig6.rows],
            "eewa  ": [r.energy_eewa for r in fig6.rows],
        },
        title="normalised energy (lower is better)",
        width=36,
    ))

    print("\n" + "=" * 72)
    print(run_fig7(seeds=seeds).table())

    print("\n" + "=" * 72)
    fig8 = run_fig8()
    print(fig8.table())
    print()
    print(frequency_timeline(
        fig8.histograms, fig8.frequencies_ghz,
        title="SHA-1 per-core frequency timeline (digit = level, 0 fastest)",
    ))

    print("\n" + "=" * 72)
    print(run_fig9(seeds=seeds).table())

    print("\n" + "=" * 72)
    print(run_table3().table())

    print(f"\n[all exhibits regenerated in {time.time()-t0:.0f}s]")


if __name__ == "__main__":
    main()
