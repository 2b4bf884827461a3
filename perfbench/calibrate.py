"""Measure the stall structure the clean signal of ``inputs.py`` copies.

Usage (from the root of a checkout)::

    python3 perfbench/calibrate.py

Simulates the mcf, parser and gzip models (scale 1.0, seeds 1-3, the
Olimex device, whose memory has DRAM refresh) with the repo's own
simulator and pools the ground-truth memory stalls.  Cycles are turned
into samples at 25 cycles per sample, the 40 MS/s capture of a 1 GHz
core that ``inputs.py`` generates.  Two stalls less than one sample
apart cannot be told apart in such a capture, so they are merged
first.  It prints the dip-length classes (single misses, queued or
overlapped misses, refresh collisions), the dip density and the
percentiles of the busy gap between dips: the figures ``inputs.DIP_MIX``,
``inputs.DIPS_PER_1K`` and ``inputs.GAP_PERCENTILES`` hold.

The figures only change if the simulator's models do; the benchmark
reads the constants, not this script, so that a simulator change does
not change the benchmark's input.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import inputs  # noqa: E402

WORKLOADS = ("mcf", "parser", "gzip")
SCALE = 1.0
SEEDS = (1, 2, 3)
#: Class edges in samples: a single miss is ~280 cycles (11 samples);
#: refresh-stretched stalls start at the profiler's refresh_min_cycles
#: (1200 cycles, 48 samples).
SINGLE_MAX = 13
REFRESH_MIN = 48
#: Percentiles of the gap distribution printed; finer in the long tail.
GAP_PERCENTILES = (0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 98, 99, 99.5, 99.9, 100)


def ground_truth_dips(workload: str, seed: int):
    """(lengths, gaps, total samples) of one simulated run, in samples."""
    from repro.devices import by_name
    from repro.sim.machine import simulate
    from repro.workloads import spec_workload

    # As SimulatedCaptureSource builds a SPEC run: one seed for both.
    result = simulate(spec_workload(workload, seed=seed, scale=SCALE), by_name("olimex"), seed=seed)
    truth = result.ground_truth
    cycles_per_sample = inputs.CLOCK_HZ / inputs.RATE_HZ
    intervals = truth.stall_intervals() / cycles_per_sample
    merged = [list(intervals[0])]
    for begin, end in intervals[1:]:
        if begin - merged[-1][1] < 1.0:
            merged[-1][1] = end
        else:
            merged.append([begin, end])
    merged = np.array(merged)
    lengths = merged[:, 1] - merged[:, 0]
    gaps = merged[1:, 0] - merged[:-1, 1]
    return lengths, gaps, truth.total_cycles / cycles_per_sample


def main() -> int:
    lengths, gaps, samples = [], [], 0.0
    for workload in WORKLOADS:
        for seed in SEEDS:
            run_lengths, run_gaps, run_samples = ground_truth_dips(workload, seed)
            lengths.append(run_lengths)
            gaps.append(run_gaps)
            samples += run_samples
    lengths = np.concatenate(lengths)
    gaps = np.concatenate(gaps)
    print(f"{len(lengths)} dips over {samples:.0f} samples "
          f"({', '.join(WORKLOADS)}; scale {SCALE}; seeds {SEEDS})")
    print(f"DIPS_PER_1K = {1000 * len(lengths) / samples:.1f}")
    print(f"stalled share {lengths.sum() / samples:.3f}")
    classes = (
        ("single miss", lengths < SINGLE_MAX),
        ("queued / overlapped", (lengths >= SINGLE_MAX) & (lengths < REFRESH_MIN)),
        ("refresh", lengths >= REFRESH_MIN),
    )
    print("DIP_MIX = (  # share, shortest, longest (p1-p99 samples)")
    for label, mask in classes:
        part = lengths[mask]
        if len(part):
            low, high = np.percentile(part, [1, 99])
            print(f"    ({len(part) / len(lengths):.3f}, {int(np.floor(low))}, "
                  f"{int(np.ceil(high))}),  # {label}: {len(part)} dips")
    print(")")
    values = np.percentile(gaps, GAP_PERCENTILES)
    pairs = ", ".join(f"({p}, {g:.1f})" for p, g in zip(GAP_PERCENTILES, values))
    print(f"GAP_PERCENTILES = ({pairs})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
