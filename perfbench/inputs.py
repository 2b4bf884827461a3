"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed, so the same
``--seed`` always produces the same signals, fault mix and campaign
matrix.  Nothing is borrowed from the test suite: the clean signal is
generated here, with the dip lengths, gaps and density of the repo's
simulated SPEC runs as ``calibrate.py`` measures them, not the periodic
dips the unit tests use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Digitizer rate and target clock of the stream workloads: the
#: paper's 40 MS/s capture of a 1 GHz core (25 cycles per sample).
RATE_HZ = 40e6
CLOCK_HZ = 1e9

#: Signal lengths (samples) of the clean paths and of stream-faulted,
#: and the prefix every path is warmed up on.
CLEAN_SAMPLES = 500_000
FAULTED_SAMPLES = 250_000
WARM_UP_SAMPLES = 50_000

#: Chunk sizes stream-faulted is fed at.
FAULTED_CHUNKS = (512, 4096)
CHUNKED_SAMPLES = 65536
#: A chunk size no workload uses, to show that the quality flags
#: depend on the chunking (``layers.flags_differ_by_chunking``).
REFERENCE_CHUNK = 1000

#: Dip structure measured by ``calibrate.py``: ground-truth memory
#: stalls of the repo's simulated mcf, parser and gzip runs (scale 1.0,
#: seeds 1-3, Olimex with DRAM refresh; 6,726 dips over 181,913
#: samples), stalls less than a sample apart merged.  Dip lengths in
#: samples at 25 cycles/sample as (share, shortest, longest): single
#: misses (~280 cycles), queued or overlapped misses, and refresh
#: collisions (>= 1200 cycles).
DIP_MIX = (
    (0.985, 11, 12),
    (0.005, 13, 29),
    (0.010, 78, 139),
)
#: Percentiles of the busy gap between two dips, as (percent,
#: samples); gaps are drawn from this table by linear interpolation.
GAP_PERCENTILES = (
    (0, 1.9), (10, 2.2), (20, 2.2), (30, 2.2), (40, 3.2), (50, 4.1), (60, 5.2),
    (70, 8.0), (80, 10.5), (90, 15.2), (95, 15.7), (98, 25.6), (99, 41.9),
    (99.5, 89.1), (99.9, 956.5), (100, 4008.6),
)
#: The measured density, dips per 1000 samples, with 45% of the samples
#: stalled.  The draws above give ~43: gaps are whole samples, at least 2.
#:
#: The program's quality monitor misreads such traffic.  Its level
#: tracker compares medians of 256-sample blocks, and a block that is
#: more than half stall (a run of misses, or one refresh collision
#: longer than 128 samples) reads as an AGC gain step: streamed, a
#: clean capture comes back with most stalls ``low_confidence``, unlike
#: the batch report, and its burst check marks different samples at
#: different chunk sizes.  The repo's own simulated mcf, parser, gzip
#: and micro captures show the same.  The clean workloads therefore
#: leave the flags out of their comparison with batch
#: (``workloads.CleanPaths``) and report the false flags instead.
DIPS_PER_1K = 37.0

#: Planted-vs-detected stall count tolerance (share of planted dips).
STALL_COUNT_TOLERANCE = 0.01

#: Campaign matrix (``repro.experiments.service.expand_matrix`` input,
#: minus the seed axis, which is derived from the workload seed).
CAMPAIGN_MATRIX = {
    "workload": ["micro", "mcf", "parser", "gzip"],
    "tm": 64,
    "cm": 4,
    "scale": 0.05,
}
CAMPAIGN_SEEDS_PER_CELL = 6
CAMPAIGN_WORKERS = 2


@dataclass(frozen=True)
class DipSignal:
    """A synthetic EM magnitude plus the stalls planted in it."""

    signal: np.ndarray
    dips: int
    refresh_dips: int


def dip_signal(n: int, seed: int) -> DipSignal:
    """Busy level with noise, slow drift, and the measured dip structure.

    Dip lengths and busy gaps are drawn from ``DIP_MIX`` and
    ``GAP_PERCENTILES``.  The busy level wanders slowly (two
    sinusoids, +-8% over ~10^5 samples, like supply and temperature
    drift); dips sit at 15-25% of the busy level; everything carries 2%
    Gaussian noise.
    """
    rng = np.random.default_rng(seed)
    # Draw more dips than fit, then keep those that end inside n.
    budget = int(n * DIPS_PER_1K / 1000 * 1.5) + 16
    shares = np.array([share for share, _, _ in DIP_MIX])
    kind = rng.choice(len(DIP_MIX), size=budget, p=shares / shares.sum())
    lo = np.array([lo for _, lo, _ in DIP_MIX])[kind]
    hi = np.array([hi for _, _, hi in DIP_MIX])[kind]
    lengths = rng.integers(lo, hi + 1)
    percent, gap = zip(*GAP_PERCENTILES)
    drawn = np.interp(rng.uniform(0, 100, size=budget), percent, gap)
    gaps = np.maximum(2, np.rint(drawn)).astype(np.int64)
    starts = 1000 + np.concatenate(([0], np.cumsum(lengths + gaps)[:-1]))
    keep = starts + lengths < n - 1000
    starts, lengths, kind = starts[keep], lengths[keep], kind[keep]

    t = np.arange(n, dtype=np.float64)
    phase = rng.uniform(0, 2 * np.pi, size=2)
    busy = 1.0 + 0.05 * np.sin(2 * np.pi * t / 150_000 + phase[0]) + 0.03 * np.sin(
        2 * np.pi * t / 37_000 + phase[1]
    )
    level = np.ones(n)
    dip_level = rng.uniform(0.15, 0.25, size=len(starts))
    dip = np.searchsorted(starts, t, side="right") - 1
    inside = (dip >= 0) & (t < (starts + lengths)[np.maximum(dip, 0)])
    level[inside] = dip_level[dip[inside]]
    x = busy * level + rng.normal(0.0, 0.02, n)
    return DipSignal(
        signal=np.clip(x, 0.0, None),
        dips=int(len(starts)),
        refresh_dips=int(np.count_nonzero(kind == len(DIP_MIX) - 1)),
    )


def fault_injector(seed: int):
    """The stream-faulted impairment mix, seeded from the workload seed.

    Dropouts (~0.5% of samples in runs of ~100), AGC gain
    steps, interference bursts, ADC clipping of the top 0.1% and a slow
    DC drift: every family the quality monitor watches for.

    AGC gain steps are drawn as steps of 3-6 dB (factors 0.5-0.7 and
    1.45-2), as a receiver's AGC switches.  The injector logs every gain
    step as severe, but a step inside the monitor's documented
    ``gain_step_tolerance`` (30%) is by design not an impairment, so
    a smaller step would fail the ground-truth gating check without
    any fault in the program.
    """
    from repro.faults import (
        BurstFault,
        ClippingFault,
        DcDriftFault,
        DropoutFault,
        FaultInjector,
        GainStepFault,
    )

    return FaultInjector(
        [
            GainStepFault(steps=2, min_factor=0.5, max_factor=0.7),
            GainStepFault(steps=2, min_factor=1.45, max_factor=2.0),
            DcDriftFault(max_offset_ratio=0.1),
            BurstFault(bursts=6, length_samples=48),
            ClippingFault(rate=0.001),
            DropoutFault(rate=0.005, mean_gap_samples=100),
        ],
        seed=seed,
    )


def campaign_runs(seed: int):
    """The campaign matrix cells for this seed (run payload dicts)."""
    from repro.experiments.service import expand_matrix

    seeds = [seed * CAMPAIGN_SEEDS_PER_CELL + k + 1 for k in range(CAMPAIGN_SEEDS_PER_CELL)]
    return expand_matrix({**CAMPAIGN_MATRIX, "seed": seeds})
