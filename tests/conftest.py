"""Shared fixtures and signal/fault/chunking generators.

Expensive end-to-end runs are session-scoped so the whole suite pays
for each simulation once.  The module-level generators below are the
shared vocabulary of the engine differential harness
(``tests/test_engine_equivalence.py`` / ``tests/test_engine_chunks.py``
/ ``benchmarks/test_engine_throughput.py``): one signal family, one
set of adversarial chunkings, one set of fault mixes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Microbenchmark, simulate
from repro.core.profiler import Emprof
from repro.devices import olimex, sesc
from repro.faults import (
    BurstFault,
    ClippingFault,
    DcDriftFault,
    DropoutFault,
    FaultInjector,
    GainStepFault,
)

# -- engine differential-harness generators ---------------------------------

#: Dip geometry of :func:`make_dip_signal` (used to build chunkings
#: that deliberately straddle dip boundaries).
DIP_FIRST = 200
DIP_EVERY = 170
DIP_LEN = 13


def make_dip_signal(n=5000, seed=0, dip_every=DIP_EVERY, dip_len=DIP_LEN):
    """Busy-level magnitude with periodic stall dips (noisy, clipped)."""
    rng = np.random.default_rng(seed)
    x = np.full(n, 0.9) + rng.normal(0, 0.02, n)
    for s in range(DIP_FIRST, n - DIP_FIRST, dip_every):
        x[s : s + dip_len] = 0.1 + rng.normal(0, 0.01, dip_len)
    return np.clip(x, 0.0, None)


def make_dense_dip_signal(n=500_000, seed=0):
    """Stall-dense traffic shaped like the repo benchmark's clean signal.

    Dips are 11-12 samples long (98.5%), 13-29 (0.5%) or refresh
    collisions of 78-139 (1%), separated by busy gaps of 2-16 samples.
    """
    rng = np.random.default_rng(seed)
    x = np.full(n, 0.9) + rng.normal(0, 0.02, n)
    shape = rng.random(n // 10)
    gaps = rng.integers(2, 17, n // 10)
    pos = DIP_FIRST
    for kind, gap in zip(shape.tolist(), gaps.tolist()):
        if kind < 0.01:
            length = int(rng.integers(78, 140))
        elif kind < 0.015:
            length = int(rng.integers(13, 30))
        else:
            length = int(rng.integers(11, 13))
        if pos + length > n - DIP_FIRST:
            break
        x[pos : pos + length] = 0.1 + rng.normal(0, 0.01, length)
        pos += length + gap
    return np.clip(x, 0.0, None)


#: Adversarial chunkings: degenerate (1), primes (7, 101), typical
#: (64, 4096), the whole signal, and boundaries cut mid-dip.
CHUNKING_NAMES = (
    "size-1",
    "prime-7",
    "size-64",
    "prime-101",
    "size-4096",
    "whole",
    "dip-straddling",
)

#: Plain chunk sizes (``None`` = whole signal) for parametrizing code
#: that feeds ``(chunk, gap_before)`` pairs via ``iter_chunks``.
CHUNK_SIZES = (1, 7, 64, 4096, None)


def chunk_plan(x, name):
    """Split ``x`` into the named adversarial chunking."""
    n = len(x)
    if name == "whole":
        return [x]
    if name == "dip-straddling":
        # A boundary 5 samples into every dip of make_dip_signal's
        # geometry: each dip straddles two chunks.
        bounds = [s + 5 for s in range(DIP_FIRST, n - DIP_FIRST, DIP_EVERY)]
        return np.split(x, [b for b in bounds if 0 < b < n])
    size = int(name.rsplit("-", 1)[1])
    return np.array_split(x, np.arange(size, n, size))


def make_fault_injector(family, seed=0):
    """A seeded :class:`FaultInjector` for one named fault family."""
    mixes = {
        "clean": [],
        "dropout": [DropoutFault(rate=0.01, mean_gap_samples=40)],
        "clipping": [ClippingFault(rate=0.02)],
        "gain_step": [GainStepFault(steps=3)],
        "burst": [BurstFault(bursts=4, length_samples=48)],
        "dc_drift": [DcDriftFault(max_offset_ratio=0.2)],
        "mixed": [
            GainStepFault(steps=2),
            DcDriftFault(),
            BurstFault(bursts=2),
            ClippingFault(rate=0.01),
            DropoutFault(rate=0.005, mean_gap_samples=64),
        ],
    }
    return FaultInjector(mixes[family], seed=100 + seed)


#: Every fault family exercised by the differential harness.
FAULT_FAMILIES = (
    "clean",
    "dropout",
    "clipping",
    "gain_step",
    "burst",
    "dc_drift",
    "mixed",
)


@pytest.fixture(scope="session")
def micro_workload():
    """A small but realistic TM/CM microbenchmark."""
    return Microbenchmark(
        total_misses=64,
        consecutive_misses=4,
        blank_iterations=8000,
        gap_instructions=120,
        seed=7,
    )


@pytest.fixture(scope="session")
def sesc_run(micro_workload):
    """Microbenchmark simulated on the SESC configuration."""
    return simulate(micro_workload, sesc(), seed=0)


@pytest.fixture(scope="session")
def olimex_run(micro_workload):
    """Microbenchmark simulated on the Olimex device model."""
    return simulate(micro_workload, olimex(), seed=0)


@pytest.fixture(scope="session")
def sesc_profile(sesc_run):
    """EMPROF profile of the SESC power trace."""
    return Emprof.from_simulation(sesc_run).profile()


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)
