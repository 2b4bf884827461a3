"""Post-profiling analysis: turning stall lists into decisions.

The paper's motivation (Section I) is that profiling output should
drive optimization: which code suffers, whether the program is
memory-bound at all, and how much headroom an optimization has.  This
module implements that interpretation layer on top of EMPROF reports:

* :func:`boundedness` - memory-boundedness classification of a run;
* :func:`overlap_factor` - effective memory-level parallelism from
  ground truth (misses per observable stall group);
* :func:`speedup_headroom` - Amdahl bound on the gain from removing a
  fraction of miss stalls;
* :func:`rank_regions` - optimization priority over attributed regions
  (the "optimize batch_process first" conclusion of Table V);
* :func:`compare_reports` - before/after comparison of two profiles of
  the same program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

from .core.events import ProfileReport
from .sim.trace import GroundTruth

if TYPE_CHECKING:
    from .attribution.report import RegionReport

# Memory-boundedness classes, by stall fraction.
COMPUTE_BOUND = "compute-bound"
BALANCED = "balanced"
MEMORY_SENSITIVE = "memory-sensitive"
MEMORY_BOUND = "memory-bound"

_BANDS = (
    (0.05, COMPUTE_BOUND),
    (0.20, BALANCED),
    (0.50, MEMORY_SENSITIVE),
    (1.01, MEMORY_BOUND),
)


@dataclass(frozen=True)
class Boundedness:
    """Memory-boundedness verdict for one run.

    Attributes:
        label: one of the class constants above.
        stall_fraction: miss latency as a fraction of execution time.
        mean_stall_cycles: average detected stall length.
        refresh_share: fraction of stall *time* spent in
            refresh-coincident stalls (a tail-latency indicator).
    """

    label: str
    stall_fraction: float
    mean_stall_cycles: float
    refresh_share: float


def boundedness(report: ProfileReport) -> Boundedness:
    """Classify how memory-bound the profiled execution is."""
    frac = report.stall_fraction
    label = MEMORY_BOUND
    for ceiling, name in _BANDS:
        if frac < ceiling:
            label = name
            break
    refresh_cycles = sum(
        s.duration_cycles for s in report.stalls if s.is_refresh
    )
    total = report.stall_cycles
    return Boundedness(
        label=label,
        stall_fraction=frac,
        mean_stall_cycles=report.mean_latency_cycles,
        refresh_share=refresh_cycles / total if total else 0.0,
    )


def overlap_factor(truth: GroundTruth) -> float:
    """Effective MLP: LLC misses per observable stall group.

    1.0 means every miss stalls alone (no MLP, mcf-style); higher
    values mean the core overlaps misses (the Fig. 3 behaviours) and a
    stall-counting profiler will undercount misses by that factor.
    """
    groups = truth.memory_stall_count()
    if groups == 0:
        return float(truth.miss_count()) if truth.miss_count() else 1.0
    return truth.miss_count() / groups


def speedup_headroom(report: ProfileReport, removable_fraction: float = 1.0) -> float:
    """Amdahl bound: speedup from removing miss-stall time.

    Args:
        report: the profile.
        removable_fraction: fraction of stall time an optimization
            could plausibly eliminate (1.0 = all of it).

    Returns:
        The execution-time speedup factor (>= 1.0).
    """
    if not 0.0 <= removable_fraction <= 1.0:
        raise ValueError("removable fraction must be in [0, 1]")
    saved = report.stall_fraction * removable_fraction
    if saved >= 1.0:
        raise ValueError("profile claims more stall time than execution time")
    return 1.0 / (1.0 - saved)


@dataclass(frozen=True)
class RegionPriority:
    """One region's optimization priority.

    ``score`` is the region's share of whole-program stall time - the
    upper bound (in fractions of total runtime) on what fixing that
    region alone can save.
    """

    region: str
    score: float
    stall_percent: float
    miss_rate_per_mcycle: float


def rank_regions(
    rows: Sequence[RegionReport], total_cycles: float = None
) -> List[RegionPriority]:
    """Order attributed regions by optimization priority.

    Priority is the region's stall time as a share of the whole
    program: a region stalled 50% of its own (tiny) runtime can still
    matter less than a dominant region stalled 10%.
    """
    total = (
        total_cycles
        if total_cycles is not None
        else sum(r.cycles for r in rows)
    )
    if total <= 0:
        raise ValueError("total cycles must be positive")
    ranked = [
        RegionPriority(
            region=r.region,
            score=(r.stall_percent / 100.0) * (r.cycles / total),
            stall_percent=r.stall_percent,
            miss_rate_per_mcycle=r.miss_rate_per_mcycle,
        )
        for r in rows
    ]
    ranked.sort(key=lambda p: -p.score)
    return ranked


@dataclass(frozen=True)
class ProfileDelta:
    """Before/after comparison of two profiles of the same program.

    Attributes:
        miss_delta: change in detected miss count (after - before).
        stall_cycle_delta: change in total stall cycles.
        time_speedup: before.total_cycles / after.total_cycles.
        stall_fraction_before / after: the headline ratios.
    """

    miss_delta: int
    stall_cycle_delta: float
    time_speedup: float
    stall_fraction_before: float
    stall_fraction_after: float

    @property
    def improved(self) -> bool:
        """True when the 'after' run stalls less, absolutely and relatively."""
        return (
            self.stall_cycle_delta < 0
            and self.stall_fraction_after <= self.stall_fraction_before
        )


def compare_reports(before: ProfileReport, after: ProfileReport) -> ProfileDelta:
    """Quantify the effect of an optimization between two profiles."""
    if after.total_cycles <= 0:
        raise ValueError("'after' profile has no execution time")
    return ProfileDelta(
        miss_delta=after.miss_count - before.miss_count,
        stall_cycle_delta=after.stall_cycles - before.stall_cycles,
        time_speedup=before.total_cycles / after.total_cycles,
        stall_fraction_before=before.stall_fraction,
        stall_fraction_after=after.stall_fraction,
    )


def dvfs_runtime_scale(report: ProfileReport, frequency_scale: float) -> float:
    """Predicted runtime change under frequency scaling (leading-load model).

    The paper's stall accounting is exactly the input the DVFS
    performance predictors it cites ([30]-[32]) need: busy time scales
    inversely with clock frequency, while memory-stall time is set by
    DRAM latency in *nanoseconds* and does not scale.  With stall
    fraction ``s`` at the profiled frequency, running at
    ``frequency_scale`` x the clock takes

        T' / T = (1 - s) / frequency_scale + s

    Args:
        report: profile taken at the baseline frequency.
        frequency_scale: new frequency / profiled frequency (> 0).

    Returns:
        Predicted ``T' / T`` (1.0 = unchanged runtime; < 1 = faster).
    """
    if frequency_scale <= 0:
        raise ValueError("frequency scale must be positive")
    s = report.stall_fraction
    return (1.0 - s) / frequency_scale + s


def dvfs_profitability(report: ProfileReport, frequency_scale: float) -> float:
    """Speedup (>1) or slowdown (<1) from scaling the clock.

    A memory-bound program gains little from a higher clock (and loses
    little at a lower one) - the counter-architecture insight of
    Eyerman & Eeckhout the paper cites as [32], computed here from an
    EMPROF profile with zero on-device support.
    """
    return 1.0 / dvfs_runtime_scale(report, frequency_scale)
