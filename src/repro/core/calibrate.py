"""Detector calibration against an engineered capture.

The paper's parameters ("the threshold is selected to be significantly
shorter than the LLC latency but significantly longer than typical
on-chip latencies", Section IV) are device facts, so qualifying a new
target starts with a calibration run: capture the TM/CM microbenchmark
(whose miss count is known a priori), then pick the detector settings
that recover that count best.  This module automates the search.

Scoring prefers, in order: miss-count accuracy inside the marker
window, then fewer false splits/merges (the detected count's absolute
error), then a mid-range threshold (more margin against drift).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .detect import DetectorConfig
from .markers import find_marker_window
from .normalize import NormalizerConfig
from .profiler import Emprof, EmprofConfig
from .validate import count_accuracy

if TYPE_CHECKING:
    from ..emsignal.capture import Capture

DEFAULT_THRESHOLDS = (0.30, 0.38, 0.45, 0.52, 0.60)
DEFAULT_MIN_DURATIONS = (40.0, 70.0, 100.0, 140.0)
DEFAULT_WINDOWS = (801, 2001, 4001)


@dataclass(frozen=True)
class CalibrationPoint:
    """One evaluated parameter combination."""

    threshold: float
    min_duration_cycles: float
    window_samples: int
    detected: int
    accuracy: float


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a calibration search.

    Attributes:
        config: the winning EMPROF configuration.
        best: the winning grid point.
        points: every evaluated point (for inspection/plots).
        expected: the a-priori miss count calibrated against.
    """

    config: EmprofConfig
    best: CalibrationPoint
    points: List[CalibrationPoint]
    expected: int

    @property
    def accuracy(self) -> float:
        """Miss-count accuracy of the winning configuration."""
        return self.best.accuracy


def _evaluate(
    capture: Capture,
    expected: int,
    threshold: float,
    min_duration: float,
    window: int,
    marker_min_samples: int,
) -> Optional[CalibrationPoint]:
    config = EmprofConfig(
        normalizer=NormalizerConfig(window_samples=window),
        detector=DetectorConfig(
            threshold=threshold,
            recover_threshold=max(0.70, threshold + 0.05),
            min_duration_cycles=min_duration,
        ),
    )
    profiler = Emprof.from_capture(capture, config=config)
    try:
        marker_window = find_marker_window(
            profiler.signal, marker_min_samples=marker_min_samples
        )
    except ValueError:
        return None
    report = profiler.profile_window(
        marker_window.begin_sample, marker_window.end_sample
    )
    return CalibrationPoint(
        threshold=threshold,
        min_duration_cycles=min_duration,
        window_samples=window,
        detected=report.miss_count,
        accuracy=count_accuracy(report.miss_count, expected),
    )


def calibrate_detector(
    capture: Capture,
    expected_misses: int,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    min_durations: Sequence[float] = DEFAULT_MIN_DURATIONS,
    windows: Sequence[int] = DEFAULT_WINDOWS,
    marker_min_samples: int = 200,
) -> CalibrationResult:
    """Grid-search detector parameters against a known-TM capture.

    Args:
        capture: a recorded TM/CM microbenchmark run (marker loops
            included - the measurement window is isolated per point).
        expected_misses: the engineered TM.
        thresholds / min_durations / windows: the search grid.
        marker_min_samples: marker-loop recognition length.

    Raises:
        ValueError: when no grid point produces a usable window (the
            capture does not look like a bracketed microbenchmark).
    """
    if expected_misses <= 0:
        raise ValueError("expected miss count must be positive")
    points: List[CalibrationPoint] = []
    for window in windows:
        for threshold in thresholds:
            for min_duration in min_durations:
                point = _evaluate(
                    capture,
                    expected_misses,
                    threshold,
                    min_duration,
                    window,
                    marker_min_samples,
                )
                if point is not None:
                    points.append(point)
    if not points:
        raise ValueError(
            "calibration failed: no parameter combination produced a "
            "recognizable marker window"
        )

    def rank(p: CalibrationPoint) -> Tuple:
        # Max accuracy, min absolute error, then mid-range threshold.
        return (
            -p.accuracy,
            abs(p.detected - expected_misses),
            abs(p.threshold - 0.45),
            p.min_duration_cycles,
        )

    best = min(points, key=rank)
    config = EmprofConfig(
        normalizer=NormalizerConfig(window_samples=best.window_samples),
        detector=DetectorConfig(
            threshold=best.threshold,
            recover_threshold=max(0.70, best.threshold + 0.05),
            min_duration_cycles=best.min_duration_cycles,
        ),
    )
    return CalibrationResult(
        config=config, best=best, points=points, expected=expected_misses
    )


def sensitivity(points: Sequence[CalibrationPoint]) -> dict:
    """Accuracy spread along each calibrated dimension.

    Returns a mapping parameter-name -> (value -> mean accuracy); a
    flat profile along a dimension means the detector is insensitive
    to it on this target (good news for robustness).
    """
    out: dict = {"threshold": {}, "min_duration_cycles": {}, "window_samples": {}}
    for name in out:
        values = sorted({getattr(p, name) for p in points})
        for v in values:
            accs = [p.accuracy for p in points if getattr(p, name) == v]
            out[name][v] = float(np.mean(accs))
    return out
