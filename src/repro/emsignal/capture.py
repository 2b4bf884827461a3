"""The recorded capture and the numpy-only helpers around it.

This is the leaf of the signal chain that profiling needs: loading a
saved capture and profiling it touch only :class:`Capture`, :data:`MHZ`
and :func:`rms`, so they live apart from the scipy-backed
:mod:`~repro.emsignal.dsp` and :mod:`~repro.emsignal.receiver`
(which re-export them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

MHZ = 1e6


@dataclass(frozen=True)
class Capture:
    """One recorded magnitude trace.

    Attributes:
        magnitude: received envelope magnitude samples.
        sample_rate_hz: sampling rate (equals the capture bandwidth).
        clock_hz: profiled processor's clock (the carrier frequency).
        bandwidth_hz: configured measurement bandwidth.
        region_names: optional region map forwarded from the workload.
    """

    magnitude: np.ndarray
    sample_rate_hz: float
    clock_hz: float
    bandwidth_hz: float
    region_names: Dict[int, str] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Capture length in seconds."""
        return len(self.magnitude) / self.sample_rate_hz

    @property
    def sample_period_cycles(self) -> float:
        """Processor cycles per magnitude sample."""
        return self.clock_hz / self.sample_rate_hz


def rms(x: np.ndarray) -> float:
    """Root-mean-square of a signal (0.0 for empty input)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(x * x)))
