"""Hardened streaming pipeline: gaps, quality gating, low confidence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import io as repro_io
from repro.core.detect import DetectorConfig, detect_stalls, flag_low_confidence
from repro.core.events import DetectedStall, QualitySummary
from repro.core.normalize import NormalizerConfig, normalize
from repro.core.profiler import Emprof
from repro.core.streaming import StreamingEmprof, profile_chunks
from repro.faults import (
    DropoutFault,
    FaultInjector,
    GainStepFault,
    QualityConfig,
    QualityMonitor,
    iter_chunks,
)

NORM = NormalizerConfig(window_samples=301)
RATE, CLOCK = 50e6, 1e9  # period = 20 cycles/sample


def dip_signal(n=6000, seed=0, dip_every=170, dip_len=13):
    rng = np.random.default_rng(seed)
    x = np.full(n, 0.9) + rng.normal(0, 0.02, n)
    for s in range(200, n - 200, dip_every):
        x[s : s + dip_len] = 0.1 + rng.normal(0, 0.01, dip_len)
    return np.clip(x, 0.0, None)


def stream(x, chunk=997, **kwargs):
    s = StreamingEmprof(RATE, CLOCK, normalizer=NORM, **kwargs)
    for begin in range(0, len(x), chunk):
        s.process(x[begin : begin + chunk])
    return s


class TestCleanSignalUntouched:
    """The quality layer only flags; clean output stays batch-identical."""

    def test_streamed_equals_batch_with_monitor_on(self):
        x = dip_signal()
        batch = detect_stalls(normalize(x, NORM), CLOCK / RATE)
        report = stream(x).finish()
        assert len(report.stalls) == len(batch)
        for got, want in zip(report.stalls, batch):
            assert got.begin_sample == pytest.approx(want.begin_sample)
            assert not got.low_confidence
        assert report.quality is None
        assert report.low_confidence_count == 0

    def test_zero_length_chunks_are_noops(self):
        x = dip_signal()
        s = StreamingEmprof(RATE, CLOCK, normalizer=NORM)
        s.process(np.empty(0))
        for begin in range(0, len(x), 1024):
            s.process(x[begin : begin + 1024])
            s.process(np.empty(0))
        want = stream(x).finish()
        got = s.finish()
        assert [st.begin_sample for st in got.stalls] == [
            st.begin_sample for st in want.stalls
        ]
        assert got.quality is None


class TestGapHandling:
    def test_gap_resynchronizes_and_flags(self):
        x = dip_signal()
        cut = 3000
        s = StreamingEmprof(RATE, CLOCK, normalizer=NORM)
        s.process(x[:cut])
        s.process(x[cut + 40 :], gap_before=40)
        report = s.finish()
        assert s.dropped_samples == 40
        quality = report.quality
        assert quality is not None and quality.gap_count == 1
        assert quality.dropped_samples == 40
        # dropped samples still count toward total time
        assert report.total_cycles == pytest.approx(len(x) * CLOCK / RATE)
        # far-from-gap stalls stay confident; the report still has most
        confident = report.confident_miss_count
        assert confident >= 0.8 * len(report.stalls)
        assert len(report.stalls) > 20

    def test_nan_run_treated_as_gap(self):
        x = dip_signal()
        x[2500:2520] = np.nan
        s = StreamingEmprof(RATE, CLOCK, normalizer=NORM)
        for begin in range(0, len(x), 640):
            s.process(x[begin : begin + 640])
        report = s.finish()
        assert s.dropped_samples == 20
        assert report.quality is not None
        assert report.quality.gap_count == 1
        assert all(np.isfinite(st.begin_sample) for st in report.stalls)

    def test_all_nan_chunk(self):
        s = StreamingEmprof(RATE, CLOCK, normalizer=NORM)
        s.process(dip_signal(n=2000))
        s.process(np.full(64, np.nan))
        s.process(dip_signal(n=2000, seed=1))
        report = s.finish()
        assert s.dropped_samples == 64
        assert report.quality.gap_count == 1

    def test_rejects_negative_gap_and_2d(self):
        s = StreamingEmprof(RATE, CLOCK, normalizer=NORM)
        with pytest.raises(ValueError):
            s.process(np.zeros(4), gap_before=-1)
        with pytest.raises(ValueError):
            s.process(np.zeros((2, 2)))

    def test_finish_is_terminal(self):
        s = StreamingEmprof(RATE, CLOCK, normalizer=NORM)
        s.process(dip_signal(n=1200))
        s.finish()
        with pytest.raises(RuntimeError):
            s.process(np.zeros(4))


class TestQualityGating:
    def test_gain_step_flags_nearby_stalls(self):
        x = dip_signal()
        x[3000:] *= 2.0
        report = stream(x).finish()
        assert report.quality is not None
        assert report.quality.gain_steps >= 1
        flagged = [s for s in report.stalls if s.low_confidence]
        assert flagged, "stalls near the gain step must be low-confidence"
        # the flagged ones cluster around the step
        assert all(
            2000 < s.begin_sample < 4000 for s in flagged
        )

    def test_explicit_clip_level_flags(self):
        x = dip_signal()
        # saturated run eating into the leading edge of the dip at 4110
        x[4080:4112] = 1.5
        report = stream(
            x, quality=QualityConfig(clip_level=1.5)
        ).finish()
        assert report.quality.clipped_samples >= 32
        assert any(s.low_confidence for s in report.stalls)

    def test_plateau_heuristic_detects_saturation(self):
        # busy level pushed into a hard ADC ceiling: long runs of the
        # identical full-scale code, dips untouched
        x = np.minimum(dip_signal() * 1.5, 1.2)
        monitor_cfg = QualityConfig(plateau_run_samples=8)
        report = stream(x, quality=monitor_cfg).finish()
        assert report.quality is not None
        assert report.quality.clipped_samples > 0

    def test_flags_never_change_counts(self):
        x = dip_signal()
        x[3000:] *= 2.0
        hardened = stream(x).finish()
        muted = stream(
            x,
            quality=QualityConfig(
                plateau_run_samples=0, burst_factor=0, gain_step_tolerance=0
            ),
        ).finish()
        assert hardened.miss_count == muted.miss_count
        assert [s.begin_sample for s in hardened.stalls] == [
            s.begin_sample for s in muted.stalls
        ]


class TestQualityMonitorUnit:
    def test_mark_gap_guard(self):
        m = QualityMonitor(QualityConfig(gap_guard_samples=8))
        m.mark_gap(100, dropped=10)
        assert m.is_impaired(95, 96)
        assert m.is_impaired(107, 200)
        assert not m.is_impaired(0, 50)
        assert m.gap_count == 1 and m.dropped_samples == 10

    def test_intervals_merge(self):
        m = QualityMonitor()
        m.mark_gap(100, 1)
        m.mark_gap(104, 1)
        m.mark_gap(500, 1)
        assert len(m.intervals()) == 2

    def test_intervals_returns_a_copy(self):
        m = QualityMonitor()
        m.mark_gap(100, 1)
        m.intervals().clear()
        assert len(m.intervals()) == 1
        assert m.is_impaired(100, 100)

    @settings(max_examples=200, deadline=None)
    @given(
        marks=st.lists(
            st.tuples(st.integers(0, 400), st.integers(0, 40)), max_size=12
        ),
        queries=st.lists(
            st.tuples(
                st.floats(-10, 500, allow_nan=False), st.floats(0, 60, allow_nan=False)
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_is_impaired_matches_linear_scan(self, marks, queries):
        m = QualityMonitor(QualityConfig(gap_guard_samples=3))
        for position, width in marks:
            if width % 2:
                m.mark_gap(position, 1)
            else:
                m._mark(position, position + width)
        merged = m.intervals()
        for begin, length in queries:
            end = begin + length
            want = any(begin <= e and end >= b for b, e in merged)
            assert m.is_impaired(begin, end) == want

    def test_summary_shape(self):
        m = QualityMonitor()
        assert isinstance(m.summary(), QualitySummary)
        assert not m.summary().any_impairment
        m.mark_gap(10, 2)
        assert m.summary().any_impairment
        assert m.summary().impaired_samples > 0


class TestBatchGating:
    def test_flag_low_confidence_overlap(self):
        stalls = [
            DetectedStall(10, 20, 200, 400, 0.1, False),
            DetectedStall(50, 60, 1000, 1200, 0.1, False),
        ]
        out = flag_low_confidence(stalls, [(15, 30)])
        assert out[0].low_confidence and not out[1].low_confidence

    def test_detect_stalls_quality_intervals_param(self):
        x = dip_signal()
        normalized = normalize(x, NORM)
        plain = detect_stalls(normalized, CLOCK / RATE)
        span = (plain[0].begin_sample, plain[0].end_sample)
        gated = detect_stalls(normalized, CLOCK / RATE, quality_intervals=[span])
        assert gated[0].low_confidence
        assert [s.begin_sample for s in gated] == [s.begin_sample for s in plain]


class TestReportAccounting:
    def make_report(self):
        x = dip_signal()
        impaired = FaultInjector(
            [DropoutFault(rate=0.02), GainStepFault(steps=2)], seed=3
        ).apply(x)
        return profile_chunks(
            iter_chunks(impaired, 512),
            sample_rate_hz=RATE,
            clock_hz=CLOCK,
            normalizer=NORM,
        )

    def test_confidence_accessors(self):
        report = self.make_report()
        assert report.low_confidence_count > 0
        assert (
            report.low_confidence_count + report.confident_miss_count
            == report.miss_count
        )
        assert all(not s.low_confidence for s in report.confident_stalls())

    def test_summary_mentions_quality(self):
        report = self.make_report()
        text = report.summary()
        assert "low-confidence" in text
        assert "signal quality" in text

    def test_report_roundtrip_preserves_flags(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        repro_io.save_report(path, report)
        loaded = repro_io.load_report(path)
        assert loaded == report
        assert loaded.quality == report.quality
        assert loaded.low_confidence_count == report.low_confidence_count
