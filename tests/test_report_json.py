"""The column-wise report writer against the format's definition.

``repro.io.report_json`` must return exactly the bytes of
``json.dumps(report_to_dict(report), indent=2)`` (the oracle) for every
report: non-finite floats, mixed int/float positions, attributed and
unattributed stalls, non-ASCII region names, flight evidence with
merge chains, quality overlaps and near misses, and values of types the
column fast paths do not cover.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import io as repro_io
from repro.core.events import DetectedStall, ProfileReport, QualitySummary
from repro.core.normalize import NormalizerConfig
from repro.core.profiler import Emprof
from repro.core.streaming import StreamingEmprof
from repro.faults import QualityConfig, applied_clip_level, iter_chunks
from repro.obs.flight import (
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    NearMiss,
    ReportEvidence,
    StallEvidence,
)
from repro.io import report_json, report_to_dict

from tests.conftest import make_dense_dip_signal, make_dip_signal, make_fault_injector


def oracle(report: ProfileReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def make_report(stalls, quality=None, evidence=None, region_names=None):
    return ProfileReport(
        stalls=list(stalls),
        total_cycles=1e6,
        clock_hz=1.008e9,
        sample_period_cycles=25.2,
        region_names={1: "main"} if region_names is None else region_names,
        quality=quality,
        evidence=evidence,
    )


# -- strategies ------------------------------------------------------------------

any_float = st.floats(allow_nan=True, allow_infinity=True)
position = any_float | st.integers(-(10**12), 10**12)
region = st.none() | st.integers(0, 2**40)

stalls = st.builds(
    DetectedStall,
    begin_sample=position,
    end_sample=position,
    begin_cycle=position,
    end_cycle=position,
    min_level=any_float,
    is_refresh=st.booleans(),
    region=region,
    low_confidence=st.booleans(),
)
qualities = st.none() | st.builds(
    QualitySummary, *[st.integers(0, 10**9)] * 7
)
region_names = st.dictionaries(st.integers(-5, 10**6), st.text(max_size=12), max_size=4)

merge_steps = st.fixed_dictionaries(
    {
        "pos": any_float,
        "gap_len": st.integers(0, 50),
        "gap_max": any_float | st.none(),
        "reason": st.sampled_from(["no_recovery", "short_gap"]) | st.none(),
    }
)
stall_evidence = st.builds(
    StallEvidence,
    index=st.integers(0, 10**6),
    trigger_sample=st.integers(0, 10**9),
    begin_sample=any_float,
    end_sample=any_float,
    threshold=any_float,
    min_level=any_float,
    depth_margin=any_float,
    duration_cycles=any_float,
    merge_chain=st.lists(merge_steps, max_size=3).map(tuple),
    carried=st.booleans(),
    carry_chunks=st.integers(0, 9),
    quality_overlaps=st.lists(st.tuples(any_float, any_float), max_size=3).map(tuple),
    low_confidence=st.booleans(),
    is_refresh=st.booleans(),
    complete=st.booleans(),
)
near_misses = st.builds(
    NearMiss,
    trigger_sample=st.integers(0, 10**9),
    begin_sample=any_float,
    end_sample=any_float,
    reason=st.text(max_size=16),
    measured=any_float,
    limit=any_float,
    min_level=any_float,
    depth_margin=any_float,
)
evidences = st.none() | st.builds(
    ReportEvidence,
    schema_version=st.just(FLIGHT_SCHEMA_VERSION),
    threshold=any_float,
    recover_threshold=any_float,
    min_duration_cycles=any_float,
    min_duration_samples=st.integers(0, 100),
    stalls=st.lists(stall_evidence, max_size=6).map(tuple),
    near_misses=st.lists(near_misses, max_size=4).map(tuple),
    total_events=st.integers(0, 10**6),
    overwritten_events=st.integers(0, 10**6),
)


class TestProperties:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        stalls=st.lists(stalls, max_size=25),
        quality=qualities,
        names=region_names,
    )
    def test_stalls_match_oracle(self, stalls, quality, names):
        report = make_report(stalls, quality=quality, region_names=names)
        assert report_json(report) == oracle(report)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stalls=st.lists(stalls, max_size=6), evidence=evidences)
    def test_evidence_matches_oracle(self, stalls, evidence):
        report = make_report(stalls, evidence=evidence)
        assert report_json(report) == oracle(report)


class TestShapes:
    def test_empty_report(self):
        report = make_report([], region_names={})
        assert report_json(report) == oracle(report)

    def test_quality_present_and_absent(self):
        stall = DetectedStall(1.5, 13.25, 37.8, 334.0, 0.07, low_confidence=True)
        without = make_report([stall])
        with_quality = make_report([stall], quality=QualitySummary(1, 2, 3, 4, 5, 6, 7))
        assert '"quality"' not in report_json(without)
        assert report_json(without) == oracle(without)
        assert report_json(with_quality) == oracle(with_quality)

    def test_non_ascii_region_names(self):
        report = make_report(
            [DetectedStall(1.0, 2.0, 25.0, 50.0, 0.1, region=7)],
            region_names={7: "bücle_π", 8: "循环", 9: 'quote " and \\ \n'},
        )
        assert report_json(report) == oracle(report)

    def test_non_finite_floats_written_as_json_does(self):
        report = make_report(
            [
                DetectedStall(math.nan, math.inf, -math.inf, 4.0, math.nan),
                DetectedStall(0.5, 1.5, 12.5, 37.5, -0.0),
            ]
        )
        text = report_json(report)
        assert text == oracle(report)
        assert '"begin_sample": NaN' in text
        assert '"end_sample": Infinity' in text
        assert '"begin_cycle": -Infinity' in text

    def test_save_report_writes_report_json(self, tmp_path):
        report = make_report([DetectedStall(3.0, 15.0, 75.0, 375.0, 0.1, region=None)])
        path = tmp_path / "report.json"
        repro_io.save_report(path, report)
        assert path.read_text() == oracle(report)
        assert repro_io.load_report(path) == report


class FloatSub(float):
    def __repr__(self):
        return "not-json"


class Region(enum.IntEnum):
    MAIN = 3


class Reason(str):
    pass


class TestOtherTypes:
    """Columns the fast paths do not cover go through json itself."""

    def test_float_subclass_and_numpy_float(self):
        report = make_report(
            [
                DetectedStall(FloatSub(1.5), np.float64(2.5), 25.0, FloatSub(math.nan), 0.1),
                DetectedStall(3.0, 4.0, np.float64(math.inf), 100.0, FloatSub(0.2)),
            ]
        )
        assert report_json(report) == oracle(report)

    def test_int_enum_region_and_str_subclass_reason(self):
        evidence = ReportEvidence(
            schema_version=FLIGHT_SCHEMA_VERSION,
            threshold=0.45,
            recover_threshold=0.7,
            min_duration_cycles=70.0,
            min_duration_samples=4,
            near_misses=(NearMiss(3, 3.0, 3.5, Reason("too_few_samples"), 1, 4, 0.1, 0.35),),
        )
        report = make_report(
            [DetectedStall(1.0, 2.0, 25.0, 50.0, 0.1, region=Region.MAIN)],
            evidence=evidence,
        )
        assert report_json(report) == oracle(report)

    @pytest.mark.parametrize("bad", [np.int64(4), np.bool_(True), object()])
    def test_unencodable_value_raises_like_json(self, bad):
        report = make_report([DetectedStall(1.0, 2.0, 25.0, 50.0, 0.1, region=bad)])
        with pytest.raises(TypeError) as want:
            oracle(report)
        with pytest.raises(TypeError) as got:
            report_json(report)
        assert str(got.value) == str(want.value)


# -- realistic reports -------------------------------------------------------------


def test_stall_dense_batch_report():
    report = Emprof(make_dense_dip_signal(n=500_000, seed=3), 40e6, 1e9).profile()
    assert len(report.stalls) > 15_000
    assert report_json(report) == oracle(report)


def test_flight_recorded_faulted_stream():
    x = make_dip_signal(n=12_000, seed=5)
    for start in range(600, 11_000, 1500):
        # A dip split by a sample that does not recover (a hysteresis
        # merge) and a lone low sample (a rejected near miss).
        x[start : start + 8] = 0.1
        x[start + 8] = 0.5
        x[start + 9 : start + 17] = 0.1
        x[start + 400] = 0.05
    impaired = make_fault_injector("mixed", seed=1).apply(x)
    clip = applied_clip_level(impaired.log)
    streamer = StreamingEmprof(
        50e6,
        1e9,
        normalizer=NormalizerConfig(window_samples=301),
        quality=QualityConfig(clip_level=clip) if clip is not None else None,
        flight=FlightRecorder(),
    )
    for chunk, gap in iter_chunks(impaired, 512):
        streamer.process(chunk, gap)
    report = streamer.finish()
    evidence = report.evidence
    assert any(s.merge_chain for s in evidence.stalls)
    assert any(s.quality_overlaps for s in evidence.stalls)
    assert evidence.near_misses
    assert report_json(report) == oracle(report)
    # Region attribution after the fact: ints in the region column.
    attributed = replace(
        report, stalls=[replace(s, region=i % 3) for i, s in enumerate(report.stalls)]
    )
    assert report_json(attributed) == oracle(attributed)
