"""The benchmark workloads.

Each workload has a ``setup()`` (input generation and warm-up, timed
by ``run.py`` as set-up) and a ``round()``: one fixed unit of work made
of timed operations, followed by untimed output checks.  A round
returns a :class:`Round` holding the op walls and the check outcome of
every op.  All loads are closed-loop: one client, each op issued after
the previous one finished.

Each workload times one profiling path, or two of similar cost, so
that a path slowed twofold moves each end-to-end metric by more than
its bound.  Every round is measured from outside, through public entry
points: the ``repro`` CLI in subprocesses, ``Emprof`` /
``StreamingEmprof``, ``repro.faults``,
``repro.experiments.campaign.Campaign`` and ``repro.io``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import operator
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import inputs
import speed
import tracing
from inputs import CLOCK_HZ, RATE_HZ


@dataclass
class Round:
    """What one round measured and whether its outputs were right.

    Walls and latencies are at reference speed (see ``speed``);
    ``raw_s`` is the round's timed wall as the clock read it.
    """

    walls: Dict[str, List[float]] = field(default_factory=dict)
    raw_s: float = 0.0
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Capture samples the round's timed ops profiled.
    samples: int = 0
    #: Per path, the latencies (seconds) behind ``latency_ms``.
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: Workload-specific counts the traced run reports per layer.
    extra: dict = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        self.walls.setdefault(name, []).append(seconds)

    def latency(self, path: str) -> List[float]:
        """The list ``path``'s latencies go to."""
        return self.latencies.setdefault(path, [])

    def op(self, ok: bool, what: str) -> None:
        """Count one attempted op; record why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    @property
    def timed_s(self) -> float:
        return sum(sum(v) for v in self.walls.values())


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple:
    """Highest percentile with at least ten samples beyond it, and n.

    With fewer than 11 samples no such percentile exists; the maximum
    is reported instead, with the sample count to say so.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0
    return float(ordered[max(0, n - 11)] if n >= 11 else ordered[-1]), n


def stall_tuples(report, leave_out: tuple = ()) -> list:
    """Every stall's fields as a tuple, but those named in ``leave_out``."""
    if not report.stalls:
        return []
    names = [f.name for f in dataclasses.fields(report.stalls[0]) if f.name not in leave_out]
    return list(map(operator.attrgetter(*names), report.stalls))


def geometry(report) -> list:
    """Stall tuples without the quality layer's low-confidence flag."""
    return stall_tuples(report, leave_out=("low_confidence",))


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path, root: Path, tracer: tracing.Tracer):
        self.seed = seed
        self.work = work_dir
        self.root = root
        self.tracer = tracer

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def timed(self, result: Round, name: str, fn, elsewhere: bool = False):
        """Run one timed op (a root span when traced).

        Returns the op's value and its wall at reference speed.  The
        latencies the op appends, and its wall, are taken to reference
        speed with ``speed.Watch``, which also samples while the op runs
        when its work runs ``elsewhere`` (in programs it executes);
        ``self.scale`` keeps the factor for walls the op reports itself.
        """
        counts = {path: len(values) for path, values in result.latencies.items()}
        with speed.Watch(during=elsewhere) as watch:
            with self.tracer.op(name):
                begin = time.perf_counter()
                value = fn()
                elapsed = time.perf_counter() - begin
        self.scale = watch.scale
        for path, values in result.latencies.items():
            new = counts.get(path, 0)
            values[new:] = [x * self.scale for x in values[new:]]
        result.raw_s += elapsed
        result.add(name, elapsed * self.scale)
        return value, elapsed * self.scale

    def metrics(self, rounds: List[Round]) -> Dict[str, float]:
        """End-to-end metrics over the run's rounds.

        ``throughput_msps`` weighs each path by its time;
        ``latency_ms`` is the geometric mean of each path's median
        latency, so that a path slowed k-fold moves it k^(1/paths)-fold
        however fast the path is.
        """
        paths = {path for r in rounds for path in r.latencies}
        medians = [median(x for r in rounds for x in r.latencies[path]) for path in paths]
        return {
            "throughput_msps": median(r.samples / r.timed_s for r in rounds) / 1e6,
            "latency_ms": statistics.geometric_mean(medians) * 1e3,
        }

    def detail(self, rounds: List[Round]) -> Dict[str, tuple]:
        """The per-path figures behind the end-to-end metrics."""
        return {}

    def close(self) -> None:
        """Reap children and drop temporary files."""


def _msps(rounds: List[Round], op: str, samples: int) -> float:
    return median(samples / sum(r.walls[op]) for r in rounds) / 1e6


# -- cli-cold -------------------------------------------------------------------


class CliCold(Workload):
    """``repro capture`` + ``repro profile`` in fresh interpreters."""

    name = "cli-cold"
    TM, CM = 256, 5

    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        # Warm the page cache and bytecode of the whole CLI import graph.
        subprocess.run(
            [sys.executable, "-m", "repro", "devices"],
            env=self.env(), check=True, capture_output=True,
        )

    def _cli(self, result: Round, op: str, args: List[str], index: int):
        """One CLI command as a timed op; traced, it runs via cli_child.py."""
        env = self.env()
        command = [sys.executable, "-m", "repro", *args]
        spool = self.work / f"spool-{op}-{index}.jsonl"
        if self.tracer.active:
            command[1:3] = [str(self.root / "perfbench" / "cli_child.py")]

        def call():
            if self.tracer.active:
                env.update({
                    tracing.SPOOL_ENV: str(spool),
                    tracing.PARENT_ENV: self.tracer.current,
                    tracing.ROUND_ENV: str(index),
                })
            return subprocess.run(command, env=env, capture_output=True, text=True)

        proc, elapsed = self.timed(result, op, call, elsewhere=True)
        if self.tracer.active:
            self.tracer.absorb(spool)
        return proc, elapsed

    def round(self, index: int) -> Round:
        from repro import io as repro_io
        from repro.core.markers import find_marker_window
        from repro.core.profiler import Emprof
        from repro.core.validate import count_accuracy

        result = Round()
        capture = self.work / f"capture-{index}.npz"
        report = self.work / f"report-{index}.json"
        seed = (self.seed * 7919 + index) % 100_000
        cap, _ = self._cli(result, "cli_capture", [
            "capture", "--workload", "micro", "--tm", str(self.TM), "--cm", str(self.CM),
            "--seed", str(seed), "-o", str(capture),
        ], index)
        prof, prof_s = self._cli(result, "cli_profile", [
            "profile", str(capture), "-o", str(report),
        ], index)
        result.latency("cli_capture").extend(result.walls["cli_capture"])
        result.latency("cli_profile").append(prof_s)
        with self.tracer.paused():
            result.op(cap.returncode == 0, f"capture exit {cap.returncode}: {cap.stderr[-300:]}")
            ok = prof.returncode == 0 and report.exists()
            detail = f"profile exit {prof.returncode}: {prof.stderr[-300:]}"
            if ok:
                loaded = repro_io.load_capture(capture)
                profiler = Emprof.from_capture(loaded)
                reference = self.work / f"reference-{index}.json"
                repro_io.save_report(reference, profiler.profile())
                ok = reference.read_bytes() == report.read_bytes()
                detail = "profile report differs from in-process Emprof.profile()"
                window = find_marker_window(profiler.signal, marker_min_samples=200)
                found = profiler.profile_window(window.begin_sample, window.end_sample)
                accuracy = count_accuracy(found.miss_count, self.TM)
                if ok and accuracy < 0.97:
                    ok, detail = False, f"miss-count accuracy {accuracy:.4f} < 0.97"
                result.samples = len(loaded.magnitude)
                reference.unlink()
            result.op(ok, detail)
        for path in (capture, report):
            path.unlink(missing_ok=True)
        return result

    def detail(self, rounds):
        return {
            "cli_capture_s": (median(x for r in rounds for x in r.walls["cli_capture"]), "s"),
            "cli_profile_s": (median(x for r in rounds for x in r.walls["cli_profile"]), "s"),
        }


# -- clean profiling paths ------------------------------------------------------


def stream_chunks(chunks, latencies: Optional[list] = None, **kwargs):
    """Feed ``(chunk, gap_before)`` pairs through a StreamingEmprof.

    With ``latencies`` given, each ``process()`` call's wall is appended.
    """
    from repro.core.streaming import StreamingEmprof

    streamer = StreamingEmprof(RATE_HZ, CLOCK_HZ, **kwargs)
    process = streamer.process
    if latencies is not None:
        clock = time.perf_counter
        for chunk, gap in chunks:
            begin = clock()
            process(chunk, gap)
            latencies.append(clock() - begin)
    else:
        for chunk, gap in chunks:
            process(chunk, gap)
    return streamer.finish()


def split(x: np.ndarray, size: int) -> list:
    return [(x[i : i + size], 0) for i in range(0, len(x), size)]


class CleanPaths(Workload):
    """One clean multi-megasample signal through one or two profiling paths.

    A timed op runs one path over the whole signal and saves the report
    JSON with ``repro.io.save_report``.  The checks, per op: the stall
    count matches the planted dips; the stalls equal those of an
    in-process ``Emprof.profile()``, the quality layer's low-confidence
    flags aside; and stalls and report JSON equal, byte for byte, those
    of the ``expected`` reference report.  A path's latency is the
    wall of each profiling call (one per chunk when streaming), the
    encode excluded.
    """

    #: ``batch``, ``chunked`` or ``stream_<chunk size>``.
    paths: tuple = ()

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        generated = inputs.dip_signal(inputs.CLEAN_SAMPLES, self.seed)
        self.x = generated.signal
        self.planted = generated.dips
        self.data = {path: self.feed(path, self.x) for path in self.paths}
        self._batch = None
        self._expected: Dict[str, tuple] = {}
        self.flags: Dict[str, list] = {}
        # Warm-up: every path once over a prefix.
        for path in self.paths:
            self.profile(path, self.feed(path, self.x[: inputs.WARM_UP_SAMPLES]), [])

    @staticmethod
    def feed(path: str, x: np.ndarray):
        """What ``profile`` is given: the signal, or its chunks."""
        if path.startswith("stream_"):
            return split(x, int(path.split("_")[1]))
        return x

    @staticmethod
    def profile(path: str, data, latencies: list):
        from repro.core.profiler import Emprof

        if path.startswith("stream_"):
            return stream_chunks(data, latencies)
        begin = time.perf_counter()
        profiler = Emprof(data, RATE_HZ, CLOCK_HZ)
        if path == "batch":
            report = profiler.profile()
        else:
            report = profiler.profile_chunked(inputs.CHUNKED_SAMPLES)
        latencies.append(time.perf_counter() - begin)
        return report

    def expected(self, path: str, report, file: Path) -> tuple:
        """(batch geometry, reference stalls, reference JSON bytes).

        The reference is the batch report, except when streaming: then
        it is this run's first op of the path, ``report`` saved to
        ``file``.  The program's quality monitor misreads this traffic
        (see ``inputs.DIPS_PER_1K``): streamed, a clean capture comes
        back with most stalls flagged, and which ones depends on the
        chunk size.  ``detail`` reports the share flagged, so that it
        shows in every run.
        """
        from repro import io as repro_io
        from repro.core.profiler import Emprof

        if self._batch is None:
            self._batch = Emprof(self.x, RATE_HZ, CLOCK_HZ).profile()
        if path.startswith("stream_"):
            return geometry(self._batch), stall_tuples(report), file.read_bytes()
        reference = self.work / "reference.json"
        repro_io.save_report(reference, self._batch)
        text = reference.read_bytes()
        reference.unlink()
        return geometry(self._batch), stall_tuples(self._batch), text

    def round(self, index: int) -> Round:
        from repro import io as repro_io

        result = Round()
        file = self.work / "report.json"
        for path in self.paths:

            def op():
                report = self.profile(path, self.data[path], result.latency(path))
                repro_io.save_report(file, report)
                return report

            report, _ = self.timed(result, path, op)
            with self.tracer.paused():
                if path not in self._expected:
                    self._expected[path] = self.expected(path, report, file)
                batch_geometry, want_stalls, want_json = self._expected[path]
                count = len(report.stalls)
                problems = []
                if abs(count - self.planted) > inputs.STALL_COUNT_TOLERANCE * self.planted:
                    problems.append(f"found {count} stalls, {self.planted} planted")
                if geometry(report) != batch_geometry:
                    problems.append("stalls differ from in-process Emprof.profile()")
                if stall_tuples(report) != want_stalls or file.read_bytes() != want_json:
                    problems.append("stalls or report JSON differ from the in-process reference")
                result.op(not problems, f"{path}: " + "; ".join(problems))
                self.flags[path] = [s.low_confidence for s in report.stalls]
            file.unlink(missing_ok=True)
        result.samples = len(self.x) * len(self.paths)
        return result

    def detail(self, rounds):
        """Per path: its MS/s and, streamed, the share of stalls flagged.

        Every planted dip is clean, so a low-confidence stall is a false
        flag of the quality monitor.
        """
        n = len(self.x)
        out = {}
        for path in self.paths:
            out[f"{path}_msps"] = (_msps(rounds, path, n), "MS/s")
            if path.startswith("stream_"):
                flags = self.flags[path]
                out[f"{path}_false_flag_frac"] = (sum(flags) / max(1, len(flags)), "ratio")
        return out


def clean_workload(name: str, *paths: str) -> type:
    return type(name, (CleanPaths,), {"name": name, "paths": paths})


# -- stream-faulted -------------------------------------------------------------


class StreamFaulted(Workload):
    """An impaired stream with the flight recorder on: the explain path."""

    name = "stream-faulted"

    def setup(self) -> None:
        from repro.faults import QualityConfig, applied_clip_level, iter_chunks

        self.work.mkdir(parents=True, exist_ok=True)
        generated = inputs.dip_signal(inputs.FAULTED_SAMPLES, self.seed)
        self.impaired = inputs.fault_injector(self.seed).apply(generated.signal)
        self.quality = QualityConfig(clip_level=applied_clip_level(self.impaired.log))
        self.chunks = {
            size: list(iter_chunks(self.impaired, size)) for size in inputs.FAULTED_CHUNKS
        }
        #: Per chunk size: flight-off stall tuples, and the stall tuples
        #: of a report that passed every check.
        self.reference: Dict[int, list] = {}
        self.verified: Dict[int, list] = {}
        #: Per chunk size: impaired stalls left unflagged because the
        #: monitor missed a gain step (``split_gain_step``).
        self.unseen_steps: Dict[int, int] = {}
        # Warm-up: both sizes over a prefix, flight on.
        for chunks in self.chunks.values():
            ends = np.cumsum([len(chunk) for chunk, _ in chunks])
            self.stream(chunks[: int(np.searchsorted(ends, inputs.WARM_UP_SAMPLES)) + 1], True)

    def stream(self, chunks, flight: bool, latencies: Optional[list] = None):
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder() if flight else None
        return stream_chunks(chunks, latencies, quality=self.quality, flight=recorder), recorder

    def run(self, size: int, flight: bool, latencies: Optional[list] = None):
        """Stream at one size and save the report; returns (report, recorder)."""
        from repro import io as repro_io

        report, recorder = self.stream(self.chunks[size], flight, latencies)
        repro_io.save_report(self.work / f"faulted-{size}.json", report)
        return report, recorder

    def problems(self, size: int, report) -> List[str]:
        """The ``tests/test_faults_chaos.py`` properties, plus flight on/off identity."""
        stalls = stall_tuples(report)
        if size not in self.reference:
            self.reference[size] = stall_tuples(self.stream(self.chunks[size], False)[0])
        found = []
        if stalls != self.reference[size]:
            found.append("stalls differ with flight on vs off")
        if stalls != self.verified.get(size):
            log = self.impaired.log
            unflagged = [
                s for s in report.stalls
                if not s.low_confidence and log.overlaps(s.begin_sample, s.end_sample)
            ]
            known = [s for s in unflagged if self.split_gain_step(s)]
            self.unseen_steps[size] = len(known)
            if len(unflagged) > len(known):
                found.append(f"{len(unflagged) - len(known)} impaired stalls not low_confidence")
        gaps = report.quality.gap_count if report.quality else 0
        if gaps != len(self.impaired.gaps):
            found.append(f"gap_count {gaps} != {len(self.impaired.gaps)}")
        if report.evidence is None:
            found.append("no evidence with flight on")
        if not found:
            self.verified[size] = stalls
        return found

    def split_gain_step(self, stall) -> bool:
        """Whether every severe impairment ``stall`` overlaps is a splittable gain step.

        A known defect of the program's quality monitor: it compares
        the medians of consecutive level blocks, so a gain step inside
        a block shows as two smaller changes, and a step by less than
        (1 + gain_step_tolerance)^2 can stay within the tolerance at
        both and go unseen.  The stall it fabricates is then left
        unflagged.  Such stalls are counted (``detail``) rather than
        failed; any other unflagged impaired stall fails the op.
        """
        limit = 2 * math.log1p(self.quality.gain_step_tolerance)
        overlapped = [
            e for e in self.impaired.log.events
            if e.severe and stall.begin_sample <= max(e.end_sample, e.begin_sample + 1)
            and stall.end_sample >= e.begin_sample
        ]
        return bool(overlapped) and all(
            e.kind == "gain_step"
            and abs(math.log(float(e.detail.removeprefix("factor=")))) < limit
            for e in overlapped
        )

    def round(self, index: int) -> Round:
        result = Round()
        for size in inputs.FAULTED_CHUNKS:
            latencies = result.latency(f"faulted_{size}")
            (report, recorder), _ = self.timed(
                result, f"faulted_{size}", lambda: self.run(size, True, latencies)
            )
            extra = result.extra
            extra["flight_events"] = extra.get("flight_events", 0) + recorder.total_recorded
            extra["flight_dropped"] = extra.get("flight_dropped", 0) + recorder.overwritten
            with self.tracer.paused():
                problems = self.problems(size, report)
                result.op(not problems, f"faulted_{size}: " + "; ".join(problems))
        result.samples = len(self.impaired.signal) * len(inputs.FAULTED_CHUNKS)
        return result

    def detail(self, rounds):
        n = len(self.impaired.signal)
        out = {
            f"faulted_msps_{size}": (_msps(rounds, f"faulted_{size}", n), "MS/s")
            for size in inputs.FAULTED_CHUNKS
        }
        out["faulted_unseen_gain_step_stalls"] = (sum(self.unseen_steps.values()), "count")
        return out


# -- campaign -------------------------------------------------------------------


class CampaignWorkload(Workload):
    """A supervised 2-worker campaign over simulated micro and SPEC runs."""

    name = "campaign"

    def setup(self) -> None:
        from repro.core.profiler import Emprof
        from repro.experiments.campaign import Campaign
        from repro.experiments.service import build_specs

        self.work.mkdir(parents=True, exist_ok=True)
        self.specs = build_specs(inputs.campaign_runs(self.seed))
        # Reference: the first spec, profiled in-process.
        first = self.specs[0]
        capture = first.source_factory().capture()
        reference = Emprof.from_capture(capture, config=first.config).profile()
        self.reference_misses = reference.miss_count
        # Warm-up: one supervised pass over two runs (forks, ledger, io).
        directory = self.work / "warm-up"
        try:
            Campaign(directory, workers=inputs.CAMPAIGN_WORKERS).execute(self.specs[:2])
        finally:
            self.reap()
            shutil.rmtree(directory, ignore_errors=True)

    def round(self, index: int) -> Round:
        from repro.experiments.campaign import Campaign

        result = Round()
        directory = self.work / f"campaign-{index}"
        ledger = directory / "ledger.jsonl"
        campaign = Campaign(directory, workers=inputs.CAMPAIGN_WORKERS, ledger=ledger)
        if self.tracer.active:
            self.tracer.spool_dir = directory
        try:
            # Not ``elsewhere``: the campaign forks its workers, and a
            # fork while a sampling thread runs could copy a held lock.
            outcome, _ = self.timed(result, "campaign", lambda: campaign.execute(self.specs))
            self.reap()
            with self.tracer.paused():
                self.check(campaign, outcome, result)
            # Run walls as the workers measured them, at reference speed.
            run_walls = [o.wall_time_s * self.scale for o in outcome.outcomes]
            result.extra.update(
                runs=len(outcome.outcomes),
                run_wall_sum=sum(run_walls),
                attempts=sum(o.attempts for o in outcome.outcomes),
                ledger_bytes=ledger.stat().st_size if ledger.exists() else 0,
            )
            records = ledger.read_text().splitlines() if ledger.exists() else []
            result.extra["ledger_appends"] = len(records)
            result.extra["requeues"] = sum(
                json.loads(line).get("kind") == "campaign-requeue" for line in records
            )
            result.extra["run_walls"] = run_walls
            # The matrix mixes runs of very different lengths, so the
            # per-run latency is the round's mean (a median would jump
            # between the clusters of short and long runs).
            result.latency("campaign").append(
                result.extra["run_wall_sum"] / max(1, len(outcome.outcomes))
            )
            if self.tracer.active:
                self.tracer.absorb_dir(directory)
        finally:
            self.tracer.spool_dir = None
            shutil.rmtree(directory, ignore_errors=True)
        return result

    def check(self, campaign, outcome, result: Round) -> None:
        names = [o.name for o in outcome.outcomes]
        for spec in self.specs:
            runs = [o for o in outcome.outcomes if o.name == spec.name]
            ok = len(runs) == 1 and runs[0].status == "done"
            detail = f"{spec.name}: {[o.status for o in runs]}"
            if ok:
                try:
                    report = campaign.load_report(spec.name)
                    result.samples += round(report.total_cycles / report.sample_period_cycles)
                except (OSError, ValueError) as exc:
                    ok, detail = False, f"{spec.name}: report does not load back: {exc}"
            if ok and spec is self.specs[0] and report.miss_count != self.reference_misses:
                ok = False
                detail = (
                    f"{spec.name}: {report.miss_count} misses, "
                    f"in-process {self.reference_misses}"
                )
            result.op(ok, detail)
        if len(names) != len(set(names)) or len(names) != len(self.specs):
            result.op(False, f"outcomes {names} are not one per spec")

    @staticmethod
    def reap() -> None:
        for child in multiprocessing.active_children():
            child.join(timeout=10)

    def detail(self, rounds):
        return {
            "campaign_runs_per_s": (median(r.extra["runs"] / r.timed_s for r in rounds), "runs/s"),
            "campaign_run_p50_s": (median(x for r in rounds for x in r.extra["run_walls"]), "s"),
        }

    def close(self) -> None:
        self.reap()


WORKLOADS = {
    w.name: w
    for w in (
        CliCold,
        clean_workload("batch", "batch", "chunked"),
        clean_workload("stream-512-4096", "stream_512", "stream_4096"),
        clean_workload("stream-65536", "stream_65536"),
        StreamFaulted,
        CampaignWorkload,
    )
}
