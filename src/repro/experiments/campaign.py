"""Resilient measurement campaigns: checkpointed multi-run execution.

A campaign is a named list of runs (acquire a capture, profile it,
persist the report).  Physical campaigns are long - hours of bench
time - and die for reasons unrelated to the science: a wedged SDR
driver, a full disk, someone tripping over the probe.  This module
makes a killed campaign cheap to restart:

* every run is **isolated** - one run failing (typed
  :class:`repro.errors.AcquisitionError` /
  :class:`repro.errors.CorruptCaptureError`) is recorded and the
  campaign moves on instead of unwinding;
* transient failures are retried per
  :class:`repro.experiments.runner.RetryPolicy` before the run is
  declared failed;
* progress is **checkpointed** - each completed run's profile report
  is written to the campaign directory and the manifest is updated
  with an atomic replace, so ``kill -9`` between any two syscalls
  leaves a manifest that is either the old or the new state, never a
  torn one.  :meth:`Campaign.execute` on the same directory skips
  runs already marked ``done`` and re-attempts the rest;
* execution is **observable** - every manifest update carries a
  ``progress`` heartbeat (counts, total planned, last run, wall-clock
  timestamp), each run's entry records its wall time and finish time,
  and a campaign constructed with ``ledger=...`` appends one
  :class:`repro.obs.ledger.RunRecord` per item (kind
  ``campaign-run``) plus a summary record (kind ``campaign``) per
  :meth:`Campaign.execute` pass - so a long bench session can be
  watched from the outside (``repro obs ledger``/``dashboard``)
  without touching the process;
* execution is **one state machine** for every worker count (see
  :class:`CampaignExecution`): each run is leased, executed, written
  to an atomic ``<name>.outcome.json`` checkpoint, and committed from
  that checkpoint.  With ``workers > 1`` the leases go to forked
  workers; the supervisor watches per-worker heartbeats and per-job
  timeouts, and a dead, hung, or overdue worker is killed, respawned,
  and its leased run *requeued* with an ``attempts`` counter persisted
  in the manifest (exponential backoff via
  :class:`~repro.experiments.runner.RetryPolicy`).  A run interrupted
  ``max_attempts`` times is quarantined to a ``poisoned`` manifest
  state so one bad spec can never wedge the campaign.  With
  ``workers == 1`` the leases run inline in the calling process: no
  fork, no watchdog, no heartbeat or lease timeouts, and no exception
  isolation.  See ``docs/service.md`` for the state machine and the
  lease/requeue invariants.

Manifest run states: ``done`` / ``failed`` (the run itself failed;
not requeued) / ``running`` (leased at the time of the last
checkpoint) / ``interrupted`` (its worker died or hung; will be
re-leased) / ``poisoned`` (quarantined).  The manifest
(``manifest.json``) is deliberately human-readable: a campaign's
state can be audited, or a poisoned run forced to re-execute by
deleting its entry, with a text editor.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import multiprocessing
import os
import queue as _queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from .. import io as repro_io
from ..core.events import ProfileReport
from ..core.profiler import Emprof, EmprofConfig
from ..errors import AcquisitionError, CampaignError
from ..obs import metrics as _metrics, trace as _trace
from ..obs import ledger as obs_ledger
from ..obs import tracectx
from ..obs.events import NDJSONFileSink, SocketSink, bus as _event_bus
from ..obs.runtime import obs_enabled
from .runner import RetryPolicy, acquire_with_retry

_MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "emprof-campaign-v1"
_EVENTS_NAME = "events.ndjsonl"

#: Cadence of campaign worker ``heartbeat`` events.
DEFAULT_HEARTBEAT_INTERVAL_S = 0.25

_RUNS_COMPLETED = _metrics.counter(
    "campaign_runs_completed_total", "campaign runs that produced a report"
)
_RUNS_FAILED = _metrics.counter(
    "campaign_runs_failed_total", "campaign runs abandoned after retries"
)
_RUNS_SKIPPED = _metrics.counter(
    "campaign_runs_skipped_total", "campaign runs skipped on resume (already done)"
)
_RUNS_REQUEUED = _metrics.counter(
    "campaign_runs_requeued_total",
    "supervised runs re-leased after their worker died, hung, or timed out",
)
_RUNS_POISONED = _metrics.counter(
    "campaign_runs_poisoned_total",
    "supervised runs quarantined after max_attempts interrupted attempts",
)


@dataclass(frozen=True)
class RunSpec:
    """One planned measurement: a name plus a capture source factory.

    Attributes:
        name: unique within the campaign; doubles as the report's
            filename stem, so keep it filesystem-safe.
        source_factory: zero-argument callable returning a fresh
            ``SignalSource``; called once per *attempt* so a flaky
            source is rebuilt rather than reused mid-failure.
        config: profiler configuration for this run.
        timeout_s: supervised-execution budget for one attempt of this
            run; overrides ``Campaign.job_timeout_s``.  A leased run
            past its deadline gets its worker killed and is requeued.
            None defers to the campaign-wide default (which may also
            be None: no deadline).
    """

    name: str
    source_factory: Callable[[], object]
    config: Optional[EmprofConfig] = None
    timeout_s: Optional[float] = None


@dataclass
class RunOutcome:
    """What happened to one run during :meth:`Campaign.execute`.

    Attributes:
        status: ``done`` / ``failed`` / ``skipped``, plus the
            supervised states ``poisoned`` (quarantined after
            ``max_attempts``) and ``interrupted`` (cancelled while
            leased; will be re-attempted by the next pass).
        attempts: how many times execution of this run has *started*,
            including interrupted starts from earlier passes.
        interrupted: True when an earlier attempt of this run was cut
            short by a dead/hung worker - i.e. this outcome resumes
            (or quarantines) an interrupted run rather than a fresh
            one.
    """

    name: str
    status: str
    report: Optional[ProfileReport] = None
    error: Optional[str] = None
    wall_time_s: float = 0.0
    attempts: int = 1
    interrupted: bool = False


@dataclass
class CampaignResult:
    """Aggregate outcome of one :meth:`Campaign.execute` pass."""

    outcomes: List[RunOutcome] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {"done": 0, "failed": 0, "skipped": 0}
        for outcome in self.outcomes:
            out[outcome.status] = out.get(outcome.status, 0) + 1
        return out

    def interrupted(self) -> Dict[str, int]:
        """Runs that resumed (or quarantined) an interrupted attempt.

        Maps run name to its persisted ``attempts`` counter - the
        supervised-execution audit trail a fleet operator reads to spot
        specs that keep killing workers.
        """
        return {
            o.name: o.attempts for o in self.outcomes if o.interrupted
        }

    @property
    def completed(self) -> bool:
        """True when every run has a persisted report (done or skipped)."""
        return all(o.status in ("done", "skipped") for o in self.outcomes)


class Campaign:
    """Checkpointed executor for a list of :class:`RunSpec`.

    Args:
        directory: campaign state directory; created if missing.  The
            manifest and one ``<run>.report.json`` per completed run
            live here.
        retry: retry policy for transient acquisition failures.
        sleep: injectable backoff sleep (see
            :func:`repro.experiments.runner.acquire_with_retry`).
        ledger: optional run ledger (path or
            :class:`repro.obs.ledger.RunLedger`); when given, every
            executed run appends a ``campaign-run`` record and each
            :meth:`execute` pass appends a ``campaign`` summary.
        workers: processes to execute runs in.  Every count goes
            through the same lease/commit state machine
            (:class:`CampaignExecution`): each run is leased, writes a
            ``<name>.outcome.json`` checkpoint, and is committed from
            it; a run without both its report and outcome file is
            simply re-attempted.  1 (default) executes each lease
            inline in the calling process - no fork, no watchdog, no
            heartbeat or lease timeouts, and an exception that is not
            an :class:`~repro.errors.AcquisitionError` propagates out
            of :meth:`execute`.  More forks that many workers, which
            are killed, respawned, and their leased run requeued when
            they die, stop heartbeating, or blow the per-job timeout.
        status_port: when given, :meth:`execute`/:meth:`start` serve
            the line-JSON status protocol (:mod:`repro.obs.statusd`)
            on this port for the duration of the pass; 0 picks an
            ephemeral port, published as :attr:`status_address`.
        heartbeat_interval_s: cadence of worker ``heartbeat`` events
            and of the supervisor's control-channel liveness beats.
        heartbeat_timeout_s: how long a *leased* worker may go without
            a beat before the supervisor declares it hung, kills it,
            and requeues its run.  None derives a default from the
            interval (``max(10 * heartbeat_interval_s, 2.0)``).
        job_timeout_s: campaign-wide per-attempt budget for a leased
            run (overridable per spec via ``RunSpec.timeout_s``); None
            means no deadline.
        max_attempts: total execution starts a run is allowed before
            an interrupted run is quarantined as ``poisoned``.
        flight: when True, every run is profiled with an engine flight
            recorder attached: the persisted report carries per-stall
            evidence (``repro explain <run>.report.json`` works on it)
            and the raw decision events are spilled next to it as
            ``<run>.flight``.
        flight_retain: cap on how many ``.flight`` sidecars the
            campaign directory keeps (oldest deleted first); None
            keeps all.  Reports always keep their evidence — only the
            raw event sidecars are pruned.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        retry: Optional[RetryPolicy] = None,
        sleep=None,
        ledger: Optional[Union[str, Path, obs_ledger.RunLedger]] = None,
        workers: int = 1,
        status_port: Optional[int] = None,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        heartbeat_timeout_s: Optional[float] = None,
        job_timeout_s: Optional[float] = None,
        max_attempts: int = 3,
        flight: bool = False,
        flight_retain: Optional[int] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if flight_retain is not None and flight_retain < 1:
            raise ValueError("flight_retain must be at least 1")
        if heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.directory = Path(directory)
        self.retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep
        if ledger is None or isinstance(ledger, obs_ledger.RunLedger):
            self.ledger = ledger
        else:
            self.ledger = obs_ledger.RunLedger(ledger)
        self.workers = int(workers)
        self.status_port = status_port
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_timeout_s = (
            None if heartbeat_timeout_s is None else float(heartbeat_timeout_s)
        )
        self.job_timeout_s = (
            None if job_timeout_s is None else float(job_timeout_s)
        )
        self.max_attempts = int(max_attempts)
        self.flight = bool(flight)
        self.flight_retain = (
            None if flight_retain is None else int(flight_retain)
        )
        #: ``(host, port)`` of the live status server, set while a
        #: pass with ``status_port`` is executing.
        self.status_address: Optional[Tuple[str, int]] = None
        self.directory.mkdir(parents=True, exist_ok=True)

    @property
    def effective_heartbeat_timeout_s(self) -> float:
        """The hang deadline the supervisor actually enforces."""
        if self.heartbeat_timeout_s is not None:
            return self.heartbeat_timeout_s
        return max(10.0 * self.heartbeat_interval_s, 2.0)

    # -- manifest ------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / _MANIFEST_NAME

    @property
    def events_path(self) -> Path:
        """The campaign's shared NDJSON event stream (all processes)."""
        return self.directory / _EVENTS_NAME

    def outcome_path(self, name: str) -> Path:
        """A worker's per-run checkpoint file."""
        return self.directory / f"{name}.outcome.json"

    def _read_manifest(self) -> Dict[str, object]:
        """The whole manifest document; empty when the campaign is fresh."""
        if not self.manifest_path.exists():
            return {}
        try:
            payload = json.loads(self.manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise CampaignError(
                f"unreadable campaign manifest {self.manifest_path}: {exc}"
            ) from exc
        if payload.get("format") != _MANIFEST_FORMAT:
            raise CampaignError(
                f"not an EMPROF campaign manifest: {self.manifest_path}"
            )
        return payload

    def load_manifest(self) -> Dict[str, dict]:
        """Per-run state map; empty when the campaign is fresh."""
        return self._read_manifest().get("runs", {})

    def load_progress(self) -> Dict[str, object]:
        """The manifest's heartbeat record; empty for fresh campaigns.

        Keys (when present): ``updated_unix_s``, ``counts`` (done /
        failed / skipped so far this pass), ``total_planned``, and
        ``last_run``.  An external watcher can poll this to tell a
        live campaign from a wedged one without signalling the
        process.
        """
        progress = self._read_manifest().get("progress", {})
        return progress if isinstance(progress, dict) else {}

    def _save_manifest(
        self, runs: Dict[str, dict], progress: Optional[Dict[str, object]] = None
    ) -> None:
        """Atomically replace the manifest (tmp + ``os.replace``)."""
        payload: Dict[str, object] = {"format": _MANIFEST_FORMAT, "runs": runs}
        if progress is not None:
            payload["progress"] = progress
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        os.replace(tmp, self.manifest_path)

    def report_path(self, name: str) -> Path:
        return self.directory / f"{name}.report.json"

    def flight_path(self, name: str) -> Path:
        """A run's spilled flight-recording sidecar (``flight=True``)."""
        return self.directory / f"{name}.flight"

    def _prune_flights(self) -> None:
        """Enforce ``flight_retain``: drop the oldest ``.flight`` files.

        Best-effort: concurrent workers may race to delete the same
        file, so a vanished path is not an error.
        """
        if self.flight_retain is None:
            return
        sidecars = sorted(
            self.directory.glob("*.flight"),
            key=lambda p: p.stat().st_mtime,
            reverse=True,
        )
        for stale in sidecars[self.flight_retain:]:
            try:
                stale.unlink()
            except FileNotFoundError:
                pass

    def load_report(self, name: str) -> ProfileReport:
        """Load the persisted report of a completed run."""
        return repro_io.load_report(self.report_path(name))

    # -- execution -----------------------------------------------------------

    def execute(self, specs: List[RunSpec]) -> CampaignResult:
        """Run every spec, resuming from the manifest.

        Runs already marked ``done`` with their report file present
        are skipped; everything else (fresh, previously failed, or
        interrupted mid-run) is attempted.  A failing run never stops
        the campaign - its error is recorded in the manifest and the
        outcome list.  This is ``self.start(specs).join()``.
        """
        return self.start(specs).join()

    def start(self, specs: List[RunSpec]) -> "CampaignExecution":
        """Plan the pass and, with ``workers > 1``, fork the workers.

        Returns a :class:`CampaignExecution` handle immediately; call
        :meth:`CampaignExecution.join` for the merged result (with
        ``workers == 1`` the runs execute inside ``join``).  While
        the pass runs, events (heartbeats, run lifecycle, per-chunk
        telemetry) stream into the campaign's shared NDJSON event
        file and - when ``status_port`` is set - into the status
        server, so the pass can be watched live.
        """
        self._check_names(specs)
        return CampaignExecution(self, list(specs)).start()

    @staticmethod
    def _check_names(specs: List[RunSpec]) -> None:
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise CampaignError("run names must be unique within a campaign")

    @contextlib.contextmanager
    def _observation(self, total_planned: int):
        """Event/status scaffolding around one execute pass.

        Attaches an NDJSON sink for the campaign's event file (when
        observability is on), serves the status protocol on
        ``status_port`` (when set), and brackets the pass in
        ``run_started``/``run_finished`` events.  All of it tears back
        down when the pass ends; with observability off and no status
        port this is a no-op.
        """
        sink = None
        server = None
        if obs_enabled():
            sink = _event_bus.add_sink(NDJSONFileSink(self.events_path))
        if self.status_port is not None:
            from ..obs import statusd

            server = statusd.StatusServer(
                _event_bus,
                metrics=_metrics,
                port=self.status_port,
                extra_status=lambda: self._live_status(total_planned),
            ).start()
            self.status_address = server.address
        _event_bus.emit(
            "run_started",
            op="campaign",
            campaign=self.directory.name,
            total_planned=total_planned,
            workers=self.workers,
        )
        try:
            yield server
        finally:
            _event_bus.emit(
                "run_finished", op="campaign", campaign=self.directory.name
            )
            _event_bus.flush(timeout_s=2.0)
            if server is not None:
                server.close()
                self.status_address = None
            if sink is not None:
                _event_bus.remove_sink(sink)
                sink.close()

    def _live_status(self, total_planned: int) -> Dict[str, object]:
        """The ``status`` response's campaign block (cheap to compute)."""
        try:
            progress = self.load_progress()
        except CampaignError:
            progress = {}
        return {
            "campaign": self.directory.name,
            "total_planned": total_planned,
            "progress": progress,
            "worker_outcomes": len(
                list(self.directory.glob("*.outcome.json"))
            ),
        }

    def _execute_one(self, spec: RunSpec, attempt: int) -> RunOutcome:
        """Acquire, profile, and persist one run, absorbing failures."""
        begin = time.perf_counter()
        with _trace.span("campaign_run", run=spec.name, attempt=attempt):
            try:
                capture = self._acquire(spec)
                recorder = None
                if self.flight:
                    from ..obs.flight import FlightRecorder

                    recorder = FlightRecorder()
                report = Emprof.from_capture(
                    capture, config=spec.config
                ).profile(flight=recorder)
            except AcquisitionError as exc:
                return RunOutcome(
                    name=spec.name,
                    status="failed",
                    error=f"{type(exc).__name__}: {exc}",
                    wall_time_s=time.perf_counter() - begin,
                )
            # Persist the report before the outcome checkpoint commits
            # the run: a crash between the two writes re-runs the run,
            # never trusts a missing report.
            repro_io.save_report(self.report_path(spec.name), report)
            if recorder is not None:
                repro_io.save_flight(
                    self.flight_path(spec.name), recorder, run=spec.name
                )
                self._prune_flights()
        return RunOutcome(
            name=spec.name,
            status="done",
            report=report,
            wall_time_s=time.perf_counter() - begin,
        )

    def _run_to_checkpoint(
        self, spec: RunSpec, attempt: int, worker: str
    ) -> None:
        """Execute one leased run and write its outcome checkpoint.

        The same for every worker count: a forked worker calls this
        from :func:`_worker_main`, an inline (``workers == 1``) pass
        from the supervisor loop itself.
        """
        outcome = self._execute_one(spec, attempt)
        # The commit point: after this atomic write the run is
        # finished no matter what happens to this process.
        obs_ledger.atomic_write_json(
            self.outcome_path(spec.name),
            {
                "name": spec.name,
                "status": outcome.status,
                "error": outcome.error,
                "wall_time_s": outcome.wall_time_s,
                "attempts": attempt,
                "finished_unix_s": time.time(),
                "worker": worker,
            },
        )
        _event_bus.emit(
            "checkpoint_written",
            target="outcome",
            run=spec.name,
            status=outcome.status,
        )

    def _acquire(self, spec: RunSpec):
        kwargs = {} if self._sleep is None else {"sleep": self._sleep}
        return acquire_with_retry(
            spec.source_factory(), policy=self.retry, **kwargs
        )





# ---------------------------------------------------------------------------
# the executor: one lease/commit state machine for every worker count
# ---------------------------------------------------------------------------

#: Lease label of a ``workers == 1`` pass, whose runs execute inline
#: in the supervisor's own process (``main`` in traces and events).
_INLINE = "main"

#: Which timestamp a manifest entry carries, by status.
_STAMP_KEYS = {
    "running": "started_unix_s",
    "interrupted": "interrupted_unix_s",
}


def _entry(
    status: str,
    attempts: int,
    worker: Optional[str] = None,
    error: Optional[str] = None,
    wall_time_s: Optional[float] = None,
) -> Dict[str, object]:
    """One manifest run entry, stamped with the wall clock."""
    entry: Dict[str, object] = {
        "status": status,
        "attempts": attempts,
        _STAMP_KEYS.get(status, "finished_unix_s"): time.time(),
    }
    if worker is not None:
        entry["worker"] = worker
    if error is not None:
        entry["error"] = error
    if wall_time_s is not None:
        entry["wall_time_s"] = wall_time_s
    return entry


@dataclass
class _Lease:
    """One run checked out to one worker: the supervisor's accounting unit.

    Exactly one of these exists per in-flight run, keyed by worker
    label, so when a worker dies the supervisor knows precisely which
    run it was holding - the invariant that makes requeue exact
    (docs/service.md).
    """

    index: int  # into CampaignExecution.specs
    name: str
    attempt: int
    interrupted: bool  # this attempt resumes an interrupted run
    leased_monotonic: float
    deadline: Optional[float]  # monotonic; None = no per-job timeout


@dataclass
class _PendingJob:
    """A run waiting for a worker (fresh, or requeued with backoff)."""

    index: int
    attempt: int
    interrupted: bool
    not_before: float  # monotonic; requeue backoff gate


class CampaignExecution:
    """A launched pass; :meth:`join` runs the supervisor loop.

    Created by :meth:`Campaign.start`.  The parent owns the open
    ``campaign`` span, the status server, the shared event sink, the
    pass-long ledger appender, and all scheduling state: a pending
    queue of jobs and one lease per in-flight run.  Every run goes
    through the same states for every worker count: planned (skipped,
    sticky ``poisoned``, quarantined, or pending), leased (pre-marked
    ``running`` in the manifest), executed to an atomic
    ``<name>.outcome.json`` checkpoint, and committed from that
    checkpoint by :meth:`_finalize_from_checkpoint`.

    With ``workers > 1`` each lease goes to a forked worker over a
    single-slot job queue, and the workers beat on a shared control
    queue.  The supervisor dispatches, watches liveness, and on a dead
    worker (``is_alive()`` false), a hung worker (no beat within
    ``Campaign.effective_heartbeat_timeout_s``), or an overdue job
    (``RunSpec.timeout_s`` / ``Campaign.job_timeout_s``) kills the
    worker, requeues the leased run with backoff
    (``Campaign.retry.delay``), and respawns a replacement.  A run
    interrupted ``Campaign.max_attempts`` times is quarantined as
    ``poisoned``.  With ``workers == 1`` the supervisor executes each
    lease itself, in-process: no fork, control queue, watchdog,
    heartbeat or lease timeouts, and no exception isolation - an
    exception that is not an :class:`~repro.errors.AcquisitionError`
    propagates out of :meth:`join` with the lease left ``running``.

    The exactly-once discipline: a run's *only* commit point is its
    outcome checkpoint, written after the report.  Before requeueing a
    revoked lease the supervisor re-reads that checkpoint, so a worker
    killed after committing but before reporting back still counts as
    finished and the run is never executed twice.

    Attributes:
        processes: worker label -> :class:`multiprocessing.Process`,
            including dead/replaced workers (exposed so callers - and
            the chaos tests - can signal individual workers).
        assignments: worker label -> specs it was handed over its
            lifetime (dispatch history, not a static partition).
    """

    #: Supervisor wake-up cadence (control-queue poll timeout).
    _TICK_S = 0.05

    def __init__(self, campaign: Campaign, specs: List[RunSpec]):
        self.campaign = campaign
        self.specs = specs
        self.processes: Dict[str, multiprocessing.process.BaseProcess] = {}
        self.assignments: Dict[str, List[RunSpec]] = {}
        self.result: Optional[CampaignResult] = None
        self._mp = multiprocessing.get_context("fork")
        self._inline = campaign.workers == 1
        self._pending: List[_PendingJob] = []
        self._leases: Dict[str, _Lease] = {}
        self._job_queues: Dict[str, multiprocessing.queues.Queue] = {}
        self._control: Optional[multiprocessing.queues.Queue] = None
        self._last_beat: Dict[str, float] = {}
        self._outcomes: Dict[str, RunOutcome] = {}
        self._runs: Dict[str, dict] = {}
        self._next_worker = 0
        self._stop_mode: Optional[str] = None  # None | "drain" | "cancel"
        self._pass_begin = 0.0
        self._observation = None
        self._span = None
        self._server = None
        self._ledger: Optional[obs_ledger.LedgerAppender] = None
        self._context: Optional[tracectx.TraceContext] = None
        self._status_address: Optional[Tuple[str, int]] = None

    # -- launch --------------------------------------------------------------

    def start(self) -> "CampaignExecution":
        """Plan the queue and fork any workers; returns immediately."""
        campaign = self.campaign
        self._runs = campaign.load_manifest()
        self._pass_begin = time.perf_counter()
        self._observation = campaign._observation(len(self.specs))
        self._server = self._observation.__enter__()
        self._span = _trace.span(
            "campaign",
            campaign=campaign.directory.name,
            workers=campaign.workers,
        )
        self._span.__enter__()
        try:
            if campaign.ledger is not None:
                # One handle for the whole pass; the manifest (atomic
                # replace per commit) is the crash-recovery source of
                # truth, so the fsync is deferred to pass end.
                self._ledger = campaign.ledger.appender(fsync_each=False)
            self._plan()
            if not self._inline:
                self._launch_workers()
        except BaseException:
            self._close()
            raise
        return self

    def _plan(self) -> None:
        """Sort every spec into skipped / poisoned / quarantined / pending."""
        campaign = self.campaign
        now = time.monotonic()
        for index, spec in enumerate(self.specs):
            state = self._runs.get(spec.name, {})
            status = state.get("status")
            attempts = int(state.get("attempts", 0) or 0)
            if (
                status == "done"
                and campaign.report_path(spec.name).exists()
            ):
                _RUNS_SKIPPED.inc()
                self._settle(
                    spec, RunOutcome(name=spec.name, status="skipped")
                )
                continue
            if status == "poisoned":
                # Quarantine is sticky across passes; delete the
                # manifest entry to force a re-run.
                self._settle(
                    spec,
                    RunOutcome(
                        name=spec.name,
                        status="poisoned",
                        error=state.get("error"),
                        attempts=attempts,
                        interrupted=True,
                    ),
                )
                continue
            # A stale outcome file from an earlier pass must not
            # masquerade as this pass's result.
            with contextlib.suppress(FileNotFoundError):
                campaign.outcome_path(spec.name).unlink()
            # A run left "running" by a killed pass is an interrupted
            # run, not a fresh one: its attempts counter carries over.
            interrupted = status in ("running", "interrupted")
            if interrupted and attempts >= campaign.max_attempts:
                self._quarantine(
                    spec,
                    attempts,
                    f"quarantined after {attempts} interrupted attempts",
                    worker=state.get("worker"),
                )
                continue
            self._pending.append(
                _PendingJob(index, attempts + 1, interrupted, now)
            )
        self._checkpoint(last_run="")

    def _launch_workers(self) -> None:
        self._context = tracectx.current().child(_trace.current_span_token())
        self._status_address = (
            self._server.address if self._server is not None else None
        )
        self._control = self._mp.Queue()
        for _ in range(min(self.campaign.workers, len(self._pending))):
            self._spawn_worker()
        self._dispatch_ready()

    def _spawn_worker(self) -> str:
        """Fork one worker with an empty job queue."""
        campaign = self.campaign
        label = f"worker{self._next_worker}"
        self._next_worker += 1
        jobs = self._mp.Queue()
        # Fork, not spawn: RunSpec factories are arbitrary callables
        # (closures, lambdas) that only survive by inheritance.
        process = self._mp.Process(
            target=_worker_main,
            name=label,
            args=(
                campaign,
                self.specs,
                label,
                jobs,
                self._control,
                self._context,
                self._status_address,
            ),
            daemon=True,
        )
        process.start()
        self.processes[label] = process
        self.assignments[label] = []
        self._job_queues[label] = jobs
        self._last_beat[label] = time.monotonic()
        _event_bus.emit(
            "worker_spawned",
            worker=label,
            pid=process.pid,
            campaign=campaign.directory.name,
        )
        return label

    # -- scheduling ----------------------------------------------------------

    def _idle_workers(self) -> List[str]:
        return [
            label
            for label, process in self.processes.items()
            if process.is_alive() and label not in self._leases
        ]

    def _take_ready_job(self, now: float) -> Optional[_PendingJob]:
        for i, job in enumerate(self._pending):
            if job.not_before <= now:
                return self._pending.pop(i)
        return None

    def _dispatch_ready(self) -> None:
        now = time.monotonic()
        for label in self._idle_workers():
            job = self._take_ready_job(now)
            if job is None:
                return
            self._lease(label, job)
            self._job_queues[label].put(("run", job.index, job.attempt))

    def _lease(self, label: str, job: _PendingJob) -> None:
        campaign = self.campaign
        spec = self.specs[job.index]
        timeout = (
            spec.timeout_s
            if spec.timeout_s is not None
            else campaign.job_timeout_s
        )
        now = time.monotonic()
        self._leases[label] = _Lease(
            index=job.index,
            name=spec.name,
            attempt=job.attempt,
            interrupted=job.interrupted,
            leased_monotonic=now,
            deadline=None if timeout is None else now + float(timeout),
        )
        # Pre-mark the lease so a parent kill -9 leaves "running" +
        # attempts behind for the next pass to surface as interrupted.
        self._runs[spec.name] = _entry("running", job.attempt, worker=label)
        self._checkpoint(spec.name)
        self.assignments.setdefault(label, []).append(spec)

    def _run_inline(self) -> None:
        """``workers == 1``: lease the next ready run and execute it here."""
        job = self._take_ready_job(time.monotonic())
        if job is None:
            time.sleep(self._TICK_S)  # a requeued run is backing off
            return
        spec = self.specs[job.index]
        self._lease(_INLINE, job)
        self.campaign._run_to_checkpoint(spec, job.attempt, _INLINE)
        self._revoke(
            _INLINE,
            f"run {spec.name!r} left no readable outcome checkpoint",
            kill=False,
        )
        _event_bus.emit("heartbeat", run=spec.name)

    def _respawn_if_needed(self) -> None:
        want = min(
            self.campaign.workers, len(self._pending) + len(self._leases)
        )
        alive = sum(
            1 for process in self.processes.values() if process.is_alive()
        )
        for _ in range(max(0, want - alive)):
            self._spawn_worker()

    def _checkpoint(self, last_run: str) -> None:
        """Atomically rewrite the manifest with a ``progress`` heartbeat."""
        result = CampaignResult(outcomes=list(self._outcomes.values()))
        self.campaign._save_manifest(
            self._runs,
            progress={
                "updated_unix_s": time.time(),
                "counts": result.counts(),
                "total_planned": len(self.specs),
                "last_run": last_run,
            },
        )

    # -- supervision ---------------------------------------------------------

    def alive(self) -> List[str]:
        """Labels of workers still running."""
        return [
            label
            for label, process in self.processes.items()
            if process.is_alive()
        ]

    def request_stop(self, mode: str = "drain") -> None:
        """Ask the supervisor to wind down (thread-safe, returns fast).

        ``drain`` lets leased runs finish but dispatches nothing new;
        ``cancel`` kills leased workers and marks their runs
        ``interrupted`` (attempts persisted) for the next pass.  In
        both cases undispatched pending runs keep their prior manifest
        state.  Takes effect inside :meth:`join`'s supervision loop;
        with ``workers == 1`` that is between runs, so the run in
        flight always finishes.
        """
        if mode not in ("drain", "cancel"):
            raise ValueError("stop mode must be 'drain' or 'cancel'")
        self._stop_mode = mode

    def snapshot(self) -> Dict[str, object]:
        """A cheap live view of the queue for status endpoints."""
        now = time.monotonic()
        return {
            "pending": len(self._pending),
            "leases": {
                label: {
                    "run": lease.name,
                    "attempt": lease.attempt,
                    "age_s": round(now - lease.leased_monotonic, 3),
                }
                for label, lease in self._leases.items()
            },
            "workers_alive": self.alive(),
            "finalized": len(self._outcomes),
            "total": len(self.specs),
            "stop_mode": self._stop_mode,
        }

    def join(self, timeout_s: Optional[float] = None) -> CampaignResult:
        """Run the supervision loop to completion and merge the result.

        ``timeout_s`` (None = no limit) bounds the whole pass: on
        expiry every worker is killed, leased runs are recorded as
        failed (and left ``interrupted`` in the manifest for the next
        pass), and undispatched runs are recorded as failed without a
        manifest change.  With ``workers == 1`` the deadline is
        checked between runs.
        """
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        try:
            try:
                self._supervise(deadline)
            finally:
                self._shutdown_workers()
            result = CampaignResult(
                outcomes=[
                    self._outcomes[spec.name]
                    for spec in self.specs
                    if spec.name in self._outcomes
                ]
            )
            self._checkpoint(
                result.outcomes[-1].name if result.outcomes else ""
            )
            _event_bus.emit(
                "checkpoint_written",
                target="manifest",
                campaign=self.campaign.directory.name,
            )
            self._ledger_summary(result)
        finally:
            self._close()
        self.result = result
        return result

    def _close(self) -> None:
        """Close the ledger appender, the span, and the observation scope."""
        if self._ledger is not None:
            self._ledger.close()
            self._ledger = None
        if self._span is not None:
            self._span.__exit__(None, None, None)
            self._span = None
            if obs_enabled():
                # After the span closes, so the campaign span itself is
                # in the payload the stitcher reads.
                _trace_write_safe(
                    _trace, self.campaign.directory / "main.trace.json"
                )
        if self._observation is not None:
            self._observation.__exit__(None, None, None)
            self._observation = None

    def _supervise(self, deadline: Optional[float]) -> None:
        while self._pending or self._leases:
            if deadline is not None and time.monotonic() > deadline:
                self._abort_on_timeout()
                return
            if self._stop_mode == "cancel":
                self._cancel_leases()
                return
            if self._stop_mode == "drain" and self._pending:
                # Undispatched runs keep their prior manifest state and
                # get no outcome; the next pass re-attempts them.
                self._pending.clear()
            if self._inline:
                self._run_inline()
                continue
            self._respawn_if_needed()
            self._dispatch_ready()
            self._pump_control()
            self._check_liveness()

    def _pump_control(self) -> None:
        """Handle queued worker messages; block one tick for the first."""
        try:
            message = self._control.get(timeout=self._TICK_S)
        except _queue.Empty:
            return
        while True:
            self._handle_message(message)
            try:
                message = self._control.get_nowait()
            except _queue.Empty:
                return

    def _handle_message(self, message: Tuple[str, str, Optional[str]]) -> None:
        label, verb, name = message
        self._last_beat[label] = time.monotonic()
        if verb != "done":
            return  # "beat" / "started": liveness only
        lease = self._leases.get(label)
        if lease is None or lease.name != name:
            return  # stale message from a revoked lease
        # A "done" without a readable checkpoint is treated exactly
        # like a death while leased.
        self._revoke(
            label,
            f"worker {label} reported run {name!r} finished but left "
            "no readable outcome checkpoint",
            kill=False,
        )

    def _check_liveness(self) -> None:
        campaign = self.campaign
        now = time.monotonic()
        hang_after = campaign.effective_heartbeat_timeout_s
        for label in list(self._leases):
            lease = self._leases[label]
            process = self.processes[label]
            if not process.is_alive():
                self._revoke(
                    label,
                    f"worker {label} died (exit code {process.exitcode}) "
                    f"during run {lease.name!r}",
                )
                continue
            beat_age = now - self._last_beat.get(label, now)
            if beat_age > hang_after:
                self._revoke(
                    label,
                    f"worker {label} hung: no heartbeat for "
                    f"{beat_age:.2f}s during run {lease.name!r}",
                )
                continue
            if lease.deadline is not None and now > lease.deadline:
                budget = lease.deadline - lease.leased_monotonic
                self._revoke(
                    label,
                    f"run {lease.name!r} exceeded its {budget:.2f}s "
                    f"timeout on worker {label}",
                )

    def _reclaim(
        self, label: str, reason: str, kill: bool = True
    ) -> Optional[_Lease]:
        """End a lease: commit its run from the checkpoint, or interrupt it.

        With ``kill`` the lease's worker is killed and reaped first.
        The run may have committed its checkpoint before its worker
        died; a committed run is finished, never re-executed, and
        None is returned.  Otherwise the run is marked ``interrupted``
        in the manifest (attempts kept) and its lease is returned for
        the caller to requeue, cancel, or fail.
        """
        lease = self._leases.pop(label)
        if kill:
            process = self.processes[label]
            if process.is_alive():
                process.kill()
            process.join(2.0)
            _event_bus.emit(
                "worker_killed",
                worker=label,
                run=lease.name,
                reason=reason,
                campaign=self.campaign.directory.name,
            )
        if self._finalize_from_checkpoint(lease, label):
            return None
        self._runs[lease.name] = _entry(
            "interrupted", lease.attempt, worker=label, error=reason
        )
        return lease

    def _revoke(self, label: str, reason: str, kill: bool = True) -> None:
        """End a lease; requeue (or quarantine) its run if unfinished."""
        lease = self._reclaim(label, reason, kill)
        if lease is not None:
            self._requeue_or_quarantine(lease, label, reason)

    def _requeue_or_quarantine(
        self, lease: _Lease, label: str, reason: str
    ) -> None:
        campaign = self.campaign
        spec = self.specs[lease.index]
        wall = time.monotonic() - lease.leased_monotonic
        if lease.attempt >= campaign.max_attempts:
            self._quarantine(
                spec,
                lease.attempt,
                f"quarantined after {lease.attempt} attempts; last: {reason}",
                worker=label,
                wall_time_s=wall,
            )
            return
        delay = campaign.retry.delay(lease.attempt)
        self._pending.append(
            _PendingJob(
                lease.index,
                lease.attempt + 1,
                True,
                time.monotonic() + delay,
            )
        )
        self._checkpoint(spec.name)
        _RUNS_REQUEUED.inc()
        _event_bus.emit(
            "job_requeued",
            run=spec.name,
            attempts=lease.attempt,
            backoff_s=delay,
            reason=reason,
            campaign=campaign.directory.name,
        )
        self._ledger_incident(
            "campaign-requeue", spec.name, lease.attempt, reason, wall, label
        )

    def _quarantine(
        self,
        spec: RunSpec,
        attempts: int,
        reason: str,
        worker: Optional[str] = None,
        wall_time_s: float = 0.0,
    ) -> None:
        """Poison a run: manifest entry, outcome, event, and incident."""
        self._runs[spec.name] = _entry("poisoned", attempts, error=reason)
        _RUNS_POISONED.inc()
        _event_bus.emit(
            "job_quarantined",
            run=spec.name,
            attempts=attempts,
            reason=reason,
            campaign=self.campaign.directory.name,
        )
        self._settle(
            spec,
            RunOutcome(
                name=spec.name,
                status="poisoned",
                error=reason,
                attempts=attempts,
                interrupted=True,
            ),
        )
        self._checkpoint(spec.name)
        self._ledger_incident(
            "campaign-quarantine", spec.name, attempts, reason,
            wall_time_s, worker,
        )

    def _finalize_from_checkpoint(self, lease: _Lease, label: str) -> bool:
        """Commit a lease from its run's outcome file, if one exists.

        The only place a run becomes ``done`` or ``failed``.  Returns
        False when the checkpoint is absent or unreadable (the run did
        not finish); the caller decides requeue vs quarantine.
        """
        campaign = self.campaign
        spec = self.specs[lease.index]
        path = campaign.outcome_path(spec.name)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return False
        if payload.get("name") != spec.name or payload.get("status") not in (
            "done",
            "failed",
        ):
            return False
        status = payload["status"]
        report = None
        if status == "done":
            _RUNS_COMPLETED.inc()
            with contextlib.suppress(OSError, ValueError):
                report = campaign.load_report(spec.name)
        else:
            _RUNS_FAILED.inc()
        outcome = RunOutcome(
            name=spec.name,
            status=status,
            report=report,
            error=payload.get("error"),
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
            attempts=lease.attempt,
            interrupted=lease.interrupted,
        )
        self._runs[spec.name] = _entry(
            status,
            lease.attempt,
            worker=label,
            error=outcome.error,
            wall_time_s=outcome.wall_time_s,
        )
        self._settle(spec, outcome)
        self._checkpoint(spec.name)
        _event_bus.emit(
            "checkpoint_written",
            target="manifest",
            run=spec.name,
            status=status,
        )
        return True

    # -- shutdown paths ------------------------------------------------------

    def _cancel_leases(self) -> None:
        """Hard stop: kill leased workers, persist interrupted state."""
        for label in list(self._leases):
            lease = self._reclaim(label, "cancelled while leased")
            if lease is None:
                continue
            self._settle(
                self.specs[lease.index],
                RunOutcome(
                    name=lease.name,
                    status="interrupted",
                    error="cancelled while leased",
                    attempts=lease.attempt,
                    interrupted=True,
                ),
            )
            self._checkpoint(lease.name)
        self._pending.clear()

    def _abort_on_timeout(self) -> None:
        """join(timeout_s) expired: kill everything, record failures.

        Every outcome reports the run's persisted start count: a
        leased run its lease's attempt, a pending one the attempts
        before its next (never started) one.
        """
        for label in list(self._leases):
            error = (
                f"worker {label} did not finish this run before the "
                "campaign timeout"
            )
            lease = self._reclaim(label, error)
            if lease is None:
                continue
            _RUNS_FAILED.inc()
            self._settle(
                self.specs[lease.index],
                RunOutcome(
                    name=lease.name,
                    status="failed",
                    error=error,
                    attempts=lease.attempt,
                    interrupted=lease.interrupted,
                ),
            )
        for job in self._pending:
            spec = self.specs[job.index]
            _RUNS_FAILED.inc()
            self._settle(
                spec,
                RunOutcome(
                    name=spec.name,
                    status="failed",
                    error="campaign timed out before this run started",
                    attempts=job.attempt - 1,
                    interrupted=job.interrupted,
                ),
            )
        self._pending.clear()

    def _shutdown_workers(self) -> None:
        for label, process in self.processes.items():
            if process.is_alive():
                with contextlib.suppress(Exception):
                    self._job_queues[label].put_nowait(("stop",))
        deadline = time.monotonic() + 5.0
        for process in self.processes.values():
            process.join(max(0.0, deadline - time.monotonic()))
        for process in self.processes.values():
            if process.is_alive():
                process.kill()
                process.join(1.0)
        if self._control is not None:
            with contextlib.suppress(Exception):
                self._control.close()
                self._control.cancel_join_thread()
        for jobs in self._job_queues.values():
            with contextlib.suppress(Exception):
                jobs.close()
                jobs.cancel_join_thread()

    # -- ledger --------------------------------------------------------------

    def _settle(self, spec: RunSpec, outcome: RunOutcome) -> None:
        """Record a run's outcome for this pass.

        Runs that executed (or were cut short) also append a
        ``campaign-run`` ledger record now, at commit; skipped runs did
        not run and a poisoned run's incident record covers it.
        """
        self._outcomes[spec.name] = outcome
        if self._ledger is None or outcome.status in ("skipped", "poisoned"):
            return
        report = outcome.report
        quality = (
            dataclasses.asdict(report.quality)
            if report is not None and report.quality is not None
            else None
        )
        extra: Dict[str, object] = {"status": outcome.status}
        if outcome.error is not None:
            extra["error"] = outcome.error
        if report is not None:
            extra["miss_count"] = report.miss_count
            extra["low_confidence_count"] = report.low_confidence_count
            extra["stall_fraction"] = report.stall_fraction
        self._ledger.append(
            obs_ledger.record(
                kind="campaign-run",
                label=f"{self.campaign.directory.name}/{spec.name}",
                wall_time_s=outcome.wall_time_s,
                config=spec.config,
                quality=quality,
                extra=extra,
            )
        )

    def _ledger_incident(
        self,
        kind: str,
        name: str,
        attempts: int,
        reason: str,
        wall_time_s: float = 0.0,
        worker: Optional[str] = None,
    ) -> None:
        """Append one ``campaign-requeue``/``campaign-quarantine`` record.

        Written (and flushed) at the moment the supervisor acts, not
        batched to pass end, so a kill -9 of the *parent* still leaves
        the incident on record.
        """
        if self._ledger is None:
            return
        extra: Dict[str, object] = {"attempts": attempts, "reason": reason}
        if worker is not None:
            extra["worker"] = worker
        self._ledger.append(
            obs_ledger.record(
                kind=kind,
                label=f"{self.campaign.directory.name}/{name}",
                wall_time_s=wall_time_s,
                extra=extra,
            )
        )

    def _ledger_summary(self, result: CampaignResult) -> None:
        """Append the pass's ``campaign`` summary record."""
        if self._ledger is None:
            return
        extra: Dict[str, object] = {
            "counts": result.counts(),
            "completed": result.completed,
        }
        if obs_enabled():
            # Bridge the live-telemetry rollup into the post-hoc
            # record: the dashboard's "final" numbers can be checked
            # against what the bus saw while the pass was in flight.
            stats = _event_bus.stats()
            extra["events"] = {
                key: stats[key]
                for key in (
                    "total",
                    "samples_total",
                    "stalls_total",
                    "quality_flags_total",
                    "dropped_events",
                )
            }
        self._ledger.append(
            obs_ledger.record(
                kind="campaign",
                label=self.campaign.directory.name,
                wall_time_s=time.perf_counter() - self._pass_begin,
                extra=extra,
            )
        )


def _trace_write_safe(tracer, path: Path) -> None:
    """Write a trace payload, never letting I/O kill the pass."""
    try:
        tracer.write(str(path))
    except OSError:
        pass


def _worker_main(
    campaign: Campaign,
    specs: List[RunSpec],
    label: str,
    jobs,
    control,
    context: tracectx.TraceContext,
    status_address: Optional[Tuple[str, int]],
) -> None:
    """A forked supervised worker's whole life.

    Runs in the child process.  The forked copies of the global
    tracer/bus still hold the parent's spans, sinks, and counters, so
    the first job is to shed that inherited state (without closing the
    parent's file descriptors).  Then the worker loops on its job
    queue: one ``("run", index, attempt)`` lease at a time, executed
    by :meth:`Campaign._run_to_checkpoint` - the same function an
    inline ``workers == 1`` pass calls - which commits it as an
    atomic ``<name>.outcome.json`` checkpoint before the ``done``
    control message; the manifest is never touched from here.  A
    daemon heartbeat thread beats on the control queue at
    ``heartbeat_interval_s`` (always, independent of ``EMPROF_OBS``)
    so the supervisor can tell a long-running job from a hung worker;
    with observability on the same beat also lands on the event bus
    (socket sink to the parent's status server when it has one, the
    shared NDJSON file otherwise).
    """
    tracectx.activate(context)
    _trace.reset()
    _trace.set_process_label(label)
    _event_bus.reset()
    _event_bus.set_source(label)
    stop = threading.Event()
    if obs_enabled():
        if status_address is not None:
            # Push to the parent's status server; the parent's bus
            # re-delivers ingested events to its own sinks (the shared
            # NDJSON file, watch subscriptions), so attaching the file
            # sink here too would write every worker event twice.
            _event_bus.add_sink(
                SocketSink(status_address[0], status_address[1])
            )
        else:
            _event_bus.add_sink(NDJSONFileSink(campaign.events_path))
        _event_bus.emit("heartbeat", worker=label, phase="start")

    def _beat() -> None:
        while not stop.wait(campaign.heartbeat_interval_s):
            with contextlib.suppress(Exception):
                control.put_nowait((label, "beat", None))
            _event_bus.emit("heartbeat", worker=label)

    threading.Thread(
        target=_beat, name=f"{label}-heartbeat", daemon=True
    ).start()
    try:
        with _trace.span("campaign_worker", worker=label):
            while True:
                try:
                    message = jobs.get(timeout=0.5)
                except _queue.Empty:
                    continue  # the parent owns this worker's lifetime
                if message[0] != "run":
                    break
                _, index, attempt = message
                spec = specs[index]
                with contextlib.suppress(Exception):
                    control.put_nowait((label, "started", spec.name))
                campaign._run_to_checkpoint(spec, attempt, label)
                with contextlib.suppress(Exception):
                    control.put_nowait((label, "done", spec.name))
    finally:
        stop.set()
        if obs_enabled():
            _event_bus.emit("heartbeat", worker=label, phase="end")
            _trace_write_safe(
                _trace, campaign.directory / f"{label}.trace.json"
            )
            _event_bus.flush(timeout_s=2.0)
            _event_bus.close()
