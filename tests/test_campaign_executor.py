"""One campaign executor for every worker count.

``Campaign.execute`` is ``start(specs).join()`` whether the leases run
inline (``workers=1``) or on forked workers: the same planning loop,
the same outcome-checkpoint commit, the same ledger records.  These
tests pin that parity and the supervisor's attempt accounting.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro import io as repro_io
from repro.core.detect import DetectorConfig
from repro.core.normalize import NormalizerConfig
from repro.core.profiler import Emprof, EmprofConfig
from repro.emsignal.receiver import Capture
from repro.errors import HardwareMissingError
from repro.experiments import Campaign, RetryPolicy, RunSpec
from repro.faults import CrashingSource
from repro.obs import metrics
from repro.obs.events import bus
from repro.obs.ledger import RunLedger
from repro.obs.runtime import set_obs_enabled

SMALL = EmprofConfig(
    normalizer=NormalizerConfig(window_samples=301),
    detector=DetectorConfig(),
)


class StaticSource:
    """A deterministic synthetic dip capture."""

    def capture(self):
        rng = np.random.default_rng(0)
        x = np.full(3000, 0.9) + rng.normal(0, 0.02, 3000)
        for s in range(200, 2800, 170):
            x[s : s + 13] = 0.1
        return Capture(
            magnitude=np.clip(x, 0.0, None),
            sample_rate_hz=50e6,
            clock_hz=1e9,
            bandwidth_hz=50e6,
            region_names={},
        )


class DeadSource:
    def capture(self):
        raise HardwareMissingError("probe unplugged")


@pytest.fixture()
def obs_on():
    previous = set_obs_enabled(True)
    bus.reset()
    yield
    bus.reset()
    set_obs_enabled(previous)


def _seed_manifest(directory, max_attempts):
    """A campaign directory resumed from an earlier, messy pass."""
    directory.mkdir()
    repro_io.save_report(
        directory / "done.report.json",
        Emprof.from_capture(StaticSource().capture(), config=SMALL).profile(),
    )
    runs = {
        "done": {"status": "done", "attempts": 1},
        "stuck": {"status": "running", "attempts": max_attempts},
        "poison": {"status": "poisoned", "attempts": max_attempts,
                   "error": "quarantined earlier"},
    }
    (directory / "manifest.json").write_text(
        json.dumps({"format": "emprof-campaign-v1", "runs": runs})
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_counts_share_one_state_machine(tmp_path, obs_on, workers):
    directory = tmp_path / "camp"
    _seed_manifest(directory, max_attempts=3)
    specs = [
        RunSpec(name, factory, config=SMALL)
        for name, factory in [
            ("ok", StaticSource),
            ("dead", DeadSource),
            ("stuck", StaticSource),
            ("poison", StaticSource),
            ("done", StaticSource),
        ]
    ]
    completed = metrics.counter("campaign_runs_completed_total")
    failed = metrics.counter("campaign_runs_failed_total")
    completed_before, failed_before = completed.value, failed.value

    campaign = Campaign(
        directory,
        sleep=lambda _: None,
        ledger=RunLedger(tmp_path / "ledger.jsonl", fsync=False),
        workers=workers,
        heartbeat_interval_s=0.05,
        max_attempts=3,
    )
    result = campaign.execute(specs)

    assert {
        o.name: (o.status, o.attempts, o.interrupted) for o in result.outcomes
    } == {
        "ok": ("done", 1, False),
        "dead": ("failed", 1, False),
        "stuck": ("poisoned", 3, True),
        "poison": ("poisoned", 3, True),
        "done": ("skipped", 1, False),
    }
    manifest = json.loads(campaign.manifest_path.read_text())["runs"]
    assert {
        name: (entry["status"], entry["attempts"])
        for name, entry in manifest.items()
    } == {
        "ok": ("done", 1),
        "dead": ("failed", 1),
        "stuck": ("poisoned", 3),
        "poison": ("poisoned", 3),
        "done": ("done", 1),
    }
    assert "HardwareMissingError" in manifest["dead"]["error"]

    ledger = RunLedger(tmp_path / "ledger.jsonl")
    kinds = Counter(r.kind for r in ledger.read())
    assert kinds == {
        "campaign-run": 2, "campaign-quarantine": 1, "campaign": 1,
    }

    # The report a worker commits is byte-identical to in-process.
    reference = tmp_path / "reference.report.json"
    repro_io.save_report(
        reference,
        Emprof.from_capture(StaticSource().capture(), config=SMALL).profile(),
    )
    assert campaign.report_path("ok").read_bytes() == reference.read_bytes()

    # Counted once, at commit - never also inside the executing run.
    assert completed.value - completed_before == 1
    assert failed.value - failed_before == 1


def test_timed_out_requeued_run_reports_its_persisted_attempts(tmp_path):
    # The crashing run is requeued with a 30 s backoff, so it is still
    # pending when the pass times out: it started once, and both the
    # outcome and the manifest must say so.
    campaign = Campaign(
        tmp_path / "camp",
        sleep=lambda _: None,
        retry=RetryPolicy(backoff_base_s=30.0),
        workers=2,
        heartbeat_interval_s=0.05,
    )
    result = campaign.start([RunSpec("crash", CrashingSource)]).join(
        timeout_s=3.0
    )
    (outcome,) = result.outcomes
    assert outcome.status == "failed"
    assert outcome.interrupted
    manifest = json.loads(campaign.manifest_path.read_text())["runs"]
    assert manifest["crash"]["status"] == "interrupted"
    assert manifest["crash"]["attempts"] == 1
    assert outcome.attempts == manifest["crash"]["attempts"]


def test_inline_exception_propagates_and_leaves_the_lease_running(tmp_path):
    class Boom(RuntimeError):
        pass

    def explode():
        raise Boom("not an acquisition problem")

    ledger = RunLedger(tmp_path / "ledger.jsonl")
    campaign = Campaign(tmp_path / "camp", ledger=ledger)
    with pytest.raises(Boom):
        campaign.execute(
            [RunSpec("a", StaticSource, config=SMALL), RunSpec("b", explode)]
        )
    manifest = json.loads(campaign.manifest_path.read_text())["runs"]
    assert manifest["a"]["status"] == "done"
    assert manifest["b"]["status"] == "running"
    assert manifest["b"]["attempts"] == 1
    # The pass-long appender was closed: the committed run is on
    # record, the summary of the aborted pass is not.
    assert [r.kind for r in ledger.read()] == ["campaign-run"]
