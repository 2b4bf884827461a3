"""In-memory span tracing of the program's layers, from outside.

The benchmark wraps the public calls into each layer (functions and
methods as the program binds them) for the duration of a traced round
and restores the originals afterwards, so untraced rounds run the
unmodified program.  A span records its layer name, start and end
(``perf_counter_ns``, which is system-wide monotonic on Linux and so
comparable across processes), its parent span, the round it belongs to
and a few counts.  Spans stay in memory and are written out once, when
the benchmark ends.

Two kinds of child process contribute spans:

* a CLI command run through ``cli_child.py`` writes its spans to the
  spool file named in ``PERFBENCH_SPOOL`` when it exits; its root spans
  hang under the parent-side span named in ``PERFBENCH_PARENT``;
* a forked campaign worker inherits the installed wrappers; it appends
  each finished root span tree to ``spans-<pid>.jsonl`` in the spool
  directory, because a supervised worker may be killed rather than
  exit.

This module imports no part of the program at import time, so a CLI
child can time ``import repro`` itself.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

SPOOL_ENV = "PERFBENCH_SPOOL"
PARENT_ENV = "PERFBENCH_PARENT"
ROUND_ENV = "PERFBENCH_ROUND"


class Tracer:
    """Collects spans; one instance per benchmark process."""

    def __init__(self, root_parent: Optional[str] = None, round_index: Optional[int] = None):
        self.spans: List[dict] = []
        self.active = False
        self.round = round_index
        #: Where forked workers spool their spans (set per campaign round).
        self.spool_dir: Optional[Path] = None
        #: Parent of this process's root spans (a CLI child's caller).
        self.root_parent = root_parent
        self._stack: List[dict] = []
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._forked = False
        self._restore: List[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _check_fork(self) -> None:
        """Shed the parent's spans in a forked worker (first span only)."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self._forked = True
            self.spans = []
            self._stack = []

    @classmethod
    def for_cli_child(cls) -> "Tracer":
        """The tracer of a CLI command run by ``cli_child.py``."""
        tracer = cls(
            root_parent=os.environ[PARENT_ENV],
            round_index=int(os.environ[ROUND_ENV]),
        )
        tracer.active = True
        return tracer

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; yields its mutable ``attrs`` dict."""
        self._check_fork()
        record = {
            "id": f"{self._pid}-{next(self._ids)}",
            "parent": self._stack[-1]["id"] if self._stack else self.root_parent,
            "name": name,
            "round": self.round,
            "pid": self._pid,
            "worker": self._forked,
            "attrs": {},
        }
        self._stack.append(record)
        record["start"] = time.perf_counter_ns()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(record)
            if self._forked and not self._stack:
                self._spool_worker_spans()

    def _spool_worker_spans(self) -> None:
        if self.spool_dir is not None:
            self.spool(Path(self.spool_dir) / f"spans-{self._pid}.jsonl")

    def spool(self, path: Path) -> None:
        """Hand this process's spans to the benchmark process."""
        with open(path, "a") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
        self.spans = []

    def op(self, name: str):
        """A benchmark op's root span when tracing, else nothing."""
        return self.span("op." + name) if self.active else contextlib.nullcontext({})

    @property
    def current(self) -> str:
        """Id of the innermost open span."""
        return self._stack[-1]["id"]

    @contextlib.contextmanager
    def paused(self):
        """Run output checks without recording them."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    def absorb(self, path: Path) -> None:
        """Merge spans a child process spooled to ``path``."""
        if not Path(path).exists():
            return
        with open(path) as handle:
            for line in handle:
                if line.strip():
                    self.spans.append(json.loads(line))
        Path(path).unlink()

    def absorb_dir(self, directory: Path) -> None:
        """Merge every worker spool file in ``directory``."""
        for path in sorted(Path(directory).glob("spans-*.jsonl")):
            self.absorb(path)

    def write(self, path: Path) -> None:
        """Dump every span as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, after: Optional[Callable] = None):
        """Replace ``owner.attr`` with a recording wrapper until :meth:`uninstall`.

        ``after(attrs, args, result)`` may store counts on the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            # A layer calling its own entry points (batch detection runs
            # the chunk detector) stays one span, so counts are not doubled.
            if not tracer.active or (tracer._stack and tracer._stack[-1]["name"] == layer):
                return original(*args, **kwargs)
            with tracer.span(layer) as attrs:
                result = original(*args, **kwargs)
                if after is not None:
                    after(attrs, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, round_index: int):
        """Wrap every layer entry point for one traced round."""
        install_layers(self)
        self.round = round_index
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.round = None
            self.uninstall()


def _count(key: str, measure: Callable) -> Callable:
    def after(attrs, args, result):
        attrs[key] = attrs.get(key, 0) + measure(args, result)

    return after


def _ring(attrs, args, result) -> None:
    ring = args[0].ring
    attrs["copied"] = ring.copied_samples
    attrs["pushed"] = ring.pushed_samples


def _flagged(attrs, args, result) -> None:
    attrs["low_confidence"] = int(bool(result.low_confidence))


def _finish(attrs, args, result) -> None:
    attrs["intervals"] = len(args[0].quality_monitor.intervals())


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's entry points where the program looks them up."""
    import sys

    from repro import io as repro_io
    from repro import emsignal
    from repro.core import profiler, streaming
    from repro.core.engine import ChunkDetector, ChunkNormalizer
    from repro.core.profiler import Emprof
    from repro.core.streaming import StreamingEmprof
    from repro.experiments.campaign import Campaign
    from repro.experiments.runner import SimulatedCaptureSource
    from repro.faults.quality import QualityMonitor
    from repro.sim import machine

    trace_samples = _count("trace_samples", lambda a, r: len(r.power_trace))
    stalls = _count("stalls", lambda a, r: len(r))
    owners = [machine] + ([sys.modules["repro.cli"]] if "repro.cli" in sys.modules else [])
    for owner in owners:
        tracer.wrap(owner, "simulate", "sim", trace_samples)
    for owner in [emsignal] + owners[1:]:
        tracer.wrap(owner, "measure", "emsignal")
    tracer.wrap(ChunkNormalizer, "push", "engine.normalize")
    tracer.wrap(ChunkNormalizer, "flush", "engine.normalize", _ring)
    tracer.wrap(profiler, "normalize", "engine.normalize")
    for attr in ("push", "finish", "resync"):
        tracer.wrap(ChunkDetector, attr, "engine.detect", stalls)
    tracer.wrap(profiler, "detect_stalls", "engine.detect", stalls)
    tracer.wrap(StreamingEmprof, "process", "streaming")
    tracer.wrap(StreamingEmprof, "finish", "report.finish", _finish)
    tracer.wrap(Emprof, "profile", "profiler")
    tracer.wrap(Emprof, "profile_chunked", "profiler")
    tracer.wrap(QualityMonitor, "observe", "quality.observe")
    tracer.wrap(QualityMonitor, "flag", "quality.flag", _flagged)
    for owner in (streaming, profiler):
        tracer.wrap(owner, "build_evidence", "flight.evidence")
    tracer.wrap(repro_io, "load_capture", "io.load_capture")
    tracer.wrap(repro_io, "save_capture", "io.save_capture")
    tracer.wrap(
        repro_io, "save_report", "io.report_encode",
        _count("bytes", lambda args, result: os.path.getsize(args[0])),
    )
    tracer.wrap(SimulatedCaptureSource, "capture", "campaign.acquire")
    tracer.wrap(Campaign, "execute", "campaign")


# -- analysis -------------------------------------------------------------------


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Seconds of self time per span id: duration minus its children's."""
    child_ns: Dict[str, int] = defaultdict(int)
    for record in spans:
        if record["parent"] is not None:
            child_ns[record["parent"]] += record["end"] - record["start"]
    return {
        record["id"]: (record["end"] - record["start"] - child_ns[record["id"]]) / 1e9
        for record in spans
    }


def layer_summary(spans: List[dict]) -> Dict[str, dict]:
    """Per layer: self seconds, calls, summed attrs (all rounds)."""
    own = self_times(spans)
    out: Dict[str, dict] = {}
    for record in spans:
        entry = out.setdefault(record["name"], {"self_s": 0.0, "calls": 0, "attrs": {}})
        entry["self_s"] += own[record["id"]]
        entry["calls"] += 1
        for key, value in record["attrs"].items():
            entry["attrs"][key] = entry["attrs"].get(key, 0) + value
    return out
