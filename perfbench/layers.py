"""Per-layer metrics of a traced run.

A traced run alternates untraced and traced rounds of one workload.
Layer busy times, call counts and ratios come from the traced rounds'
spans (per traced round); tails and campaign accounting come from the
untraced rounds; a few layers that cannot be wrapped from outside
(runtime contracts, the obs switch, the flight recorder's cost, import
time) are measured by A/B timing of the public toggles.  A layer the
workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List

import inputs
from tracing import layer_summary, self_times
from workloads import CleanPaths, Round, median, split, stream_chunks, tail

#: Modules whose import cost the import layer reports (``-c`` bodies).
IMPORT_PROBES = {
    "import.interpreter_s": "pass",
    "import.repro_s": "import repro",
    "import.repro_core_s": "import repro.core",
    "import.obs_cli_s": "import repro.obs.cli",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def alternate(arms: Dict[str, Callable[[], None]], reps: int) -> Dict[str, float]:
    """Best wall per arm, running the arms in turn ``reps`` times.

    The machine's speed drifts by tens of percent within seconds, so
    an A/B difference is taken between the arms' fastest runs, each arm
    having had the same chances to hit a fast moment.
    """
    walls: Dict[str, List[float]] = {name: [] for name in arms}
    for _ in range(reps):
        for name, fn in arms.items():
            begin = time.perf_counter()
            fn()
            walls[name].append(time.perf_counter() - begin)
    return {name: min(values) for name, values in walls.items()}


def import_probes(env: dict, reps: int = 3) -> Dict[str, float]:
    """``python -c "import X"`` wall, minus a bare interpreter's."""

    def probe(body: str) -> Callable[[], None]:
        return lambda: subprocess.run([sys.executable, "-c", body], env=env, check=True)

    walls = alternate({name: probe(body) for name, body in IMPORT_PROBES.items()}, reps)
    bare = walls["import.interpreter_s"]
    return {
        name: wall if name == "import.interpreter_s" else wall - bare
        for name, wall in walls.items()
    }


def toggle_share(run: Callable[[], None], reps: int = 3) -> Dict[str, float]:
    """Cost of runtime contracts and of obs-on at one stream path."""
    from repro.devtools.contracts import set_contracts_enabled
    from repro.obs import trace as obs_trace
    from repro.obs.events import bus
    from repro.obs.runtime import set_obs_enabled

    def contracts_off():
        previous = set_contracts_enabled(False)
        try:
            run()
        finally:
            set_contracts_enabled(previous)

    def obs_on():
        previous = set_obs_enabled(True)
        try:
            run()
        finally:
            set_obs_enabled(previous)
            obs_trace.reset()
            bus.reset()

    walls = alternate({"default": run, "contracts_off": contracts_off, "obs_on": obs_on}, reps)
    return {
        "contracts.share": _ratio(walls["default"] - walls["contracts_off"], walls["default"]),
        "obs.on_overhead_frac": _ratio(walls["obs_on"] - walls["default"], walls["default"]),
    }


def flags_differ_by_chunking(bench) -> int:
    """Stalls whose low-confidence flag changes when streamed in other chunks.

    The signal is clean, so the flags should not depend on the
    chunking; they do, because the quality monitor misreads this
    traffic (see ``inputs.DIPS_PER_1K``).
    """
    streamed = [path for path in bench.paths if path.startswith("stream_")]
    if not streamed:
        return 0
    other = stream_chunks(split(bench.x, inputs.REFERENCE_CHUNK)).stalls
    return sum(
        mine != theirs.low_confidence
        for path in streamed
        for mine, theirs in zip(bench.flags[path], other)
    )


def extras(bench, reps: int = 5) -> Dict[str, float]:
    """The A/B-timed layers of one workload."""
    name = bench.name
    if name == "cli-cold":
        return import_probes(bench.env(), 2)
    if isinstance(bench, CleanPaths):
        path = bench.paths[-1]
        out = toggle_share(lambda: bench.profile(path, bench.data[path], []), reps)
        out["quality.flags_differ_by_chunking"] = flags_differ_by_chunking(bench)
        return out
    if name == "stream-faulted":
        out = toggle_share(lambda: bench.run(4096, flight=False), reps)

        def both_sizes(flight: bool) -> Callable[[], None]:
            return lambda: [bench.run(size, flight) for size in inputs.FAULTED_CHUNKS]

        walls = alternate({flight: both_sizes(flight) for flight in (False, True)}, 3)
        out["flight.overhead_frac"] = _ratio(walls[True] - walls[False], walls[False])
        return out
    return {}


def per_layer(
    bench,
    names: List[str],
    untraced: List[Round],
    traced: List[Round],
    spans: List[dict],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """The metrics ``names`` for one traced run (0 where not exercised)."""
    rounds = max(1, len(traced))
    layers = layer_summary(spans)
    idle = {"self_s": 0.0, "calls": 0, "attrs": {}}

    def busy(layer: str) -> float:
        return layers.get(layer, idle)["self_s"] / rounds

    def calls(layer: str) -> float:
        return layers.get(layer, idle)["calls"] / rounds

    def attr(layer: str, key: str) -> float:
        return layers.get(layer, idle)["attrs"].get(key, 0.0)

    out = {name: 0.0 for name in names}
    out.update(extra)
    sim_s = busy("sim") * rounds
    out.update({
        "sim.busy_s": busy("sim"),
        "sim.trace_samples": attr("sim", "trace_samples") / rounds,
        "sim.samples_per_s": _ratio(attr("sim", "trace_samples"), sim_s),
        "emsignal.busy_s": busy("emsignal"),
        "engine.normalize.busy_s": busy("engine.normalize"),
        "engine.normalize.calls": calls("engine.normalize"),
        "engine.ring.copied_per_pushed": _ratio(
            attr("engine.normalize", "copied"), attr("engine.normalize", "pushed")
        ),
        "engine.detect.busy_s": busy("engine.detect"),
        "engine.detect.calls": calls("engine.detect"),
        "engine.detect.stalls": attr("engine.detect", "stalls") / rounds,
        "streaming.self_s": busy("streaming"),
        "streaming.chunks": calls("streaming"),
        "streaming.self_per_chunk_us": _ratio(busy("streaming"), calls("streaming")) * 1e6,
        "quality.observe.busy_s": busy("quality.observe"),
        "quality.flag.busy_s": busy("quality.flag"),
        "quality.flag.calls": calls("quality.flag"),
        "quality.intervals": attr("report.finish", "intervals") / rounds,
        "quality.lowconf_per_flagged": _ratio(
            attr("quality.flag", "low_confidence"), calls("quality.flag") * rounds
        ),
        "report.finish_s": busy("report.finish"),
        "io.report_encode_s": busy("io.report_encode"),
        "io.report_bytes": attr("io.report_encode", "bytes") / rounds,
        "io.load_capture_s": busy("io.load_capture"),
        "io.save_capture_s": busy("io.save_capture"),
        "flight.evidence_s": busy("flight.evidence"),
    })
    if bench.name == "stream-faulted":
        out["flight.events"] = median(r.extra["flight_events"] for r in traced)
        out["flight.dropped"] = median(r.extra["flight_dropped"] for r in traced)
        out["quality.unseen_gain_step_stalls"] = sum(bench.unseen_steps.values())
    if bench.name == "campaign":
        workers = inputs.CAMPAIGN_WORKERS
        out.update({
            "campaign.supervisor_overhead_s": median(
                r.timed_s - r.extra["run_wall_sum"] / workers for r in untraced
            ),
            "campaign.attempts_per_run": _ratio(
                sum(r.extra["attempts"] for r in untraced), sum(r.extra["runs"] for r in untraced)
            ),
            "campaign.requeues": statistics.mean(r.extra["requeues"] for r in untraced),
            "campaign.run_tail_s": tail([x for r in untraced for x in r.extra["run_walls"]])[0],
            "ledger.appends": statistics.mean(r.extra["ledger_appends"] for r in untraced),
            "ledger.bytes": statistics.mean(r.extra["ledger_bytes"] for r in untraced),
        })
    if bench.name == "cli-cold":
        for op in ("cli_capture", "cli_profile"):
            value, n = tail([x for r in untraced for x in r.walls[op]])
            out[f"{op}.tail_s"], out[f"{op}.tail_n"] = value, n
    chunks_4096 = [
        x for r in untraced for path in ("stream_4096", "faulted_4096")
        for x in r.latencies.get(path, [])
    ]
    if chunks_4096:
        value, n = tail(chunks_4096)
        out["stream_4096.tail_chunk_us"], out["stream_4096.tail_n"] = value * 1e6, n

    untraced_s = median(r.timed_s for r in untraced)
    traced_s = median(r.timed_s for r in traced)
    # Span times are clock walls summed over the traced rounds, so
    # coverage compares their per-round mean with the rounds' mean
    # clock wall, not with walls at reference speed.
    untraced_raw = statistics.mean(r.raw_s for r in untraced)
    traced_raw = statistics.mean(r.raw_s for r in traced)
    # Layer self time inside the benchmark process's ops; spans of
    # forked campaign workers run concurrently with the wall, so they
    # are left out of the coverage.
    attributed = sum(
        entry["self_s"] for name, entry in layers.items() if not name.startswith("op.")
    )
    layer_s = (attributed - _worker_self(spans)) / rounds
    out["trace.overhead_frac"] = _ratio(traced_s - untraced_s, untraced_s)
    out["trace.unattributed_frac"] = 1.0 - _ratio(layer_s, traced_raw)
    out["trace.self_over_untraced"] = _ratio(layer_s, untraced_raw)
    out["trace.spans"] = len(spans) / rounds
    return out


def _worker_self(spans: List[dict]) -> float:
    """Self seconds recorded in forked workers (concurrent with the wall)."""
    own = self_times(spans)
    return sum(own[s["id"]] for s in spans if s["worker"])
