"""EMPROF benchmark runner.

Usage::

    python3 perfbench/run.py --workload <name|all> --seed <n> \\
        --seconds <s> --trace <0|1>

``--workload all`` runs every workload of ``BENCHMARK.json`` in a
process of its own, so that each peak RSS and set-up time is that
workload's, and prints their metrics as ``<workload>/<metric>``.

Run from the root of a checkout: the program is imported from
``src/`` and every file the benchmark writes stays under
``.perfbench_work/`` (removed at exit) and ``.perfbench_out/`` (span
dumps of traced runs).

``--trace 0`` measures the workload untraced for ``--seconds`` and
reports the end-to-end metrics, the times of timed ops at the
reference speed of ``speed.py`` (so that runs taken while a shared
machine is slow or fast agree) and ``setup_s`` as the clock read it
(the reference kernel does not track import time); ``--trace 1``
alternates untraced and traced rounds, then A/B-times the layers that
cannot be wrapped, and reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only if
every output check passed.
"""

from __future__ import annotations

import time

# Set-up time is counted from here, before any other import.
_BEGIN = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: Fewest measured rounds (untraced run) or untraced+traced round
#: pairs (traced run), however short ``--seconds`` is.
MIN_ROUNDS = 3
MIN_PAIRS = 2



def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {...}}`` from BENCHMARK.json."""
    spec = benchmark_spec()
    return {
        group: {metric["name"]: metric["unit"] for metric in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def select(values: dict, declared: dict) -> dict:
    """The declared metrics, in declared order, with their units."""
    unknown = set(values) - set(declared)
    missing = set(declared) - set(values)
    if unknown or missing:
        raise KeyError(f"metrics not declared: {sorted(unknown)}; not measured: {sorted(missing)}")
    return {name: (values[name], unit) for name, unit in declared.items()}


def stamp() -> dict:
    import numpy
    import scipy

    from repro.devtools.contracts import contracts_enabled
    from repro.obs.runtime import obs_enabled

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "obs": obs_enabled(),
        "contracts": contracts_enabled(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_workload(name: str, args, import_s: float, tracer, declared: dict) -> dict:
    import layers
    from workloads import WORKLOADS, median

    bench = WORKLOADS[name](args.seed, WORK / f"{name}-{os.getpid()}", ROOT, tracer)
    first_span = len(tracer.spans)
    try:
        setups = []
        for _ in range(SETUP_REPS):
            begin = time.perf_counter()
            bench.setup()
            setups.append(time.perf_counter() - begin)
        setup_s = import_s + median(setups)

        untraced, traced = [], []
        # A traced run spends half its time on round pairs and the rest
        # on A/B timing (layers.extras), so it lasts about as long as an
        # untraced one.
        deadline = time.perf_counter() + args.seconds / (2 if args.trace else 1)
        least = MIN_PAIRS if args.trace else MIN_ROUNDS
        index = 0
        while time.perf_counter() < deadline or len(untraced) < least:
            untraced.append(bench.round(index))
            index += 1
            if args.trace:
                with tracer.installed(index):
                    traced.append(bench.round(index))
                index += 1
        rounds = untraced + traced
        result = {
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "failures": [f for r in rounds for f in r.failures],
        }
        if args.trace:
            values = layers.per_layer(
                bench, list(declared["per_layer"]), untraced, traced,
                tracer.spans[first_span:], layers.extras(bench),
            )
            result["metrics"] = select(values, declared["per_layer"])
            result["detail"] = {}
        else:
            values = dict(bench.metrics(untraced), setup_s=setup_s, peak_rss_mb=peak_rss_mb())
            result["metrics"] = select(values, declared["end_to_end"])
            attempted = result["attempted"]
            result["detail"] = dict(
                bench.detail(untraced),
                setup_s=(setup_s, "s"),
                failed_frac=(result["failed"] / attempted if attempted else 0.0, "ratio"),
            )
        result["rounds"] = len(untraced)
        return result
    finally:
        bench.close()
        shutil.rmtree(bench.work, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in a child process; their metrics under one JSON line."""
    metrics, attempted, failed, ok = {}, 0, 0, True
    for workload in benchmark_spec()["workloads"]:
        name = workload["name"]
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit(f"{name}: no result (exit {child.returncode})")
        print("\n".join(lines[:-1]))
        ok = ok and child.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{key}": value for key, value in result["metrics"].items()})
    print(json.dumps(
        {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    source = ROOT / "src" / "repro"
    if not source.is_dir():
        sys.exit(f"no program to measure: {source} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro  # (timed: part of set-up)

    if Path(repro.__file__).resolve().parent != source.resolve():
        sys.exit(f"imported {repro.__file__}, not the checkout's {source}")

    import_s = time.perf_counter() - _BEGIN
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    env = stamp()
    if env["obs"] or not env["contracts"]:
        # EMPROF_OBS / EMPROF_CONTRACTS leaked in from the environment:
        # timing now would measure a different program.
        sys.exit(f"refusing to time with obs on or contracts off: {env}")
    print("environment", json.dumps(env, sort_keys=True))

    declared = declared_metrics()
    tracer = tracing.Tracer()
    try:
        result = run_workload(args.workload, args, import_s, tracer, declared)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if args.trace:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")

    print(f"== {args.workload}: {result['rounds']} rounds, {result['attempted']} ops, "
          f"{result['failed']} failed")
    for failure in result["failures"][:20]:
        print(f"   FAILED {failure}")
    for label, group in (("metric", result["metrics"]), ("detail", result["detail"])):
        for key, (value, unit) in group.items():
            print(f"   {label:6s} {key:34s} {value:14.6f} {unit}")
    metrics = {
        key: {"value": value, "unit": unit} for key, (value, unit) in result["metrics"].items()
    }
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
