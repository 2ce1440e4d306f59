"""One run of one workload in a fresh interpreter; ``run.py`` drives it.

    PYTHONPATH=src python3 perfbench/iteration.py --workload llc-figs \\
        --seed 1 --mode plain --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"

A fresh process per run is how the benchmark starts every run the way a
user's invocation starts: no calibration memo, result cache or imported
state survives from an earlier run.  Modes:

* ``plain``     -- the timed run: telemetry and tracing off;
* ``telemetry`` -- the same run with executor telemetry attached;
* ``profile``   -- a serial run under cProfile, on machines with
  observability enabled so every transmission carries its SoC counters.

The last line of standard output is one JSON object, with the run's
provenance stamp, taken after the timing ends.
"""

import time  # noqa: I001 - first, so set-up time includes every import

import argparse
import cProfile
import json
import os
import platform
import pstats
import resource
import sys


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any worker it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("plain", "telemetry", "profile"), required=True
    )
    parser.add_argument("--serial", action="store_true",
                        help="run on workers=0 whatever the workload's worker count")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    args = parser.parse_args()

    import workloads
    from repro.config import ObservabilityConfig, kaby_lake_model
    from repro.exec.fingerprint import code_fingerprint, engine_knobs
    from repro.obs.telemetry import SweepTelemetry

    soc_config = kaby_lake_model(scale=16)
    if args.mode == "profile":
        soc_config = soc_config.replace(obs=ObservabilityConfig(enabled=True))
    serial = args.serial or args.mode == "profile"
    workers = 0 if serial else workloads.WORKERS[args.workload]
    telemetry = SweepTelemetry() if args.mode == "telemetry" else None
    executor = workloads.RecordingExecutor(
        workers=workers, telemetry=False if telemetry is None else telemetry
    )
    start = time.monotonic()
    doc: dict = {"setup_s": start - args.spawned_at, "workers": workers}

    cpu_start = _cpu_s()
    profiler = cProfile.Profile() if args.mode == "profile" else None
    if profiler is not None:
        profiler.enable()
    out = workloads.run_workload(args.workload, args.seed, executor, soc_config)
    if profiler is not None:
        profiler.disable()
    doc["wall_s"] = time.monotonic() - start
    doc["cpu_s"] = _cpu_s() - cpu_start
    doc["peak_rss_mb"] = _peak_rss_mb()

    doc["digest"] = workloads.digest(out, executor)
    doc["checks"] = out.checks
    doc.update(workloads.trial_counts(out, executor))
    doc["figure_wall_s"] = out.figure_wall_s
    doc["exec_run_s"] = sum(report.wall_s for report in executor.reports)
    doc["batched_lanes"] = executor.batched_lanes
    doc["frame_attempts"] = workloads.frame_attempts(executor)
    doc["events_executed"] = sum(r.sim["events_executed"] for r in executor.reports)
    doc["engines_created"] = sum(r.sim["engines_created"] for r in executor.reports)
    doc["engine_mode"] = engine_knobs()
    if telemetry is not None:
        trial_wall = telemetry.registry.histogram("sweep.trial_wall_s").stats
        doc["trial_s"] = trial_wall.mean * trial_wall.count
    if profiler is not None:
        import layers

        doc["layers"] = layers.layer_metrics(pstats.Stats(profiler))
        doc["counters"] = workloads.modelled_counters(executor)
    import numpy

    doc["provenance"] = {
        "code_fingerprint": code_fingerprint(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
    }
    # Flush now: the report must reach the benchmark even if the
    # interpreter then hangs at exit.
    print(json.dumps(doc, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
