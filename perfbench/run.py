"""Paper-artifact regeneration benchmark: one workload, timed or traced.

    python3 perfbench/run.py --workload llc-figs --seed 1 --seconds 35 --trace 0

Run from the repository root.  ``--trace 0`` repeats fresh runs of the
workload on ``--seed`` for ``--seconds`` and reports the end-to-end
metrics (medians); ``--trace 1`` makes untraced, telemetry and cProfile
runs and reports the per-layer metrics.  Metric names and units come from ``BENCHMARK.json``;
``README.md`` beside this file explains the workloads and every metric.
The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import threading
import time
import typing

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
WORKLOADS = ("llc-figs", "contention-figs", "paper-parallel")
#: Timed runs per invocation at least, however long one run takes.
MIN_RUNS = 2
#: A run must end within 180 s; no fresh run starts that would pass this.
BUDGET_S = 170.0
#: Seconds a run may take to exit after printing its report.
EXIT_GRACE_S = 10.0
#: Figure functions the workloads time from outside.
FIGURES = ("fig07", "fig08", "fig09", "fig10", "headline", "mitigations")


class RunFailed(Exception):
    pass


def child_env() -> dict:
    """The invoking environment without ``REPRO_*`` knobs: a default run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(
    workload: str, seed: int, mode: str, timeout: float, serial: bool = False
) -> typing.Tuple[dict, bool]:
    """Run ``iteration.py`` in a fresh interpreter.

    Returns its JSON report and whether the interpreter hung after
    printing it: a run that does not exit within ``EXIT_GRACE_S`` of its
    report is killed, and its report still counts.
    """
    argv = [
        sys.executable, str(HERE / "iteration.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode,
    ]
    if serial:
        argv.append("--serial")
    argv += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True,
    )
    lines: typing.List[str] = []

    def read() -> None:
        for line in typing.cast(typing.IO[str], proc.stdout):
            lines.append(line)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    deadline = time.monotonic() + timeout
    reported_at = None
    hung = False
    try:
        while proc.poll() is None:
            now = time.monotonic()
            if reported_at is None and any(line.startswith("{") for line in lines):
                reported_at = now
            if reported_at is not None and now - reported_at > EXIT_GRACE_S:
                hung = True
                break
            if now > deadline:
                break
            time.sleep(0.05)
    finally:
        # The child's session also holds its pool workers: leave none behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        reader.join()
    reports = [line for line in lines if line.startswith("{")]
    if not reports or (proc.returncode != 0 and not hung):
        tail = "".join(lines)[-2000:].strip()
        raise RunFailed(f"{mode} run of {workload} failed ({proc.returncode}): {tail}")
    try:
        return json.loads(reports[-1]), hung
    except json.JSONDecodeError as exc:
        raise RunFailed(f"{mode} run of {workload} printed no report: {exc}") from exc


class Session:
    """The runs of one invocation, all on one seed, and what they agree on."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.runs: list = []
        self.problems: list = []
        self.lost_runs = 0
        self.hung_at_exit = 0

    def remaining(self) -> float:
        return BUDGET_S - (time.monotonic() - self.start)

    def spawn(self, mode: str, serial: bool = False) -> dict:
        try:
            doc, hung = spawn(self.workload, self.seed, mode, self.remaining(), serial)
        except RunFailed as exc:
            self.lost_runs += 1
            self.problems.append(str(exc))
            raise
        if hung:
            # The outputs are complete and checked as usual; the hang is the
            # program's, so it is reported (a problem line, the provenance
            # and the traced exec.hung_at_exit) rather than counted as a
            # failed trial.
            self.hung_at_exit += 1
            self.problems.append(
                f"{mode} run printed its report but its "
                f"interpreter did not exit within {EXIT_GRACE_S:.0f}s; killed"
            )
        self.runs.append(doc)
        return doc

    def verdict(self, expected: dict) -> tuple:
        """``(correct, attempted, failed)`` over every run so far.

        Failures are failed trials, plus one per failed output check, plus
        every trial of a run whose digest disagrees with the one stored for
        the seed or with an earlier run.  A run that crashed outright
        counts one.
        """
        attempted = self.lost_runs + sum(run["trials"] for run in self.runs)
        failed = self.lost_runs
        want = expected.get(str(self.seed))
        for run in self.runs:
            failed += run["failures"]
            for name, ok in run["checks"].items():
                if not ok:
                    failed += 1
                    self.problems.append(f"check failed: {name}")
            want = want or run["digest"]
            if run["digest"] != want:
                failed += run["trials"]
                self.problems.append(f"digest {run['digest'][:16]} != {want[:16]}")
        for key in ("events_executed", "engines_created"):
            # Runs on one worker count must do identical work.
            seen: dict = {}
            for run in self.runs:
                seen.setdefault(run["workers"], set()).add(run[key])
            for workers, values in seen.items():
                if len(values) > 1:
                    failed += 1
                    self.problems.append(
                        f"{key} differs between runs at workers={workers}: "
                        f"{sorted(values)}"
                    )
        return failed == 0, max(1, attempted), failed


def timed_metrics(session: Session, seconds: int) -> dict:
    """End-to-end metrics: medians over fresh runs for ``seconds``.

    Every run takes the same input, so however many runs fit, the medians
    are over one input, and the runs check each other's outputs.
    """
    measure_start = time.monotonic()
    attempts = 0
    while True:
        try:
            session.spawn("plain")
        except RunFailed:
            pass  # counted as a failure; the other runs still measure
        attempts += 1
        elapsed = time.monotonic() - measure_start
        per_run = elapsed / attempts
        if per_run > session.remaining():
            break
        if attempts >= MIN_RUNS and elapsed + per_run > seconds:
            break
    runs = session.runs
    if not runs:
        raise RunFailed("no run of the workload completed")
    return {
        "wall_s": statistics.median(run["wall_s"] for run in runs),
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        "cpu_s": statistics.median(run["cpu_s"] for run in runs),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }


def traced_metrics(session: Session) -> dict:
    """Per-layer metrics from a telemetry run and a cProfile run.

    A serial executor's telemetry costs two small events per trial, so on
    the serial workloads the telemetry run is also the untraced baseline.
    On the pool workload an untraced run at the same worker count and one
    at ``workers=0`` give the telemetry and tracing overheads.
    """
    tele = session.spawn("telemetry")
    if tele["workers"]:
        plain = session.spawn("plain")
        serial = session.spawn("plain", serial=True)
        telemetry_overhead = tele["wall_s"] / plain["wall_s"]
    else:
        plain = serial = tele
        telemetry_overhead = 0.0  # defined on the pool workload only
    prof = session.spawn("profile")
    metrics = {
        f"analysis.{name}.wall_s": plain["figure_wall_s"].get(name, 0.0)
        for name in FIGURES
    }
    workers = max(1, tele["workers"])
    metrics.update({
        "exec.run_s": tele["exec_run_s"],
        "exec.trial_s": tele["trial_s"],
        "exec.idle_worker_s": workers * tele["exec_run_s"] - tele["trial_s"],
        "exec.trials": tele["trials"],
        "exec.attempts": tele["attempts"],
        "exec.failures": tele["failures"],
        "exec.batched_share": tele["batched_lanes"] / max(1, tele["trials"]),
        "core.contention_channel.frame_attempts": prof["frame_attempts"],
        "sim.events_executed": tele["events_executed"],
        "sim.engines_created": tele["engines_created"],
        "sim.serial.events_executed": prof["events_executed"],
        "sim.serial.engines_created": prof["engines_created"],
        "sim.host_ns_per_event": serial["wall_s"] * 1e9 / max(1, serial["events_executed"]),
        "obs.trace_overhead": prof["wall_s"] / serial["wall_s"],
        "obs.telemetry_overhead": telemetry_overhead,
        "exec.hung_at_exit": session.hung_at_exit,
    })
    metrics.update(prof["layers"])
    counters = dict(prof["counters"])
    metrics["sim.simulated_s"] = counters.pop("sim.simulated_fs") / 1e15
    metrics.update(counters)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Let a termination unwind through spawn(), which kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # Compile once, so no run pays for writing bytecode.
    build = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if build.returncode != 0:
        print(build.stdout + build.stderr, file=sys.stderr)
        return 1
    expected = json.loads((HERE / "expected.json").read_text())

    session = Session(args.workload, args.seed)
    try:
        if args.trace:
            values = traced_metrics(session)
        else:
            values = timed_metrics(session, args.seconds)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct, attempted, failed = session.verdict(expected.get(args.workload, {}))

    provenance = dict(session.runs[0]["provenance"])
    provenance.update({
        "workload": args.workload,
        "seed": args.seed,
        "runs": [
            {key: run[key] for key in ("workers", "engine_mode", "wall_s", "digest")}
            for run in session.runs
        ],
        "invoking_repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "hung_at_exit": session.hung_at_exit,
    })
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for problem in session.problems:
        print(f"problem: {problem}")
    print(f"{'trial_failure_rate':40s} {failed / attempted:14.6g} ratio")
    metrics = {}
    for entry in wanted:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:40s} {value:14.6g} {entry['unit']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
