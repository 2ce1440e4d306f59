"""The benchmark's three workloads, their output checks and digest.

Each workload drives the public figure and channel APIs through one
:class:`RecordingExecutor` that the benchmark owns, so every trial outcome
(per-trial sent/received bits, calibrations, failures) is visible here
without touching the program's internals.  See ``README.md`` for why each
workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import typing

from repro.analysis import aggregate_results, figures
from repro.config import SoCConfig
from repro.core.channel import ChannelDirection, ChannelResult
from repro.core.contention_channel import (
    CalibrationResult,
    ContentionChannel,
    ContentionChannelConfig,
)
from repro.core.llc_channel import EvictionStrategy, LLCChannel, LLCChannelConfig
from repro.exec import (
    CRASH,
    DEAD,
    TIMEOUT,
    ExecutionReport,
    TrialExecutor,
    TrialSpec,
    fan_out_seeds,
)
from repro.mitigations import llc_way_partition, ring_tdm, timer_fuzzing

#: Worker processes per workload; ``paper-parallel`` uses the 2-core
#: host's ``nproc`` so the pool, not the figure code, is what it adds.
WORKERS = {"llc-figs": 0, "contention-figs": 0, "paper-parallel": 2}

#: Payload sizes, scaled down from the figure benches so one run takes
#: 9-16 s on a 2-core host.  The full-L3-clear cell of Fig. 7 never
#: sends fewer than 16 bits and is most of ``llc-figs``.
LLC_FIG_BITS = 16
CONTENTION_FIG_BITS = 4
#: Fig. 10 transmits on the run's seed and this many more derived from
#: it.  On one seed of 16 bits its event count varies with the seed by 19%
#: (IQR/median over seeds 1-10); on three seeds of 4 bits, by 7%.  The
#: first is the run's seed, so Fig. 9 and Fig. 10 share calibrations.
CONTENTION_FIG_EXTRA_SEEDS = 2
HEADLINE_BITS = 64
CONTENTION_ARM_BITS = 48
#: An LLC arm slower than this is dead: its simulated time is capped at
#: what its payload takes at this rate.  Under timer fuzzing the channel
#: is heavy-tailed -- 1.2-1.8 kb/s, 98-139 s of host time for 64 bits, on
#: two of about twenty seeds tried.  Unmitigated arms run at 130-150 kb/s
#: (58 kb/s the slowest seen), so the cap only ends transmissions that
#: the figure bench's "under a fifth of the clean bandwidth" rule already
#: counts as mitigated.
LLC_ARM_FLOOR_BPS = 20_000
#: A mitigated arm must leave at least this bit error rate, or no channel.
MITIGATED_BER = 0.30

MITIGATIONS = {
    "way_partition": llc_way_partition,
    "ring_tdm": ring_tdm,
    "timer_fuzzing": timer_fuzzing,
}


class RecordingExecutor(TrialExecutor):
    """A :class:`TrialExecutor` that keeps every report it produced."""

    def __init__(self, **kwargs: typing.Any) -> None:
        super().__init__(**kwargs)
        self.reports: typing.List[ExecutionReport] = []
        self.batched_lanes = 0

    def run(self, specs: typing.Sequence[TrialSpec]) -> ExecutionReport:
        self.last_batch_plans = []
        report = super().run(specs)
        self.reports.append(report)
        self.batched_lanes += sum(
            int(typing.cast(int, plan.get("lanes", 0)))
            for plan in self.last_batch_plans
        )
        return report


# ----------------------------------------------------------------------
# Mitigation arms (module-level so they pickle into pool workers; the
# hooks are closures, so trials carry the hook's name and build it here)


def _hook(params: typing.Dict[str, object]):
    name = params.get("mitigation")
    return None if name is None else MITIGATIONS[typing.cast(str, name)]()


def llc_arm(params: typing.Dict[str, object], seed: int) -> ChannelResult:
    n_bits = typing.cast(int, params["n_bits"])
    channel = LLCChannel(
        LLCChannelConfig(
            direction=typing.cast(ChannelDirection, params["direction"]),
            mitigation=_hook(params),
            max_sim_seconds=n_bits / LLC_ARM_FLOOR_BPS,
        ),
        soc_config=typing.cast(SoCConfig, params["soc_config"]),
    )
    return channel.transmit(n_bits=n_bits, seed=seed)


def contention_arm(params: typing.Dict[str, object], seed: int) -> ChannelResult:
    channel = ContentionChannel(
        ContentionChannelConfig(mitigation=_hook(params)),
        soc_config=typing.cast(SoCConfig, params["soc_config"]),
    )
    calibration = channel.calibrate(seed=seed)
    return channel.transmit(
        n_bits=CONTENTION_ARM_BITS, seed=seed, calibration=calibration
    )


G2C, C2G = ChannelDirection.GPU_TO_CPU, ChannelDirection.CPU_TO_GPU

#: The six §VI arms of ``benchmarks/bench_mitigations.py``, in dispatch
#: order, each with its number of transmissions: the run's seed and seeds
#: derived from it.  The two contention arms go first so each lands on
#: its own pool worker: the calibration memo is per process, and a
#: schedule-dependent placement would make the engine count vary from run
#: to run.  The mitigated LLC arms send enough bits in all for the BER
#: check to have power (see ``dead_or_ber_over_30``): 64 under timer
#: fuzzing, whose BER is 25-47%, and 256 under way partitioning, which on
#: some seeds leaves a channel near 30%.  Their run time varies most with
#: the seed (one 256-bit way-partitioned transmission took 1.8 or 3.1-3.5
#: ms of simulated time on seeds 1-10), so they send in parts, on several
#: seeds.
ARMS: typing.List[typing.Tuple[str, typing.Callable, typing.Dict[str, object], int]] = [
    ("contention:none", contention_arm, {}, 1),
    ("contention:ring_tdm", contention_arm, {"mitigation": "ring_tdm"}, 1),
    ("llc_c2g:timer_fuzzing", llc_arm,
     {"direction": C2G, "n_bits": 32, "mitigation": "timer_fuzzing"}, 2),
    ("llc_c2g:none", llc_arm, {"direction": C2G, "n_bits": 64}, 1),
    ("llc_g2c:none", llc_arm, {"direction": G2C, "n_bits": 64}, 1),
    ("llc_g2c:way_partition", llc_arm,
     {"direction": G2C, "n_bits": 64, "mitigation": "way_partition"}, 4),
]


# ----------------------------------------------------------------------
# Workloads


class Outcome:
    """What one workload run produced, for checks, digest and timing."""

    def __init__(self) -> None:
        self.rows: typing.Dict[str, typing.List[typing.Tuple[object, ...]]] = {}
        self.figure_wall_s: typing.Dict[str, float] = {}
        self.checks: typing.Dict[str, bool] = {}
        #: Submission indices (report, outcome) allowed to die: the
        #: mitigated arms, whose death is the expected result.
        self.may_die: typing.Set[typing.Tuple[int, int]] = set()

    def timed(self, name: str, fn: typing.Callable[[], typing.Any]):
        start = time.perf_counter()
        value = fn()
        self.figure_wall_s[name] = time.perf_counter() - start
        return value


def _llc_figs(seed: int, executor: RecordingExecutor, soc: SoCConfig, out: Outcome) -> None:
    fig7 = out.timed("fig07", lambda: figures.fig7_llc_strategies(
        n_bits=LLC_FIG_BITS, seeds=(seed,), directions=(G2C,),
        soc_config=soc, executor=executor,
    ))
    # Fig. 8 takes the other direction, so both LLC directions run.
    fig8 = out.timed("fig08", lambda: figures.fig8_llc_sets(
        n_bits=LLC_FIG_BITS, seeds=(seed,), directions=(C2G,), soc_config=soc,
        executor=executor,
    ))
    out.rows["fig07"] = fig7.rows()
    out.rows["fig08"] = fig8.rows()
    kbps = {p.strategy: p.aggregate.bandwidth_kbps for p in fig7.points}
    precise = kbps[EvictionStrategy.PRECISE_L3]
    llc_only = kbps[EvictionStrategy.LLC_ONLY]
    full = kbps[EvictionStrategy.FULL_L3_CLEAR]
    out.checks["fig07.strategy_order"] = precise > llc_only > full
    out.checks["fig07.precise_over_8x_full_clear"] = precise > 8 * full


def _contention_figs(seed: int, executor: RecordingExecutor, soc: SoCConfig, out: Outcome) -> None:
    fig9 = out.timed("fig09", lambda: figures.fig9_iteration_factor(
        seed=seed, soc_config=soc, executor=executor,
    ))
    fig10 = out.timed("fig10", lambda: figures.fig10_contention_sweep(
        n_bits=CONTENTION_FIG_BITS,
        seeds=(seed, *fan_out_seeds(seed, CONTENTION_FIG_EXTRA_SEEDS, "fig10")),
        soc_config=soc,
        executor=executor,
    ))
    out.rows["fig09"] = fig9.rows()
    out.rows["fig10"] = fig10.rows()
    factors = [p.iteration_factor for p in fig9.points]
    out.checks["fig09.factor_falls_with_buffer"] = factors == sorted(
        factors, reverse=True
    )


def _paper_parallel(seed: int, executor: RecordingExecutor, soc: SoCConfig, out: Outcome) -> None:
    head = out.timed("headline", lambda: figures.headline(
        n_bits=HEADLINE_BITS, seeds=(seed,), soc_config=soc, executor=executor,
    ))
    out.rows["headline"] = head.rows()
    out.checks["headline.contention_faster_than_llc"] = (
        head.contention.bandwidth_kbps > head.llc.bandwidth_kbps
    )
    specs: typing.List[TrialSpec] = []
    spans = []
    for label, fn, params, n_seeds in ARMS:
        seeds = (seed, *fan_out_seeds(seed, n_seeds - 1, label))
        spans.append(range(len(specs), len(specs) + n_seeds))
        specs.extend(
            TrialSpec(fn=fn, params={**params, "soc_config": soc}, seed=arm_seed)
            for arm_seed in seeds
        )
    report = out.timed("mitigations", lambda: executor.run(specs))
    report_index = len(executor.reports) - 1
    rows = []
    for (label, _, params, _), span in zip(ARMS, spans):
        outcomes = [report.outcomes[index] for index in span]
        if params.get("mitigation") is not None:
            out.may_die.update((report_index, index) for index in span)
            out.checks[f"mitigations.{label}.dead_or_ber_over_30"] = (
                dead_or_ber_over_30(outcomes)
            )
        kinds = "+".join(sorted({outcome.kind for outcome in outcomes}))
        live = [outcome.result for outcome in outcomes if outcome.ok]
        if live:
            pooled = aggregate_results(live)
            rows.append((label, kinds, round(pooled.bandwidth_kbps, 1),
                         round(pooled.error_percent, 2)))
        else:
            rows.append((label, kinds, 0.0, 0.0))
    out.rows["mitigations"] = rows


def dead_or_ber_over_30(outcomes: typing.Sequence[typing.Any]) -> bool:
    """A mitigated arm works: its channel died, or its BER is above 30%.

    The BER is pooled over the transmissions that did not die, all of
    one payload size.  It is a sample of their bits, so the arm fails
    only when it is below 30% by more than 3.09 standard errors (one-sided,
    p < 0.001): under 9.6% BER at 48 bits, 12.3% at 64 and 21.1% at 256.
    On some seeds way partitioning leaves a ~70 kb/s channel whose BER is
    30% itself (29.3-30.9% at 64-256 bits on seeds 1229293656 and
    1269706342), and timer fuzzing's BER spans 25-47%: a bare 30% cut
    would fail them at random.
    """
    live = [outcome for outcome in outcomes if outcome.kind != DEAD]
    if not all(outcome.ok for outcome in live):
        return False
    if not live:
        return True
    results = [outcome.result for outcome in live]
    n_bits = sum(len(result.sent) for result in results)
    error_rate = aggregate_results(results).error_percent / 100
    standard_error = math.sqrt(MITIGATED_BER * (1 - MITIGATED_BER) / n_bits)
    return error_rate > MITIGATED_BER - 3.09 * standard_error


WORKLOADS: typing.Dict[str, typing.Callable[..., None]] = {
    "llc-figs": _llc_figs,
    "contention-figs": _contention_figs,
    "paper-parallel": _paper_parallel,
}


def run_workload(
    name: str, seed: int, executor: RecordingExecutor, soc_config: SoCConfig
) -> Outcome:
    """Run one workload; a figure that raises leaves a failed check."""
    out = Outcome()
    try:
        WORKLOADS[name](seed, executor, soc_config, out)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        out.checks[f"completed ({type(exc).__name__}: {exc})"] = False
    return out


# ----------------------------------------------------------------------
# Results: digest, failures, counts


def _trial_record(outcome: typing.Any) -> typing.List[object]:
    result = outcome.result
    if isinstance(result, ChannelResult):
        return [outcome.kind, result.sent, result.received, result.elapsed_fs]
    if isinstance(result, CalibrationResult):
        return [
            outcome.kind, result.iteration_factor, result.gpu_pass_fs,
            result.cpu_group_fs, result.slot_fs,
        ]
    return [outcome.kind]


def digest(out: Outcome, executor: RecordingExecutor) -> str:
    """SHA-256 of the figure rows and every trial's outputs, in order."""
    doc = {
        "rows": {name: [list(row) for row in rows] for name, rows in sorted(out.rows.items())},
        "trials": [
            [_trial_record(outcome) for outcome in report.outcomes]
            for report in executor.reports
        ],
    }
    text = json.dumps(doc, sort_keys=True, ensure_ascii=True, default=str)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def trial_counts(out: Outcome, executor: RecordingExecutor) -> typing.Dict[str, int]:
    """Trials attempted and failed (crash, timeout, unexpected death)."""
    trials = attempts = failures = 0
    for report_index, report in enumerate(executor.reports):
        for index, outcome in enumerate(report.outcomes):
            trials += 1
            attempts += outcome.attempts
            if outcome.kind in (CRASH, TIMEOUT) or (
                outcome.kind == DEAD and (report_index, index) not in out.may_die
            ):
                failures += 1
    return {"trials": trials, "attempts": attempts, "failures": failures}


def frame_attempts(executor: RecordingExecutor) -> int:
    """Contention frames sent, retries included."""
    return sum(
        int(typing.cast(int, outcome.result.meta.get("frame_attempts", 0)))
        for report in executor.reports
        for outcome in report.outcomes
        if isinstance(outcome.result, ChannelResult)
    )


#: Benchmark metric name -> path into ``SoC.metrics_snapshot()``; ``*``
#: matches every key at that level (every CPU core).
MODELLED_COUNTERS = {
    "soc.llc.hits": ("llc", "hits"),
    "soc.llc.misses": ("llc", "misses"),
    "soc.gpu_l3.hits": ("gpu_l3", "hits"),
    "soc.gpu_l3.misses": ("gpu_l3", "misses"),
    "soc.cpu.l1.misses": ("cpu", "*", "l1", "misses"),
    "soc.cpu.l2.misses": ("cpu", "*", "l2", "misses"),
    "soc.ring.cpu.transfers": ("ring", "cpu", "transfers"),
    "soc.ring.gpu.transfers": ("ring", "gpu", "transfers"),
    "soc.ring.cpu.waited_fs": ("ring", "cpu", "waited_fs"),
    "soc.ring.gpu.waited_fs": ("ring", "gpu", "waited_fs"),
    "soc.dram.accesses": ("dram", "accesses"),
    "soc.dram.row_misses": ("dram", "row_misses"),
    "sim.simulated_fs": ("engine", "now_fs"),
}


def modelled_counters(executor: RecordingExecutor) -> typing.Dict[str, int]:
    """Sum the SoC counters every transmission's ``meta`` snapshot carries.

    Present only when the machines ran with observability enabled; the
    calibration machines return no :class:`ChannelResult` and so carry no
    snapshot.
    """
    totals = {name: 0 for name in MODELLED_COUNTERS}
    for report in executor.reports:
        for outcome in report.outcomes:
            result = outcome.result
            if not isinstance(result, ChannelResult):
                continue
            snapshot = result.meta.get("metrics")
            if not isinstance(snapshot, dict):
                continue
            for name, path in MODELLED_COUNTERS.items():
                totals[name] += sum(_leaves(snapshot, path))
    return totals


def _leaves(tree: object, path: typing.Sequence[str]) -> typing.Iterator[int]:
    if not path:
        if isinstance(tree, (int, float)):
            yield int(tree)
        return
    if not isinstance(tree, dict):
        return
    head, rest = path[0], path[1:]
    children = tree.values() if head == "*" else [tree.get(head)]
    for child in children:
        yield from _leaves(child, rest)
