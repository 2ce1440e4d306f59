"""Lane-group equivalence (DESIGN §11, Layer 3).

On a fast-path machine a parallel load batch (``WorkGroupCtx.parallel_read``,
``CpuProgram.read_batch``) runs as one :class:`~repro.sim.process.LaneGroup`
instead of one child ``Process`` per load joined by ``AllOf``.  The group
is *event-exact*: every stage carries the ``(time, sequence)`` stamp the
fan-out would give it, so the two are indistinguishable to everything
else on the machine.  Each scenario here runs the same ``_issue_after``
loads both ways on identical fast machines, with foreign processes at
tied timestamps, and pins latencies, metrics snapshots,
``events_executed`` and the full trace stream — ``engine.step`` records
included, in order — to each other under every way of driving the
engine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import kaby_lake_model
from repro.cpu.core import CpuProgram
from repro.errors import SimulationError
from repro.gpu.workgroup import WorkGroupCtx
from repro.obs import MemorySink, recorder
from repro.sim import AllOf, LaneGroup, fastpath
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.soc.machine import SoC
from repro.soc.ring import TdmSchedule

DRIVES = ("run", "run_until", "run_until_complete", "step")

#: Foreign traffic: (delay before the access, line index) pairs.
DEFAULT_FOREIGN = ((0, 0), (5_000_000, 1), (476_190, 2), (0, 3), (31_000_000, 4))


def _fan_out(engine, issue_after, issue_fs, paddrs):
    """The staged path's batch: one child process per load, one barrier."""
    return AllOf(
        engine,
        [Process(engine, issue_after(i * issue_fs, paddr))
         for i, paddr in enumerate(paddrs)],
    )


def _scenario(
    lanes,
    drive,
    seed=1,
    *,
    gpu_batch=16,
    cpu_batch=8,
    gpu_issue_fs=None,
    cpu_issue_fs=None,
    foreign=DEFAULT_FOREIGN,
    tdm=False,
    fault=False,
    chunk_fs=7_777_777,
):
    """Run four batches (GPU misses, CPU mixed, GPU mixed, CPU re-reads)
    among foreign traffic and preemption windows; returns everything an
    observer could compare."""
    with fastpath.forced(True):
        sink = MemorySink()
        with recorder.recording(sink):
            soc = SoC(kaby_lake_model(seed=seed, scale=16))
            engine = soc.engine
            if tdm:
                soc.ring.tdm = TdmSchedule(period_fs=40_000_000, cpu_share=0.5)
            if fault:
                rng = soc.rng.stream("lane-test-dram-fault")
                soc.dram.fault_hook = lambda: int(rng.integers(0, 30_000_000))
            ctx = WorkGroupCtx(soc, 0, 0, 256)
            program = CpuProgram(soc, 0)
            neighbour = CpuProgram(soc, 1, name="foreign")
            lines = program.alloc_lines(576)
            # One line per page: all in one L2 set (4 ways), so a CPU batch
            # evicts L2 lines that L1 still holds.
            conflict = lines[64::64]
            foreign_lines = neighbour.alloc_lines(8)
            gpu_issue = ctx._issue_fs if gpu_issue_fs is None else gpu_issue_fs
            cpu_issue = soc.cpu_cycles_fs(2) if cpu_issue_fs is None else cpu_issue_fs

            def gpu_batch_of(paddrs):
                if lanes:
                    return soc.gpu_loads(paddrs, gpu_issue)
                return _fan_out(engine, ctx._issue_after, gpu_issue, paddrs)

            def cpu_batch_of(paddrs):
                if lanes:
                    return soc.cpu_loads(0, paddrs, cpu_issue)
                return _fan_out(engine, program._issue_after, cpu_issue, paddrs)

            counts = []  # events_executed as foreign traffic sees it mid-run

            def traffic(schedule, core, paddrs):
                for delay, index in schedule:
                    yield delay
                    yield from soc.cpu_access(core, paddrs[index % len(paddrs)])
                    counts.append(engine.events_executed)

            def preemptor(delay_fs, duration_fs):
                yield delay_fs
                soc.preempt_core(0, duration_fs)

            def body():
                results = []
                results.append((yield gpu_batch_of(lines[:gpu_batch])))
                for paddr in conflict[:4]:
                    yield from program.read(paddr)
                soc.cpu_caches[0].l1.invalidate(conflict[1])  # an L2-only line
                # The next batch starts inside a preemption window, and a
                # second one opens mid-batch.
                soc.preempt_core(0, 1_500_000)
                engine.process(preemptor(2_000_000, 1_000_000))
                # Tied with the next batch's start, one sequence number ahead.
                engine.process(traffic(foreign, 1, foreign_lines))
                results.append((yield cpu_batch_of(conflict[:cpu_batch])))
                results.append((yield gpu_batch_of(lines[gpu_batch // 2:][:gpu_batch])))
                # Lines the CPU batch evicted from L2 must have left L1 too.
                results.append((yield cpu_batch_of(conflict[:4])))
                return results

            # Foreign traffic stepping on the GPU issue grid, so its wakeups
            # tie with lane stages.
            grid = [(gpu_issue, index) for index in range(4)] + list(foreign)
            engine.process(traffic(grid, 1, foreign_lines))
            main = engine.process(body())
            engine.process(traffic(list(reversed(foreign)), 2, foreign_lines))

            observed = []
            if drive == "run":
                engine.run()
            elif drive == "run_until":
                while not engine.quiescent:
                    engine.run(until_fs=engine.now + chunk_fs)
                    observed.append((engine.now, engine.events_executed, len(sink)))
            elif drive == "run_until_complete":
                with pytest.raises(SimulationError):
                    engine.run_until_complete(main, limit_fs=engine.now + 3 * chunk_fs)
                observed.append((engine.now, engine.events_executed, len(sink)))
                engine.run_until_complete(main)
                observed.append((engine.now, engine.events_executed, len(sink)))
                engine.run()
            else:
                while True:
                    before = (engine.events_executed, len(sink.by_name("engine.step")))
                    if not engine.step():
                        break
                    after = (engine.events_executed, len(sink.by_name("engine.step")))
                    assert after == (before[0] + 1, before[1] + 1)
            return {
                "results": main.value,
                "now": engine.now,
                "events": engine.events_executed,
                "snapshot": soc.metrics_snapshot(),
                "trace": list(sink.events),
                "observed": observed,
                "counts": counts,
            }


def _assert_same(lanes, fan_out):
    assert lanes["results"] == fan_out["results"]
    assert lanes["now"] == fan_out["now"]
    assert lanes["events"] == fan_out["events"]
    assert lanes["snapshot"] == fan_out["snapshot"]
    assert lanes["observed"] == fan_out["observed"]
    assert lanes["counts"] == fan_out["counts"]
    assert lanes["trace"] == fan_out["trace"]


@pytest.mark.parametrize("drive", DRIVES)
def test_lane_group_matches_fan_out(drive):
    fan_out = _scenario(False, drive)
    lanes = _scenario(True, drive)
    _assert_same(lanes, fan_out)
    assert any(name == "engine.step" for name, *_ in lanes["trace"])
    assert any(
        args and args.get("level") == "llc" and not args["hit"]
        for _name, _ts, _track, args in lanes["trace"]
    ), "the batches must reach the LLC"


@pytest.mark.parametrize("drive", DRIVES)
def test_lane_group_matches_fan_out_under_ring_tdm(drive):
    _assert_same(_scenario(True, drive, tdm=True), _scenario(False, drive, tdm=True))


@pytest.mark.parametrize("drive", DRIVES)
def test_lane_group_matches_fan_out_with_dram_fault_hook(drive):
    _assert_same(
        _scenario(True, drive, fault=True), _scenario(False, drive, fault=True)
    )


@settings(max_examples=25, deadline=None)
@given(
    drive=st.sampled_from(DRIVES),
    gpu_batch=st.integers(1, 16),
    cpu_batch=st.integers(1, 8),
    gpu_issue_fs=st.sampled_from([0, 1, 1_818_181, 2_000_000, 9_000_000]),
    cpu_issue_fs=st.sampled_from([0, 476_190, 3_000_000]),
    foreign=st.lists(
        st.tuples(
            st.sampled_from([0, 1, 476_190, 1_818_181, 3_636_362, 20_000_000]),
            st.integers(0, 7),
        ),
        max_size=8,
    ),
    tdm=st.booleans(),
    fault=st.booleans(),
    chunk_fs=st.integers(1_000_000, 50_000_000),
)
def test_lane_group_equivalence_property(
    drive, gpu_batch, cpu_batch, gpu_issue_fs, cpu_issue_fs, foreign, tdm, fault,
    chunk_fs,
):
    kwargs = dict(
        gpu_batch=gpu_batch, cpu_batch=cpu_batch, gpu_issue_fs=gpu_issue_fs,
        cpu_issue_fs=cpu_issue_fs, foreign=tuple(foreign), tdm=tdm, fault=fault,
        chunk_fs=chunk_fs,
    )
    _assert_same(_scenario(True, drive, **kwargs), _scenario(False, drive, **kwargs))


def test_fast_machine_never_fans_out(monkeypatch):
    """Parallel loads on a fast machine build no child process."""

    def forbidden(*_args, **_kwargs):
        raise AssertionError("fan-out on a fast-path machine")

    monkeypatch.setattr("repro.gpu.workgroup.Process", forbidden)
    monkeypatch.setattr("repro.cpu.core.Process", forbidden)
    with fastpath.forced(True):
        soc = SoC(kaby_lake_model(seed=3, scale=16))
        ctx = WorkGroupCtx(soc, 0, 0, 256)
        program = CpuProgram(soc, 0)
        lines = program.alloc_lines(40)

        def body():
            gpu = yield from ctx.parallel_read(lines)
            cpu = yield from program.read_batch(lines)
            return gpu, cpu

        gpu, cpu = soc.engine.run_until_complete(soc.engine.process(body()))
    assert len(gpu) == len(cpu) == len(lines)


class _Countdown(LaneGroup):
    """Lane ``k`` waits ``k + 1`` femtoseconds ``k + 1`` times."""

    __slots__ = ("_left",)

    def __init__(self, engine, lanes):
        self._left = list(range(1, lanes + 1))
        super().__init__(engine, lanes)

    def _stage(self, lane, stage):
        if self._left[lane] == 0:
            return None, self.engine.now
        self._left[lane] -= 1
        return stage + 1, lane + 1


def test_lane_group_values_and_event_count():
    engine = Engine()
    group = _Countdown(engine, 3)
    assert engine.run_until_complete(group) == [1, 4, 9]
    # Each lane runs one start stage plus one stage per wait.
    assert engine.events_executed == 3 + (1 + 2 + 3)


def test_lane_group_respects_run_until_horizon():
    engine = Engine()
    group = _Countdown(engine, 2)
    engine.run(until_fs=2)
    assert not group.triggered
    assert engine.now == 2
    assert engine.events_executed == 2 + 1 + 1  # starts, lane 0 at 1, lane 1 at 2
    engine.run()
    assert group.value == [1, 4]


def test_lane_group_step_runs_one_stage():
    engine = Engine()
    group = _Countdown(engine, 2)
    steps = 0
    while engine.step():
        steps += 1
        assert engine.events_executed == steps
    assert group.value == [1, 4]
    assert steps == 2 + 1 + 2


def test_lane_group_stops_once_the_awaited_event_triggers():
    """A stage that triggers the event ``run_until_complete`` waits for
    ends the drive there, as the fan-out's process would."""

    class Signalling(_Countdown):
        __slots__ = ("signal",)

        def __init__(self, engine, lanes):
            self.signal = engine.event()
            super().__init__(engine, lanes)

        def _stage(self, lane, stage):
            if lane == 1 and stage == 1:
                self.signal.succeed("lane 1 waited once")
            return super()._stage(lane, stage)

    engine = Engine()
    group = Signalling(engine, 3)
    assert engine.run_until_complete(group.signal) == "lane 1 waited once"
    # Starts (3), lane 0 at 1 and lane 1 at 2; lane 2's first wait ends
    # at 3 and lane 1's second at 4, both still pending.
    assert (engine.now, engine.events_executed) == (2, 5)
    assert not group.triggered and not engine.quiescent
    engine.run()
    assert group.value == [1, 4, 9]


def test_lane_group_rejects_negative_delay():
    class Backwards(LaneGroup):
        __slots__ = ()

        def _stage(self, lane, stage):
            return 1, -1

    engine = Engine()
    Backwards(engine, 1)
    with pytest.raises(SimulationError):
        engine.run()


def test_lane_group_needs_a_lane():
    with pytest.raises(SimulationError):
        _Countdown(Engine(), 0)
