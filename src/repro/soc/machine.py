"""SoC wiring: the timed access paths through the memory system.

This module composes the passive models (caches, ring, DRAM) into the two
asymmetric pathways the paper reverse engineers:

* **CPU path**: L1 → L2 → (ring) → LLC → (DRAM).  L1/L2 are inclusive of
  the LLC; LLC evictions back-invalidate every core's private caches.
* **GPU path**: L3 → (ring) → LLC → (DRAM).  The L3 is *non-inclusive*:
  neither LLC evictions nor CPU ``clflush`` reach into it.

Both paths share the LLC arrays and the ring resource — the two contention
domains the covert channels are built on.  Access paths are generators
composable with ``yield from``; each returns the latency it took, in
femtoseconds, which is what the attacking agents' timers measure.
"""

from __future__ import annotations

import functools
import typing

from repro.config import SoCConfig, kaby_lake
from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import recorder as _recorder
from repro.sim import FS_PER_S, RngStreams
from repro.sim import fastpath as _fastpath
from repro.sim.engine import Engine
from repro.sim.events import _UNBOUNDED
from repro.sim.process import LaneGroup, Process
from repro.soc.cpu_cache import CpuCoreCaches
from repro.soc.dram import Dram
from repro.soc.gpu_l3 import GpuL3
from repro.soc.llc import SlicedLlc
from repro.soc.mmu import AddressSpace, Mmu
from repro.soc.ring import Ring
from repro.soc.slm import SharedLocalMemory

AccessGen = typing.Generator[object, object, int]

# Stages of one access on a fast-path machine.  _ISSUE must be 0, the
# stage every lane of a LaneGroup starts in.
_ISSUE = 0  # a parallel load waits out its issue stagger
_LOOKUP = 1  # the access begins (CPU: waits out a preemption window)
_PRIVATE = 2  # CPU private-cache lookup
_MISS = 3  # private miss: the fold decisions of _miss_step
_RING = 4  # unfolded ring request (TDM window check)
_RESERVE = 5  # ring request after a TDM wait
_FILL = 6  # unfolded LLC fill at ring completion
_MISS_DONE = 7  # a miss completes
_L1_DONE = 8  # private hits complete
_L2_DONE = 9
_L3_DONE = 10


def _flatten(
    node: typing.Mapping[str, object], prefix: str
) -> typing.Iterator[typing.Tuple[str, object]]:
    """Yield ``(dotted_name, leaf)`` pairs of a component stats dict."""
    for key, value in node.items():
        dotted = f"{prefix}.{key}"
        if isinstance(value, dict):
            yield from _flatten(value, dotted)
        else:
            yield dotted, value


class SoC:
    """A simulated integrated CPU-GPU system."""

    def __init__(self, config: typing.Optional[SoCConfig] = None) -> None:
        self.config = (config or kaby_lake()).validate()
        self.engine = Engine()
        self.rng = RngStreams(self.config.seed)
        self.mmu = Mmu(self.config.mmu, self.rng.stream("mmu"))
        self.dram = Dram(self.config.dram, self.rng.stream("dram"))
        self.ring = Ring(self.engine, self.config.ring, self.config.cpu_clock)
        self.llc = SlicedLlc(self.config.llc)
        self.cpu_caches = [
            CpuCoreCaches(self.config.cpu_cache, core)
            for core in range(self.config.cpu_cores)
        ]
        self.gpu_l3 = GpuL3(self.config.gpu_l3)
        self.slm = [
            SharedLocalMemory(self.config.slm, subslice)
            for subslice in range(self.config.gpu.total_subslices)
        ]
        # Way partition applied to LLC fills, keyed by "cpu"/"gpu".
        # None means unrestricted (no mitigation active).
        self.llc_partition: typing.Optional[typing.Dict[str, typing.Tuple[int, ...]]] = None
        self._noise_process: typing.Optional[Process] = None
        self._noise_lines: typing.List[int] = []
        self._line_slots = self.ring.slots_for_line(self.config.llc.line_bytes)
        # Per-core OS preemption windows (timer interrupts, §V error floor).
        self._core_stall_until = [0] * self.config.cpu_cores
        self._tick_process: typing.Optional[Process] = None
        # ------------------------------------------------------------------
        # Fast path (see repro.sim.fastpath).  Sampled once so this machine
        # is consistently fast or consistently slow; the precomputed fixed
        # latencies below feed the coalesced access paths and bursts.
        self._fastpath = _fastpath.enabled()
        cache_cfg = self.config.cpu_cache
        self._l1_hit_fs = self.cpu_cycles_fs(cache_cfg.l1_hit_cycles)
        self._l2_hit_fs = self.cpu_cycles_fs(cache_cfg.l2_hit_cycles)
        self._l3_hit_fs = self.gpu_cycles_fs(self.config.gpu_l3.hit_cycles)
        llc_lookup_fs = self.cpu_cycles_fs(self.config.llc.lookup_cycles)
        gpu_traverse_fs = (
            self.ring.traverse_fs * self.config.ring.gpu_traverse_multiplier
        )
        self._cpu_pre_fs = self._l2_hit_fs + self.ring.traverse_fs
        self._cpu_tail_base_fs = llc_lookup_fs + self.ring.traverse_fs
        self._gpu_pre_fs = self._l3_hit_fs + gpu_traverse_fs
        self._gpu_tail_base_fs = llc_lookup_fs + gpu_traverse_fs
        self._core_tracks = [
            f"cpu.core{core}" for core in range(self.config.cpu_cores)
        ]
        # ------------------------------------------------------------------
        # Fault injection (see repro.faults).  Every SLM timer registers
        # itself here so the clock-drift injector can reach it; the probe
        # hook lets the handshake-fault injector classify light polls.
        # Both stay None/empty on a healthy machine.
        self.slm_timers: typing.List[object] = []
        self.probe_fault_hook: typing.Optional[
            typing.Callable[[], typing.Optional[str]]
        ] = None
        self._fault_suite: typing.Optional[object] = None
        # ------------------------------------------------------------------
        # Observability.  Sinks resolve once, here; when tracing is off
        # every emit site below is a single `is None` check.  The latency
        # histograms are likewise armed only when observability is on, so
        # the quiet path records nothing.
        self.metrics = MetricsRegistry(
            reservoir=self.config.obs.histogram_reservoir
        )
        self._trace_cache = _recorder.sink_for("cache.access")
        self._trace_evict = _recorder.sink_for("cache.evict")
        self._trace_dram = _recorder.sink_for("dram.access")
        self.obs_enabled = self.config.obs.enabled or _recorder.enabled
        if self.obs_enabled:
            self._lat_cpu: typing.Optional[list] = [
                self.metrics.histogram(f"cpu.core{core}.access_latency_ns")
                for core in range(self.config.cpu_cores)
            ]
            self._lat_gpu = self.metrics.histogram("gpu.access_latency_ns")
            self._lat_dram = self.metrics.histogram("dram.latency_ns")
        else:
            self._lat_cpu = None
            self._lat_gpu = None
            self._lat_dram = None

    # ------------------------------------------------------------------
    # Setup helpers

    def new_process(self, name: str) -> AddressSpace:
        """Create a fresh user process address space."""
        return AddressSpace(self.mmu, name=name)

    def set_llc_partition(
        self,
        cpu_ways: typing.Sequence[int],
        gpu_ways: typing.Sequence[int],
    ) -> None:
        """Activate the §VI way-partitioning mitigation."""
        overlap = set(cpu_ways) & set(gpu_ways)
        if overlap:
            raise SimulationError(f"partitions overlap on ways {sorted(overlap)}")
        self.llc_partition = {"cpu": tuple(cpu_ways), "gpu": tuple(gpu_ways)}

    def clear_llc_partition(self) -> None:
        """Deactivate LLC way partitioning."""
        self.llc_partition = None

    def _fill_ways(self, domain: str) -> typing.Optional[typing.Tuple[int, ...]]:
        if self.llc_partition is None:
            return None
        return self.llc_partition[domain]

    # ------------------------------------------------------------------
    # Clock helpers

    def cpu_cycles_fs(self, cycles: float) -> int:
        return self.config.cpu_clock.cycles_fs(cycles)

    def gpu_cycles_fs(self, cycles: float) -> int:
        return self.config.gpu_clock.cycles_fs(cycles)

    @property
    def now_fs(self) -> int:
        return self.engine.now

    # ------------------------------------------------------------------
    # CPU access path

    def _llc_evict_cpu_side(self, evicted: typing.Optional[int]) -> None:
        """Inclusive back-invalidation: LLC eviction purges CPU caches.

        Deliberately does *not* touch the GPU L3 (non-inclusive, §III-D).
        """
        if evicted is None:
            return
        for caches in self.cpu_caches:
            caches.invalidate(evicted)

    def stall_if_preempted(self, core: int) -> AccessGen:
        """Hold the program while the OS has preempted its core."""
        start = self.engine.now
        stall_until = self._core_stall_until[core]
        if stall_until > start:
            yield stall_until - start
        return self.engine.now - start

    def preempt_core(self, core: int, duration_fs: int) -> None:
        """Descheduled window: stall ``core`` for ``duration_fs`` from now.

        Used by the OS-tick model and the fault-injection preemption
        injector; overlapping windows extend rather than truncate.
        """
        self._core_stall_until[core] = max(
            self._core_stall_until[core], self.engine.now + int(duration_fs)
        )

    def _record_cpu_latency(self, core: int, latency_fs: int) -> None:
        if self._lat_cpu is not None:
            self._lat_cpu[core].add(latency_fs / 1e6)

    def cpu_access(self, core: int, paddr: int) -> AccessGen:
        """One CPU load (or write-allocate store); returns latency in fs."""
        if self._fastpath:
            return self._cpu_access_fast(core, paddr)
        return self._cpu_access_slow(core, paddr)

    def _cpu_access_slow(self, core: int, paddr: int) -> AccessGen:
        """Reference path: one yield per pipeline stage."""
        start = self.engine.now
        yield from self.stall_if_preempted(core)
        caches = self.cpu_caches[core]
        cache_cfg = self.config.cpu_cache
        trace = self._trace_cache
        l1 = caches.l1.access(paddr)
        if l1.hit:
            yield self.cpu_cycles_fs(cache_cfg.l1_hit_cycles)
            if trace is not None:
                trace.emit("cache.access", self.engine.now, f"cpu.core{core}",
                           {"level": "l1", "hit": True, "paddr": paddr})
            latency = self.engine.now - start
            self._record_cpu_latency(core, latency)
            return latency
        l2 = caches.l2.access(paddr)
        if l2.evicted is not None:
            caches.l1.invalidate(l2.evicted)
        if l2.hit:
            yield self.cpu_cycles_fs(cache_cfg.l2_hit_cycles)
            if trace is not None:
                trace.emit("cache.access", self.engine.now, f"cpu.core{core}",
                           {"level": "l2", "hit": True, "paddr": paddr})
            latency = self.engine.now - start
            self._record_cpu_latency(core, latency)
            return latency
        # Private caches missed: cross the ring to the LLC slice.
        yield self.cpu_cycles_fs(cache_cfg.l2_hit_cycles) + self.ring.traverse_fs
        yield from self.ring.transfer(self._line_slots, "cpu")
        llc = self.llc.access(paddr, allowed_ways=self._fill_ways("cpu"))
        self._llc_evict_cpu_side(llc.evicted)
        if trace is not None:
            location = self.llc.location_of(paddr)
            trace.emit(
                "cache.access", self.engine.now, f"cpu.core{core}",
                {"level": "llc", "hit": llc.hit, "paddr": paddr,
                 "slice": location.slice_index, "set": location.set_index},
            )
        if llc.evicted is not None and self._trace_evict is not None:
            self._trace_evict.emit(
                "cache.evict", self.engine.now, "llc",
                {"line": llc.evicted, "by": f"cpu.core{core}",
                 "set": llc.set_index},
            )
        tail_fs = (
            self.cpu_cycles_fs(self.config.llc.lookup_cycles) + self.ring.traverse_fs
        )
        if not llc.hit:
            dram_fs = self.dram.latency_fs()
            if self._trace_dram is not None:
                self._trace_dram.emit(
                    "dram.access", self.engine.now, "dram",
                    {"requester": f"cpu.core{core}", "latency_ns": dram_fs / 1e6},
                )
            if self._lat_dram is not None:
                self._lat_dram.add(dram_fs / 1e6)
            tail_fs += dram_fs
        yield tail_fs
        latency = self.engine.now - start
        self._record_cpu_latency(core, latency)
        return latency

    def _cpu_access_fast(self, core: int, paddr: int) -> AccessGen:
        """Coalesced path: one yield for a private hit, ≤2 around the ring.

        Observationally equivalent to :meth:`_cpu_access_slow`: every
        cache/ring/DRAM state change and every trace/metrics emit happens
        with the same logical timestamp and in the same cross-agent order
        (folds only happen when no other event can run inside the folded
        window — see DESIGN, "Fast-path contract").  The stages are
        :meth:`_cpu_step`'s, shared with the parallel-load lanes.
        """
        start = self.engine._now
        stage = _LOOKUP
        while True:
            stage, value = self._cpu_step(core, stage, paddr, start, None)
            if stage is None:
                return value
            yield value

    def _cpu_step(
        self,
        core: int,
        stage: int,
        paddr: int,
        start_fs: int,
        lanes: typing.Optional[LaneGroup],
    ) -> typing.Tuple[typing.Optional[int], int]:
        """Run one stage of a CPU load begun at ``start_fs``, now.

        Returns ``(next_stage, delay_fs)``, or ``(None, latency_fs)`` once
        the load completes.  ``lanes`` is the lane group running the load
        (its siblings' pending stages bound the folds), or ``None`` for a
        load run by its own process.
        """
        if stage == _LOOKUP:
            now = self.engine._now
            stall_until = self._core_stall_until[core]
            if stall_until > now:
                return _PRIVATE, stall_until - now
            stage = _PRIVATE
        if stage == _PRIVATE:
            caches = self.cpu_caches[core]
            if caches.l1.access(paddr).hit:
                return _L1_DONE, self._l1_hit_fs
            l2 = caches.l2.access(paddr)
            if l2.evicted is not None:
                caches.l1.invalidate(l2.evicted)
            if l2.hit:
                return _L2_DONE, self._l2_hit_fs
            stage = _MISS
        elif stage >= _MISS_DONE:
            now = self.engine._now
            if stage != _MISS_DONE and self._trace_cache is not None:
                self._trace_cache.emit(
                    "cache.access", now, self._core_tracks[core],
                    {"level": "l1" if stage == _L1_DONE else "l2", "hit": True,
                     "paddr": paddr},
                )
            latency = now - start_fs
            if self._lat_cpu is not None:
                self._lat_cpu[core].add(latency / 1e6)
            return None, latency
        return self._miss_step(
            stage, "cpu", self._core_tracks[core], paddr,
            self._cpu_pre_fs, self._cpu_tail_base_fs, self._horizon_fs(lanes),
        )

    def _llc_fill_fast(
        self, domain: str, track: str, paddr: int, at_fs: int, tail_base_fs: int
    ) -> int:
        """LLC lookup + possible DRAM fill, stamped with logical ``at_fs``.

        Returns the tail delay beyond ``at_fs``.  State mutations and
        emits are identical to the slow path's post-ring segment; only
        the timestamp is supplied instead of read from the engine.
        """
        llc = self.llc.access(paddr, allowed_ways=self._fill_ways(domain))
        self._llc_evict_cpu_side(llc.evicted)
        trace = self._trace_cache
        if trace is not None:
            location = self.llc.location_of(paddr)
            trace.emit(
                "cache.access", at_fs, track,
                {"level": "llc", "hit": llc.hit, "paddr": paddr,
                 "slice": location.slice_index, "set": location.set_index},
            )
        if llc.evicted is not None and self._trace_evict is not None:
            self._trace_evict.emit(
                "cache.evict", at_fs, "llc",
                {"line": llc.evicted, "by": track, "set": llc.set_index},
            )
        tail_fs = tail_base_fs
        if not llc.hit:
            dram_fs = self.dram.latency_fs()
            if self._trace_dram is not None:
                self._trace_dram.emit(
                    "dram.access", at_fs, "dram",
                    {"requester": track, "latency_ns": dram_fs / 1e6},
                )
            if self._lat_dram is not None:
                self._lat_dram.add(dram_fs / 1e6)
            tail_fs += dram_fs
        return tail_fs

    def _miss_step(
        self,
        stage: int,
        domain: str,
        track: str,
        paddr: int,
        pre_fs: int,
        tail_base_fs: int,
        horizon_fs: float,
    ) -> typing.Tuple[int, int]:
        """One stage of a private miss → ring → LLC/DRAM, run now.

        Returns ``(next_stage, delay_fs)``; the access is complete once
        ``_MISS_DONE`` comes back and its delay has passed.  This is the
        one definition of the miss path's folds, shared by the scalar
        access generators and the parallel-load lanes.  ``horizon_fs`` is
        the earliest time any other pending action can run.

        Folding a segment is legal only when no other pending action can
        run inside it (strictly — pre-existing entries at the boundary
        time carry lower sequence numbers and would run first).  The TDM
        window check and, when a DRAM fault hook is armed, the DRAM draw
        must happen at their true times; those configurations simply
        fold less.
        """
        now = self.engine._now
        ring = self.ring
        if stage == _MISS:
            at = now + pre_fs
            if ring.tdm is not None or horizon_fs <= at:
                return _RING, pre_fs
            # Fold the pre-ring latency into the reservation: the request
            # is booked at its logical time.
        elif stage == _FILL:
            return _MISS_DONE, self._llc_fill_fast(
                domain, track, paddr, now, tail_base_fs
            )
        else:
            if stage == _RING and ring.tdm is not None:
                tdm_wait = ring.tdm.wait_fs(domain, now)
                if tdm_wait:
                    return _RESERVE, tdm_wait
            at = now
        waited, hold = ring.reserve(self._line_slots, domain, at_fs=at)
        done = at + waited + hold
        if self.dram.fault_hook is None and horizon_fs > done:
            tail_fs = self._llc_fill_fast(domain, track, paddr, done, tail_base_fs)
            return _MISS_DONE, done - now + tail_fs
        return _FILL, done - now

    def _horizon_fs(self, lanes: typing.Optional[LaneGroup]) -> float:
        """The earliest time another pending action can run."""
        if lanes is not None:
            return lanes.horizon_fs()
        queue = self.engine._queue
        return queue[0][0] if queue else _UNBOUNDED

    def gpu_loads(self, paddrs: typing.Sequence[int], issue_fs: int) -> LaneGroup:
        """Parallel GPU loads on a fast-path machine, as one event.

        Load ``k`` issues ``k * issue_fs`` after now and then runs the
        stages of :meth:`gpu_access`; the group triggers with every
        load's latency, in issue order.
        """
        return _ParallelLoads(self.engine, self._gpu_step, paddrs, issue_fs)

    def cpu_loads(
        self, core: int, paddrs: typing.Sequence[int], issue_fs: int
    ) -> LaneGroup:
        """Parallel CPU loads from ``core`` on a fast-path machine.

        The CPU sibling of :meth:`gpu_loads`, running the stages of
        :meth:`cpu_access`.
        """
        return _ParallelLoads(
            self.engine, functools.partial(self._cpu_step, core), paddrs, issue_fs
        )

    def cpu_access_burst(
        self, core: int, paddrs: typing.Sequence[int]
    ) -> typing.Generator[object, object, typing.List[int]]:
        """Serial loads; runs of private-cache hits fold into one yield.

        Returns per-access latencies, exactly as issuing each load through
        :meth:`cpu_access` would.  Private hits touch no shared state, so
        batching a run of them is invisible to every other agent — and the
        fold only happens while no other event (and no preemption-window
        boundary) falls inside the run.  Misses, stalls and near-term
        foreign events drop to the per-access path for one access.
        """
        if not self._fastpath:
            latencies = []
            for paddr in paddrs:
                latency = yield from self._cpu_access_slow(core, paddr)
                latencies.append(latency)
            return latencies
        engine = self.engine
        queue = engine._queue
        caches = self.cpu_caches[core]
        l1 = caches.l1
        l2 = caches.l2
        d1 = self._l1_hit_fs
        d2 = self._l2_hit_fs
        trace = self._trace_cache
        hist = self._lat_cpu[core] if self._lat_cpu is not None else None
        track = self._core_tracks[core]
        stalls = self._core_stall_until
        latencies: typing.List[int] = []
        n = len(paddrs)
        i = 0
        while i < n:
            acc = 0
            t = engine._now
            head = queue[0][0] if queue else None
            while i < n:
                ti = t + acc
                if stalls[core] > ti:
                    break
                if head is not None and head <= ti + d2:
                    break
                paddr = paddrs[i]
                if l1.contains(paddr):
                    l1.access(paddr)
                    acc += d1
                    if trace is not None:
                        trace.emit("cache.access", ti + d1, track,
                                   {"level": "l1", "hit": True, "paddr": paddr})
                    latencies.append(d1)
                    if hist is not None:
                        hist.add(d1 / 1e6)
                    i += 1
                    continue
                if l2.contains(paddr):
                    l1.access(paddr)  # install (same as the scalar path)
                    result = l2.access(paddr)
                    if result.evicted is not None:
                        l1.invalidate(result.evicted)
                    acc += d2
                    if trace is not None:
                        trace.emit("cache.access", ti + d2, track,
                                   {"level": "l2", "hit": True, "paddr": paddr})
                    latencies.append(d2)
                    if hist is not None:
                        hist.add(d2 / 1e6)
                    i += 1
                    continue
                break
            if acc:
                yield acc
            if i < n:
                latency = yield from self._cpu_access_fast(core, paddrs[i])
                latencies.append(latency)
                i += 1
        return latencies

    def clflush(self, core: int, paddr: int) -> AccessGen:
        """Flush one line from the CPU-coherent domain (L1, L2, LLC).

        The GPU L3 keeps its copy — exactly the behaviour the §III-D
        inclusiveness experiment detects.  Returns the latency in fs.
        """
        start = self.engine.now
        for caches in self.cpu_caches:
            caches.invalidate(paddr)
        was_in_llc = self.llc.invalidate(paddr)
        cost_cycles = self.config.cpu_cache.l2_hit_cycles
        if was_in_llc:
            cost_cycles += self.config.llc.lookup_cycles
        yield self.cpu_cycles_fs(cost_cycles)
        return self.engine.now - start

    # ------------------------------------------------------------------
    # GPU access path

    def gpu_access(self, paddr: int) -> AccessGen:
        """One GPU (OpenCL) load through L3 → ring → LLC → DRAM."""
        if self._fastpath:
            return self._gpu_access_fast(paddr)
        return self._gpu_access_slow(paddr)

    def _gpu_access_slow(self, paddr: int) -> AccessGen:
        """Reference path: one yield per pipeline stage."""
        start = self.engine.now
        trace = self._trace_cache
        l3 = self.gpu_l3.access(paddr)
        if l3.hit:
            yield self.gpu_cycles_fs(self.config.gpu_l3.hit_cycles)
            if trace is not None:
                trace.emit("cache.access", self.engine.now, "gpu",
                           {"level": "l3", "hit": True, "paddr": paddr})
            latency = self.engine.now - start
            if self._lat_gpu is not None:
                self._lat_gpu.add(latency / 1e6)
            return latency
        # L3 miss detection, then cross the ring.  The L3 fill already
        # happened in state (non-inclusive victim silently dropped).
        gpu_traverse_fs = self.ring.traverse_fs * self.config.ring.gpu_traverse_multiplier
        yield self.gpu_cycles_fs(self.config.gpu_l3.hit_cycles) + gpu_traverse_fs
        yield from self.ring.transfer(self._line_slots, "gpu")
        llc = self.llc.access(paddr, allowed_ways=self._fill_ways("gpu"))
        self._llc_evict_cpu_side(llc.evicted)
        if trace is not None:
            location = self.llc.location_of(paddr)
            trace.emit(
                "cache.access", self.engine.now, "gpu",
                {"level": "llc", "hit": llc.hit, "paddr": paddr,
                 "slice": location.slice_index, "set": location.set_index},
            )
        if llc.evicted is not None and self._trace_evict is not None:
            self._trace_evict.emit(
                "cache.evict", self.engine.now, "llc",
                {"line": llc.evicted, "by": "gpu", "set": llc.set_index},
            )
        tail_fs = (
            self.cpu_cycles_fs(self.config.llc.lookup_cycles) + gpu_traverse_fs
        )
        if not llc.hit:
            dram_fs = self.dram.latency_fs()
            if self._trace_dram is not None:
                self._trace_dram.emit(
                    "dram.access", self.engine.now, "dram",
                    {"requester": "gpu", "latency_ns": dram_fs / 1e6},
                )
            if self._lat_dram is not None:
                self._lat_dram.add(dram_fs / 1e6)
            tail_fs += dram_fs
        yield tail_fs
        latency = self.engine.now - start
        if self._lat_gpu is not None:
            self._lat_gpu.add(latency / 1e6)
        return latency

    def _gpu_access_fast(self, paddr: int) -> AccessGen:
        """Coalesced path: one yield for an L3 hit, ≤2 around the ring.

        The stages are :meth:`_gpu_step`'s, shared with the
        parallel-load lanes.
        """
        start = self.engine._now
        stage = _LOOKUP
        while True:
            stage, value = self._gpu_step(stage, paddr, start, None)
            if stage is None:
                return value
            yield value

    def _gpu_step(
        self,
        stage: int,
        paddr: int,
        start_fs: int,
        lanes: typing.Optional[LaneGroup],
    ) -> typing.Tuple[typing.Optional[int], int]:
        """Run one stage of a GPU load begun at ``start_fs``, now.

        The GPU sibling of :meth:`_cpu_step` (no preemption windows on
        the GPU; an L3 hit stays on the GPU side of the ring).
        """
        if stage == _LOOKUP:
            if self.gpu_l3.access(paddr).hit:
                return _L3_DONE, self._l3_hit_fs
            stage = _MISS
        elif stage >= _MISS_DONE:
            now = self.engine._now
            if stage == _L3_DONE and self._trace_cache is not None:
                self._trace_cache.emit(
                    "cache.access", now, "gpu",
                    {"level": "l3", "hit": True, "paddr": paddr},
                )
            latency = now - start_fs
            if self._lat_gpu is not None:
                self._lat_gpu.add(latency / 1e6)
            return None, latency
        return self._miss_step(
            stage, "gpu", "gpu", paddr,
            self._gpu_pre_fs, self._gpu_tail_base_fs, self._horizon_fs(lanes),
        )

    def gpu_access_burst(
        self, paddrs: typing.Sequence[int]
    ) -> typing.Generator[object, object, typing.List[int]]:
        """Serial GPU loads; runs of L3 hits fold into one yield.

        The GPU-side sibling of :meth:`cpu_access_burst` (no preemption
        windows on the GPU; L3 hits never evict, §III-D).  Returns
        per-access latencies.
        """
        if not self._fastpath:
            latencies = []
            for paddr in paddrs:
                latency = yield from self._gpu_access_slow(paddr)
                latencies.append(latency)
            return latencies
        engine = self.engine
        queue = engine._queue
        l3 = self.gpu_l3
        d3 = self._l3_hit_fs
        trace = self._trace_cache
        hist = self._lat_gpu
        latencies: typing.List[int] = []
        n = len(paddrs)
        i = 0
        while i < n:
            acc = 0
            t = engine._now
            head = queue[0][0] if queue else None
            while i < n:
                ti = t + acc
                if head is not None and head <= ti + d3:
                    break
                paddr = paddrs[i]
                if not l3.contains(paddr):
                    break
                l3.access(paddr)
                acc += d3
                if trace is not None:
                    trace.emit("cache.access", ti + d3, "gpu",
                               {"level": "l3", "hit": True, "paddr": paddr})
                latencies.append(d3)
                if hist is not None:
                    hist.add(d3 / 1e6)
                i += 1
            if acc:
                yield acc
            if i < n:
                latency = yield from self._gpu_access_fast(paddrs[i])
                latencies.append(latency)
                i += 1
        return latencies

    # ------------------------------------------------------------------
    # Background noise (§II-B: unconstrained CPU side)

    def start_noise(
        self,
        core: typing.Optional[int] = None,
        rate_per_s: typing.Optional[float] = None,
        footprint_bytes: int = 256 * 1024,
    ) -> None:
        """Launch a background process issuing Poisson LLC traffic."""
        if self._noise_process is not None and self._noise_process.alive:
            raise SimulationError("noise process already running")
        if not self.config.noise.enabled:
            return
        rate = rate_per_s if rate_per_s is not None else (
            self.config.noise.background_llc_rate_per_s
        )
        if rate <= 0:
            return
        if not self._noise_lines:
            space = self.new_process("background-noise")
            buffer = space.mmap(footprint_bytes)
            self._noise_lines = buffer.line_paddrs(self.config.llc.line_bytes)
        noise_core = core if core is not None else self.config.cpu_cores - 1
        self._noise_process = self.engine.process(self._noise_loop(noise_core, rate))

    def _noise_loop(self, core: int, rate_per_s: float) -> typing.Generator:
        rng = self.rng.stream("noise")
        lines = self._noise_lines
        while True:
            gap_fs = max(1, int(rng.exponential(1.0 / rate_per_s) * FS_PER_S))
            yield gap_fs
            paddr = lines[int(rng.integers(0, len(lines)))]
            yield from self.cpu_access(core, paddr)

    def stop_noise(self) -> None:
        """Stop the background noise process, if running."""
        if self._noise_process is not None:
            self._noise_process.interrupt("stop")
            self._noise_process = None

    def start_os_ticks(self) -> None:
        """Launch the periodic timer-interrupt model (per-core stalls)."""
        if not self.config.noise.enabled:
            return
        if self._tick_process is not None and self._tick_process.alive:
            raise SimulationError("OS tick process already running")
        self._tick_process = self.engine.process(self._tick_loop())

    def _tick_loop(self) -> typing.Generator:
        from repro.sim import FS_PER_US

        rng = self.rng.stream("os-ticks")
        noise = self.config.noise
        while True:
            gap_us = noise.os_tick_period_us + rng.uniform(
                -noise.os_tick_jitter_us, noise.os_tick_jitter_us
            )
            yield max(1, int(gap_us * FS_PER_US))
            core = int(rng.integers(0, self.config.cpu_cores))
            duration_fs = int(
                noise.os_tick_duration_us * FS_PER_US * (0.6 + 0.8 * rng.random())
            )
            self.preempt_core(core, duration_fs)

    def stop_os_ticks(self) -> None:
        """Stop the timer-interrupt model."""
        if self._tick_process is not None:
            self._tick_process.interrupt("stop")
            self._tick_process = None

    def start_system_effects(self) -> None:
        """Convenience: background noise + OS ticks (the default testbed).

        When the config arms fault injection, the configured fault suite
        starts alongside the benign system effects.
        """
        if self.config.noise.enabled:
            if self._noise_process is None or not self._noise_process.alive:
                self.start_noise()
            if self._tick_process is None or not self._tick_process.alive:
                self.start_os_ticks()
        if self.config.faults.enabled:
            self.start_faults()

    # ------------------------------------------------------------------
    # Fault injection (see repro.faults)

    def start_faults(self) -> None:
        """Start the fault-injection suite configured in ``config.faults``.

        Idempotent: a suite that is already running is left alone.  A
        no-op when ``config.faults.enabled`` is False.
        """
        if not self.config.faults.enabled:
            return
        if self._fault_suite is not None:
            return
        from repro.faults.injectors import FaultSuite

        suite = FaultSuite.from_config(self)
        suite.start()
        self._fault_suite = suite

    def stop_faults(self) -> None:
        """Stop the fault-injection suite, if one is running."""
        if self._fault_suite is not None:
            self._fault_suite.stop()  # type: ignore[attr-defined]
            self._fault_suite = None

    @property
    def fault_suite(self) -> typing.Optional[object]:
        """The running :class:`~repro.faults.injectors.FaultSuite`, if any."""
        return self._fault_suite

    # ------------------------------------------------------------------
    # Checkpointing (see repro.checkpoint for the envelope + contract)

    def quiesce(self) -> None:
        """Drive the machine to a quiescent point: stop the background
        processes (noise, OS ticks, fault injectors) and drain the event
        queue so no live generator frame remains.

        Interrupted background loops terminate cleanly (an unhandled
        :class:`~repro.sim.process.Interrupt` ends the process); their RNG
        stream positions survive in :attr:`rng`, so restarting them after
        a restore continues the exact cold-start draw sequence.
        """
        self.stop_noise()
        self.stop_os_ticks()
        self.stop_faults()
        self.engine.run()

    def state_dict(self) -> typing.Dict[str, object]:
        """Full machine state at a quiescent point, JSON-able.

        Captures every stateful component plus the machine-local fields a
        restart would otherwise re-derive differently (noise working set,
        preemption windows, the LLC way partition).  Raises
        :class:`~repro.errors.SimulationError` when the machine is not
        quiescent (pending events, busy ring, live background processes).
        """
        if self._noise_process is not None or self._tick_process is not None:
            raise SimulationError(
                "machine is not quiescent: background processes running"
            )
        if self._fault_suite is not None:
            raise SimulationError("machine is not quiescent: fault suite running")
        return {
            "fastpath": self._fastpath,
            "engine": self.engine.state_dict(),
            "rng": self.rng.state_dict(),
            "mmu": self.mmu.state_dict(),
            "dram": self.dram.state_dict(),
            "ring": self.ring.state_dict(),
            "llc": self.llc.state_dict(),
            "cpu_caches": [caches.state_dict() for caches in self.cpu_caches],
            "gpu_l3": self.gpu_l3.state_dict(),
            "slm": [slm.state_dict() for slm in self.slm],
            "metrics": self.metrics.state_dict(),
            "noise_lines": list(self._noise_lines),
            "core_stall_until": list(self._core_stall_until),
            "llc_partition": (
                None
                if self.llc_partition is None
                else {
                    domain: list(ways)
                    for domain, ways in self.llc_partition.items()
                }
            ),
        }

    def load_state(self, state: typing.Dict[str, object]) -> None:
        """Restore state captured by :meth:`state_dict` into this machine.

        The machine must be freshly constructed (or itself quiescent) with
        the same config; the staging mode must match, since fast and
        staged paths execute different event counts.
        """
        if bool(state["fastpath"]) != self._fastpath:
            from repro.errors import CheckpointError

            raise CheckpointError(
                "snapshot was taken with REPRO_FASTPATH="
                f"{'1' if state['fastpath'] else '0'}; this machine runs the "
                f"{'fast' if self._fastpath else 'staged'} path"
            )
        self.engine.load_state(typing.cast(dict, state["engine"]))
        self.rng.load_state(typing.cast(dict, state["rng"]))
        self.mmu.load_state(typing.cast(dict, state["mmu"]))
        self.dram.load_state(typing.cast(dict, state["dram"]))
        self.ring.load_state(typing.cast(dict, state["ring"]))
        self.llc.load_state(typing.cast(dict, state["llc"]))
        for caches, caches_state in zip(
            self.cpu_caches, typing.cast(list, state["cpu_caches"])
        ):
            caches.load_state(caches_state)
        self.gpu_l3.load_state(typing.cast(dict, state["gpu_l3"]))
        for slm, slm_state in zip(self.slm, typing.cast(list, state["slm"])):
            slm.load_state(slm_state)
        self.metrics.load_state(typing.cast(dict, state["metrics"]))
        self._noise_lines = [int(p) for p in typing.cast(list, state["noise_lines"])]
        self._core_stall_until = [
            int(t) for t in typing.cast(list, state["core_stall_until"])
        ]
        partition = typing.cast(
            typing.Optional[dict], state["llc_partition"]
        )
        self.llc_partition = (
            None
            if partition is None
            else {
                str(domain): tuple(int(way) for way in ways)
                for domain, ways in partition.items()
            }
        )

    # ------------------------------------------------------------------
    # Introspection used by tests and the analysis layer

    def metrics_snapshot(self) -> typing.Dict[str, object]:
        """Every component's counters + live histograms as a nested dict.

        Structural counters (cache hits/misses, ring transfers, DRAM
        accesses, engine totals) are maintained by the components
        themselves at all times, so this *pull* never costs anything on
        the simulation path; the latency histograms are populated only
        while observability is armed.
        """
        m = self.metrics
        m.counter("engine.events_executed").set(self.engine.events_executed)
        m.counter("engine.now_fs").set(self.engine.now)
        for dotted, value in _flatten(self.llc.stats_dict(), "llc"):
            m.counter(dotted).set(value)
        for core, caches in enumerate(self.cpu_caches):
            for dotted, value in _flatten(caches.stats_dict(), f"cpu.core{core}"):
                m.counter(dotted).set(value)
        for dotted, value in _flatten(self.gpu_l3.stats_dict(), "gpu_l3"):
            m.counter(dotted).set(value)
        for dotted, value in _flatten(self.ring.stats_dict(), "ring"):
            m.counter(dotted).set(value)
        for dotted, value in _flatten(self.dram.stats_dict(), "dram"):
            m.counter(dotted).set(value)
        return m.as_dict()

    def cpu_latency_profile(self) -> typing.Dict[str, float]:
        """Nominal (uncontended) CPU latencies in nanoseconds, per level."""
        cc = self.config.cpu_cache
        ring_fs = 2 * self.ring.traverse_fs + self.ring.hold_fs(self._line_slots)
        llc_fs = (
            self.cpu_cycles_fs(cc.l2_hit_cycles + self.config.llc.lookup_cycles)
            + ring_fs
        )
        return {
            "l1_ns": self.cpu_cycles_fs(cc.l1_hit_cycles) / 1e6,
            "l2_ns": self.cpu_cycles_fs(cc.l2_hit_cycles) / 1e6,
            "llc_ns": llc_fs / 1e6,
            "dram_ns": llc_fs / 1e6 + self.dram.mean_latency_ns(),
        }

    def gpu_latency_profile(self) -> typing.Dict[str, float]:
        """Nominal (uncontended) GPU latencies in nanoseconds, per level."""
        ring_fs = (
            2 * self.ring.traverse_fs * self.config.ring.gpu_traverse_multiplier
            + self.ring.hold_fs(self._line_slots)
        )
        l3_fs = self.gpu_cycles_fs(self.config.gpu_l3.hit_cycles)
        llc_fs = l3_fs + ring_fs + self.cpu_cycles_fs(self.config.llc.lookup_cycles)
        return {
            "l3_ns": l3_fs / 1e6,
            "llc_ns": llc_fs / 1e6,
            "dram_ns": llc_fs / 1e6 + self.dram.mean_latency_ns(),
        }


class _ParallelLoads(LaneGroup):
    """Lane ``k`` is one load issued ``k * issue_fs`` after now.

    After its issue stagger a lane runs the stages of ``step``
    (:meth:`SoC._gpu_step` or :meth:`SoC._cpu_step`), exactly as
    ``_issue_after(k * issue_fs, paddr)`` in its own process would.
    """

    __slots__ = ("_step", "_paddrs", "_t0", "_issue_fs")

    def __init__(
        self,
        engine: Engine,
        step: typing.Callable[..., typing.Tuple[typing.Optional[int], int]],
        paddrs: typing.Sequence[int],
        issue_fs: int,
    ) -> None:
        self._step = step
        self._paddrs = paddrs
        self._t0 = engine._now
        self._issue_fs = issue_fs
        super().__init__(engine, len(paddrs))

    def _stage(self, lane: int, stage: int) -> typing.Tuple[typing.Optional[int], int]:
        delay = lane * self._issue_fs
        if stage == _ISSUE:
            if delay:
                return _LOOKUP, delay
            stage = _LOOKUP
        return self._step(stage, self._paddrs[lane], self._t0 + delay, self)
