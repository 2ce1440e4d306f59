"""Generator-based simulation processes.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
objects **or plain non-negative integers**.  Yielding an event suspends the
process until the event triggers, at which point the event's value is sent
back into the generator.  Yielding an ``int`` is a pure timed wait: the
process's bound resume callback is scheduled directly on the engine,
skipping the ``Timeout``/``Event`` allocation, the callback list and the
subscribe step — the resume lands at exactly the time, and with exactly
the tie-breaking sequence number, the equivalent ``Timeout`` yield would
have produced.  Sub-operations compose with ``yield from`` (e.g. a CPU
load is a generator that acquires the ring, waits a cache latency, and
*returns* the measured latency).

A :class:`Process` is itself an event that triggers with the generator's
return value, so processes can wait on each other and :class:`AllOf` can
act as a barrier across a batch of parallel memory requests.

The advance/wake cycle is the hottest control path in the simulator: every
yield costs one ``_advance`` plus one ``_on_event`` (or ``_on_timed``).
All of them are plain bound methods — the module's contract is that **no
closures are allocated per yield or per interrupt** — and the generator's
``send`` is cached at spawn time.

A :class:`LaneGroup` stands in for a whole batch of child processes joined
by :class:`AllOf` — the parallel loads of a GPU work-group or of a CPU
core's fill buffers.  Its lanes are small state machines rather than
generators, run from one per-group heap with exactly the event stamps
the child processes would have had.
"""

from __future__ import annotations

import typing
from heapq import heappop as _heappop
from heapq import heappush as _heappush
from heapq import heappushpop as _heappushpop

from repro.errors import SimulationError
from repro.sim.events import _PENDING, _UNBOUNDED, Event

if typing.TYPE_CHECKING:
    from repro.sim.engine import Engine

#: Sentinel stored in ``_waiting_on`` while a process sits in an
#: integer-delay timed wait (there is no event object to point at).
_TIMED = object()


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """Drives a generator, suspending on the events (or delays) it yields."""

    __slots__ = (
        "_generator",
        "_send",
        "_waiting_on",
        "_alive",
        "_resume_at",
        "_stale_times",
        "_interrupts",
    )

    def __init__(self, engine: "Engine", generator: typing.Generator) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        self.engine = engine
        self._value = _PENDING
        self._callbacks = []
        self._generator = generator
        self._send = generator.send
        self._waiting_on: typing.Optional[object] = None
        self._alive = True
        self._resume_at = 0
        # Lazily allocated: only processes that are interrupted mid-wait
        # ever pay for these.
        self._stale_times: typing.Optional[typing.List[int]] = None
        self._interrupts: typing.Optional[typing.List[Interrupt]] = None
        # Start on the next scheduling round so the caller can subscribe
        # before the first step runs.
        engine.schedule(0, self._start)

    @property
    def alive(self) -> bool:
        """Whether the generator has not yet finished."""
        return self._alive

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Delivery goes through the prebound :meth:`_deliver_interrupt` —
        no closure is allocated per interrupt.  Multiple interrupts queue
        FIFO, one delivery per scheduled callback, matching the old
        one-closure-per-interrupt semantics exactly.
        """
        if not self._alive:
            return
        if self._waiting_on is _TIMED:
            # The already-scheduled timed resume must become a no-op; its
            # callback is identified by the time it will fire at.
            if self._stale_times is None:
                self._stale_times = []
            self._stale_times.append(self._resume_at)
        self._waiting_on = None
        if self._interrupts is None:
            self._interrupts = []
        self._interrupts.append(Interrupt(cause))
        self.engine.schedule(0, self._deliver_interrupt)

    def _deliver_interrupt(self) -> None:
        pending = self._interrupts
        if not pending:
            return
        if self._waiting_on is _TIMED:
            # A queued interrupt can land while a fresh timed wait is in
            # flight (the previous interrupt's handler re-entered one);
            # orphan that resume exactly like interrupt() does.
            if self._stale_times is None:
                self._stale_times = []
            self._stale_times.append(self._resume_at)
            self._waiting_on = None
        self._advance(None, pending.pop(0))

    def _start(self) -> None:
        self._advance(None, None)

    def _advance(self, value: object, exc: typing.Optional[BaseException]) -> None:
        if not self._alive:
            return
        try:
            if exc is not None:
                yielded = self._generator.throw(exc)
            else:
                yielded = self._send(value)
        except StopIteration as stop:
            self._alive = False
            self.succeed(stop.value)
            return
        except Interrupt:
            # Process chose not to handle its interrupt: treat as a clean
            # termination with no value.
            self._alive = False
            self.succeed(None)
            return
        if type(yielded) is int:
            # Pure timed wait: schedule the bound resume directly.  The
            # inline push mirrors Engine.schedule (same time, same
            # sequence counter) without the attribute round-trips.
            if yielded < 0:
                raise SimulationError(f"cannot schedule in the past: {yielded}")
            engine = self.engine
            at = engine._now + yielded
            sequence = engine._sequence
            engine._sequence = sequence + 1
            _heappush(engine._queue, (at, sequence, self._on_timed))
            self._waiting_on = _TIMED
            self._resume_at = at
            return
        if not isinstance(yielded, Event):
            raise SimulationError(
                f"process yielded {type(yielded).__name__}; processes must "
                "yield Event objects (Timeout, Process, AllOf, ...) or a "
                "non-negative int delay in femtoseconds"
            )
        self._waiting_on = yielded
        yielded.subscribe(self._on_event)

    def _on_timed(self) -> None:
        stale = self._stale_times
        if stale:
            # A resume orphaned by an interrupt fires before any timed
            # wait scheduled after it (earlier sequence number wins ties),
            # so consuming one matching entry per firing is exact even
            # when a stale and a live resume share the same timestamp.
            now = self.engine._now
            if now in stale:
                stale.remove(now)
                return
        if self._waiting_on is not _TIMED:
            return  # stale wakeup after an interrupt
        self._waiting_on = None
        self._advance(None, None)

    def _on_event(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale wakeup after an interrupt
        self._waiting_on = None
        self._advance(event._value, None)


class LaneGroup(Event):
    """A batch of parallel lanes run from one per-group heap.

    Subclasses define the lanes as small state machines in
    :meth:`_stage`: run one stage of ``lane`` at ``engine.now`` and
    return ``(next_stage, delay_fs)``, or ``(None, value)`` when the lane
    finishes with ``value``.  The group triggers with the list of lane
    values, in lane order, once every lane has finished — what an
    :class:`AllOf` over one child process per lane delivers.

    It is also *event-exact* with that fan-out: every stage carries the
    ``(time, sequence)`` stamp the lane's process would have given its
    step, drawn from the engine's counter at the same moment, and counts
    as one executed action (with its ``engine.step`` trace record).  Each
    lane starts at ``(now, s + lane)``, as ``Process(...)`` per lane
    would schedule it.  Only the group's earliest pending stage sits in
    the engine queue.  When a stage finishes, the next one runs inside
    the same action if the engine would have popped it next anyway:
    it precedes the queue head and lies within the horizon the drive
    loop published (``run(until_fs)``, ``run_until_complete(limit_fs)``
    while its event is pending; never under ``step()``).  Otherwise it
    goes back into the engine queue.  Stages see the pending stages of
    their siblings through :meth:`horizon_fs`.
    """

    __slots__ = ("_heap", "_values", "_remaining")

    def __init__(self, engine: "Engine", lanes: int) -> None:
        if lanes < 1:
            raise SimulationError("a lane group needs at least one lane")
        self.engine = engine
        self._value = _PENDING
        self._callbacks = []
        self._values: typing.List[object] = [None] * lanes
        self._remaining = lanes
        now = engine._now
        first = engine._sequence
        engine._sequence = first + lanes
        # Ascending stamps: already a valid heap.
        self._heap = [(now, first + lane, lane, 0) for lane in range(lanes)]
        _heappush(engine._queue, (now, first, self._fire))

    def _stage(self, lane: int, stage: int) -> typing.Tuple[typing.Optional[int], typing.Any]:
        """Run one stage of one lane (stage 0 is every lane's start)."""
        raise NotImplementedError

    def horizon_fs(self) -> float:
        """The earliest time any other action can run, seen from a stage."""
        queue = self.engine._queue
        horizon = queue[0][0] if queue else _UNBOUNDED
        heap = self._heap
        if heap and heap[0][0] < horizon:
            return heap[0][0]
        return horizon

    def _fire(self) -> None:
        engine = self.engine
        queue = engine._queue
        heap = self._heap
        run_stage = self._stage
        trace = engine._trace
        # Fixed for this action: a stage never drives the engine itself.
        until = engine._inline_until
        awaited = engine._awaited
        entry = _heappop(heap)  # the stage the engine just popped
        while True:
            lane = entry[2]
            stage, value = run_stage(lane, entry[3])
            if stage is None:
                self._values[lane] = value
                self._remaining -= 1
                if not self._remaining:
                    self.succeed(self._values)
                    return
                entry = _heappop(heap)
            else:
                if value < 0:
                    raise SimulationError(f"cannot schedule in the past: {value}")
                sequence = engine._sequence
                engine._sequence = sequence + 1
                entry = _heappushpop(heap, (engine._now + value, sequence, lane, stage))
            # Run the next stage here only if the engine would pop it next.
            # Stamps are unique, so tuple order never reaches the payloads.
            time_fs = entry[0]
            if (
                time_fs > until
                or (queue and queue[0] < entry)
                or (awaited is not None and awaited._value is not _PENDING)
            ):
                _heappush(heap, entry)
                _heappush(queue, (time_fs, entry[1], self._fire))
                return
            engine._now = time_fs
            engine._inline_executed += 1
            if trace is not None:
                trace.emit("engine.step", time_fs, "engine", None)
