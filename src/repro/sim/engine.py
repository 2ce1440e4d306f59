"""The event loop at the heart of the simulator.

The engine owns a priority queue of ``(time_fs, sequence, action)`` entries.
Ties on time break on insertion order, which makes every run fully
deterministic for a given seed — a property the tests rely on.

Every covert-channel trial pays for millions of trips through this loop, so
:meth:`Engine.run` and :meth:`Engine.run_until_complete` inline the work of
:meth:`Engine.step` with the queue, ``heappop`` and the trace sink bound to
locals.  The inlined loops and ``step()`` must stay behaviourally identical:
time never goes backwards (``schedule`` rejects negative delays, so the heap
order guarantees it), ``events_executed`` counts every action, and the
``engine.step`` trace event fires per action when a sink is armed.

Each drive loop also publishes its *horizon* — the latest time an action
may run in it (``_inline_until``) and the event it waits for
(``_awaited``) — so a :class:`~repro.sim.process.LaneGroup` can run its
next stage inside the current action exactly when this loop would have
popped it next.  ``step()`` publishes an empty horizon: it runs one
action and nothing more.
"""

from __future__ import annotations

import heapq
import typing

from repro.errors import SimulationError
from repro.obs.census import note_engine
from repro.obs.recorder import recorder as _recorder
from repro.sim.events import _PENDING, _UNBOUNDED, Event, Timeout

Action = typing.Callable[[], None]


class Engine:
    """A deterministic discrete-event scheduler with femtosecond time."""

    def __init__(self) -> None:
        self._now = 0
        self._sequence = 0
        self._queue: typing.List[typing.Tuple[int, int, Action]] = []
        self._events_executed = 0
        # The horizon of the drive loop now running (see the module doc),
        # and the actions run inside other actions since it began; the
        # loop folds those into events_executed with its own count.
        self._inline_until: float = -1
        self._awaited: typing.Optional[Event] = None
        self._inline_executed = 0
        # Observability hooks resolve once, here; the disabled path adds
        # a single `is None` check to step() and nothing else.
        self._trace = _recorder.sink_for("engine.step")
        note_engine(self)

    @property
    def now(self) -> int:
        """Current simulation time in femtoseconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of scheduled actions executed so far."""
        return self._events_executed

    @property
    def quiescent(self) -> bool:
        """True when no actions are scheduled (a checkpointable barrier)."""
        return not self._queue

    def state_dict(self) -> dict:
        """Serializable scheduler state; only valid at a quiescent point.

        The queue holds bound callbacks into live generator frames, which
        cannot be serialized — snapshotting is only defined when it is
        empty (see :mod:`repro.checkpoint`).
        """
        if self._queue:
            raise SimulationError(
                f"engine is not quiescent: {len(self._queue)} actions pending"
            )
        return {
            "now": self._now,
            "sequence": self._sequence,
            "events_executed": self._events_executed,
        }

    def load_state(self, state: dict) -> None:
        """Restore scheduler state captured by :meth:`state_dict`."""
        if self._queue:
            raise SimulationError(
                f"cannot load state into a busy engine: {len(self._queue)} pending"
            )
        self._now = int(state["now"])
        self._sequence = int(state["sequence"])
        self._events_executed = int(state["events_executed"])

    def schedule(self, delay_fs: int, action: Action) -> None:
        """Run ``action`` after ``delay_fs`` femtoseconds."""
        if delay_fs < 0:
            raise SimulationError(f"cannot schedule in the past: {delay_fs}")
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._queue, (self._now + int(delay_fs), sequence, action))

    def timeout(self, delay_fs: int, value: object = None) -> Timeout:
        """Create a :class:`Timeout` event on this engine."""
        return Timeout(self, delay_fs, value)

    def event(self) -> Event:
        """Create a plain, manually-triggered event on this engine."""
        return Event(self)

    def process(self, generator: typing.Generator) -> "Process":
        """Spawn a :class:`~repro.sim.process.Process` from a generator."""
        from repro.sim.process import Process

        return Process(self, generator)

    def step(self) -> bool:
        """Execute the next scheduled action.  Returns False if none left."""
        if not self._queue:
            return False
        time_fs, _seq, action = heapq.heappop(self._queue)
        if time_fs < self._now:
            raise SimulationError("event queue time went backwards")
        self._now = time_fs
        self._events_executed += 1
        if self._trace is not None:
            self._trace.emit("engine.step", time_fs, "engine", None)
        horizon = self._enter(-1, None)
        try:
            action()
        finally:
            self._leave(0, horizon)
        return True

    def _enter(
        self, until: float, awaited: typing.Optional[Event]
    ) -> typing.Tuple[float, typing.Optional[Event]]:
        """Publish a drive loop's horizon; returns the one it replaces."""
        previous = (self._inline_until, self._awaited)
        self._inline_until = until
        self._awaited = awaited
        return previous

    def _leave(
        self, executed: int, horizon: typing.Tuple[float, typing.Optional[Event]]
    ) -> None:
        """End a drive loop: count its actions, restore the outer horizon."""
        self._events_executed += executed + self._inline_executed
        self._inline_executed = 0
        self._inline_until, self._awaited = horizon

    def run(self, until_fs: typing.Optional[int] = None) -> int:
        """Drain the event queue, optionally stopping at ``until_fs``.

        Returns the simulation time when the run stopped.  When ``until_fs``
        is given, time is advanced to exactly ``until_fs`` even if the last
        executed event was earlier.
        """
        queue = self._queue
        heappop = heapq.heappop
        trace = self._trace
        executed = 0
        if until_fs is None:
            horizon = self._enter(_UNBOUNDED, None)
            try:
                while queue:
                    time_fs, _seq, action = heappop(queue)
                    if time_fs < self._now:
                        raise SimulationError("event queue time went backwards")
                    self._now = time_fs
                    executed += 1
                    if trace is not None:
                        trace.emit("engine.step", time_fs, "engine", None)
                    action()
            finally:
                self._leave(executed, horizon)
            return self._now
        if until_fs < self._now:
            raise SimulationError("run target is in the past")
        horizon = self._enter(until_fs, None)
        try:
            while queue and queue[0][0] <= until_fs:
                time_fs, _seq, action = heappop(queue)
                if time_fs < self._now:
                    raise SimulationError("event queue time went backwards")
                self._now = time_fs
                executed += 1
                if trace is not None:
                    trace.emit("engine.step", time_fs, "engine", None)
                action()
        finally:
            self._leave(executed, horizon)
        self._now = until_fs
        return self._now

    def run_until_complete(self, event: Event, limit_fs: typing.Optional[int] = None) -> object:
        """Run until ``event`` triggers and return its value.

        Raises :class:`SimulationError` if the queue drains (deadlock) or the
        optional time ``limit_fs`` passes before the event triggers.
        """
        queue = self._queue
        heappop = heapq.heappop
        trace = self._trace
        executed = 0
        horizon = self._enter(_UNBOUNDED if limit_fs is None else limit_fs, event)
        try:
            while event._value is _PENDING:
                if not queue:
                    from repro.errors import DeadlockError

                    raise DeadlockError("event queue drained before event triggered")
                if limit_fs is not None and queue[0][0] > limit_fs:
                    raise SimulationError(
                        f"event did not trigger before limit ({limit_fs} fs)"
                    )
                time_fs, _seq, action = heappop(queue)
                if time_fs < self._now:
                    raise SimulationError("event queue time went backwards")
                self._now = time_fs
                executed += 1
                if trace is not None:
                    trace.emit("engine.step", time_fs, "engine", None)
                action()
        finally:
            self._leave(executed, horizon)
        return event._value
