"""Event primitives for the DES kernel.

An :class:`Event` is a one-shot future: it is *pending* until something
calls :meth:`Event.succeed`, at which point every registered callback runs
(synchronously, in registration order) and late subscribers are invoked
immediately.  Processes (see :mod:`repro.sim.process`) suspend themselves by
yielding events.

Millions of these objects are created per channel trial, so every class in
the hierarchy declares ``__slots__`` (no per-instance ``__dict__``) and the
hot :class:`Timeout` path schedules a bound method instead of a closure.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError

if typing.TYPE_CHECKING:
    from repro.sim.engine import Engine

Callback = typing.Callable[["Event"], None]

_PENDING = object()

#: The horizon of a drive loop that runs until its queue drains.
_UNBOUNDED = float("inf")


class Event:
    """A one-shot future tied to an :class:`~repro.sim.engine.Engine`."""

    __slots__ = ("engine", "_value", "_callbacks")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._value: object = _PENDING
        self._callbacks: typing.List[Callback] = []

    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` has been called."""
        return self._value is not _PENDING

    @property
    def value(self) -> object:
        """The payload passed to :meth:`succeed`.

        Raises :class:`SimulationError` if the event is still pending.
        """
        if self._value is _PENDING:
            raise SimulationError("event value read before it triggered")
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event, delivering ``value`` to all subscribers."""
        if self._value is not _PENDING:
            raise SimulationError("event triggered twice")
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for callback in callbacks:
                callback(self)
        return self

    def subscribe(self, callback: Callback) -> None:
        """Run ``callback(self)`` when the event triggers.

        If the event already triggered, the callback runs immediately; this
        lets processes yield events that completed in the past.
        """
        if self._value is not _PENDING:
            callback(self)
        else:
            self._callbacks.append(callback)


class Timeout(Event):
    """An event that triggers ``delay_fs`` femtoseconds after creation."""

    __slots__ = ("delay_fs", "_payload")

    def __init__(self, engine: "Engine", delay_fs: int, value: object = None) -> None:
        if delay_fs < 0:
            raise SimulationError(f"negative timeout: {delay_fs}")
        self.engine = engine
        self._value = _PENDING
        self._callbacks = []
        self.delay_fs = int(delay_fs)
        self._payload = value
        engine.schedule(self.delay_fs, self._fire)

    def _fire(self) -> None:
        self.succeed(self._payload)


class AllOf(Event):
    """Triggers when every child event has triggered.

    The value is the list of child values, in the order the children were
    given (not completion order).
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, engine: "Engine", events: typing.Sequence[Event]) -> None:
        super().__init__(engine)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            # An empty barrier completes on the next scheduling round so
            # that subscribers registered after construction still fire.
            engine.schedule(0, self._succeed_empty)
            return
        for event in self._events:
            event.subscribe(self._on_child)

    def _succeed_empty(self) -> None:
        self.succeed([])

    def _on_child(self, _event: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([event.value for event in self._events])


class AnyOf(Event):
    """Triggers when the first child event triggers.

    The value is a ``(index, value)`` pair identifying the winning child.
    """

    __slots__ = ()

    def __init__(self, engine: "Engine", events: typing.Sequence[Event]) -> None:
        super().__init__(engine)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        for index, event in enumerate(events):
            event.subscribe(self._make_callback(index))

    def _make_callback(self, index: int) -> Callback:
        def callback(event: Event) -> None:
            if not self.triggered:
                self.succeed((index, event.value))

        return callback
