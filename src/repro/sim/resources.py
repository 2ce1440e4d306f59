"""Time-multiplexed hardware resources.

The ring bus and the LLC slice ports are modeled as FIFO resources: a
request is granted immediately if the resource is idle, otherwise it queues.
The queueing delay a requester experiences is exactly the "contention" the
paper's second covert channel modulates (§IV).
"""

from __future__ import annotations

import collections
import typing

from repro.errors import SimulationError
from repro.sim.events import Event

if typing.TYPE_CHECKING:
    from repro.sim.engine import Engine


class FifoResource:
    """A single-server FIFO resource with occupancy accounting."""

    def __init__(self, engine: "Engine", name: str = "resource") -> None:
        self.engine = engine
        self.name = name
        self._busy = False
        # Each waiter is a (grant event, request time) pair; the request
        # time feeds the wait accounting without touching the event object
        # (Event has __slots__, so it cannot carry ad-hoc attributes).
        self._waiters: typing.Deque[typing.Tuple[Event, int]] = collections.deque()
        # Accounting for utilization / contention analysis.
        self.total_grants = 0
        self.total_wait_fs = 0
        self.total_hold_fs = 0
        self._granted_at = 0
        # Reservation ledger (fast path): the time the server frees up,
        # and the latest request time booked so far.
        self._busy_until = 0
        self._last_request_fs = 0

    @property
    def busy(self) -> bool:
        """Whether the resource is currently held."""
        return self._busy or self.engine.now < self._busy_until

    @property
    def queue_length(self) -> int:
        """Number of requests waiting behind the current holder."""
        return len(self._waiters)

    def request(self) -> Event:
        """Ask for the resource; the returned event triggers when granted."""
        now = self.engine.now
        event = Event(self.engine)
        if not self._busy:
            self._busy = True
            self._granted_at = now
            self.total_grants += 1
            event.succeed(now)
        else:
            self._waiters.append((event, now))
        return event

    def release(self) -> None:
        """Give the resource up, waking the next waiter if any."""
        if not self._busy:
            raise SimulationError(f"release of idle resource {self.name!r}")
        now = self.engine.now
        self.total_hold_fs += now - self._granted_at
        if self._waiters:
            event, requested_at = self._waiters.popleft()
            self.total_wait_fs += now - requested_at
            self._granted_at = now
            self.total_grants += 1
            event.succeed(now)
        else:
            self._busy = False

    def occupy(self, hold_fs: int) -> typing.Generator[Event, object, int]:
        """Acquire, hold for ``hold_fs``, release.

        Usable as ``waited = yield from resource.occupy(hold)``; returns the
        femtoseconds spent waiting in the queue (the contention delay).
        """
        requested_at = self.engine.now
        yield self.request()
        waited = self.engine.now - requested_at
        yield hold_fs
        self.release()
        return waited

    def reserve(self, hold_fs: int, at_fs: typing.Optional[int] = None) -> int:
        """Ledger-mode occupancy: grant, hold and release in one call.

        Books a FIFO occupancy of ``hold_fs`` requested at ``at_fs``
        (default: now) without any event traffic, returning the queueing
        delay the requester experiences — exactly what
        ``yield from occupy(hold_fs)`` would have returned, because FIFO
        service order is fully determined by request time.  The caller is
        responsible for simulating the returned wait plus the hold (one
        coalesced yield).  ``at_fs`` may lie in the future (a coalesced
        access path reserving at its logical request time); it must never
        precede an earlier reservation's request time — the ledger could
        not then return the FIFO wait, so that raises
        :class:`SimulationError`.

        Event-mode (:meth:`request`/:meth:`release`) and ledger-mode use
        must not be mixed on one resource — a machine picks one mode at
        construction.
        """
        at = self.engine._now if at_fs is None else at_fs
        if at < self._last_request_fs:
            raise SimulationError(
                f"resource {self.name!r}: reservation requested at {at} fs "
                f"after one requested at {self._last_request_fs} fs"
            )
        self._last_request_fs = at
        start = self._busy_until
        if start < at:
            start = at
        waited = start - at
        self._busy_until = start + hold_fs
        self.total_grants += 1
        self.total_wait_fs += waited
        self.total_hold_fs += hold_fs
        return waited

    def state_dict(self) -> dict:
        """Serializable ledger + accounting state; requires an idle server.

        Waiter events reference live process frames, so snapshotting is
        only defined when the grant queue is empty and no event-mode hold
        is outstanding (the :mod:`repro.checkpoint` quiescence contract).
        """
        if self._busy or self._waiters:
            raise SimulationError(
                f"resource {self.name!r} is not quiescent "
                f"(busy={self._busy}, waiters={len(self._waiters)})"
            )
        return {
            "total_grants": self.total_grants,
            "total_wait_fs": self.total_wait_fs,
            "total_hold_fs": self.total_hold_fs,
            "granted_at": self._granted_at,
            "busy_until": self._busy_until,
            "last_request_fs": self._last_request_fs,
        }

    def load_state(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        if self._busy or self._waiters:
            raise SimulationError(
                f"cannot load state into busy resource {self.name!r}"
            )
        self.total_grants = int(state["total_grants"])
        self.total_wait_fs = int(state["total_wait_fs"])
        self.total_hold_fs = int(state["total_hold_fs"])
        self._granted_at = int(state["granted_at"])
        self._busy_until = int(state["busy_until"])
        self._last_request_fs = int(state["last_request_fs"])

    def utilization(self) -> float:
        """Fraction of elapsed simulation time the resource was held."""
        if self.engine.now == 0:
            return 0.0
        held = self.total_hold_fs
        if self._busy:
            held += self.engine.now - self._granted_at
        # Ledger mode books whole holds up front; exclude the unexpired
        # overhang so mid-hold reads match event-mode partial accounting.
        overhang = self._busy_until - self.engine.now
        if overhang > 0:
            held -= overhang
        return held / self.engine.now


class Semaphore:
    """A counting resource: up to ``capacity`` holders at once, FIFO queue.

    Models structures that host several concurrent occupants — e.g. the
    hardware-thread budget of a GPU subslice across resident work-groups.
    """

    def __init__(self, engine: "Engine", capacity: int, name: str = "semaphore") -> None:
        if capacity < 1:
            raise SimulationError("semaphore capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: typing.Deque[Event] = collections.deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Ask for one slot; the returned event triggers when granted."""
        event = self.engine.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(self.engine.now)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Free one slot, waking the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle semaphore {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed(self.engine.now)
        else:
            self._in_use -= 1


class TokenBucket:
    """A rate limiter used by background-noise agents.

    Tokens accrue at ``rate_per_s`` and the bucket holds at most ``burst``
    tokens.  :meth:`next_delay_fs` returns how long a caller must wait
    before its next permitted action.
    """

    def __init__(self, engine: "Engine", rate_per_s: float, burst: int = 1) -> None:
        if rate_per_s <= 0:
            raise SimulationError("token rate must be positive")
        self.engine = engine
        self.rate_per_s = rate_per_s
        self.burst = max(1, int(burst))
        self._tokens = float(self.burst)
        self._last_fs = engine.now

    def _refill(self) -> None:
        from repro.sim import FS_PER_S

        elapsed = self.engine.now - self._last_fs
        self._last_fs = self.engine.now
        self._tokens = min(
            float(self.burst), self._tokens + elapsed * self.rate_per_s / FS_PER_S
        )

    def next_delay_fs(self) -> int:
        """Consume one token, returning the wait (0 if one was available)."""
        from repro.sim import FS_PER_S

        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0
        deficit = 1.0 - self._tokens
        self._tokens = 0.0
        return int(deficit * FS_PER_S / self.rate_per_s)
