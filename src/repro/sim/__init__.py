"""Minimal deterministic discrete-event simulation (DES) kernel.

The covert channels in this reproduction are *emergent* behaviours: a Trojan
and a Spy agent run as independent coroutines that interact only through the
shared microarchitectural state (caches, ring bus).  This package provides
the scheduling substrate for that: an integer-femtosecond event queue,
generator-based processes, composable events, and FIFO resources used to
model time-multiplexed hardware (the ring bus, LLC ports).

Time is kept as an integer number of femtoseconds so that two clock domains
with a non-integer frequency ratio (4.2 GHz CPU vs 1.1 GHz GPU) can coexist
without floating-point drift.
"""

from repro.sim.engine import Engine
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import LaneGroup, Process
from repro.sim.resources import FifoResource, TokenBucket
from repro.sim.rng import RngStreams
from repro.sim.stats import OnlineStats, confidence_interval_95

FS_PER_PS = 1_000
FS_PER_NS = 1_000_000
FS_PER_US = 1_000_000_000
FS_PER_MS = 1_000_000_000_000
FS_PER_S = 1_000_000_000_000_000


def fs_to_seconds(fs: int) -> float:
    """Convert an integer femtosecond timestamp to seconds."""
    return fs / FS_PER_S


def fs_to_ns(fs: int) -> float:
    """Convert an integer femtosecond timestamp to nanoseconds."""
    return fs / FS_PER_NS


def seconds_to_fs(seconds: float) -> int:
    """Convert seconds to the integer femtosecond unit used by the engine."""
    return round(seconds * FS_PER_S)


__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "FifoResource",
    "FS_PER_MS",
    "FS_PER_NS",
    "FS_PER_PS",
    "FS_PER_S",
    "FS_PER_US",
    "LaneGroup",
    "OnlineStats",
    "Process",
    "RngStreams",
    "Timeout",
    "TokenBucket",
    "confidence_interval_95",
    "fs_to_ns",
    "fs_to_seconds",
    "seconds_to_fs",
]
