"""Snapshot/restore envelope for a quiescent :class:`~repro.soc.machine.SoC`.

The machine itself serializes through the ``state_dict()``/``load_state()``
pairs its components implement; this module wraps that raw state in a
versioned, guarded envelope:

* ``schema`` — :data:`SCHEMA_VERSION`; any change to what a component
  captures bumps it, and a mismatched snapshot is rejected instead of
  silently misread.
* ``config_digest`` — canonical digest of the full ``SoCConfig``; a
  snapshot only restores into a machine built from the *same* config.
* the staging-mode flag rides inside the machine state (machines sample
  :mod:`repro.sim.fastpath` at construction, and fast/staged paths
  execute different event counts, so a snapshot from one mode must not
  restore into the other).

Everything in the envelope is JSON-able by construction — no pickle, no
live generator frames.  That is only possible because snapshots are taken
at *quiescent points*: the event queue is empty and every background
process (noise, OS ticks, fault injectors) has been stopped, so no
in-flight coroutine state exists to capture.  :meth:`SoC.quiesce` drives
a machine to such a point; :meth:`SoC.state_dict` refuses to run anywhere
else.
"""

from __future__ import annotations

import json
import typing

from repro.errors import CheckpointError
from repro.exec.seeds import stable_digest
from repro.soc.machine import SoC

if typing.TYPE_CHECKING:
    from repro.config import SoCConfig

#: Version of the snapshot schema.  Bump whenever any component's
#: ``state_dict`` shape changes; old blobs then read as misses/rejects
#: rather than as subtly wrong machines.  v2: the ring ledger's
#: ``last_request_fs``.
SCHEMA_VERSION = 2

Snapshot = typing.Dict[str, object]


def snapshot_soc(soc: SoC) -> Snapshot:
    """Capture a quiescent machine into a versioned, JSON-able envelope.

    Raises :class:`~repro.errors.SimulationError` if the machine is not
    quiescent (call :meth:`SoC.quiesce` first).
    """
    return {
        "schema": SCHEMA_VERSION,
        "config_digest": stable_digest(soc.config),
        "state": soc.state_dict(),
    }


def check_snapshot(snapshot: typing.Mapping[str, object], config: "SoCConfig") -> None:
    """Validate an envelope against the schema and a target config."""
    if not isinstance(snapshot, dict) or "schema" not in snapshot:
        raise CheckpointError("not a checkpoint snapshot (missing schema field)")
    if snapshot["schema"] != SCHEMA_VERSION:
        raise CheckpointError(
            f"snapshot schema v{snapshot['schema']} does not match this "
            f"build's v{SCHEMA_VERSION}; re-run the prefix"
        )
    digest = stable_digest(config)
    if snapshot.get("config_digest") != digest:
        raise CheckpointError(
            "snapshot was taken under a different SoC config "
            f"({snapshot.get('config_digest')!r} != {digest!r})"
        )


def restore_soc(config: "SoCConfig", snapshot: typing.Mapping[str, object]) -> SoC:
    """Build a fresh machine from ``config`` and load ``snapshot`` into it.

    The returned machine is indistinguishable from the one that produced
    the snapshot: same clocks, same RNG stream positions, same cache
    lines, same metrics.  Continuing it replays the exact event stream a
    cold run would have produced from the same point.
    """
    check_snapshot(snapshot, config)
    soc = SoC(config)
    soc.load_state(typing.cast(dict, snapshot["state"]))
    return soc


def snapshot_bytes(snapshot: typing.Mapping[str, object]) -> bytes:
    """Canonical serialized form (sorted keys, compact separators)."""
    return json.dumps(
        snapshot, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def snapshot_from_bytes(blob: bytes) -> Snapshot:
    """Parse a blob produced by :func:`snapshot_bytes`."""
    try:
        snapshot = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint blob: {exc}") from exc
    if not isinstance(snapshot, dict):
        raise CheckpointError("corrupt checkpoint blob: not an object")
    return snapshot
