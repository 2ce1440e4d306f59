"""A generic set-associative cache with pluggable indexing and replacement.

This one structure backs the CPU L1/L2, each LLC slice, and the GPU L3 —
they differ only in geometry, index function and replacement policy.  The
cache is purely a state machine; all timing lives in the access paths of
:class:`repro.soc.machine.SoC`.
"""

from __future__ import annotations

import typing

from repro.errors import CacheGeometryError
from repro.soc.replacement import ReplacementPolicy, TrueLru

IndexFn = typing.Callable[[int], int]


class AccessResult:
    """Outcome of one cache access.

    A plain ``__slots__`` record rather than a frozen dataclass: one is
    built on every simulated access, and a frozen dataclass pays an
    ``object.__setattr__`` per field.  Compares and prints by value.
    """

    __slots__ = ("hit", "set_index", "way", "evicted")

    def __init__(
        self,
        hit: bool,
        set_index: int,
        way: int,
        evicted: typing.Optional[int] = None,  # line address pushed out, if any
    ) -> None:
        self.hit = hit
        self.set_index = set_index
        self.way = way
        self.evicted = evicted

    def _key(self) -> typing.Tuple[bool, int, int, typing.Optional[int]]:
        return (self.hit, self.set_index, self.way, self.evicted)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"AccessResult(hit={self.hit}, set_index={self.set_index}, "
            f"way={self.way}, evicted={self.evicted})"
        )


class SetAssocCache:
    """Set-associative cache storing line addresses as tags."""

    def __init__(
        self,
        name: str,
        n_sets: int,
        ways: int,
        line_bytes: int,
        policy: ReplacementPolicy,
        index_fn: typing.Optional[IndexFn] = None,
    ) -> None:
        if n_sets <= 0 or ways <= 0:
            raise CacheGeometryError(f"{name}: sets and ways must be positive")
        if line_bytes & (line_bytes - 1):
            raise CacheGeometryError(f"{name}: line size must be a power of two")
        if policy.ways != ways:
            raise CacheGeometryError(f"{name}: policy sized for {policy.ways} ways")
        self.name = name
        self.n_sets = n_sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.policy = policy
        self._offset_bits = line_bytes.bit_length() - 1
        self._line_mask = ~(line_bytes - 1)
        self._index_fn = index_fn or self._default_index
        # Bound once: the per-access replacement updates.
        self._on_hit = policy.on_hit
        self._on_fill = policy.on_fill
        self._tags: typing.List[typing.List[typing.Optional[int]]] = [
            [None] * ways for _ in range(n_sets)
        ]
        self._meta = [policy.new_set_state() for _ in range(n_sets)]
        # Reverse map line -> (set, way) for O(1) invalidation.
        self._where: typing.Dict[int, typing.Tuple[int, int]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _default_index(self, paddr: int) -> int:
        return (paddr >> self._offset_bits) % self.n_sets

    @property
    def capacity_bytes(self) -> int:
        return self.n_sets * self.ways * self.line_bytes

    def set_index_of(self, paddr: int) -> int:
        """The set a physical address maps to."""
        return self._index_fn(paddr)

    def contains(self, paddr: int) -> bool:
        """Whether the line holding ``paddr`` is present (no state change)."""
        return (paddr & self._line_mask) in self._where

    def access(
        self, paddr: int, allowed_ways: typing.Optional[typing.Sequence[int]] = None
    ) -> AccessResult:
        """Look up ``paddr``; on miss, install it, evicting if needed.

        ``allowed_ways`` restricts where a *fill* may land (used by the
        way-partitioning mitigation); hits are unrestricted.
        """
        line = paddr & self._line_mask
        location = self._where.get(line)
        if location is not None:
            set_index, way = location
            self._on_hit(self._meta[set_index], way)
            self.hits += 1
            return AccessResult(True, set_index, way)
        self.misses += 1
        set_index = self._index_fn(line)
        way, evicted = self._install(set_index, line, allowed_ways)
        return AccessResult(False, set_index, way, evicted)

    def _install(
        self,
        set_index: int,
        line: int,
        allowed_ways: typing.Optional[typing.Sequence[int]],
    ) -> typing.Tuple[int, typing.Optional[int]]:
        tags = self._tags[set_index]
        meta = self._meta[set_index]
        if allowed_ways is None:
            # The first free way, else the policy's victim.
            way = tags.index(None) if None in tags else self.policy.victim(meta)
        else:
            for way in allowed_ways:
                if tags[way] is None:
                    break
            else:
                way = self._pick_victim(set_index, allowed_ways)
        evicted = tags[way]
        if evicted is not None:
            del self._where[evicted]
            self.evictions += 1
        tags[way] = line
        self._where[line] = (set_index, way)
        self._on_fill(meta, way)
        return way, evicted

    def _pick_victim(
        self, set_index: int, allowed_ways: typing.Optional[typing.Sequence[int]]
    ) -> int:
        meta = self._meta[set_index]
        if allowed_ways is None:
            return self.policy.victim(meta)
        allowed = set(allowed_ways)
        if not allowed:
            raise CacheGeometryError(f"{self.name}: empty way partition")
        # Honour recency within the partition when the policy is true LRU;
        # otherwise fall back to the policy victim if allowed, else any.
        if isinstance(self.policy, TrueLru):
            for way in reversed(typing.cast(list, meta)):  # LRU end first
                if way in allowed:
                    return way
        victim = self.policy.victim(meta)
        if victim in allowed:
            return victim
        return next(iter(sorted(allowed)))

    def invalidate(self, paddr: int) -> bool:
        """Drop the line holding ``paddr``; True if it was present."""
        location = self._where.pop(paddr & self._line_mask, None)
        if location is None:
            return False
        set_index, way = location
        self._tags[set_index][way] = None
        return True

    def lines_in_set(self, set_index: int) -> typing.Tuple[int, ...]:
        """The line addresses currently resident in one set."""
        return tuple(tag for tag in self._tags[set_index] if tag is not None)

    def occupancy(self, set_index: int) -> int:
        """Number of valid lines in one set."""
        return sum(1 for tag in self._tags[set_index] if tag is not None)

    def flush_all(self) -> None:
        """Invalidate every line (used between experiment repetitions)."""
        self._tags = [[None] * self.ways for _ in range(self.n_sets)]
        self._meta = [self.policy.new_set_state() for _ in range(self.n_sets)]
        self._where.clear()

    def resident_lines(self) -> typing.Iterator[int]:
        """Iterate over every resident line address."""
        return iter(self._where)

    def state_dict(self) -> typing.Dict[str, object]:
        """Full line + replacement + counter state, JSON-able.

        The reverse map is derivable from the tag arrays, so only tags,
        per-set policy metadata and the counters are captured.
        """
        return {
            "tags": [list(ways) for ways in self._tags],
            "meta": [self.policy.export_set_state(meta) for meta in self._meta],
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def load_state(self, state: typing.Dict[str, object]) -> None:
        """Restore state captured by :meth:`state_dict` (geometry must match)."""
        tags = typing.cast(typing.List[typing.List[typing.Optional[int]]], state["tags"])
        meta = typing.cast(typing.List[object], state["meta"])
        if len(tags) != self.n_sets or any(len(ways) != self.ways for ways in tags):
            raise CacheGeometryError(
                f"{self.name}: snapshot geometry does not match "
                f"({len(tags)} sets vs {self.n_sets})"
            )
        self._tags = [
            [None if tag is None else int(tag) for tag in ways] for ways in tags
        ]
        self._meta = [self.policy.import_set_state(entry) for entry in meta]
        self._where = {
            line: (set_index, way)
            for set_index, ways in enumerate(self._tags)
            for way, line in enumerate(ways)
            if line is not None
        }
        self.hits = int(typing.cast(int, state["hits"]))
        self.misses = int(typing.cast(int, state["misses"]))
        self.evictions = int(typing.cast(int, state["evictions"]))

    def stats_dict(self) -> typing.Dict[str, object]:
        """Hit/miss/eviction/occupancy counters for the metrics registry."""
        capacity_lines = self.n_sets * self.ways
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "resident_lines": len(self._where),
            "occupancy": len(self._where) / capacity_lines,
        }

    def __len__(self) -> int:
        return len(self._where)

    def __repr__(self) -> str:
        return (
            f"SetAssocCache({self.name!r}, sets={self.n_sets}, ways={self.ways}, "
            f"line={self.line_bytes}, resident={len(self._where)})"
        )
