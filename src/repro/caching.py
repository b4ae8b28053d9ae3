"""A bounded, thread-safe LRU cache with hit/miss accounting.

Shared by the annotator's per-table schema-encoding cache and the
serving layer's translation cache, both keyed by the table's content
fingerprint (computed once per table value).  Kept dependency-free
(``collections`` + ``threading`` only) so any layer of the library may
use it without import cycles.

Beyond plain ``get``/``put``, :meth:`LRUCache.get_or_compute` gives
single-flight semantics: concurrent misses on one key block behind a
single computation instead of duplicating it — the behaviour a hot
per-table cache needs under parallel traffic.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

__all__ = ["LRUCache"]

_MISSING = object()


class _InFlight:
    """A single in-progress computation other threads can wait on."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value = None
        self.error: BaseException | None = None


class LRUCache:
    """Least-recently-used mapping with a fixed capacity.

    ``get`` promotes the entry to most-recently-used; ``put`` evicts the
    least-recently-used entry once ``maxsize`` is exceeded.  All
    operations take an internal lock, so one instance may be shared
    across threads.

    ``hits`` / ``misses`` count lookup outcomes (a coalesced
    :meth:`get_or_compute` waiter counts as a hit: it was served
    without computing).  ``hit_rate()`` summarizes them.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._inflight: dict = {}
        self.evictions = 0
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, default=None, *, count: bool = True):
        """Return the cached value (promoting it), or ``default``.

        ``count=False`` leaves the hit/miss counters untouched — for
        bookkeeping-free double-checks (the serving layer re-checks
        under its model lock without recounting the same request).
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                if count:
                    self.misses += 1
                return default
            if count:
                self.hits += 1
            self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value) -> None:
        """Insert/overwrite an entry, evicting the LRU one if full."""
        with self._lock:
            self._put_locked(key, value)

    def get_or_compute(self, key: Hashable, compute: Callable[[], object]):
        """Return the cached value, computing (and caching) on a miss.

        Single-flight: when several threads miss the same key at once,
        exactly one runs ``compute()`` (outside the cache lock); the
        rest block until the value — or the computation's exception —
        is ready.  Different keys never block each other on compute.
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING:
                self.hits += 1
                self._data.move_to_end(key)
                return value
            waiter = self._inflight.get(key)
            if waiter is None:
                waiter = _InFlight()
                self._inflight[key] = waiter
                leader = True
                self.misses += 1
            else:
                leader = False
                self.hits += 1  # coalesced: served without computing

        if not leader:
            waiter.event.wait()
            if waiter.error is not None:
                raise waiter.error
            return waiter.value

        try:
            value = compute()
        except BaseException as exc:
            waiter.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            waiter.event.set()
            raise
        with self._lock:
            self._put_locked(key, value)
            self._inflight.pop(key, None)
        waiter.value = value
        waiter.event.set()
        return value

    def hit_rate(self) -> float:
        """Fraction of counted lookups served from the cache."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every entry (hit/miss/eviction counters are preserved)."""
        with self._lock:
            self._data.clear()

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def keys(self) -> list:
        """Current keys, least- to most-recently used (a snapshot)."""
        with self._lock:
            return list(self._data.keys())

    # ------------------------------------------------------------------

    def _put_locked(self, key: Hashable, value) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1
