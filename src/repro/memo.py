"""One memo primitive and one counter helper for the whole package.

Theta depends only on the fabric and the pattern, so the engine leans
on memoization at every layer: theta values, step costs, built
topologies, pod subproblem bounds and values, sim incidence
structures, flow-rate blocks and the daemon's online sessions.  They
all share :class:`BoundedMemo`, a keyed, thread-safe, **compute-once** table:

* the first thread to miss on a key claims it with an in-flight
  :class:`~concurrent.futures.Future` and computes *outside* the lock,
  while every other thread looking up the key blocks on that Future, so
  each key is computed exactly once however threads race;
* a failed compute re-raises in the owner and in every waiter, and
  releases the key so a later lookup retries;
* :meth:`BoundedMemo.clear` never brings back an entry that was in
  flight when it ran (the owner still serves its waiters);
* with ``maxsize`` set, completed entries are evicted least recently
  used first, and in-flight entries are never evicted;
* ``hits``, ``misses`` and ``evictions`` are exact: ``misses`` counts
  computations, ``hits`` every other lookup, for any interleaving;
* :meth:`BoundedMemo.peek` reads a completed value without ever
  computing or waiting.

Values must not themselves be :class:`~concurrent.futures.Future`
objects (a Future is the in-flight marker).

:class:`Counters` is the package's one kind of thread-safe work
counters (the block solver's statistics and the rate incidence
builds).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Generic, TypeVar

from .exceptions import ConfigurationError

__all__ = ["BoundedMemo", "CacheStats", "Counters"]

V = TypeVar("V")

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of a memo's counters.

    ``hits`` are in-memory hits, ``disk_hits`` are lookups a
    :class:`~repro.flows.ThroughputCache` served from its attached
    tier-2 store or a merged worker delta, and ``misses`` are values
    actually computed in this process.  ``evictions`` counts completed
    entries dropped by the LRU bound.
    """

    hits: int
    misses: int
    size: int
    disk_hits: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get_or_compute`` calls observed."""
        return self.hits + self.misses + self.disk_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without computing (0.0 when idle)."""
        lookups = self.lookups
        return (self.hits + self.disk_hits) / lookups if lookups else 0.0


class BoundedMemo(Generic[V]):
    """A keyed, thread-safe, compute-once memo table.

    Parameters
    ----------
    maxsize:
        Optional bound on completed entries; the least recently used
        one is evicted when exceeded.  ``None`` (default) is unbounded.
    """

    def __init__(self, maxsize: int | None = None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ConfigurationError(f"maxsize must be >= 1 or None, got {maxsize}")
        self._maxsize = maxsize
        self._lock = threading.Lock()
        self._table: OrderedDict[Hashable, V | Future] = OrderedDict()
        self._n_values = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def maxsize(self) -> int | None:
        """The LRU bound (``None`` when unbounded)."""
        return self._maxsize

    def __len__(self) -> int:
        with self._lock:
            return self._n_values

    def clear(self) -> None:
        """Drop every entry and reset the counters.

        In-flight computations finish and serve their waiters, but do
        not put their entries back into the cleared table.
        """
        with self._lock:
            self._clear_locked()

    def _clear_locked(self) -> None:
        self._table.clear()
        self._n_values = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> CacheStats:
        """Hits / misses / size / evictions as one consistent snapshot."""
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                size=self._n_values,
                evictions=self.evictions,
            )

    def peek(self, key: Hashable) -> V | None:
        """The completed value for ``key``, or ``None``; never computes
        and never waits on an in-flight entry.  A found value counts as
        a hit (and refreshes its recency); a lookup that finds nothing
        counts nothing."""
        with self._lock:
            entry = self._table.get(key)
            if entry is None or isinstance(entry, Future):
                return None
            self.hits += 1
            if self._maxsize is not None:
                self._table.move_to_end(key)
            return entry

    def get_or_compute(self, key: Hashable, compute: Callable[[], V]) -> V:
        """Return the value for ``key``, computing it once if absent.

        ``compute`` runs outside the lock, in the thread that claimed the
        key; threads racing on the key wait for its result.  If
        ``compute`` raises, the error propagates to the owner and every
        waiter, and the key is released for a later retry.
        """
        with self._lock:
            entry = self._table.get(key, _MISSING)
            if entry is _MISSING:
                cell: Future = Future()
                self._table[key] = cell
            else:
                self.hits += 1
                if not isinstance(entry, Future):
                    if self._maxsize is not None:
                        # Recency only matters when the bound can evict.
                        self._table.move_to_end(key)
                    return entry
        if entry is not _MISSING:
            # Another thread owns the computation; wait for its result.
            return entry.result()
        try:
            value = self._fill(key, compute)
        except BaseException as exc:
            # An unresolved in-flight cell would block its waiters
            # forever: release the key and hand them the error.
            with self._lock:
                if self._table.get(key) is cell:
                    del self._table[key]
            cell.set_exception(exc)
            raise
        with self._lock:
            # clear() may have dropped our in-flight cell; don't
            # resurrect the entry, but still serve current waiters.
            if self._table.get(key) is cell:
                self._table[key] = value
                self._n_values += 1
                if self._maxsize is not None:
                    self._table.move_to_end(key)
                    self._evict_locked()
        cell.set_result(value)
        return value

    def _fill(self, key: Hashable, compute: Callable[[], V]) -> V:
        """Produce the value of a claimed key (owner thread, no lock
        held); counts the miss."""
        with self._lock:
            self.misses += 1
        return compute()

    def _evict_locked(self) -> None:
        """Drop least-recently-used completed entries past ``maxsize``
        (callers hold the lock; in-flight Futures are never evicted)."""
        while self._n_values > self._maxsize:
            for key, value in self._table.items():
                if not isinstance(value, Future):
                    del self._table[key]
                    self._n_values -= 1
                    self.evictions += 1
                    break
            else:  # pragma: no cover - only Futures left
                break


class Counters:
    """A fixed set of named integer counters behind one lock."""

    def __init__(self, *names: str) -> None:
        self._lock = threading.Lock()
        self._values = dict.fromkeys(names, 0)

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._values[name] += by

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        with self._lock:
            self._values = dict.fromkeys(self._values, 0)
