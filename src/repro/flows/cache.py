"""Memoization of throughput values.

Theta depends only on the topology structure and the communication
pattern — not on message size, alpha, or the reconfiguration delay — so
the figure sweeps (thousands of (alpha_r, m) grid points) need only a
handful of distinct theta computations.  :class:`ThroughputCache` keys
results by (topology fingerprint, matching) and is shared by default
through a module-level instance.

The cache is a :class:`repro.memo.BoundedMemo` — thread-safe *and*
compute-once: when several threads (the planner daemon's workers, for
one) race on the same key, exactly one runs the LP solve while the
others wait on it, so no duplicate work is done and ``misses`` equals
the number of distinct keys computed, regardless of thread
interleaving.  The concurrency test suite pins this exactness.

The cache is *two-tier*.  Tier 1 is the in-process memo table; tier 2
is an optional content-addressed **store** (see
:class:`repro.engine.DiskStore`) consulted on a tier-1 miss and fed on
every fresh computation, so repeated grid runs across processes and CI
jobs pay zero LP solves after the first.  Lookups served by tier 2 are
counted as ``disk_hits`` — a ``miss`` always means the value was
actually computed in this process.  Tier 1 can be bounded with
``maxsize`` (LRU; in-flight computations are never evicted).

:meth:`ThroughputCache.stats` returns a consistent :class:`CacheStats`
snapshot for reporting.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable

from ..matching import Matching
from ..memo import BoundedMemo, CacheStats
from ..topology.base import Topology

__all__ = [
    "CacheStats",
    "ThetaStore",
    "ThroughputCache",
    "default_cache",
    "theta_key_digest",
    "theta_tag",
]


def theta_key_digest(key: tuple) -> str:
    """Content-address a cache key as a stable hex digest.

    The digest covers the topology fingerprint, the matching's rank
    count and (sorted) pairs, and the estimator tag, so two processes —
    or two machines — computing theta for the same structural inputs
    agree on the address.  Everything in the payload has a
    deterministic ``repr`` (ints, floats, strings, tuples); no
    interpreter hash randomization is involved.
    """
    fingerprint, matching, tag = key
    payload = ("theta-v1", fingerprint, matching.n, tuple(sorted(matching)), tag)
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def theta_tag(reference_rate: float, method: str = "auto") -> str:
    """The cache tag of a :func:`~repro.flows.compute_theta` value.

    Every exact theta — closed form, pod blocks or LP —
    is stored under the ``auto`` tag, so however it was priced one
    pattern has one entry.  The tag carries the reference rate: theta
    scales with capacity / reference_rate, so evaluations of one
    pattern under different normalizations must not share an entry (the
    tag also feeds the content-addressed disk digest).
    """
    return f"theta:{method}@{reference_rate!r}"


class ThetaStore:
    """Protocol for tier-2 stores (see :class:`repro.engine.DiskStore`).

    A store maps content digests to floats.  Implementations must be
    safe under concurrent readers and writers — multiple processes may
    share one store.
    """

    def load(self, digest: str) -> float | None:  # pragma: no cover
        raise NotImplementedError

    def save(self, digest: str, value: float) -> None:  # pragma: no cover
        raise NotImplementedError


class ThroughputCache(BoundedMemo[float]):
    """A keyed, thread-safe, compute-once memo table for theta values.

    Parameters
    ----------
    maxsize:
        Optional bound on completed tier-1 entries; the least recently
        used entry is evicted when exceeded.  ``None`` (default) is
        unbounded.
    store:
        Optional tier-2 :class:`ThetaStore` consulted on tier-1 misses
        and fed on every fresh computation.
    """

    def __init__(
        self,
        maxsize: int | None = None,
        store: ThetaStore | None = None,
    ) -> None:
        super().__init__(maxsize)
        self._store = store
        self.disk_hits = 0

    @property
    def store(self) -> ThetaStore | None:
        """The attached tier-2 store, if any."""
        return self._store

    def attach_store(self, store: ThetaStore | None) -> None:
        """Attach (or detach, with ``None``) the tier-2 store."""
        with self._lock:
            self._store = store

    def _clear_locked(self) -> None:
        # clear() keeps the tier-2 store: it is knowledge about
        # *content*, not per-process state.
        super()._clear_locked()
        self.disk_hits = 0

    def stats(self) -> CacheStats:
        """Hits / misses / size as one consistent snapshot."""
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                size=self._n_values,
                disk_hits=self.disk_hits,
                evictions=self.evictions,
            )

    def get_or_compute(
        self,
        topology: Topology,
        matching: Matching,
        compute: Callable[[], float],
        tag: str = "theta",
    ) -> float:
        """Return the cached value or compute, store, and return it.

        ``tag`` separates entries produced by different estimators (the
        exact LP vs. proxies) for the same pattern.  Compute-once
        semantics are :class:`~repro.memo.BoundedMemo`'s: ``compute``
        runs outside the lock, racing threads wait for the one owner, and
        a failed compute re-raises in every waiter and releases the key.

        With a tier-2 store attached, a tier-1 miss first consults the
        store; a found value is promoted into tier 1 and counted as a
        ``disk_hit`` — ``misses`` stays an exact count of computations
        actually performed in this process.
        """
        return super().get_or_compute(
            (topology.fingerprint(), matching, tag), compute
        )

    def _fill(self, key: tuple, compute: Callable[[], float]) -> float:
        """Tier 2 first, then compute and feed tier 2."""
        with self._lock:
            store = self._store
        if store is None:
            return float(super()._fill(key, compute))
        # One digest serves the store lookup and the fresh-value save
        # (it hashes the repr of the whole topology fingerprint — not
        # something to redo).  No lock is held during store I/O; the
        # store handles its own concurrency.
        digest = theta_key_digest(key)
        value = store.load(digest)
        if value is not None:
            with self._lock:
                self.disk_hits += 1
            return value
        value = float(super()._fill(key, compute))
        store.save(digest, value)
        return value


default_cache = ThroughputCache()
