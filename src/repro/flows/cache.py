"""Memoization of throughput values.

Theta depends only on the topology structure and the communication
pattern — not on message size, alpha, or the reconfiguration delay — so
the figure sweeps (thousands of (alpha_r, m) grid points) need only a
handful of distinct theta computations.  :class:`ThroughputCache` keys
results by (topology fingerprint, matching) and is shared by default
through a module-level instance.

The cache is a :class:`repro.memo.BoundedMemo` — thread-safe *and*
compute-once: when several of :func:`repro.engine.plan_many`'s worker
threads race on the same key, exactly one runs the LP solve while the
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
from collections.abc import Callable, Iterable

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

    Every exact theta — closed form, pod blocks, delta-priced or LP —
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
    track_delta:
        Record every fresh ``(digest, value)`` computation so
        :meth:`drain_delta` can hand it to another process'
        :meth:`merge_delta` (the engine's process pool uses this to
        merge per-worker results back into the parent cache).
    """

    def __init__(
        self,
        maxsize: int | None = None,
        store: ThetaStore | None = None,
        track_delta: bool = False,
    ) -> None:
        super().__init__(maxsize)
        self._store = store
        self._overlay: dict[str, float] = {}
        self._delta: list[tuple[str, float]] | None = [] if track_delta else None
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
        # clear() keeps the tier-2 store and the merged overlay: they
        # are knowledge about *content*, not per-process state.
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

    def merge_delta(self, pairs: Iterable[tuple[str, float]]) -> None:
        """Fold another process' fresh computations into this cache.

        Merged values live in a digest-keyed overlay: the next
        ``get_or_compute`` for a matching structural key is served from
        the overlay (counted as a ``disk_hit``) instead of recomputing.
        """
        with self._lock:
            for digest, value in pairs:
                self._overlay[str(digest)] = float(value)

    def drain_delta(self) -> list[tuple[str, float]]:
        """Return and clear the fresh computations recorded so far.

        Empty unless the cache was created with ``track_delta=True``.
        """
        with self._lock:
            if self._delta is None:
                return []
            out = list(self._delta)
            self._delta.clear()
            return out

    def _digest_for(self, key: tuple) -> str | None:
        """The key's content digest, or ``None`` when no tier-2
        machinery (store / overlay / delta log) would consume it."""
        with self._lock:
            needed = (
                self._store is not None
                or bool(self._overlay)
                or self._delta is not None
            )
        return theta_key_digest(key) if needed else None

    def _tier2_lookup(self, digest: str | None) -> float | None:
        """Consult the merged overlay, then the store (no lock held
        during store I/O; the store handles its own concurrency)."""
        if digest is None:
            return None
        with self._lock:
            store = self._store
            value = self._overlay.get(digest)
        if value is not None:
            return value
        if store is None:
            return None
        return store.load(digest)

    def seed(
        self,
        topology: Topology,
        matching: Matching,
        value: float,
        tag: str = "theta",
    ) -> float:
        """Publish an externally computed theta value under ``tag``.

        The prewarm paths (:func:`repro.flows.prewarm_closed_forms`,
        the engine's incremental :class:`~repro.engine.PlanContext`)
        price values outside the cache and hand them over here so later
        :func:`~repro.flows.compute_theta` lookups hit.  An existing
        entry wins — compute-once semantics are preserved — and the
        returned float is whatever the cache now holds for the key.
        """
        return self.get_or_compute(
            topology, matching, lambda: float(value), tag=tag
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
        # One digest serves the overlay check, the store lookup, and the
        # fresh-value record (it hashes the repr of the whole topology
        # fingerprint — not something to redo).
        digest = self._digest_for(key)
        value = self._tier2_lookup(digest)
        if value is not None:
            with self._lock:
                self.disk_hits += 1
            return value
        value = float(super()._fill(key, compute))
        self._record_fresh(digest, value)
        return value

    def _record_fresh(self, digest: str | None, value: float) -> None:
        """Feed a fresh computation to the store and the delta log."""
        if digest is None:
            return
        with self._lock:
            store = self._store
        if store is not None:
            store.save(digest, value)
        with self._lock:
            if self._delta is not None:
                self._delta.append((digest, value))


default_cache = ThroughputCache()
