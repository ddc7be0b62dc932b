"""Content-addressed on-disk theta store (tier 2 of the engine cache).

A :class:`DiskStore` persists throughput values as JSON lines keyed by
the content digest of their inputs (topology fingerprint + matching
digest + backend/estimator tag — see
:func:`repro.flows.theta_key_digest`), so repeated ``figure1`` /
``figure2`` / ``workload`` grid runs across processes and CI jobs pay
zero LP solves after the first.

The format is deliberately boring: one ``{"k": digest, "v": value}``
line per entry, appended with ``O_APPEND`` semantics.  Small appends to
an append-mode file are atomic on POSIX, so any number of concurrent
writer processes is safe — at worst two workers racing on the same key
append the same (content-addressed, hence identical) value twice, and
the loader keeps the last occurrence.  Readers tail the file
incrementally: a lookup that misses the in-memory view re-reads only
the bytes appended since the last refresh, which is how separate
processes sharing one cache directory pick up each other's LP solves
mid-run.  A file that was truncated or replaced under a reader is
tailed again from its start.

Set ``REPRO_CACHE_DIR`` to enable the persistent tier for the default
cache (see :func:`activate_disk_cache`); without it, stores are only
created explicitly.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

__all__ = [
    "ENV_CACHE_DIR",
    "STORE_FILENAME",
    "DiskStore",
    "resolve_cache_dir",
    "activate_disk_cache",
]

#: Environment variable naming the persistent cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: File (inside the cache directory) holding the theta entries.
STORE_FILENAME = "theta.jsonl"


class DiskStore:
    """A digest-keyed float store backed by an append-only JSONL file.

    Implements the :class:`repro.flows.ThetaStore` protocol
    (``load`` / ``save``) and is safe to share between threads and
    between processes.
    """

    def __init__(self, directory: str | Path):
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._path = self._directory / STORE_FILENAME
        self._lock = threading.Lock()
        self._entries: dict[str, float] = {}
        self._offset = 0
        # The file's first line as read at offset 0: an append-only
        # file never changes it, so a mismatch means a new file.
        self._head = b""
        with self._lock:
            self._refresh_locked()

    @property
    def directory(self) -> Path:
        """The cache directory this store lives in."""
        return self._directory

    @property
    def path(self) -> Path:
        """The JSONL file holding the entries."""
        return self._path

    def __len__(self) -> int:
        with self._lock:
            self._refresh_locked()
            return len(self._entries)

    def __repr__(self) -> str:
        return f"DiskStore({str(self._path)!r}, entries={len(self)})"

    def _refresh_locked(self) -> None:
        """Fold any bytes appended since the last read into the view.

        Only complete lines are consumed — a concurrent writer may be
        mid-append — and malformed lines (torn by a crash) are skipped
        rather than poisoning the store.  A file shorter than the read
        offset, or whose first line changed, was truncated or replaced
        (say, the cache directory was removed under a running daemon):
        it is read again from byte 0, keeping the entries already held.
        """
        try:
            size = self._path.stat().st_size
            if size == self._offset:
                return
            with open(self._path, "rb") as fh:
                if size < self._offset or fh.readline() != self._head:
                    self._offset = 0
                fh.seek(self._offset)
                chunk = fh.read()
        except OSError:
            # A vanished or unreadable file degrades the read tier to
            # a miss; writes still surface their errors loudly.
            return
        end = chunk.rfind(b"\n")
        if end < 0:
            return
        if self._offset == 0:
            self._head = chunk[: chunk.index(b"\n") + 1]
        self._offset += end + 1
        for line in chunk[:end].splitlines():
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if isinstance(row, dict) and "k" in row and "v" in row:
                try:
                    self._entries[str(row["k"])] = float(row["v"])
                except (TypeError, ValueError):
                    continue

    def load(self, digest: str) -> float | None:
        """The stored value for ``digest``, or ``None``.

        Misses trigger an incremental re-read of the backing file, so
        values appended by concurrent writers become visible without
        re-parsing the whole store.
        """
        with self._lock:
            value = self._entries.get(digest)
            if value is None:
                self._refresh_locked()
                value = self._entries.get(digest)
            return value

    def save(self, digest: str, value: float) -> None:
        """Append one entry (no-op if the same value is already held)."""
        value = float(value)
        with self._lock:
            if self._entries.get(digest) == value:
                return
            line = json.dumps({"k": str(digest), "v": value}) + "\n"
            with open(self._path, "a", encoding="utf-8") as fh:
                fh.write(line)
            self._entries[str(digest)] = value


def resolve_cache_dir() -> Path | None:
    """The persistent cache directory from ``REPRO_CACHE_DIR`` (or None)."""
    raw = os.environ.get(ENV_CACHE_DIR, "").strip()
    return Path(raw) if raw else None


def activate_disk_cache(directory: str | Path | None = None, cache=None):
    """Attach the persistent disk tier to a throughput cache.

    Parameters
    ----------
    directory:
        Cache directory; defaults to ``REPRO_CACHE_DIR``.  When neither
        is set this is a no-op returning ``None`` — the disk tier is
        strictly opt-in so test runs stay hermetic.
    cache:
        The cache to upgrade; defaults to the process-wide
        :data:`repro.flows.default_cache`.

    Returns
    -------
    DiskStore | None
        The attached store (idempotent: re-activating with the same
        directory reuses the existing store).
    """
    from ..flows import default_cache

    if cache is None:
        cache = default_cache
    target = Path(directory) if directory is not None else resolve_cache_dir()
    if target is None:
        return None
    existing = cache.store
    if isinstance(existing, DiskStore) and existing.directory == target:
        return existing
    store = DiskStore(target)
    cache.attach_store(store)
    return store
