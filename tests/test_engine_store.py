"""The two-tier cache: on-disk store and LRU bound.

Covers the content-addressed :class:`~repro.engine.DiskStore` (JSONL
round-trips, concurrent-writer visibility from threads and from
separate processes, torn-line tolerance, re-tailing a file truncated or
replaced under a reader), the ``REPRO_CACHE_DIR`` activation path, the
``maxsize`` LRU bound with eviction accounting, and a warm disk cache
serving a whole figure grid with zero LP solves.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import shutil
import threading

import pytest

from repro.engine import (
    DiskStore,
    activate_disk_cache,
    plan_many,
    resolve_cache_dir,
)
from repro.exceptions import ConfigurationError
from repro.experiments.config import small_config
from repro.experiments.figure1 import panel_by_id, run_panel
from repro.flows import ThroughputCache, default_cache, theta_key_digest
from repro.matching import Matching
from repro.planner import Scenario, scenario_grid
from repro.topology import ring
from repro.units import Gbps, KiB, MiB, ns, us

B = Gbps(800)


def small_grid():
    base = Scenario.create(
        "allreduce_recursive_doubling",
        n=8,
        message_size=MiB(1),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(10),
    )
    return scenario_grid(base, [KiB(64), MiB(1), MiB(16)], [us(1), us(100)])


def _append_entries(directory, prefix, count, start):
    """A writer process: wait for the others, then append ``count``
    entries of its own (module-level, so a spawned child can import
    it)."""
    start.wait(timeout=60)
    store = DiskStore(directory)
    for i in range(count):
        store.save(f"{prefix}-{i}", float(i))


class TestDiskStore:
    def test_round_trip(self, tmp_path):
        store = DiskStore(tmp_path)
        store.save("abc", 0.125)
        assert store.load("abc") == 0.125
        assert store.load("missing") is None
        assert len(store) == 1

    def test_persists_across_instances(self, tmp_path):
        DiskStore(tmp_path).save("k1", 2.5)
        fresh = DiskStore(tmp_path)
        assert fresh.load("k1") == 2.5

    def test_infinity_round_trips(self, tmp_path):
        store = DiskStore(tmp_path)
        store.save("inf", math.inf)
        assert DiskStore(tmp_path).load("inf") == math.inf

    def test_concurrent_writer_visibility(self, tmp_path):
        """A reader picks up another process' (here: instance's) appends
        through the incremental tail-read on miss."""
        reader = DiskStore(tmp_path)
        writer = DiskStore(tmp_path)
        assert reader.load("late") is None
        writer.save("late", 7.0)
        assert reader.load("late") == 7.0

    def test_last_write_wins_and_dedup(self, tmp_path):
        store = DiskStore(tmp_path)
        store.save("k", 1.0)
        store.save("k", 1.0)  # deduplicated: no second line
        assert len(store.path.read_text().splitlines()) == 1
        store.save("k", 2.0)
        assert DiskStore(tmp_path).load("k") == 2.0

    def test_torn_and_garbage_lines_are_skipped(self, tmp_path):
        store = DiskStore(tmp_path)
        store.save("good", 1.5)
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write(json.dumps({"unrelated": True}) + "\n")
            fh.write('{"k": "torn", "v": 9')  # no trailing newline
        fresh = DiskStore(tmp_path)
        assert fresh.load("good") == 1.5
        assert fresh.load("torn") is None

    def test_threaded_writers(self, tmp_path):
        store = DiskStore(tmp_path)

        def write(base):
            for i in range(20):
                store.save(f"{base}-{i}", float(i))

        threads = [
            threading.Thread(target=write, args=(n,)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        fresh = DiskStore(tmp_path)
        assert len(fresh) == 80

    def test_writer_processes(self, tmp_path):
        """Separate processes sharing one store: every entry lands on
        its own whole line, a fresh store loads them all, and a reader
        opened before the writers started sees them all by tailing."""
        per_writer = 200
        prefixes = ("a", "b")
        reader = DiskStore(tmp_path)
        context = multiprocessing.get_context("spawn")
        start = context.Barrier(len(prefixes))
        writers = [
            context.Process(
                target=_append_entries,
                args=(str(tmp_path), prefix, per_writer, start),
            )
            for prefix in prefixes
        ]
        try:
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=120)
            assert [writer.exitcode for writer in writers] == [0, 0]
        finally:
            for writer in writers:
                if writer.is_alive():
                    writer.terminate()

        lines = reader.path.read_bytes().split(b"\n")
        assert lines[-1] == b""  # the file ends on a whole line
        rows = [json.loads(line) for line in lines[:-1]]  # none torn
        assert len(rows) == len(prefixes) * per_writer
        assert len(DiskStore(tmp_path)) == len(prefixes) * per_writer
        for prefix in prefixes:
            for i in range(per_writer):
                assert reader.load(f"{prefix}-{i}") == float(i)


class TestRewrittenStoreFile:
    """A long-lived reader whose file is truncated or replaced (say,
    the cache directory is removed under a running daemon) tails the
    new file from its start and keeps the entries it already holds."""

    def _reader_past_old_entries(self, directory):
        reader = DiskStore(directory)
        writer = DiskStore(directory)
        for i in range(20):
            writer.save(f"old-{i}", float(i))
        assert reader.load("old-19") == 19.0  # offset now past 20 lines
        return reader

    def test_truncated_file_is_read_from_the_start(self, tmp_path):
        reader = self._reader_past_old_entries(tmp_path)
        reader.path.write_bytes(b"")
        writer = DiskStore(tmp_path)
        writer.save("new-0", 0.5)
        writer.save("new-1", 1.5)
        assert reader.path.stat().st_size > 0
        assert reader.load("new-0") == 0.5
        assert reader.load("new-1") == 1.5
        assert reader.load("old-3") == 3.0

    def test_replaced_file_is_read_from_the_start(self, tmp_path):
        directory = tmp_path / "cache"
        reader = self._reader_past_old_entries(directory)
        old_size = reader.path.stat().st_size
        shutil.rmtree(directory)
        writer = DiskStore(directory)
        for i in range(100):
            writer.save(f"new-{i}", float(i))
        assert reader.path.stat().st_size > old_size
        assert [reader.load(f"new-{i}") for i in range(100)] == [
            float(i) for i in range(100)
        ]
        assert reader.load("old-3") == 3.0


class TestEnvironmentActivation:
    def test_resolve_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache_dir() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert resolve_cache_dir() == tmp_path

    def test_activation_is_opt_in_and_idempotent(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        cache = ThroughputCache()
        assert activate_disk_cache(cache=cache) is None
        assert cache.store is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "theta"))
        store = activate_disk_cache(cache=cache)
        assert store is not None and cache.store is store
        assert activate_disk_cache(cache=cache) is store  # reused, not rebuilt

    def test_default_cache_never_mutated_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        before = default_cache.store
        assert activate_disk_cache() is None
        assert default_cache.store is before

    @pytest.mark.parametrize("batch", ["plan_many", "run_workload_grid"])
    def test_default_cache_batches_attach_the_env_store(
        self, batch, tmp_path, monkeypatch
    ):
        """A batch planned on the default cache attaches the
        ``REPRO_CACHE_DIR`` store first."""
        from repro.experiments import run_workload_grid

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        before = default_cache.store
        try:
            if batch == "plan_many":
                plan_many(small_grid())
            else:
                run_workload_grid(
                    small_config(8),
                    traces=("steady",),
                    policies=("replan",),
                    phases=2,
                    message_size=MiB(4),
                )
            store = default_cache.store
            assert isinstance(store, DiskStore) and store.directory == tmp_path
        finally:
            default_cache.attach_store(before)

    def test_explicit_cache_is_hermetic_despite_env(self, tmp_path, monkeypatch):
        """An explicitly passed cache keeps a batch off the user's
        REPRO_CACHE_DIR store — the environment only reaches the
        *default* cache (via activate_disk_cache)."""
        env_dir = tmp_path / "persistent"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env_dir))
        plan_many(small_grid(), cache=ThroughputCache())
        assert not (env_dir / "theta.jsonl").exists()


class TestTwoTierCache:
    def _compute_counter(self):
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return 0.5

        return calls, compute

    def test_fresh_compute_feeds_store(self, tmp_path):
        store = DiskStore(tmp_path)
        cache = ThroughputCache(store=store)
        topology = ring(8, B)
        matching = Matching.shift(8, 1)
        calls, compute = self._compute_counter()
        assert cache.get_or_compute(topology, matching, compute) == 0.5
        assert calls["n"] == 1
        digest = theta_key_digest((topology.fingerprint(), matching, "theta"))
        assert store.load(digest) == 0.5
        assert cache.stats().misses == 1

    def test_cold_cache_warm_store_computes_nothing(self, tmp_path):
        topology = ring(8, B)
        matchings = [Matching.shift(8, k) for k in (1, 2, 3)]
        warm = ThroughputCache(store=DiskStore(tmp_path))
        for m in matchings:
            warm.get_or_compute(topology, m, lambda: 0.25)

        cold = ThroughputCache(store=DiskStore(tmp_path))
        calls, compute = self._compute_counter()
        for m in matchings:
            assert cold.get_or_compute(topology, m, compute) == 0.25
        assert calls["n"] == 0
        stats = cold.stats()
        assert stats.misses == 0
        assert stats.disk_hits == len(matchings)
        assert stats.size == len(matchings)
        # Promoted entries serve tier-1 hits from then on.
        cold.get_or_compute(topology, matchings[0], compute)
        assert cold.stats().hits == 1

    def test_digest_is_stable_and_tag_sensitive(self):
        topology = ring(8, B)
        matching = Matching.shift(8, 1)
        key = (topology.fingerprint(), matching, "theta:lp")
        assert theta_key_digest(key) == theta_key_digest(key)
        other = (topology.fingerprint(), matching, "theta:proxy")
        assert theta_key_digest(key) != theta_key_digest(other)

    def test_custom_theta_store_receives_fresh_values(self):
        """Any ThetaStore, not only DiskStore, is fed every value a
        batch computes and then serves a fresh cache from it."""

        class DictStore:
            def __init__(self):
                self.entries = {}

            def load(self, digest):
                return self.entries.get(digest)

            def save(self, digest, value):
                self.entries[digest] = float(value)

        store = DictStore()
        first = ThroughputCache(store=store)
        plan_many(small_grid(), cache=first)
        assert len(store.entries) == first.stats().misses > 0
        second = ThroughputCache(store=store)
        plan_many(small_grid(), cache=second)
        assert second.stats().misses == 0
        assert second.stats().disk_hits == len(store.entries)

    def test_storeless_cache_never_hashes_keys(self, tmp_path, monkeypatch):
        # Tier 2 costs a digest of the whole topology fingerprint per
        # miss; a cache without a store must not pay it.
        import repro.flows.cache as cache_module

        digests = []

        def counting_digest(key):
            digests.append(key)
            return theta_key_digest(key)

        monkeypatch.setattr(cache_module, "theta_key_digest", counting_digest)
        topology = ring(8, B)
        matchings = [Matching.shift(8, k) for k in (1, 2, 3)]
        plain = ThroughputCache()
        for m in matchings:
            assert plain.get_or_compute(topology, m, lambda: 0.5) == 0.5
        assert plain.stats().misses == len(matchings)
        assert digests == []
        stored = ThroughputCache(store=DiskStore(tmp_path))
        for m in matchings:
            stored.get_or_compute(topology, m, lambda: 0.5)
        assert len(digests) == len(matchings)

    def test_clear_keeps_tier2(self, tmp_path):
        store = DiskStore(tmp_path)
        cache = ThroughputCache(store=store)
        topology = ring(8, B)
        matching = Matching.shift(8, 1)
        cache.get_or_compute(topology, matching, lambda: 0.5)
        cache.clear()
        assert len(cache) == 0
        calls, compute = self._compute_counter()
        assert cache.get_or_compute(topology, matching, compute) == 0.5
        assert calls["n"] == 0  # served by the store, not recomputed
        assert cache.stats().disk_hits == 1


class TestLRUBound:
    def test_maxsize_validation(self):
        with pytest.raises(ConfigurationError, match="maxsize"):
            ThroughputCache(maxsize=0)

    def test_eviction_order_is_lru(self):
        cache = ThroughputCache(maxsize=2)
        topology = ring(8, B)
        a, b, c = (Matching.shift(8, k) for k in (1, 2, 3))
        cache.get_or_compute(topology, a, lambda: 1.0)
        cache.get_or_compute(topology, b, lambda: 2.0)
        cache.get_or_compute(topology, a, lambda: 1.0)  # refresh a
        cache.get_or_compute(topology, c, lambda: 3.0)  # evicts b (LRU)
        assert len(cache) == 2
        calls = {"a": 0, "b": 0}
        cache.get_or_compute(
            topology, a, lambda: calls.__setitem__("a", 1) or 1.0
        )
        assert calls["a"] == 0  # a survived
        cache.get_or_compute(
            topology, b, lambda: calls.__setitem__("b", 1) or 2.0
        )
        assert calls["b"] == 1  # b was evicted and recomputed
        stats = cache.stats()
        assert stats.evictions == 2  # b once, then a or c for b's return
        assert stats.size == 2

    def test_unbounded_by_default(self):
        cache = ThroughputCache()
        topology = ring(16, B)
        for k in range(1, 16):
            cache.get_or_compute(topology, Matching.shift(16, k), lambda: 1.0)
        stats = cache.stats()
        assert stats.size == 15
        assert stats.evictions == 0

    def test_eviction_appears_in_stats_snapshot(self):
        cache = ThroughputCache(maxsize=1)
        topology = ring(8, B)
        cache.get_or_compute(topology, Matching.shift(8, 1), lambda: 1.0)
        cache.get_or_compute(topology, Matching.shift(8, 2), lambda: 2.0)
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 1
        assert stats.misses == 2


@pytest.mark.slow
class TestWarmDiskCacheZeroSolves:
    N = 16

    def test_second_cold_process_pays_zero_lp_solves(self, tmp_path):
        """The n=16 figure1 grid against a warm disk cache: a fresh
        cache (modelling a cold process; the CI cache-roundtrip job
        covers the real two-process version) must compute nothing."""
        config = small_config(self.N)
        panels = [panel_by_id("a"), panel_by_id("d")]

        warm = ThroughputCache(store=DiskStore(tmp_path / "theta"))
        first = [run_panel(spec, config=config, cache=warm) for spec in panels]
        assert warm.stats().misses > 0

        cold = ThroughputCache(store=DiskStore(tmp_path / "theta"))
        second = [run_panel(spec, config=config, cache=cold) for spec in panels]
        stats = cold.stats()
        assert stats.misses == 0, f"expected zero LP solves, got {stats}"
        assert stats.disk_hits == warm.stats().misses
        for before, after in zip(first, second):
            assert (before.grid.opt == after.grid.opt).all()
            assert (before.grid.static == after.grid.static).all()
            assert (before.grid.bvn == after.grid.bvn).all()

    def test_engine_routed_panel_matches_legacy_cacheless_run(self):
        """Engine routing must not change the numbers: a panel grid
        evaluated with caching disabled matches the cached run."""
        config = small_config(8)
        spec = panel_by_id("a")
        cached = run_panel(spec, config=config, cache=ThroughputCache())
        uncached = run_panel(spec, config=config, cache=None)
        assert (cached.grid.opt == uncached.grid.opt).all()
        assert (cached.grid.bvn == uncached.grid.bvn).all()
