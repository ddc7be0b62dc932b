"""Execution backends: process-parallel determinism and warm-disk-cache
zero-solve runs (satellites of the unified evaluation engine PR).

``parallel_backend="process"`` must be bit-identical to serial on the
scientific payload for every batch entry point — plans, simulations,
and workloads — and a cold process planning the n=16 figure1 grid
against a warm disk cache must perform zero LP solves (``misses == 0``
in :class:`~repro.flows.CacheStats`).
"""

from __future__ import annotations

import pytest

from repro.engine import (
    DiskStore,
    plan_many,
    plan_workload_many,
    resolve_execution_backend,
    sim_many,
    workload_many,
)
from repro.exceptions import ConfigurationError, SimulationError
from repro.experiments.config import small_config
from repro.experiments.figure1 import panel_by_id, run_panel
from repro.flows import ThroughputCache
from repro.planner import Scenario, scenario_grid
from repro.units import Gbps, KiB, MiB, ns, us
from repro.workload import Workload

B = Gbps(800)

#: Small worker count: enough to exercise the pool, cheap to fork.
WORKERS = 2


def base_scenario(n=8, algorithm="allreduce_recursive_doubling"):
    return Scenario.create(
        algorithm,
        n=n,
        message_size=MiB(1),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(10),
    )


def small_grid():
    return scenario_grid(
        base_scenario(), [KiB(64), MiB(1), MiB(16)], [us(1), us(100)]
    )


def _plan_dict(result):
    data = result.to_dict()
    # Cache statistics are an interleaving-dependent observability
    # sidecar, not part of the scientific payload.
    data.pop("cache_stats", None)
    return data


def _sim_dict(result):
    data = result.to_dict()
    data["plan"].pop("cache_stats", None)
    return data


@pytest.mark.slow
class TestProcessDeterminism:
    def test_plan_many_process_bit_identical_to_serial(self):
        grid = small_grid()
        serial = plan_many(grid, solver="dp", cache=ThroughputCache())
        process = plan_many(
            grid,
            solver="dp",
            parallel=WORKERS,
            parallel_backend="process",
            cache=ThroughputCache(),
        )
        assert [_plan_dict(r) for r in process] == [
            _plan_dict(r) for r in serial
        ]

    def test_sim_many_process_bit_identical_to_serial(self):
        items = small_grid()[:4]
        serial = sim_many(items, solver="dp", cache=ThroughputCache())
        process = sim_many(
            items,
            solver="dp",
            parallel=WORKERS,
            parallel_backend="process",
            cache=ThroughputCache(),
        )
        assert [_sim_dict(r) for r in process] == [
            _sim_dict(r) for r in serial
        ]

    def test_workload_many_process_bit_identical_to_serial(self):
        base = base_scenario()
        workloads = [
            Workload(
                phases=(
                    base.replace(message_size=MiB(1), name="w0p0"),
                    base.replace(message_size=MiB(16), name="w0p1"),
                ),
                name="w0",
            ),
            Workload(
                phases=(
                    base.replace(message_size=MiB(4), name="w1p0"),
                    base.replace(message_size=KiB(64), name="w1p1"),
                ),
                name="w1",
            ),
        ]
        serial = workload_many(
            workloads, policy="hysteresis", cache=ThroughputCache()
        )
        process = workload_many(
            workloads,
            policy="hysteresis",
            parallel=WORKERS,
            parallel_backend="process",
            cache=ThroughputCache(),
        )
        assert [r.to_dict() for r in process] == [
            r.to_dict() for r in serial
        ]

    def test_plan_workload_many_thread_and_process_match_serial(self):
        base = base_scenario()
        workload = Workload(
            phases=(
                base.replace(message_size=MiB(1), name="p0"),
                base.replace(message_size=MiB(16), name="p1"),
            ),
            name="w",
        )
        jobs = [(workload, "replan", {}), (workload, "hysteresis", {})]
        serial = plan_workload_many(jobs, cache=ThroughputCache())
        threaded = plan_workload_many(
            jobs, parallel=WORKERS, parallel_backend="thread",
            cache=ThroughputCache(),
        )
        process = plan_workload_many(
            jobs, parallel=WORKERS, parallel_backend="process",
            cache=ThroughputCache(),
        )
        expected = [p.to_dict() for p in serial]
        assert [p.to_dict() for p in threaded] == expected
        assert [p.to_dict() for p in process] == expected
        assert [p.policy for p in serial] == ["replan", "hysteresis"]

    def test_explicit_cache_is_hermetic_despite_env(self, tmp_path, monkeypatch):
        """An explicitly isolated cache must keep process workers off
        the user's REPRO_CACHE_DIR store — the environment only reaches
        the *default* cache (via activate_disk_cache)."""
        env_dir = tmp_path / "persistent"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env_dir))
        plan_many(
            small_grid(),
            parallel=WORKERS,
            parallel_backend="process",
            cache=ThroughputCache(),
        )
        assert not (env_dir / "theta.jsonl").exists()

    def test_custom_theta_store_receives_worker_deltas(self):
        """A tier-2 store with no file layout cannot be shared with
        the workers, but the merged delta must still land in it."""

        class DictStore:
            def __init__(self):
                self.entries = {}

            def load(self, digest):
                return self.entries.get(digest)

            def save(self, digest, value):
                self.entries[digest] = float(value)

        store = DictStore()
        plan_many(
            small_grid(),
            parallel=WORKERS,
            parallel_backend="process",
            cache=ThroughputCache(store=store),
        )
        assert len(store.entries) > 0

    def test_process_merges_worker_deltas_into_parent_cache(self):
        grid = small_grid()
        cache = ThroughputCache()
        plan_many(
            grid,
            parallel=WORKERS,
            parallel_backend="process",
            cache=cache,
        )
        # The parent computed nothing itself, yet a follow-up serial
        # run over the same cache is served by the merged deltas.
        assert cache.stats().misses == 0
        plan_many(grid, cache=cache)
        stats = cache.stats()
        assert stats.misses == 0
        assert stats.disk_hits > 0


class TestThetaMethodsAcrossThreads:
    @pytest.mark.parametrize("theta_method", ["auto", "sp", "proxy"])
    def test_thread_pool_matches_serial(self, theta_method):
        """Each theta method plans the same on a thread pool as inline,
        on closed-form cells and on a pod-fabric cell alike."""
        pods = Scenario.create(
            "allreduce_recursive_doubling",
            n=8,
            message_size=MiB(1),
            alpha=ns(100),
            delta=ns(100),
            reconfiguration_delay=us(10),
            topology="podfabric",
            topology_options={"pods": 2, "uplinks_per_pod": 2},
        )
        scenarios = [
            scenario.replace(theta_method=theta_method)
            for scenario in (
                base_scenario(),
                base_scenario().replace(message_size=MiB(4)),
                pods,
            )
        ]
        serial = plan_many(scenarios, cache=ThroughputCache())
        thread = plan_many(
            scenarios,
            parallel_backend="thread",
            parallel=WORKERS,
            cache=ThroughputCache(),
        )
        assert [_plan_dict(r) for r in thread] == [
            _plan_dict(r) for r in serial
        ]


class TestBackendResolution:
    def test_legacy_contract_preserved(self):
        assert resolve_execution_backend(None, None, 10) == ("serial", 1)
        assert resolve_execution_backend(None, 1, 10) == ("serial", 1)
        assert resolve_execution_backend(None, 4, 10) == ("thread", 4)

    def test_explicit_serial_ignores_parallel(self):
        assert resolve_execution_backend("serial", 8, 10) == ("serial", 1)

    def test_thread_single_item_collapses_to_serial(self):
        assert resolve_execution_backend("thread", 4, 1) == ("serial", 1)

    def test_explicit_process_backend_honored_for_single_items(self):
        """The process result contract (stripped cache stats, empty
        traces) must not flip with the batch length."""
        assert resolve_execution_backend("process", 4, 1) == ("process", 1)
        single = plan_many(
            [base_scenario()],
            parallel_backend="process",
            cache=ThroughputCache(),
        )
        assert single[0].cache_stats is None

    def test_workers_capped_by_batch_length(self):
        assert resolve_execution_backend("thread", 16, 3) == ("thread", 3)

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError, match="parallel_backend"):
            resolve_execution_backend("gpu", None, 10)
        with pytest.raises(ConfigurationError, match="parallel"):
            resolve_execution_backend("thread", 0, 10)

    def test_plan_many_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="parallel_backend"):
            plan_many(small_grid(), parallel_backend="gpu", cache=None)

    def test_workload_many_error_type(self):
        with pytest.raises(SimulationError, match="parallel"):
            workload_many([], parallel=0)


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
