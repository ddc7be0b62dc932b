"""Compute-once memos under contention: one computation per key and
*exact* hit/miss counters across threads.

Every memo in the package is a :class:`repro.memo.BoundedMemo` (the
theta cache builds its tiers on top of one).  Each key goes to exactly
one thread while the rest wait, so for any interleaving:

* ``compute`` runs exactly once per distinct key;
* ``misses == distinct keys`` and ``hits == lookups - misses``;
* the LRU bound evicts only completed entries.

The race tests at the bottom drive the memos through their real
callers (block pricing, rate allocation, topology building).
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.fabric.degradation import FabricHealth
from repro.flows import (
    ThroughputCache,
    block_stats,
    compute_theta,
    reset_block_stats,
)
from repro.flows import block as block_mod
from repro.matching import Matching
from repro.memo import BoundedMemo
from repro.planner import Scenario, plan, scenario_grid
from repro.planner import scenario as scenario_mod
from repro.planner.scenario import TopologySpec
from repro.sim import rates as rates_mod
from repro.sim.rates import allocate_rates, clear_incidence_cache
from repro.topology import PodFabric, ring
from repro.units import Gbps, KiB, MiB, ns, us

B = Gbps(800)


def _theta_cache(maxsize=None):
    cache = ThroughputCache(maxsize=maxsize)
    topology = ring(8, B)
    return cache, lambda k, compute: cache.get_or_compute(
        topology, Matching.shift(8, k), compute
    )


def _bounded_memo(maxsize=None):
    memo = BoundedMemo(maxsize)
    return memo, memo.get_or_compute


@pytest.fixture(
    params=[_theta_cache, _bounded_memo], ids=["ThroughputCache", "BoundedMemo"]
)
def make_memo(request):
    """A factory ``make(maxsize=None) -> (table, lookup(key, compute))``
    for each compute-once table; keys are small positive ints."""
    return request.param


def _run_threads(worker, n_threads):
    barrier = threading.Barrier(n_threads)
    errors = []

    def wrapped():
        barrier.wait(timeout=30)
        try:
            worker()
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [threading.Thread(target=wrapped) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # force interleavings
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors


class TestExactCounters:
    N_THREADS = 8
    N_ROUNDS = 25
    KEYS = (1, 2, 3, 4)

    def test_compute_once_per_key(self, make_memo):
        _, lookup = make_memo()
        compute_counts = {k: 0 for k in self.KEYS}
        count_lock = threading.Lock()

        def make_compute(key):
            def compute():
                with count_lock:
                    compute_counts[key] += 1
                return float(key)

            return compute

        def worker():
            for _ in range(self.N_ROUNDS):
                for key in self.KEYS:
                    assert lookup(key, make_compute(key)) == float(key)

        _run_threads(worker, self.N_THREADS)
        # Exactly one computation per distinct key, however threads raced.
        assert compute_counts == {k: 1 for k in self.KEYS}

    def test_counters_are_exact_not_racy(self, make_memo):
        table, lookup = make_memo()

        def worker():
            for _ in range(self.N_ROUNDS):
                for key in self.KEYS:
                    lookup(key, lambda: 1.0)

        _run_threads(worker, self.N_THREADS)
        stats = table.stats()
        lookups = self.N_THREADS * self.N_ROUNDS * len(self.KEYS)
        assert stats.lookups == lookups
        assert stats.misses == len(self.KEYS)  # deterministic, not "at least"
        assert stats.hits == lookups - len(self.KEYS)
        assert stats.size == len(self.KEYS)

    def test_compute_error_propagates_and_releases_key(self, make_memo):
        table, lookup = make_memo()

        def boom():
            raise ValueError("lp exploded")

        with pytest.raises(ValueError, match="lp exploded"):
            lookup(1, boom)
        # The failed key was released: a retry computes (a second miss).
        assert lookup(1, lambda: 3.0) == 3.0
        stats = table.stats()
        assert (stats.misses, stats.size) == (2, 1)

    def test_clear_during_flight_does_not_resurrect(self, make_memo):
        table, lookup = make_memo()
        started = threading.Event()
        release = threading.Event()

        def slow_compute():
            started.set()
            release.wait(timeout=5)
            return 7.0

        results = []
        owner = threading.Thread(
            target=lambda: results.append(lookup(1, slow_compute))
        )
        owner.start()
        assert started.wait(timeout=5)
        table.clear()  # evicts while the computation is in flight
        release.set()
        owner.join(timeout=5)
        assert not owner.is_alive()
        assert results == [7.0]  # the owner still got its value...
        assert table.stats().size == 0  # ...but the entry stayed evicted

    def test_lru_bound_never_evicts_an_in_flight_entry(self, make_memo):
        table, lookup = make_memo(maxsize=1)
        started = threading.Event()
        release = threading.Event()
        computed = []

        def slow_compute():
            computed.append(1)
            started.set()
            release.wait(timeout=5)
            return 7.0

        results = []

        def look_up_key_1():
            results.append(lookup(1, slow_compute))

        owner = threading.Thread(target=look_up_key_1)
        owner.start()
        assert started.wait(timeout=5)
        # Two completed entries push the table past its bound while key
        # 1 is in flight; only completed entries may be evicted.
        lookup(2, lambda: 2.0)
        lookup(3, lambda: 3.0)
        assert table.stats().evictions == 1
        waiter = threading.Thread(target=look_up_key_1)
        waiter.start()
        deadline = time.monotonic() + 5
        while table.stats().hits < 1 and time.monotonic() < deadline:
            time.sleep(0.001)  # until the waiter found the in-flight entry
        release.set()
        for thread in (owner, waiter):
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert results == [7.0, 7.0]
        assert computed == [1]  # the waiter shared the owner's computation
        stats = table.stats()
        assert (stats.misses, stats.hits, stats.size) == (3, 1, 1)
        assert stats.evictions == 2


class TestMemoRaces:
    """Threads racing on one cold key run its computation once."""

    N_THREADS = 4

    def test_pod_lps_run_once_across_caches(self, monkeypatch):
        # Each thread has its own theta cache, so only the block
        # solver's own memos can deduplicate the pod and coarse LPs.
        topology = PodFabric(
            pod_sizes=(16,) * 4, bandwidth=B, uplinks_per_pod=4
        ).flat_topology()
        matching = Matching.shift(64, 3)
        solve = block_mod.max_concurrent_flow
        solved = []

        def slow_solve(subgraph, *args, **kwargs):
            solved.append(subgraph.name.rsplit("|", 1)[1])
            time.sleep(0.02)  # widen the race window
            return solve(subgraph, *args, **kwargs)

        monkeypatch.setattr(block_mod, "max_concurrent_flow", slow_solve)
        block_mod._clear_block_memos()
        reset_block_stats()

        def race(fabric) -> list[float]:
            values = []

            def worker():
                values.append(
                    compute_theta(fabric, matching, B, cache=ThroughputCache())
                )

            _run_threads(worker, self.N_THREADS)
            return values

        assert len(set(race(topology))) == 1
        assert block_stats().pod_solves == 2  # one pod LP + the coarse LP
        # Threads racing a single-pod fault on the primed memos: the
        # dimmed gateway rank changes pod 2 and the coarse star only,
        # and each of those LPs runs at most once between the threads.
        solved.clear()
        reset_block_stats()
        faulted = FabricHealth(port_multipliers={32: 0.5}).apply(topology)
        values = race(faulted)
        assert len(set(values)) == 1
        assert sorted(set(solved)) == sorted(solved)
        assert set(solved) <= {"coarse", "pod2"} and "coarse" in solved
        assert block_stats().pod_solves == len(solved)
        block_mod._clear_block_memos()
        assert values[0] == compute_theta(faulted, matching, B, cache=None)

    def test_incidence_builds_once(self, monkeypatch):
        topology = ring(24, B)
        matching = Matching.shift(24, 5)
        build = rates_mod._build_incidence
        builds = []

        def counted_build(*args):
            builds.append(1)
            time.sleep(0.02)  # widen the race window
            return build(*args)

        monkeypatch.setattr(rates_mod, "_build_incidence", counted_build)
        clear_incidence_cache()
        rates = []

        def worker():
            rates.append(
                allocate_rates(topology, matching, B, method="maxmin", cache=None)
            )

        _run_threads(worker, self.N_THREADS)
        assert len(builds) == 1
        assert all(r == rates[0] for r in rates)

    def test_topology_builds_once(self, monkeypatch):
        spec = TopologySpec(family="ring", n=24, bandwidth=Gbps(777))
        build = scenario_mod._TOPOLOGY_FAMILIES["ring"]
        builds = []

        def counted_ring(*args, **kwargs):
            builds.append(1)
            time.sleep(0.02)  # widen the race window
            return build(*args, **kwargs)

        monkeypatch.setitem(scenario_mod._TOPOLOGY_FAMILIES, "ring", counted_ring)
        scenario_mod._TOPOLOGY_MEMO.clear()
        built = []
        _run_threads(lambda: built.append(spec.build()), self.N_THREADS)
        assert len(builds) == 1
        assert all(topology is built[0] for topology in built)

    def test_step_prices_evaluate_once_across_sizes(self, monkeypatch):
        # Each thread prices its own message size of one structure: the
        # per-size keys all miss, and the structure's prices, looked up
        # inside each miss, are evaluated by one thread for all of them.
        evaluate = scenario_mod.evaluate_step_costs
        evaluations = []

        def slow_evaluate(*args, **kwargs):
            evaluations.append(1)
            time.sleep(0.02)  # widen the race window
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(scenario_mod, "evaluate_step_costs", slow_evaluate)
        base = Scenario.create(
            "allreduce_swing",
            n=16,
            message_size=KiB(1),
            alpha=ns(100),
            delta=ns(100),
            reconfiguration_delay=us(10),
        )
        sizes = iter(KiB(2**k) for k in range(self.N_THREADS))
        lock = threading.Lock()
        cache = ThroughputCache()
        priced = {}

        def worker():
            with lock:
                scenario = base.replace(message_size=next(sizes))
            priced[scenario] = scenario.step_costs(cache)

        _run_threads(worker, self.N_THREADS)
        assert len(evaluations) == 1
        assert cache.stats().lookups == len(base.build_collective().steps)
        monkeypatch.undo()
        for scenario, costs in priced.items():
            assert costs == scenario.step_costs(ThroughputCache())


class TestThreadedPlanCacheExactness:
    """The daemon's pattern: worker threads planning on one shared
    cache.  The hit/miss split is a pure function of the batch, not of
    thread interleaving, and every plan equals its serial twin."""

    N_THREADS = 8

    def scenarios(self, theta_method):
        base = Scenario.create(
            "allreduce_recursive_doubling",
            n=16,
            message_size=KiB(64),
            bandwidth=B,
            alpha=ns(100),
            delta=ns(100),
            reconfiguration_delay=us(10),
        )
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
        grid = scenario_grid(
            base, [KiB(64), MiB(1), MiB(16)], [us(1), us(10), us(100)]
        )
        return [
            scenario.replace(theta_method=theta_method)
            for scenario in grid + [pods]
        ]

    @staticmethod
    def payloads(results):
        # Per-call cache statistics are an interleaving-dependent
        # sidecar, not part of the plan.
        return [
            {k: v for k, v in r.to_dict().items() if k != "cache_stats"}
            for r in results
        ]

    @pytest.mark.parametrize("theta_method", ["auto", "sp", "proxy"])
    def test_threaded_plan_stats_match_serial(self, theta_method):
        scenarios = self.scenarios(theta_method)
        serial_cache = ThroughputCache()
        serial_results = [plan(s, cache=serial_cache) for s in scenarios]
        serial = serial_cache.stats()
        assert serial.misses == serial.size

        for _ in range(3):  # several chances to expose a race
            shared = ThroughputCache()
            results = [None] * len(scenarios)
            pending = iter(enumerate(scenarios))
            lock = threading.Lock()

            def worker():
                while True:
                    with lock:
                        item = next(pending, None)
                    if item is None:
                        return
                    index, scenario = item
                    results[index] = plan(scenario, cache=shared)

            _run_threads(worker, self.N_THREADS)
            assert shared.stats() == serial
            assert self.payloads(results) == self.payloads(serial_results)
