"""Scaled collective builds vs the registry factory, and the skeleton memo.

``CollectiveSpec.build`` runs the registry factory once per
``(algorithm, n, options)`` at unit message size and rescales the step
volumes for each size, repeating the factory's own ``k * (m / d)``.
The factory (``make_collective``, unmemoized) is the oracle: every
field of the collective and of each step must be equal, not close.
The sizes include a subnormal one because a uniform ``k * (m / n)``
law is wrong there for full-vector steps, whose factory volume is
``m`` itself.

The second half pins the memo's contract: one factory run however
threads race, builds that do not alias each other's mutable state, the
constant bound, and a warm Figure 1 panel that builds nothing.

The last part does the same for step prices: ``Scenario.step_costs``
evaluates each structure once per theta cache and re-volumes it for
every message size.  ``evaluate_step_costs`` over the scaled build, on
a fresh cache, is the oracle, and the counts pin that a second size
prices nothing.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.collectives import available_collectives, make_collective, verify_collective
from repro.collectives import registry as registry_mod
from repro.core.cost_model import evaluate_step_costs
from repro.exceptions import CollectiveError, ConfigurationError
from repro.experiments.config import small_config
from repro.experiments.figure1 import panel_by_id, run_panel
from repro.fabric import FabricHealth, random_failures, uniform_degradation
from repro.flows import ThroughputCache
from repro.planner import CollectiveSpec, Scenario, TopologySpec
from repro.planner import scenario as scenario_mod
from repro.topology import Topology
from repro.units import Gbps, ns, us

NS = (2, 3, 5, 6, 8, 12, 16, 48, 64, 100, 128)
SIZES = (
    0,
    1,
    1 / 3,
    8e6 * (1 + 1e-7),
    7e9,
    123456.789,
    2**20,
    3 * 2**30,
    1e300,
    5e-310,
)
ROOTED = ("broadcast_binomial", "scatter_binomial", "gather_binomial")


@pytest.fixture(autouse=True)
def cold_skeletons():
    scenario_mod._SKELETON_MEMO.clear()
    yield
    scenario_mod._SKELETON_MEMO.clear()


def _accepted_cases(algorithm):
    """``(n, options)`` pairs the factory accepts."""
    for n in NS:
        for options in ({"root": 0}, {"root": n - 1}) if algorithm in ROOTED else ({},):
            try:
                make_collective(algorithm, n, 1.0, **options)
            except CollectiveError:
                continue
            yield n, options


def _collective_fields(collective):
    return (
        collective.name,
        collective.kind,
        collective.n,
        collective.message_size,
        collective.chunk_size,
        collective.n_chunks,
        collective.metadata,
    )


def _step_fields(step):
    return (step.matching, step.volume, step.transfers, step.label, step.compute_time)


def test_every_algorithm_is_covered():
    assert len(available_collectives()) == 14


@pytest.mark.parametrize("algorithm", available_collectives())
def test_scaled_build_equals_factory(algorithm):
    cases = list(_accepted_cases(algorithm))
    assert cases
    for n, options in cases:
        builds = []
        for size in SIZES:
            built = CollectiveSpec(algorithm, size, options).build(n)
            oracle = make_collective(algorithm, n, size, **options)
            where = (algorithm, n, options, size)
            assert _collective_fields(built) == _collective_fields(oracle), where
            assert len(built.steps) == len(oracle.steps), where
            for mine, theirs in zip(built.steps, oracle.steps):
                assert _step_fields(mine) == _step_fields(theirs), where
            builds.append(built)
        # verify_collective reads only the block-level transfers, and
        # every build of one skeleton carries the very same transfer
        # tuples: checking one build checks them all.
        verify_collective(builds[0])
        for built in builds[1:]:
            assert all(
                mine.transfers is first.transfers
                for mine, first in zip(built.steps, builds[0].steps)
            )
        # The matchings do not depend on the message size.
        zero = CollectiveSpec(algorithm, 0.0, options).build(n)
        assert tuple(step.matching for step in zero.steps) == tuple(
            step.matching for step in builds[0].steps
        )


class TestSkeletonMemo:
    def test_racing_threads_run_the_factory_once(self, monkeypatch):
        factory = registry_mod._REGISTRY["allreduce_ring"]
        runs = []

        def slow_factory(*args, **kwargs):
            runs.append(1)
            time.sleep(0.02)  # widen the race window
            return factory(*args, **kwargs)

        monkeypatch.setitem(registry_mod._REGISTRY, "allreduce_ring", slow_factory)
        start = threading.Barrier(4)
        built = []

        def worker(size):
            start.wait(timeout=10)
            built.append(CollectiveSpec("allreduce_ring", size).build(24))

        threads = [
            threading.Thread(target=worker, args=(float(i + 1),)) for i in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleavings
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(runs) == 1
        assert sorted(c.message_size for c in built) == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize(
        "algorithm, options",
        [
            ("allreduce_recursive_doubling", {}),
            ("reduce_scatter_ring", {}),
            ("broadcast_binomial", {"root": 3}),
        ],
    )
    def test_mutating_a_build_does_not_reach_a_later_one(self, algorithm, options):
        spec = CollectiveSpec(algorithm, 1024.0, options)
        first = spec.build(8)
        pristine = make_collective(algorithm, 8, 1024.0, **options)
        for step in first.steps:
            step.volume = 7.0
            step.compute_time = 5.0
        first.metadata["mutated"] = True
        for value in first.metadata.values():
            if isinstance(value, dict):
                value[0] = -1
        later = spec.build(8)
        assert _collective_fields(later) == _collective_fields(pristine)
        for mine, theirs in zip(later.steps, pristine.steps):
            assert _step_fields(mine) == _step_fields(theirs)

    def test_memo_stays_bounded(self):
        for n in range(2, 22):
            CollectiveSpec("allreduce_ring", 1.0).build(n)
        memo = scenario_mod._SKELETON_MEMO
        assert len(memo) <= scenario_mod._SKELETON_MEMO_LIMIT == 8
        assert memo.stats().evictions > 0

    def test_failed_factory_is_not_memoized(self, monkeypatch):
        factory = registry_mod._REGISTRY["allreduce_ring"]
        runs = []

        def counted(*args, **kwargs):
            runs.append(1)
            return factory(*args, **kwargs)

        monkeypatch.setitem(registry_mod._REGISTRY, "allreduce_ring", counted)
        spec = CollectiveSpec("allreduce_ring", 1.0, {"root": 1})
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="bad options"):
                spec.build(8)
        assert len(runs) == 2
        assert len(scenario_mod._SKELETON_MEMO) == 0

    def test_volume_off_the_block_grid_is_refused(self, monkeypatch):
        factory = registry_mod._REGISTRY["alltoall"]

        def thirds(n, message_size):
            built = factory(n, message_size)
            built.steps[0].volume = message_size / 3
            return built

        monkeypatch.setitem(registry_mod._REGISTRY, "alltoall", thirds)
        with pytest.raises(CollectiveError, match="m/8 blocks"):
            CollectiveSpec("alltoall", 1.0).build(8)

    def test_warm_panel_builds_nothing(self, monkeypatch):
        spec = panel_by_id("a")
        config = small_config(8)
        cache = ThroughputCache()
        cold = run_panel(spec, config=config, cache=cache)

        factory = registry_mod._REGISTRY[spec.algorithm]
        build = CollectiveSpec.build
        calls = {"factory": 0, "build": 0}

        def counted_factory(*args, **kwargs):
            calls["factory"] += 1
            return factory(*args, **kwargs)

        def counted_build(self, n):
            calls["build"] += 1
            return build(self, n)

        monkeypatch.setitem(registry_mod._REGISTRY, spec.algorithm, counted_factory)
        monkeypatch.setattr(CollectiveSpec, "build", counted_build)
        warm = run_panel(spec, config=config, cache=cache)
        assert calls == {"factory": 0, "build": 0}
        for surface in ("opt", "static", "bvn"):
            assert (getattr(warm.grid, surface) == getattr(cold.grid, surface)).all()


# -- step prices: one evaluation per structure, re-volumed per size ---------

PRICED_NS = (8, 16)  # a subset of NS: every algorithm accepts both


def _scenario(algorithm, n, size, options=None, **kwargs):
    return Scenario.create(
        algorithm,
        n=n,
        message_size=size,
        bandwidth=Gbps(800),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(10),
        collective_options=options,
        **kwargs,
    )


def _cost_fields(cost):
    return (
        type(cost.volume),
        cost.volume,
        cost.theta,
        cost.hops,
        cost.label,
        cost.matching,
        cost.matched_rate_multiplier,
    )


def _assert_priced_like_the_oracle(scenarios):
    """Price ``scenarios`` in order on one cache and check each against
    a full evaluation on a fresh cache."""
    cache = ThroughputCache()
    for scenario in scenarios:
        got = scenario.step_costs(cache)
        oracle = evaluate_step_costs(
            scenario.build_collective(),
            scenario.build_topology(),
            scenario.cost,
            theta_method=scenario.theta_method,
            path_rule=scenario.path_rule,
            cache=ThroughputCache(),
            health=scenario.health,
        )
        where = (scenario.collective, scenario.theta_method, scenario.health)
        assert len(got) == len(oracle), where
        for mine, theirs in zip(got, oracle):
            assert _cost_fields(mine) == _cost_fields(theirs), where


def _shuffled_sizes(seed):
    return random.Random(seed).sample(SIZES, len(SIZES))


@pytest.mark.parametrize("method", ["auto", "sp", "proxy"])
@pytest.mark.parametrize("algorithm", available_collectives())
def test_revolumed_step_costs_equal_a_full_evaluation(algorithm, method):
    cases = [case for case in _accepted_cases(algorithm) if case[0] in PRICED_NS]
    assert cases
    for seed, (n, options) in enumerate(cases):
        _assert_priced_like_the_oracle(
            _scenario(algorithm, n, size, options, theta_method=method)
            for size in _shuffled_sizes(seed)
        )


@pytest.mark.parametrize(
    "health",
    [
        uniform_degradation(16, 0.8),
        random_failures(16, seed=3, failures=2, dim_fraction=0.25),
    ],
    ids=["uniform", "random-failures"],
)
@pytest.mark.parametrize(
    "algorithm", ["allreduce_recursive_doubling", "allreduce_swing", "alltoall"]
)
def test_revolumed_step_costs_on_a_degraded_ring(algorithm, health):
    _assert_priced_like_the_oracle(
        _scenario(algorithm, 16, size, health=health) for size in _shuffled_sizes(1)
    )


@pytest.mark.parametrize(
    "health",
    [None, FabricHealth(port_multipliers=((1, 0.5), (9, 0.75)))],
    ids=["pristine", "dimmed"],
)
@pytest.mark.parametrize("algorithm", ["allreduce_recursive_doubling", "alltoall"])
def test_revolumed_step_costs_on_a_pod_fabric(algorithm, health):
    _assert_priced_like_the_oracle(
        _scenario(
            algorithm,
            16,
            size,
            topology="podfabric",
            topology_options={"pods": 2, "uplink_multipliers": [1.0, 0.5]},
            health=health,
        )
        for size in _shuffled_sizes(2)
    )


def test_structures_that_differ_share_no_prices():
    """On one cache, structures that differ in one fact each, priced at
    interleaved sizes: every fact but the message size keys the prices."""
    base = _scenario("alltoall", 16, 1.0)
    variants = [
        base,
        base.replace(theta_method="sp"),
        base.replace(theta_method="proxy"),
        base.replace(path_rule="sum"),
        base.replace(health=uniform_degradation(16, 0.5)),
        base.replace(health=random_failures(16, seed=3, failures=2)),
        base.replace(algorithm="allreduce_swing"),
        base.replace(n=8),
        base.replace(topology=TopologySpec("hypercube", 16, Gbps(800))),
        _scenario("broadcast_binomial", 16, 1.0, {"root": 0}),
        _scenario("broadcast_binomial", 16, 1.0, {"root": 5}),
    ]
    _assert_priced_like_the_oracle(
        variant.replace(message_size=size)
        for size in (2**20, 3.0, 0)
        for variant in variants
    )


class TestStepPricesPerStructure:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Count full evaluations and ``hop_distance`` calls."""
        counts = {"evaluations": 0, "multiport": 0, "hops": 0}

        def counting(name, target, attribute):
            original = getattr(target, attribute)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(target, attribute, wrapper)

        counting("evaluations", scenario_mod, "evaluate_step_costs")
        counting("multiport", scenario_mod, "evaluate_multiport_step_costs")
        counting("hops", Topology, "hop_distance")
        return counts

    def test_a_second_size_prices_nothing(self, counted):
        cache = ThroughputCache()
        first = _scenario("allreduce_swing", 16, 2**20)
        first.step_costs(cache)
        lookups = cache.stats().lookups
        assert counted["evaluations"] == 1 and counted["hops"] > 0
        hops = counted["hops"]
        second = first.replace(message_size=3 * 2**20, alpha_r=us(1))
        costs = second.step_costs(cache)
        assert counted == {"evaluations": 1, "multiport": 0, "hops": hops}
        assert cache.stats().lookups == lookups
        assert [cost.volume for cost in costs] == [
            step.volume for step in second.build_collective().steps
        ]
        # A fresh theta cache is a fresh memo: the structure is priced again.
        second.step_costs(ThroughputCache())
        assert counted["evaluations"] == 2 and counted["hops"] == 2 * hops

    def test_multiport_scenarios_evaluate_per_size(self, counted):
        cache = ThroughputCache()
        base = _scenario("alltoall", 8, 2**20, multiport_radix=2)
        for size in (2**20, 2**21, 2**20):
            base.replace(message_size=size).step_costs(cache)
        assert counted["multiport"] == 2
        assert counted["evaluations"] == 0
