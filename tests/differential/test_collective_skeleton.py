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
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.collectives import available_collectives, make_collective, verify_collective
from repro.collectives import registry as registry_mod
from repro.exceptions import CollectiveError, ConfigurationError
from repro.experiments.config import small_config
from repro.experiments.figure1 import panel_by_id, run_panel
from repro.flows import ThroughputCache
from repro.planner import CollectiveSpec
from repro.planner import scenario as scenario_mod

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
