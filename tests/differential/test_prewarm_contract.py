"""The closed-form prewarm is invisible in results and statistics.

:func:`repro.engine.plan_many` seeds every closed-formable step theta
of a batch in one vectorized pass before planning.  Each seeded value
must take exactly the miss the step evaluation would have taken, so a
prewarmed batch plans and counts the same as one priced step by step.
"""

from __future__ import annotations

from repro.engine import plan_many
from repro.flows import ThroughputCache
from repro.planner import Scenario
from repro.units import MiB, ns, us


def base_scenario(n=8, algorithm="allreduce_recursive_doubling"):
    return Scenario.create(
        algorithm,
        n=n,
        message_size=MiB(1),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(10),
    )


def stripped(results):
    """Dict forms minus cache statistics (an observability sidecar)."""
    out = []
    for result in results:
        data = result.to_dict()
        data.pop("cache_stats", None)
        out.append(data)
    return out


class TestPrewarmContract:
    def test_prewarm_keeps_plan_results_and_misses_identical(self):
        scenarios = [
            base_scenario(),
            base_scenario().replace(message_size=MiB(16)),
        ]
        # The prewarmed run must report exactly the statistics a
        # non-prewarmed scalar run reports: the seeds take the misses
        # the step evaluations would have taken.
        import repro.engine.api as api

        cache_plain = ThroughputCache()
        original = api._prewarm_plan_batch
        api._prewarm_plan_batch = lambda requests, cache: 0
        try:
            plain = plan_many(scenarios, cache=cache_plain)
        finally:
            api._prewarm_plan_batch = original
        cache_warm = ThroughputCache()
        warmed = plan_many(scenarios, cache=cache_warm)
        assert stripped(plain) == stripped(warmed)
        assert cache_plain.stats().misses == cache_warm.stats().misses

    def test_prewarm_seeds_closed_forms(self):
        import repro.engine.api as api

        base = base_scenario()
        requests = [
            type("R", (), {"scenario": base})(),
            type("R", (), {"scenario": base.replace(message_size=MiB(2))})(),
        ]
        cache = ThroughputCache()
        seeded = api._prewarm_plan_batch(requests, cache)
        # Recursive doubling on a ring has exactly one shift-shaped
        # step (the XOR-n/2 exchange); the rest are LP rows the
        # prewarm must leave alone.
        assert seeded >= 1
        assert cache.stats().misses == seeded
