"""Satellites: version single-sourcing and on_result.

* ``repro.__version__`` is single-sourced from ``pyproject.toml`` and
  surfaces in every service response;
* the engine's ``on_result`` hook delivers batch results incrementally,
  in input order.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.engine import plan_many
from repro.flows import ThroughputCache
from repro.planner import Scenario, scenario_grid
from repro.units import Gbps, KiB, MiB, ns, us


def base_scenario(n=8):
    return Scenario.create(
        "allreduce_ring",
        n=n,
        message_size=KiB(64),
        bandwidth=Gbps(800),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(10),
    )


def small_grid():
    return scenario_grid(base_scenario(), [KiB(64), MiB(1)], [us(1), us(100)])


class TestVersionSingleSourcing:
    def pyproject_version(self) -> str:
        text = (
            Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        ).read_text()
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE
        )
        assert match, "pyproject.toml lost its static version field"
        return match.group(1)

    def test_dunder_version_matches_pyproject(self):
        assert repro.__version__ == self.pyproject_version()

    def test_version_is_sane(self):
        assert re.fullmatch(r"\d+\.\d+\.\d+.*", repro.__version__)

    def test_service_responses_carry_the_version(self):
        import asyncio

        from repro.service import MetricsBody, PlannerDaemon, ServiceRequest

        async def main():
            async with PlannerDaemon() as daemon:
                return await daemon.submit(ServiceRequest(body=MetricsBody()))

        response = asyncio.run(main())
        assert response.version == repro.__version__
        assert response.to_dict()["version"] == repro.__version__


class TestOnResultHook:
    def test_plan_many_emits_incrementally_in_input_order(self):
        grid = small_grid()
        seen = []
        results = plan_many(
            grid,
            cache=ThroughputCache(),
            on_result=lambda index, result: seen.append((index, result)),
        )
        assert [index for index, _ in seen] == list(range(len(grid)))
        # The hook sees the same objects the call returns.
        for index, result in seen:
            assert result is results[index]

    def test_hook_exception_aborts_the_batch(self):
        grid = small_grid()
        seen = []

        def hook(index, result):
            seen.append(index)
            if index == 1:
                raise RuntimeError("consumer went away")

        with pytest.raises(RuntimeError, match="consumer went away"):
            plan_many(grid, cache=ThroughputCache(), on_result=hook)
        # Items the aborted batch never reached produce no callback.
        assert seen == [0, 1]

    def test_on_result_fires_before_the_batch_returns(self):
        grid = small_grid()
        progress = []

        def hook(index, result):
            progress.append(index)

        plan_many(grid, cache=ThroughputCache(), on_result=hook)
        assert len(progress) == len(grid)
