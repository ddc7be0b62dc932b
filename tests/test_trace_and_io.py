"""Schedule-cost helpers, validation helpers, and the public API surface."""

import pytest


class TestScheduleCostHelpers:
    def test_speedup_over(self):
        from repro.core import ScheduleCost

        a = ScheduleCost(2.0, 0, 0, 0, 0, 0, (2.0,))
        b = ScheduleCost(1.0, 0, 0, 0, 0, 0, (1.0,))
        assert b.speedup_over(a) == pytest.approx(2.0)

    def test_schedule_str_roundtrip(self):
        from repro.core import Schedule

        schedule = Schedule.from_bits([1, 0, 0, 1])
        assert str(schedule) == "GMMG"
        assert schedule.num_matched_steps == 2


class TestValidationHelpers:
    def test_require_positive(self):
        from repro._validation import require_positive
        from repro.exceptions import TopologyError

        assert require_positive(2.5, "x", TopologyError) == 2.5
        with pytest.raises(TopologyError, match="strictly positive"):
            require_positive(0, "x", TopologyError)

    def test_require_power_of_two(self):
        from repro._validation import require_power_of_two
        from repro.exceptions import CollectiveError

        assert require_power_of_two(8, "n", CollectiveError) == 8
        for bad in (0, 3, 12):
            with pytest.raises(CollectiveError):
                require_power_of_two(bad, "n", CollectiveError)

    def test_require_node_count(self):
        from repro._validation import require_node_count
        from repro.exceptions import TopologyError

        with pytest.raises(TopologyError):
            require_node_count(1, TopologyError)
        with pytest.raises(TopologyError):
            require_node_count(2.5, TopologyError)

    def test_exception_hierarchy(self):
        from repro import exceptions

        for name in (
            "TopologyError",
            "MatchingError",
            "CollectiveError",
            "SemanticsError",
            "FlowError",
            "DecompositionError",
            "ScheduleError",
            "FabricError",
            "SimulationError",
            "ConfigurationError",
        ):
            exc_type = getattr(exceptions, name)
            assert issubclass(exc_type, exceptions.ReproError)
        assert issubclass(
            exceptions.SemanticsError, exceptions.CollectiveError
        )


class TestPublicApi:
    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_exports_resolve(self):
        import importlib

        for module_name in (
            "repro.topology",
            "repro.collectives",
            "repro.flows",
            "repro.bvn",
            "repro.core",
            "repro.fabric",
            "repro.sim",
            "repro.analysis",
            "repro.experiments",
        ):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert hasattr(module, name), f"{module_name}.{name}"

    def test_public_functions_documented(self):
        import repro

        undocumented = [
            name
            for name in repro.__all__
            if callable(getattr(repro, name))
            and not isinstance(getattr(repro, name), type)
            and not (getattr(repro, name).__doc__ or "").strip()
        ]
        assert undocumented == []

    def test_version(self):
        # Single-sourced from pyproject.toml (see repro._version);
        # tests/test_deprecations_and_version.py pins the exact match.
        import re

        import repro

        assert re.fullmatch(r"\d+\.\d+\.\d+.*", repro.__version__)
