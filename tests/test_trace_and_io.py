"""Trace bookkeeping, event-queue edge cases, and experiment IO."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.trace import EventKind, Trace, TraceEvent


class TestTrace:
    def test_records_sorted_even_out_of_order(self):
        trace = Trace()
        trace.record(2.0, EventKind.STEP_END, 0)
        trace.record(1.0, EventKind.STEP_START, 0)
        times = [e.time for e in trace]
        assert times == sorted(times)

    def test_negative_time_rejected(self):
        trace = Trace()
        with pytest.raises(ValueError):
            trace.record(-1.0, EventKind.BARRIER)

    def test_total_time(self):
        trace = Trace()
        assert trace.total_time == 0.0
        trace.record(3.0, EventKind.COLLECTIVE_END)
        assert trace.total_time == 3.0

    def test_reconfiguration_time_pairs(self):
        trace = Trace()
        trace.record(0.0, EventKind.RECONFIG_START, 0)
        trace.record(1.0, EventKind.RECONFIG_END, 0)
        trace.record(5.0, EventKind.RECONFIG_START, 1)
        trace.record(7.0, EventKind.RECONFIG_END, 1)
        assert trace.reconfiguration_time() == pytest.approx(3.0)

    def test_unmatched_reconfig_end_raises(self):
        trace = Trace()
        trace.record(1.0, EventKind.RECONFIG_END, 0)
        with pytest.raises(ValueError):
            trace.reconfiguration_time()

    def test_communication_time(self):
        trace = Trace()
        trace.record(0.0, EventKind.STEP_START, 0)
        trace.record(2.0, EventKind.STEP_END, 0)
        trace.record(3.0, EventKind.STEP_START, 1)
        trace.record(4.5, EventKind.STEP_END, 1)
        assert trace.communication_time() == pytest.approx(3.5)

    def test_of_kind_filter(self):
        trace = Trace()
        trace.record(0.0, EventKind.BARRIER, 0)
        trace.record(1.0, EventKind.STEP_START, 0)
        assert len(trace.of_kind(EventKind.BARRIER)) == 1

    def test_render_truncation(self):
        trace = Trace()
        for i in range(5):
            trace.record(float(i), EventKind.BARRIER, i)
        text = trace.render(limit=2)
        assert "3 more events" in text

    def test_event_str(self):
        event = TraceEvent(1e-6, EventKind.STEP_START, 3, "hello")
        assert "step=3" in str(event)
        assert "hello" in str(event)
        assert "1us" in str(event)

    @settings(max_examples=200, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]),
                st.sampled_from(list(EventKind)),
            ),
            max_size=30,
        ),
        given_count=st.integers(0, 30),
    )
    def test_order_is_append_then_stable_sort(self, events, given_count):
        """Out-of-order and equal timestamps, some passed to the
        constructor, the rest recorded: the log is ordered as appending
        each event and stable-sorting by time orders it."""
        events = [TraceEvent(t, kind, i) for i, (t, kind) in enumerate(events)]
        initial, recorded = events[:given_count], events[given_count:]
        trace = Trace(events=list(initial))
        reference = sorted(initial, key=lambda e: e.time)
        for event in recorded:
            trace.record(event.time, event.kind, event.step)
            reference.append(event)
            reference.sort(key=lambda e: e.time)
        assert trace.events == reference


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
