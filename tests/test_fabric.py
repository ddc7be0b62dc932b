"""Fabric models: circuit configurations and reconfiguration delays."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError, FabricError
from repro.fabric import (
    ConstantReconfigurationDelay,
    PerPortReconfigurationDelay,
    TableReconfigurationDelay,
    configuration_from_matching,
    configuration_from_topology,
    reconfiguration_model_from_dict,
    touched_ports,
)
from repro.matching import Matching
from repro.topology import Topology, pod_fabric, ring, star
from repro.units import Gbps, ns, us

B = Gbps(800)


class TestConfigurations:
    def test_from_matching(self):
        config = configuration_from_matching(Matching(4, [(0, 1), (2, 3)]))
        assert config == frozenset({(0, 1), (2, 3)})

    def test_from_topology(self):
        config = configuration_from_topology(ring(4, B, bidirectional=False))
        assert (0, 1) in config and (3, 0) in config

    def test_relay_topology_rejected(self):
        with pytest.raises(FabricError):
            configuration_from_topology(star(4, B))

    def test_touched_ports(self):
        before = frozenset({(0, 1), (2, 3)})
        after = frozenset({(0, 1), (2, 4)})
        assert touched_ports(before, after) == frozenset({2, 3, 4})
        assert touched_ports(before, before) == frozenset()


class TestCircuitSets:
    def test_matching_circuits_are_built_once(self):
        matching = Matching(4, [(0, 1), (2, 3)])
        config = configuration_from_matching(matching)
        assert configuration_from_matching(matching) is config
        equal = configuration_from_matching(Matching(4, [(2, 3), (0, 1)]))
        assert equal == config == frozenset({(0, 1), (2, 3)})

    @pytest.mark.parametrize("pods_first", [True, False])
    def test_topology_memo_key_covers_the_pods_metadata(self, pods_first):
        """A relay fabric with a pod fabric's edges but no ``pods``
        metadata has the same fingerprint and no circuit set."""
        pods = pod_fabric(8, B, pods=2, uplinks_per_pod=1)
        relay = Topology(pods.n_ranks, pods.edges(), name="relay")
        assert relay.fingerprint() == pods.fingerprint()
        ranks = range(pods.n_ranks)
        circuits = frozenset(
            (u, v) for u, v, _ in pods.edges() if u in ranks and v in ranks
        )
        calls = [pods, relay] if pods_first else [relay, pods]
        for _ in range(2):
            for topology in calls:
                if topology is pods:
                    assert configuration_from_topology(pods) == circuits
                else:
                    with pytest.raises(FabricError, match="'relay'"):
                        configuration_from_topology(relay)


class TestDelayModels:
    def test_constant(self):
        model = ConstantReconfigurationDelay(us(10))
        a = frozenset({(0, 1)})
        b = frozenset({(1, 0)})
        assert model.delay(a, b) == pytest.approx(us(10))
        assert model.delay(a, a) == 0.0
        assert model.delay_for_ports(0) == 0.0

    def test_per_port(self):
        model = PerPortReconfigurationDelay(base=us(1), per_port=us(2))
        assert model.delay_for_ports(3) == pytest.approx(us(7))
        a = frozenset({(0, 1), (2, 3)})
        b = frozenset({(0, 1), (3, 2)})
        assert model.delay(a, b) == pytest.approx(us(1) + 2 * us(2))

    def test_table(self):
        model = TableReconfigurationDelay([(2, us(1)), (8, us(5))])
        assert model.delay_for_ports(1) == pytest.approx(us(1))
        assert model.delay_for_ports(2) == pytest.approx(us(1))
        assert model.delay_for_ports(5) == pytest.approx(us(5))
        assert model.delay_for_ports(64) == pytest.approx(us(5))

    def test_table_validation(self):
        with pytest.raises(FabricError):
            TableReconfigurationDelay([])
        with pytest.raises(FabricError):
            TableReconfigurationDelay([(0, us(1))])

    def test_negative_delays_rejected(self):
        with pytest.raises(FabricError):
            ConstantReconfigurationDelay(-1.0)
        with pytest.raises(FabricError):
            PerPortReconfigurationDelay(-1.0, 0.0)

    def test_boolean_delay_rejected(self):
        with pytest.raises(FabricError, match="got True"):
            ConstantReconfigurationDelay(True)


class TestTableDelayEdges:
    """TableReconfigurationDelay lookup at and around its knots."""

    def test_below_and_at_the_first_knot(self):
        model = TableReconfigurationDelay([(4, us(2)), (16, us(8))])
        # requests smaller than the first tabulated port count are
        # covered by the first (smallest sufficient) sample
        assert model.delay_for_ports(1) == us(2)
        assert model.delay_for_ports(3) == us(2)
        assert model.delay_for_ports(4) == us(2)

    def test_between_knots_rounds_up(self):
        model = TableReconfigurationDelay([(4, us(2)), (16, us(8))])
        assert model.delay_for_ports(5) == us(8)
        assert model.delay_for_ports(15) == us(8)
        assert model.delay_for_ports(16) == us(8)

    def test_beyond_the_last_knot_clamps(self):
        model = TableReconfigurationDelay([(4, us(2)), (16, us(8))])
        assert model.delay_for_ports(17) == us(8)
        assert model.delay_for_ports(10_000) == us(8)

    def test_unsorted_samples_are_canonicalized(self):
        shuffled = TableReconfigurationDelay([(16, us(8)), (4, us(2))])
        ordered = TableReconfigurationDelay([(4, us(2)), (16, us(8))])
        for ports in (1, 4, 5, 16, 40):
            assert shuffled.delay_for_ports(ports) == ordered.delay_for_ports(
                ports
            )

    def test_single_knot_table(self):
        model = TableReconfigurationDelay([(8, us(3))])
        assert model.delay_for_ports(1) == us(3)
        assert model.delay_for_ports(8) == us(3)
        assert model.delay_for_ports(9) == us(3)
        assert model.delay_for_ports(0) == 0.0


class TestZeroDeltaConfigurations:
    """All models return exactly 0.0 for a no-op transition."""

    @pytest.mark.parametrize(
        "model",
        [
            ConstantReconfigurationDelay(us(10)),
            PerPortReconfigurationDelay(base=us(1), per_port=us(2)),
            TableReconfigurationDelay([(2, us(1)), (8, us(5))]),
        ],
        ids=["constant", "per_port", "table"],
    )
    def test_identical_configurations_are_free(self, model):
        config = configuration_from_matching(Matching(6, [(0, 1), (2, 3)]))
        assert model.delay(config, config) == 0.0
        assert model.delay(frozenset(), frozenset()) == 0.0
        assert model.delay_for_ports(0) == 0.0


_circuits = st.frozensets(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6
)


@settings(max_examples=200, deadline=None)
@given(previous=_circuits, target=_circuits, same=st.booleans())
def test_constant_delay_equals_its_touched_port_price(previous, target, same):
    """The constant model's shortcut (any change costs ``alpha_r``)
    prices every transition as the touched-port route does."""
    model = ConstantReconfigurationDelay(us(10))
    if same:
        target = previous
    for a, b in ((previous, target), (target, previous)):
        assert model.delay(a, b) == model.delay_for_ports(len(touched_ports(a, b)))


class TestPerPortOverlappingMatchings:
    """Port counting when consecutive matchings partially overlap."""

    def test_counts_only_touched_ports(self):
        model = PerPortReconfigurationDelay(base=us(1), per_port=us(2))
        previous = configuration_from_matching(
            Matching(8, [(0, 1), (2, 3), (4, 5)])
        )
        target = configuration_from_matching(
            Matching(8, [(0, 1), (2, 3), (4, 6)])
        )
        # only the (4, 5) -> (4, 6) circuit changes: ports 4, 5, 6
        assert touched_ports(previous, target) == frozenset({4, 5, 6})
        assert model.delay(previous, target) == us(1) + 3 * us(2)

    def test_disjoint_matchings_touch_everything(self):
        model = PerPortReconfigurationDelay(base=us(1), per_port=us(2))
        previous = configuration_from_matching(Matching(4, [(0, 1), (2, 3)]))
        target = configuration_from_matching(Matching(4, [(1, 0), (3, 2)]))
        # every circuit is torn down and a reversed one established;
        # all four ports are touched exactly once each
        assert touched_ports(previous, target) == frozenset({0, 1, 2, 3})
        assert model.delay(previous, target) == us(1) + 4 * us(2)

    def test_teardown_only_counts_ports(self):
        model = PerPortReconfigurationDelay(base=us(1), per_port=us(2))
        previous = configuration_from_matching(Matching(4, [(0, 1), (2, 3)]))
        target = configuration_from_matching(Matching(4, [(0, 1)]))
        assert touched_ports(previous, target) == frozenset({2, 3})
        assert model.delay(previous, target) == us(1) + 2 * us(2)


class TestModelSerialization:
    """Delay models round-trip through plain dicts."""

    @pytest.mark.parametrize(
        "model",
        [
            ConstantReconfigurationDelay(us(10)),
            PerPortReconfigurationDelay(base=us(1), per_port=us(2)),
            TableReconfigurationDelay([(8, us(5)), (2, us(1))]),
        ],
        ids=["constant", "per_port", "table"],
    )
    def test_round_trip(self, model):
        rebuilt = reconfiguration_model_from_dict(model.to_dict())
        assert type(rebuilt) is type(model)
        for ports in (0, 1, 2, 5, 9, 100):
            assert rebuilt.delay_for_ports(ports) == model.delay_for_ports(
                ports
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(FabricError, match="unknown reconfiguration"):
            reconfiguration_model_from_dict({"kind": "quantum"})

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"kind": "constant"}, "alpha_r"),
            ({"kind": "per_port", "base": 1e-6}, "per_port"),
            ({"kind": "table"}, "samples"),
        ],
        ids=["constant", "per_port", "table"],
    )
    def test_missing_field_is_named(self, data, field):
        with pytest.raises(ConfigurationError, match=f"missing the '{field}' field"):
            reconfiguration_model_from_dict(data)

    @pytest.mark.parametrize(
        "samples, message",
        [
            ([[2.9, 1e-6]], "sample ports must be a whole number >= 1, got 2.9"),
            ([[2, True]], "sample delay must be a finite number >= 0, got True"),
            ([[2.9, True]], "sample ports must be a whole number >= 1, got 2.9"),
            ([[0, 1e-6]], "sample ports must be a whole number >= 1, got 0"),
            ([5], "samples must be [ports, delay] pairs, got 5"),
            ([[2]], "samples must be [ports, delay] pairs, got [2]"),
            ([["a", 1e-6]], "sample ports must be a whole number >= 1, got 'a'"),
            ({"2": 1e-6}, "samples must be a non-empty list"),
        ],
        ids=[
            "fraction-ports",
            "boolean-delay",
            "fraction-and-boolean",
            "zero-ports",
            "not-a-pair",
            "single",
            "string-ports",
            "object",
        ],
    )
    def test_table_samples_are_checked_not_coerced(self, samples, message):
        with pytest.raises(FabricError) as direct:
            TableReconfigurationDelay(samples)
        with pytest.raises(FabricError) as loaded:
            reconfiguration_model_from_dict({"kind": "table", "samples": samples})
        assert message in str(direct.value)
        assert str(loaded.value) == str(direct.value)

    def test_integral_float_ports_still_load(self):
        model = reconfiguration_model_from_dict(
            {"kind": "table", "samples": [[2.0, 1e-6]]}
        )
        assert model.to_dict() == {"kind": "table", "samples": [[2, 1e-6]]}
        assert type(model.to_dict()["samples"][0][0]) is int

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown reconfiguration model"):
            reconfiguration_model_from_dict(
                {"kind": "constant", "alpha_r": 1e-6, "alpha": 1e-6}
            )

    @pytest.mark.parametrize(
        "build",
        [
            lambda v: ConstantReconfigurationDelay(v),
            lambda v: PerPortReconfigurationDelay(base=v, per_port=us(1)),
            lambda v: PerPortReconfigurationDelay(base=us(1), per_port=v),
            lambda v: TableReconfigurationDelay([(2, us(1)), (8, v)]),
            lambda v: reconfiguration_model_from_dict(
                {"kind": "constant", "alpha_r": v}
            ),
        ],
        ids=["constant", "per_port-base", "per_port-per_port", "table", "from-dict"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_delays_rejected(self, build, value):
        with pytest.raises(FabricError, match="must be a finite number >= 0"):
            build(value)
