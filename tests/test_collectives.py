"""Collective algorithms: construction, shapes, and machine-checked
semantics for every algorithm and a range of sizes."""

import math

import numpy as np
import pytest

from repro.collectives import (
    Collective,
    PAPER_ALGORITHMS,
    Step,
    Transfer,
    TransferKind,
    allreduce_recursive_halving_doubling,
    allreduce_ring,
    allreduce_swing,
    alltoall_linear_shift,
    available_collectives,
    barrier_dissemination,
    broadcast_binomial,
    compose_sequence,
    gather_binomial,
    make_collective,
    scatter_binomial,
    swing_distance,
    verify_collective,
)
from repro.collectives._pairwise import compute_covers
from repro.collectives.semantics import PossessionTracker, ReductionTracker
from repro.exceptions import CollectiveError, SemanticsError
from repro.matching import Matching
from repro.units import MiB

M = MiB(1)


class TestStepAndTransfer:
    def test_transfer_validation(self):
        with pytest.raises(CollectiveError):
            Transfer(0, 0, (1,))
        with pytest.raises(CollectiveError):
            Transfer(0, 1, ())
        with pytest.raises(CollectiveError):
            Transfer(0, 1, (1, 1))

    def test_step_derives_matching_from_transfers(self):
        transfers = [Transfer(0, 1, (0,)), Transfer(2, 3, (0,))]
        step = Step(transfers=transfers, n=4, volume=10.0)
        assert step.matching == Matching(4, [(0, 1), (2, 3)])

    def test_step_rejects_matching_transfer_mismatch(self):
        with pytest.raises(CollectiveError, match="disagree"):
            Step(
                matching=Matching(4, [(0, 1)]),
                volume=1.0,
                transfers=[Transfer(2, 3, (0,))],
            )

    def test_step_volume_from_chunks(self):
        transfers = [Transfer(0, 1, (0, 1))]
        step = Step(transfers=transfers, n=2, chunk_size=4.0)
        assert step.volume == 8.0

    def test_step_needs_volume_information(self):
        with pytest.raises(CollectiveError):
            Step(matching=Matching(4, [(0, 1)]))

    @pytest.mark.parametrize("volume", [math.nan, math.inf, -1.0])
    def test_step_volume_must_be_finite_and_non_negative(self, volume):
        with pytest.raises(CollectiveError, match="volume must be a finite number"):
            Step(matching=Matching(4, [(0, 1)]), volume=volume)


class TestCollectiveContainer:
    def test_aggregate_matches_bvn_steps(self):
        c = allreduce_ring(4, M)
        aggregate = c.aggregate_demand()
        total = np.zeros((4, 4))
        for volume, matching in c.as_bvn_steps():
            total += volume * matching.matrix()
        np.testing.assert_allclose(aggregate, total)

    def test_step_rank_mismatch_rejected(self):
        step = Step(matching=Matching(4, [(0, 1)]), volume=1.0)
        with pytest.raises(CollectiveError):
            Collective("x", "allreduce", 8, M, [step], 1.0, 4)

    def test_needs_steps(self):
        with pytest.raises(CollectiveError):
            Collective("x", "allreduce", 4, M, [], 1.0, 4)


class TestAllAlgorithmsVerify:
    @pytest.mark.parametrize("name", available_collectives())
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_semantics(self, name, n):
        collective = make_collective(name, n, M)
        report = verify_collective(collective)
        assert report.n == n
        assert report.steps_executed == collective.num_steps

    @pytest.mark.parametrize("name", available_collectives())
    def test_volume_positive_and_finite(self, name):
        collective = make_collective(name, 8, M)
        for step in collective.steps:
            assert step.volume >= 0
            assert math.isfinite(step.volume)

    def test_non_power_of_two_where_supported(self):
        for name in (
            "allreduce_ring",
            "alltoall",
            "allgather_ring",
            "allgather_bruck",
            "reduce_scatter_ring",
            "broadcast_binomial",
        ):
            collective = make_collective(name, 6, M)
            verify_collective(collective)

    def test_power_of_two_required_where_needed(self):
        for name in (
            "allreduce_recursive_doubling",
            "allreduce_swing",
            "scatter_binomial",
        ):
            with pytest.raises(CollectiveError):
                make_collective(name, 6, M)


class TestBandwidthOptimality:
    @pytest.mark.parametrize(
        "name",
        ["allreduce_ring", "allreduce_recursive_doubling", "allreduce_swing"],
    )
    def test_bandwidth_optimal_allreduce_volume(self, name):
        n = 16
        collective = make_collective(name, n, M)
        expected = 2 * M * (n - 1) / n
        assert collective.total_volume_per_rank() == pytest.approx(expected)

    def test_full_rd_latency_optimal_but_not_bw(self):
        n = 16
        collective = make_collective("allreduce_recursive_doubling_full", n, M)
        assert collective.num_steps == 4
        assert collective.total_volume_per_rank() == pytest.approx(M * 4)

    def test_step_counts(self):
        n = 16
        assert make_collective("allreduce_ring", n, M).num_steps == 2 * (n - 1)
        assert make_collective("allreduce_recursive_doubling", n, M).num_steps == 8
        assert make_collective("allreduce_swing", n, M).num_steps == 8
        assert make_collective("alltoall", n, M).num_steps == n - 1


class TestSwing:
    def test_distance_sequence(self):
        assert [swing_distance(s) for s in range(6)] == [1, -1, 3, -5, 11, -21]

    def test_distance_validation(self):
        with pytest.raises(ValueError):
            swing_distance(-1)

    def test_max_hop_distance_below_n_over_3(self):
        n = 64
        collective = allreduce_swing(n, M)
        max_distance = max(
            min((dst - src) % n, (src - dst) % n)
            for step in collective.steps
            for src, dst in step.matching
        )
        assert max_distance == 21  # |delta_5| = 21 < 64/2

    def test_steps_are_involutions(self):
        collective = allreduce_swing(16, M)
        for step in collective.steps:
            assert step.matching.is_involution


class TestCoverSets:
    def test_xor_covers_are_blocks(self):
        peers = [[i ^ 4 for i in range(8)], [i ^ 2 for i in range(8)],
                 [i ^ 1 for i in range(8)]]
        covers = compute_covers(8, peers)
        assert covers[0][0] == frozenset(range(8))
        assert covers[1][0] == frozenset({0, 1, 2, 3})
        assert covers[2][0] == frozenset({0, 1})
        assert covers[3][0] == frozenset({0})

    def test_invalid_schedule_detected(self):
        # same pairing twice cannot halve recursively
        peers = [[i ^ 1 for i in range(4)], [i ^ 1 for i in range(4)]]
        with pytest.raises(CollectiveError, match="overlap"):
            compute_covers(4, peers)


class TestRootedCollectives:
    @pytest.mark.parametrize("root", [0, 3, 5])
    def test_broadcast_any_root(self, root):
        collective = broadcast_binomial(6, M, root=root)
        verify_collective(collective)

    @pytest.mark.parametrize("root", [0, 5])
    def test_scatter_gather_roots(self, root):
        verify_collective(scatter_binomial(8, M, root=root))
        verify_collective(gather_binomial(8, M, root=root))

    def test_root_validation(self):
        with pytest.raises(CollectiveError):
            broadcast_binomial(4, M, root=4)

    def test_broadcast_steps_are_partial_matchings(self):
        collective = broadcast_binomial(8, M)
        sizes = [len(step.matching) for step in collective.steps]
        assert sizes == [1, 2, 4]


class TestBarrier:
    def test_zero_volume(self):
        barrier = barrier_dissemination(8)
        assert all(step.volume == 0.0 for step in barrier.steps)
        verify_collective(barrier)

    def test_any_n(self):
        for n in (3, 5, 7, 12):
            verify_collective(barrier_dissemination(n))


class TestComposition:
    def test_sequence_concatenates(self):
        a = make_collective("allreduce_recursive_doubling", 8, M)
        b = make_collective("alltoall", 8, M)
        seq = compose_sequence([a, b])
        assert seq.num_steps == a.num_steps + b.num_steps
        assert seq.kind == "sequence"
        verify_collective(seq)

    def test_sequence_rank_mismatch(self):
        with pytest.raises(CollectiveError):
            compose_sequence(
                [make_collective("alltoall", 8, M), make_collective("alltoall", 4, M)]
            )

    def test_empty_sequence(self):
        with pytest.raises(CollectiveError):
            compose_sequence([])


class TestRegistry:
    def test_paper_algorithms_registered(self):
        for name in PAPER_ALGORITHMS:
            assert name in available_collectives()

    def test_unknown_name(self):
        with pytest.raises(CollectiveError, match="unknown collective"):
            make_collective("allreduce_quantum", 8, M)

    def test_kwargs_forwarded(self):
        collective = make_collective("broadcast_binomial", 8, M, root=2)
        assert collective.metadata["root"] == 2


class TestSemanticTrackers:
    def test_reduction_tracker_detects_double_count(self):
        tracker = ReductionTracker(2, 1)
        step = Step(
            transfers=[Transfer(0, 1, (0,), TransferKind.REDUCE)],
            n=2,
            volume=1.0,
        )
        tracker.apply_step(step)
        tracker.apply_step(step)  # duplicate reduction
        with pytest.raises(SemanticsError, match="expected 1"):
            tracker.assert_fully_reduced_everywhere()

    def test_two_senders_to_one_rank_unrepresentable(self):
        # The Matching invariant makes the overwrite-conflict scenario
        # impossible to even express as a Step: a rank cannot receive
        # from two senders in one barrier-synchronized step.
        from repro.exceptions import MatchingError

        with pytest.raises(MatchingError, match="twice as a destination"):
            Step(
                transfers=[
                    Transfer(0, 2, (0,), TransferKind.OVERWRITE),
                    Transfer(1, 2, (0,), TransferKind.OVERWRITE),
                ],
                n=3,
                volume=1.0,
            )

    def test_possession_tracker_requires_held_chunk(self):
        tracker = PossessionTracker(2, 1)
        step = Step(
            transfers=[Transfer(0, 1, (0,), TransferKind.OVERWRITE)],
            n=2,
            volume=1.0,
        )
        with pytest.raises(SemanticsError, match="does not hold"):
            tracker.apply_step(step)

    def test_possession_tracker_redundant_receive(self):
        tracker = PossessionTracker(2, 1, strict=True)
        tracker.grant(0, [0])
        tracker.grant(1, [0])
        step = Step(
            transfers=[Transfer(0, 1, (0,), TransferKind.OVERWRITE)],
            n=2,
            volume=1.0,
        )
        with pytest.raises(SemanticsError, match="redundantly"):
            tracker.apply_step(step)

    def test_possession_tracker_rejects_reduce(self):
        tracker = PossessionTracker(2, 1)
        tracker.grant(0, [0])
        step = Step(
            transfers=[Transfer(0, 1, (0,), TransferKind.REDUCE)],
            n=2,
            volume=1.0,
        )
        with pytest.raises(SemanticsError, match="only move data"):
            tracker.apply_step(step)

    def test_verify_requires_transfers(self):
        step = Step(matching=Matching.shift(4, 1), volume=1.0)
        collective = Collective("x", "allreduce", 4, M, [step], M / 4, 4)
        with pytest.raises(SemanticsError, match="lacks block-level"):
            verify_collective(collective)

    def test_broken_allreduce_detected(self):
        # Drop the final allgather step of a ring allreduce: some rank
        # must end up missing a chunk.
        good = allreduce_ring(4, M)
        broken = Collective(
            "broken",
            "allreduce",
            4,
            M,
            good.steps[:-1],
            good.chunk_size,
            good.n_chunks,
        )
        with pytest.raises(SemanticsError):
            verify_collective(broken)
