"""Core data model for collective communication algorithms (paper §3.2).

A collective is a sequence of barrier-synchronized *steps*; each step is
a matching ``M_i`` with a per-pair data volume ``m_i`` (the paper's
``<M_1..M_s>`` / ``<m_1..m_s>``).  Steps additionally carry *block-level
transfers* — which chunks move between which ranks and whether they are
reduced or overwritten — so that the semantics engine
(:mod:`repro.collectives.semantics`) can machine-check each algorithm's
postcondition instead of trusting the construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections.abc import Iterator, Mapping, Sequence

import numpy as np

from .._validation import require_non_negative
from ..exceptions import CollectiveError
from ..matching import Matching

__all__ = ["TransferKind", "Transfer", "Step", "Collective", "compose_sequence"]


class TransferKind(enum.Enum):
    """How a receiver merges an incoming chunk.

    ``REDUCE`` adds the sender's partial contributions (reduce-scatter
    phases); ``OVERWRITE`` replaces the receiver's copy (allgather
    phases and pure data movement).
    """

    REDUCE = "reduce"
    OVERWRITE = "overwrite"


@dataclass(frozen=True)
class Transfer:
    """One block-level send within a step."""

    src: int
    dst: int
    chunks: tuple[int, ...]
    kind: TransferKind = TransferKind.OVERWRITE

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise CollectiveError(f"transfer with src == dst == {self.src}")
        if not self.chunks:
            raise CollectiveError("transfer must carry at least one chunk")
        if len(set(self.chunks)) != len(self.chunks):
            raise CollectiveError(f"duplicate chunks in transfer {self}")


class Step:
    """One barrier-synchronized communication step.

    Parameters
    ----------
    matching:
        The communication pattern ``M_i``.  Derived from ``transfers``
        when omitted.
    volume:
        Per-pair data volume ``m_i`` in bits.  Derived from transfers
        (max chunks per pair times ``chunk_size``) when omitted.
    transfers:
        Optional block-level detail backing the semantics engine.
    compute_time:
        Seconds of local computation that follow this step's
        communication (used by the reconfiguration-overlap extension).
    label:
        Short human-readable description, e.g. ``"rs d=4"``.
    """

    __slots__ = ("matching", "volume", "transfers", "compute_time", "label")

    def __init__(
        self,
        matching: Matching | None = None,
        volume: float | None = None,
        transfers: Sequence[Transfer] | None = None,
        compute_time: float = 0.0,
        label: str = "",
        chunk_size: float | None = None,
        n: int | None = None,
    ):
        if matching is None:
            if transfers is None:
                raise CollectiveError("a step needs a matching or transfers")
            if n is None:
                raise CollectiveError("n is required to derive a matching")
            matching = Matching(n, [(t.src, t.dst) for t in transfers])
        self.matching = matching
        if transfers is not None:
            pairs = {(t.src, t.dst) for t in transfers}
            if pairs != set(matching.pairs):
                raise CollectiveError(
                    "transfers and matching disagree on communicating pairs"
                )
        self.transfers = tuple(transfers) if transfers is not None else None
        if volume is None:
            if self.transfers is None or chunk_size is None:
                raise CollectiveError(
                    "a step needs an explicit volume or transfers + chunk_size"
                )
            volume = max(len(t.chunks) for t in self.transfers) * chunk_size
        self.volume = require_non_negative(volume, "volume", CollectiveError)
        self.compute_time = require_non_negative(
            compute_time, "compute_time", CollectiveError
        )
        self.label = str(label)

    @property
    def n(self) -> int:
        """Rank count of the domain."""
        return self.matching.n

    def with_volume(self, volume: float) -> "Step":
        """A copy carrying ``volume``, sharing this step's matching,
        transfers and label without validating them again (they were
        validated when this step was built)."""
        step = Step.__new__(Step)
        step.matching = self.matching
        step.volume = volume
        step.transfers = self.transfers
        step.compute_time = self.compute_time
        step.label = self.label
        return step

    def __repr__(self) -> str:
        return (
            f"Step(label={self.label!r}, pairs={len(self.matching)}, "
            f"volume={self.volume:.4g})"
        )


class Collective:
    """A complete collective algorithm as a step sequence.

    Parameters
    ----------
    name:
        Algorithm identifier, e.g. ``"allreduce_swing"``.
    kind:
        Semantic family (``"allreduce"``, ``"allgather"``, ...) used to
        select the postcondition in the semantics engine.
    n:
        Number of GPU ranks.
    message_size:
        The per-GPU buffer size ``m`` in bits (the quantity on the
        y-axis of the paper's heatmaps).  For allreduce this is the
        vector being reduced; for all-to-all the total egress per GPU;
        for allgather the fully gathered buffer.
    steps:
        The step sequence.
    chunk_size:
        Size in bits of one chunk in the block-level model.
    n_chunks:
        Number of distinct chunk ids used by the transfers.
    metadata:
        Extra semantic facts (e.g. ``root``, ``owner_of_rank``).
    """

    def __init__(
        self,
        name: str,
        kind: str,
        n: int,
        message_size: float,
        steps: Sequence[Step],
        chunk_size: float,
        n_chunks: int,
        metadata: Mapping[str, object] | None = None,
    ):
        if n < 2:
            raise CollectiveError(f"a collective needs n >= 2, got {n}")
        self.name = str(name)
        self.kind = str(kind)
        self.n = int(n)
        self.message_size = require_non_negative(
            message_size, "message_size", CollectiveError
        )
        self.steps: tuple[Step, ...] = tuple(steps)
        if not self.steps:
            raise CollectiveError("a collective needs at least one step")
        for step in self.steps:
            if step.n != self.n:
                raise CollectiveError(
                    f"step rank count {step.n} != collective n {self.n}"
                )
        self.chunk_size = require_non_negative(
            chunk_size, "chunk_size", CollectiveError
        )
        self.n_chunks = int(n_chunks)
        self.metadata: dict[str, object] = dict(metadata or {})

    # -- shape ----------------------------------------------------------------

    @property
    def num_steps(self) -> int:
        """Number of communication steps ``s``."""
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __repr__(self) -> str:
        return (
            f"Collective(name={self.name!r}, n={self.n}, "
            f"steps={self.num_steps}, message={self.message_size:.4g}b)"
        )

    # -- aggregate views (Observation 1) -----------------------------------------

    def as_bvn_steps(self) -> list[tuple[float, Matching]]:
        """The ``(m_i, M_i)`` sequence — by Observation 1 a BvN-style
        decomposition of the aggregate demand."""
        return [(step.volume, step.matching) for step in self.steps]

    def aggregate_demand(self) -> np.ndarray:
        """The aggregate demand matrix ``M = sum_i m_i M_i`` (Eq. 1)."""
        total = np.zeros((self.n, self.n), dtype=float)
        for step in self.steps:
            for src, dst in step.matching:
                total[src, dst] += step.volume
        return total

    def total_volume_per_rank(self) -> float:
        """Maximum total bits any rank transmits across all steps."""
        sent = np.zeros(self.n)
        for step in self.steps:
            for src, _ in step.matching:
                sent[src] += step.volume
        return float(sent.max())

    def has_block_semantics(self) -> bool:
        """Whether every step carries block-level transfers."""
        return all(step.transfers is not None for step in self.steps)


def compose_sequence(
    collectives: Sequence[Collective], name: str | None = None
) -> Collective:
    """Concatenate collectives back-to-back (paper §3.3: e.g. an
    All-to-All after an AllReduce is still a matching sequence).

    The result has kind ``"sequence"``; its parts are retained in
    metadata so the semantics engine can verify each independently.
    Chunk-level transfers are dropped (chunk id spaces differ between
    parts); the schedule-level view (matchings + volumes) is exact.
    """
    collectives = list(collectives)
    if not collectives:
        raise CollectiveError("compose_sequence needs at least one collective")
    n = collectives[0].n
    steps: list[Step] = []
    for collective in collectives:
        if collective.n != n:
            raise CollectiveError("all composed collectives must share n")
        for step in collective.steps:
            steps.append(
                Step(
                    matching=step.matching,
                    volume=step.volume,
                    compute_time=step.compute_time,
                    label=f"{collective.name}:{step.label}",
                )
            )
    return Collective(
        name=name or "+".join(c.name for c in collectives),
        kind="sequence",
        n=n,
        message_size=sum(c.message_size for c in collectives),
        steps=steps,
        chunk_size=0.0,
        n_chunks=0,
        metadata={"parts": tuple(collectives)},
    )
