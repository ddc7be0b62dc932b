"""Matchings and (partial) permutation matrices.

The paper models each step of a collective as a *matching*: a set of
(sender, receiver) pairs in which no GPU sends twice and no GPU receives
twice (paper §3.2, the permutation matrices ``M_i``).  A matching with
``len(pairs) == n`` corresponds to a full permutation matrix; smaller
matchings are sub-permutations (e.g. binomial-tree broadcast steps where
only half the ranks are active).

:class:`Matching` is immutable and hashable so it can key throughput
caches (:mod:`repro.flows.cache`) and deduplicate fabric configurations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property

import numpy as np

from ._validation import require_node_count
from .exceptions import MatchingError

__all__ = ["Matching"]


class Matching:
    """An immutable (partial) matching between ``n`` ranks.

    Parameters
    ----------
    n:
        Number of ranks (GPU endpoints) in the domain.
    pairs:
        Iterable of ``(src, dst)`` pairs.  Each rank may appear at most
        once as a source and at most once as a destination; self-loops
        are rejected because a GPU never sends to itself over the
        fabric.
    """

    __slots__ = ("_n", "_pairs", "_dst_of", "_src_of", "_hash", "__dict__")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        self._n = require_node_count(n, MatchingError, minimum=1)
        dst_of: dict[int, int] = {}
        src_of: dict[int, int] = {}
        for src, dst in pairs:
            src = int(src)
            dst = int(dst)
            if not (0 <= src < self._n and 0 <= dst < self._n):
                raise MatchingError(
                    f"pair ({src}, {dst}) out of range for n={self._n}"
                )
            if src == dst:
                raise MatchingError(f"self-loop at rank {src} is not a valid circuit")
            if src in dst_of:
                raise MatchingError(f"rank {src} appears twice as a source")
            if dst in src_of:
                raise MatchingError(f"rank {dst} appears twice as a destination")
            dst_of[src] = dst
            src_of[dst] = src
        self._dst_of = dst_of
        self._src_of = src_of
        self._pairs: tuple[tuple[int, int], ...] = tuple(sorted(dst_of.items()))
        self._hash = hash((self._n, self._pairs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_permutation(cls, perm: Sequence[int]) -> "Matching":
        """Build a matching from a permutation given as a dense sequence.

        ``perm[i]`` is the destination of rank ``i``.  Fixed points
        (``perm[i] == i``) are skipped: a rank that "sends to itself"
        simply does not use the fabric in that step.
        """
        n = len(perm)
        pairs = [(i, int(p)) for i, p in enumerate(perm) if int(p) != i]
        return cls(n, pairs)

    @classmethod
    def from_mapping(cls, n: int, mapping: Mapping[int, int]) -> "Matching":
        """Build a matching from a ``{src: dst}`` mapping."""
        return cls(n, mapping.items())

    @classmethod
    def shift(cls, n: int, k: int) -> "Matching":
        """The cyclic-shift permutation ``i -> (i + k) mod n``.

        Shift patterns are the steps of ring collectives and of the
        all-to-all "transpose" collective evaluated in the paper.
        """
        require_node_count(n, MatchingError)
        k = k % n
        if k == 0:
            return cls(n, [])
        return cls(n, [(i, (i + k) % n) for i in range(n)])

    @classmethod
    def xor_exchange(cls, n: int, distance: int) -> "Matching":
        """The pairwise-exchange permutation ``i -> i XOR distance``.

        These are the steps of hypercube-style collectives (recursive
        doubling / halving).  ``distance`` must be in ``[1, n)`` and the
        resulting partner must be a valid rank, which holds whenever
        ``n`` is a power of two.
        """
        require_node_count(n, MatchingError)
        if not 1 <= distance < n:
            raise MatchingError(f"xor distance must be in [1, {n}), got {distance}")
        pairs = []
        for i in range(n):
            partner = i ^ distance
            if partner >= n:
                raise MatchingError(
                    f"xor distance {distance} leaves rank {i} without a partner "
                    f"(n={n} is not a power of two)"
                )
            pairs.append((i, partner))
        return cls(n, pairs)

    @classmethod
    def identity(cls, n: int) -> "Matching":
        """The empty matching (no rank communicates)."""
        return cls(n, [])

    # -- basic protocol ------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of ranks in the domain."""
        return self._n

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Sorted tuple of ``(src, dst)`` pairs."""
        return self._pairs

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairs as read-only int64 ``(src, dst)`` columns, in
        :attr:`pairs` order, materialized once per matching: the pair
        columns of every :class:`repro.sim.FlowRates` block over it, and
        the index of each step's add in
        :meth:`repro.collectives.base.Collective.aggregate_demand`."""
        pairs = np.array(self._pairs, dtype=np.int64).reshape(-1, 2)
        src, dst = np.ascontiguousarray(pairs.T)
        src.setflags(write=False)
        dst.setflags(write=False)
        return src, dst

    @cached_property
    def pair_set(self) -> frozenset[tuple[int, int]]:
        """The pairs as a frozenset (the matching's circuit set),
        built once per matching."""
        return frozenset(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._pairs)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        src, dst = pair
        return self._dst_of.get(src) == dst

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self._n == other._n and self._pairs == other._pairs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Matching(n={self._n}, pairs={list(self._pairs)!r})"

    # -- queries -------------------------------------------------------------

    def dst_of(self, src: int) -> int | None:
        """Destination of ``src`` in this matching, or ``None`` if idle."""
        return self._dst_of.get(src)

    def src_of(self, dst: int) -> int | None:
        """Source sending to ``dst`` in this matching, or ``None``."""
        return self._src_of.get(dst)

    @property
    def sources(self) -> frozenset[int]:
        """Ranks that transmit in this matching."""
        return frozenset(self._dst_of)

    @property
    def destinations(self) -> frozenset[int]:
        """Ranks that receive in this matching."""
        return frozenset(self._src_of)

    @property
    def active_ranks(self) -> frozenset[int]:
        """Ranks that either send or receive (the ports a reconfiguration
        of this step's matched topology must touch, paper §3.1)."""
        return self.sources | self.destinations

    @cached_property
    def is_full(self) -> bool:
        """True when every rank both sends and receives (a permutation)."""
        return len(self._pairs) == self._n

    @cached_property
    def is_involution(self) -> bool:
        """True when the matching is a pairwise exchange (M == M^-1).

        Pairwise-exchange steps (recursive doubling/halving, Swing) let a
        single physical circuit pair serve both directions.
        """
        return all(self._dst_of.get(dst) == src for src, dst in self._pairs)

    def inverse(self) -> "Matching":
        """The reversed matching (every pair flipped)."""
        return Matching(self._n, [(dst, src) for src, dst in self._pairs])

    def matrix(self) -> np.ndarray:
        """Dense 0/1 matrix ``M`` with ``M[src, dst] == 1`` per pair."""
        m = np.zeros((self._n, self._n), dtype=float)
        for src, dst in self._pairs:
            m[src, dst] = 1.0
        return m

    def compose(self, other: "Matching") -> "Matching":
        """Functional composition ``other ∘ self`` restricted to pairs
        where both hops exist (useful for analyzing multi-hop relays)."""
        if other.n != self._n:
            raise MatchingError("cannot compose matchings over different n")
        pairs = []
        for src, mid in self._pairs:
            dst = other.dst_of(mid)
            if dst is not None and dst != src:
                pairs.append((src, dst))
        return Matching(self._n, pairs)

    def restricted_to(self, ranks: Iterable[int]) -> "Matching":
        """Sub-matching containing only pairs with both endpoints in
        ``ranks`` (collectives over a GPU subset, paper §3.1)."""
        keep = set(ranks)
        return Matching(
            self._n,
            [(s, d) for s, d in self._pairs if s in keep and d in keep],
        )

    def disjoint_union(self, other: "Matching") -> "Matching":
        """Union of two matchings that share no sources/destinations.

        Raises :class:`MatchingError` on conflicts.  This is *not* the
        multi-ported union (which is a sum of permutations, handled at
        the :class:`repro.collectives.Step` level); it merely merges two
        partial matchings into one.
        """
        if other.n != self._n:
            raise MatchingError("cannot union matchings over different n")
        return Matching(self._n, list(self._pairs) + list(other.pairs))
