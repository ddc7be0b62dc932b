"""Topologies that exactly match a communication pattern (paper §3.3).

When the fabric reconfigures for step ``i``, every pair of ``M_i`` gets a
dedicated full-rate circuit: path length and congestion factor both
collapse to 1.  :func:`matched_topology` materializes that configuration
as a :class:`~repro.topology.base.Topology` for the flow machinery; the
cost model and the flow simulator price matched steps without building it.
"""

from __future__ import annotations

from collections.abc import Iterable

from .._validation import require_positive
from ..exceptions import TopologyError
from ..matching import Matching
from .base import Topology

__all__ = ["matched_topology", "multi_matched_topology"]


def matched_topology(matching: Matching, circuit_rate: float) -> Topology:
    """The circuit configuration dedicated to one matching.

    Each ``(src, dst)`` pair receives a direct edge of ``circuit_rate``
    (the full transceiver bandwidth ``b``).  Ranks not in the matching
    stay disconnected — they are idle during this step.
    """
    rate = require_positive(circuit_rate, "circuit_rate", TopologyError)
    if len(matching) == 0:
        raise TopologyError("cannot build a matched topology for an empty matching")
    edges = [(src, dst, rate) for src, dst in matching]
    return Topology(
        matching.n,
        edges,
        name=f"matched({len(matching)} circuits)",
        metadata={"family": "matched", "reference_rate": rate},
    )


def multi_matched_topology(
    matchings: Iterable[Matching], circuit_rate: float
) -> Topology:
    """The union configuration for a multi-ported step.

    The paper's outlook (§4) considers steps that are unions of multiple
    permutations, one per port.  Each constituent matching receives its
    own set of full-rate circuits; capacities on repeated pairs add.
    """
    rate = require_positive(circuit_rate, "circuit_rate", TopologyError)
    matchings = list(matchings)
    if not matchings:
        raise TopologyError("at least one matching is required")
    n = matchings[0].n
    edges: list[tuple[int, int, float]] = []
    for matching in matchings:
        if matching.n != n:
            raise TopologyError("all matchings must share the same n")
        edges.extend((src, dst, rate) for src, dst in matching)
    if not edges:
        raise TopologyError("cannot build a matched topology for empty matchings")
    return Topology(
        n,
        edges,
        name=f"matched_union({len(matchings)} ports)",
        metadata={"family": "matched", "reference_rate": rate},
    )
