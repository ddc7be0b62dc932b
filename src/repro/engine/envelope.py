"""The cheap theta sandwich for pre-screening.

Exact theta has one route, :func:`repro.flows.compute_theta` with
``method="auto"``.  Screening a large grid before exact refinement
needs only bounds: :func:`theta_envelope` pairs the shortest-path
feasible-routing lower bound (``method="sp"``) with the degree/flow-hop
proxy upper bound (``method="proxy"``) from :mod:`repro.flows.bounds`.
Each edge is cached under its own tag, so an envelope edge never
stands in for an exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..flows import ThroughputCache, compute_theta, default_cache
from ..matching import Matching
from ..topology.base import Topology

__all__ = ["ThetaEnvelope", "theta_envelope"]


@dataclass(frozen=True)
class ThetaEnvelope:
    """A cheap ``lower <= theta <= upper`` sandwich for one pattern."""

    lower: float
    upper: float

    @property
    def width(self) -> float:
        """Absolute gap between the edges (``0.0`` when both infinite)."""
        if math.isinf(self.upper) and math.isinf(self.lower):
            return 0.0
        return self.upper - self.lower

    def brackets(self, value: float, rel_tol: float = 1e-9) -> bool:
        """Whether ``value`` lies inside the envelope (with float slack)."""
        if math.isinf(value):
            return math.isinf(self.upper)
        slack_low = self.lower - rel_tol * max(abs(self.lower), 1.0)
        slack_high = self.upper + rel_tol * max(abs(self.upper), 1.0)
        return slack_low <= value <= slack_high


def theta_envelope(
    topology: Topology,
    matching: Matching,
    reference_rate: float | None = None,
    cache: ThroughputCache | None = default_cache,
) -> ThetaEnvelope:
    """The ``sp`` / ``proxy`` sandwich for one pattern."""
    lower = compute_theta(
        topology, matching, reference_rate, method="sp", cache=cache
    )
    upper = compute_theta(
        topology, matching, reference_rate, method="proxy", cache=cache
    )
    return ThetaEnvelope(lower=lower, upper=upper)
