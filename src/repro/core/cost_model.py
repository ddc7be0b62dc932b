"""The alpha-beta-theta cost model (paper §3.2, Eq. 3 and Eq. 4).

The demand completion time of collective step ``i`` on topology ``G`` is

    DCT(m_i * M_i) = alpha + delta * l_i + beta * m_i / theta(G, M_i)

with ``alpha`` the fixed per-step latency, ``delta`` the per-hop
propagation delay, ``l_i`` the step's path length, ``beta = 1/b`` the
inverse transceiver bandwidth, and ``theta`` the maximum concurrent
flow.  When the fabric reconfigures to match ``M_i``, path length and
congestion collapse to 1:

    DCT_matched(m_i * M_i) = alpha + delta + beta * m_i.

:func:`evaluate_step_costs` computes the per-step ``(m_i, theta_i,
l_i)`` triples for a collective on a base topology — everything the
optimizers need.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .._validation import require_non_negative, require_positive
from ..collectives.base import Collective
from ..exceptions import ScheduleError
from ..flows import PathLengthRule, ThroughputCache, compute_theta, default_cache, path_length
from ..matching import Matching
from ..topology.base import Topology

__all__ = ["CostParameters", "StepCost", "evaluate_step_costs"]


@dataclass(frozen=True)
class CostParameters:
    """Scalar parameters of the cost model.

    Attributes
    ----------
    alpha:
        Fixed per-step startup latency in seconds (paper's ``alpha``).
    bandwidth:
        Transceiver bandwidth ``b`` in bits/second; ``beta = 1/b``.
    delta:
        Per-hop propagation delay in seconds.
    reconfiguration_delay:
        The fabric reconfiguration delay ``alpha_r`` in seconds.
    """

    alpha: float
    bandwidth: float
    delta: float
    reconfiguration_delay: float

    def __post_init__(self) -> None:
        # Each field is stored as the float its check returns, so int
        # and float spellings of one value serialize alike.
        for name, check in (
            ("alpha", require_non_negative),
            ("bandwidth", require_positive),
            ("delta", require_non_negative),
            ("reconfiguration_delay", require_non_negative),
        ):
            object.__setattr__(
                self, name, check(getattr(self, name), name, ScheduleError)
            )

    @property
    def beta(self) -> float:
        """Inverse bandwidth, seconds per bit."""
        return 1.0 / self.bandwidth

    def replace(self, **kwargs: float) -> "CostParameters":
        """A copy with the given fields overridden (sweep helper).

        Validation still runs (``__post_init__``), so an invalid sweep
        point fails loudly rather than producing a nonsense cost.
        """
        return dataclasses.replace(self, **kwargs)

    def with_reconfiguration_delay(self, alpha_r: float) -> "CostParameters":
        """A copy with a different ``alpha_r`` (sweep helper)."""
        return dataclasses.replace(self, reconfiguration_delay=alpha_r)


@dataclass(frozen=True)
class StepCost:
    """The topology-dependent facts about one step.

    Attributes
    ----------
    volume:
        Per-pair data volume ``m_i`` in bits.
    theta:
        Maximum concurrent flow of the step's pattern on the *base*
        topology (``inf`` for an empty pattern, ``0.0`` if some pair is
        disconnected — the base topology then cannot serve this step).
    hops:
        Path-length term ``l_i`` on the base topology.
    label:
        Step label, carried through for reporting.
    matching:
        The step's communication pattern ``M_i``, carried so that
        physical reconfiguration accounting (pluggable
        :class:`~repro.fabric.reconfiguration.ReconfigurationModel`
        delay models) can derive the circuit configuration a matched
        step establishes.  ``None`` for hand-built step costs that only
        exercise the constant-``alpha_r`` Eq. 7 accounting.
    matched_rate_multiplier:
        Rate fraction the step's *matched* circuits achieve on a
        degraded fabric (the slowest pair's
        :meth:`~repro.fabric.FabricHealth.pair_multiplier`); 1.0 on a
        pristine fabric.  ``0.0`` marks a step whose matched option is
        forbidden outright (the ``avoid`` solver plans around failed
        ports this way).
    """

    volume: float
    theta: float
    hops: float
    label: str = ""
    matching: Matching | None = None
    matched_rate_multiplier: float = 1.0

    def base_cost(self, params: CostParameters) -> float:
        """DCT of this step when staying on the base topology (Eq. 3)."""
        if self.theta == 0.0:
            return math.inf
        congestion = 0.0 if self.volume == 0.0 else params.beta * self.volume / self.theta
        return params.alpha + params.delta * self.hops + congestion

    def matched_cost(self, params: CostParameters) -> float:
        """DCT of this step on its matched topology: ``l = 1`` and, on a
        pristine fabric, ``theta = 1`` by construction (paper §3.3).
        On a degraded fabric the dedicated circuits run at
        ``matched_rate_multiplier`` of the nominal rate."""
        if self.matched_rate_multiplier <= 0.0:
            return math.inf
        congestion = (
            0.0
            if self.volume == 0.0
            else params.beta * self.volume / self.matched_rate_multiplier
        )
        return params.alpha + params.delta + congestion


def evaluate_step_costs(
    collective: Collective,
    topology: Topology,
    params: CostParameters,
    theta_method: str = "auto",
    path_rule: PathLengthRule = PathLengthRule.MAX_PAIR_HOPS,
    cache: ThroughputCache | None = default_cache,
    health=None,
) -> tuple[StepCost, ...]:
    """Evaluate ``(m_i, theta_i, l_i)`` for every step of a collective.

    ``theta`` is normalized by ``params.bandwidth`` so that a dedicated
    full-rate circuit per pair scores exactly 1.

    ``health`` (a :class:`~repro.fabric.FabricHealth`) prices the
    *matched* side of each step on an imperfect fabric — the base side
    is priced by ``topology``, which callers pass already degraded
    (:meth:`FabricHealth.apply <repro.fabric.FabricHealth.apply>`).
    """
    if collective.n != topology.n_ranks:
        raise ScheduleError(
            f"collective n={collective.n} does not match topology "
            f"n_ranks={topology.n_ranks}"
        )
    costs = []
    for step in collective.steps:
        matched_multiplier = (
            1.0 if health is None else health.matched_multiplier(step.matching)
        )
        if len(step.matching) == 0:
            costs.append(
                StepCost(
                    volume=step.volume,
                    theta=math.inf,
                    hops=0.0,
                    label=step.label,
                    matching=step.matching,
                    matched_rate_multiplier=matched_multiplier,
                )
            )
            continue
        if not topology.supports(step.matching):
            theta = 0.0
            hops = math.inf
        else:
            theta = compute_theta(
                topology,
                step.matching,
                reference_rate=params.bandwidth,
                method=theta_method,
                cache=cache,
            )
            hops = path_length(topology, step.matching, rule=path_rule)
        costs.append(
            StepCost(
                volume=step.volume,
                theta=theta,
                hops=hops,
                label=step.label,
                matching=step.matching,
                matched_rate_multiplier=matched_multiplier,
            )
        )
    return tuple(costs)
