"""Demand estimation from censored flow-rate telemetry.

The controller never sees a demand matrix — it sees
:class:`~repro.sim.RateObservation` rows: per-flow achieved rates over
transmission windows.  Those rates are censored twice (paper §4's
"collective will" is *inferred*, not declared):

* **allocation-censored** — a flow's rate is whatever the current
  configuration granted it: the circuit rate on a matched step, an mcf
  share on a base step.  A low rate does not mean low demand.
* **demand-censored** — a flow stops when its volume runs out, so the
  rate alone never reveals *how much* the tenant wanted to move.

:func:`demand_from_observations` undoes both: each row's shipped volume
is ``rate * (window - delta * hops)`` — the achieved rate times the
pure transmission portion of its observed window (the controller knows
``delta`` and the path length; it configured the fabric).  Summing per
``(src, dst)`` reconstructs the phase's aggregate demand matrix
``M = sum_i m_i M_i`` (Eq. 1) exactly: in the uncensored regime the
differential suite pins the reconstruction at 1e-9 against
:meth:`~repro.collectives.base.Collective.aggregate_demand`.

Two stateful estimators smooth the per-phase reconstructions:

* :class:`EwmaDemandEstimator` — exponentially weighted moving average
  with bias correction, so a *constant* demand is recovered exactly
  from the very first observation (no warm-up bias);
* :class:`SlidingWindowDemandEstimator` — the mean of the last ``window``
  phase matrices, forgetting abruptly instead of geometrically.

Both expose :meth:`~DemandEstimator.drift` — the relative movement the
latest observation caused — which is what the controller's drift
trigger thresholds on.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

import numpy as np

from .._validation import require_count
from ..exceptions import ReproError
from ..sim.observation import RateObservation, RateObservations

__all__ = [
    "EstimationError",
    "demand_from_observations",
    "DemandEstimator",
    "EwmaDemandEstimator",
    "SlidingWindowDemandEstimator",
    "make_estimator",
    "ESTIMATOR_KINDS",
]


class EstimationError(ReproError):
    """A demand-estimation input or parameter was invalid."""


def demand_from_observations(
    observations: Sequence[RateObservation],
    n: int,
    delta: float = 0.0,
) -> np.ndarray:
    """De-censor one phase's telemetry into its demand matrix.

    Parameters
    ----------
    observations:
        The phase's :class:`~repro.sim.RateObservation` rows (a
        :class:`~repro.sim.RateObservations` block is folded as is).
    n:
        Rank count of the fabric (matrix dimension).
    delta:
        The cost model's per-hop propagation term — part of each
        observed window that carried no payload.

    Returns
    -------
    numpy.ndarray
        The ``n x n`` aggregate demand matrix the flows shipped.

    Raises :class:`EstimationError` for a pair outside the fabric or a
    volume that is not finite.
    """
    n = int(n)
    if n < 1:
        raise EstimationError(f"rank count must be >= 1, got {n}")
    block = RateObservations.of(observations)
    outside = np.flatnonzero(
        (np.minimum(block.src, block.dst) < 0)
        | (np.maximum(block.src, block.dst) >= n)
    )
    if len(outside):
        obs = block[int(outside[0])]
        raise EstimationError(
            f"observation names pair ({obs.src}, {obs.dst}) outside "
            f"the {n}-rank fabric"
        )
    volumes = block.volumes(delta)
    if not np.isfinite(volumes).all():
        raise EstimationError("observations de-censor to a non-finite volume")
    demand = np.zeros((n, n), dtype=float)
    # Unbuffered, in row order: a pair seen in several steps sums as a
    # loop would (``demand[src, dst] += volumes`` keeps one add per pair).
    np.add.at(demand, (block.src, block.dst), volumes)
    return demand


class DemandEstimator:
    """Common scaffolding: feed observations in, read an estimate out.

    Subclasses implement :meth:`_update` (fold one de-censored phase
    matrix into their state) and :meth:`estimate`.
    """

    def __init__(self, n: int):
        self.n = int(n)
        if self.n < 1:
            raise EstimationError(f"rank count must be >= 1, got {n}")
        self.phases_observed = 0
        self._drift = float("inf")  # no estimate yet: maximally uncertain

    def observe(
        self,
        observations: Sequence[RateObservation],
        delta: float = 0.0,
    ) -> np.ndarray:
        """De-censor one phase's telemetry and fold it into the state.

        Returns the phase's own de-censored demand matrix (before
        smoothing), and updates :meth:`drift` to the relative movement
        of the estimate this observation caused.
        """
        demand = demand_from_observations(observations, self.n, delta)
        before = self.estimate()
        self._update(demand)
        self.phases_observed += 1
        after = self.estimate()
        if before is None:
            self._drift = float("inf")
        else:
            scale = float(np.abs(before).sum())
            self._drift = float(np.abs(after - before).sum()) / max(
                scale, 1e-300
            )
        return demand

    def drift(self) -> float:
        """Relative L1 movement of the estimate caused by the last
        :meth:`observe` (``inf`` before the second observation)."""
        return self._drift

    def estimate(self) -> "np.ndarray | None":
        """The current demand-matrix estimate (``None`` before any
        observation)."""
        raise NotImplementedError

    def _update(self, demand: np.ndarray) -> None:
        raise NotImplementedError


class EwmaDemandEstimator(DemandEstimator):
    """Bias-corrected exponentially weighted moving average.

    State: ``s_k = (1 - beta) * s_{k-1} + beta * D_k`` with ``s_0 = 0``;
    the estimate divides out the startup bias,
    ``s_k / (1 - (1 - beta)^k)``, so a constant demand ``D`` is
    recovered *exactly* from ``k = 1`` on — the property the
    differential suite pins at 1e-9.
    """

    def __init__(self, n: int, beta: float = 0.5):
        super().__init__(n)
        self.beta = float(beta)
        if not 0.0 < self.beta <= 1.0:
            raise EstimationError(
                f"beta must be in (0, 1], got {self.beta}"
            )
        self._state = np.zeros((self.n, self.n), dtype=float)

    def estimate(self) -> "np.ndarray | None":
        if self.phases_observed == 0:
            return None
        correction = 1.0 - (1.0 - self.beta) ** self.phases_observed
        return self._state / correction

    def _update(self, demand: np.ndarray) -> None:
        self._state = (1.0 - self.beta) * self._state + self.beta * demand


class SlidingWindowDemandEstimator(DemandEstimator):
    """Mean of the last ``window`` phase matrices.

    Forgets abruptly: a regime change is fully absorbed after
    ``window`` phases, where the EWMA only converges geometrically.
    """

    def __init__(self, n: int, window: int = 4):
        super().__init__(n)
        self.window = require_count(window, "window", EstimationError)
        self._history: deque[np.ndarray] = deque(maxlen=self.window)

    def estimate(self) -> "np.ndarray | None":
        if not self._history:
            return None
        return sum(self._history) / len(self._history)

    def _update(self, demand: np.ndarray) -> None:
        self._history.append(demand)


#: Estimator kinds :func:`make_estimator` recognizes.
ESTIMATOR_KINDS = ("ewma", "window")


def make_estimator(kind: str, n: int, **options) -> DemandEstimator:
    """Build an estimator by name (``"ewma"`` or ``"window"``).

    ``options`` forwards the kind's parameters (``beta`` for ewma,
    ``window`` for the sliding window); unknown kinds raise
    :class:`EstimationError`.
    """
    if kind == "ewma":
        return EwmaDemandEstimator(n, **options)
    if kind == "window":
        return SlidingWindowDemandEstimator(n, **options)
    raise EstimationError(
        f"unknown estimator kind {kind!r}; available: {ESTIMATOR_KINDS}"
    )
