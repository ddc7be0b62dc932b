"""Delta-aware incremental pricing for pod fabrics.

PR 8's blockwise decomposition makes ``theta(G, M)`` separable:

    theta  =  min( min_p phi_p , phi_coarse )

so when a fabric or pattern *changes slightly* — one pod's ports dim, a
single uplink degrades, a few matching rows drift — re-pricing from
scratch re-solves pods whose subproblems are bit-identical to the last
evaluation.  This module turns "something changed" into "re-solve
O(changed pods)":

* :class:`DeltaIndex` diffs two fabric conditions (health multipliers,
  failed lanes, per-pod uplink health) or two matchings into a
  :class:`PodDelta` — the set of *dirty* pods plus whether the coarse
  inter-pod problem needs re-solving.  Diff rules are conservative:
  anything the index cannot attribute to specific pods (wavelength-wide
  dimming, membership changes, a different base fabric) marks the delta
  *full* and the evaluation falls back to a cold solve.
* :func:`pod_theta_parts` evaluates theta while recording a
  :class:`ThetaParts` decomposition — per-pod :class:`PodPart` values
  flagged **exact** (an LP optimum or zero-width envelope) or
  **certified bound** (a pod screened because its lower bound met the
  running minimum).  Given previous parts and a delta, clean pods with
  exact values are reused outright; clean pods holding only a certified
  bound are re-screened against the new running envelope and *never
  touched* unless the envelope dips below their bound; only dirty pods
  get fresh bounds and (if surviving) an LP — routed through the same
  process-wide subproblem memo as the cold path, so a pod subproblem
  seen in an earlier delta is never solved twice.

Exactness is preserved, not approximated: a clean pod's subproblem is
structurally identical to its previous evaluation, so its ``phi_p`` (or
certified lower bound on it) carries over verbatim.  The differential
suite (``tests/differential/test_delta_vs_cold.py``) pins delta-path
theta against cold block pricing at 1e-9 over hypothesis-generated
perturbation chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from ..exceptions import FlowError
from ..matching import Matching
from ..memo import Counters
from ..topology.base import Topology
from .block import (
    PodPart,
    PodStructure,
    ThetaParts,
    _coarse_theta,
    _coarse_zero_parts,
    _cold_parts,
    _counters as _block_counters,
    _partition_matching,
    _pod_commodities,
    _pod_subgraphs_subset,
    _solve_subproblem,
    _zero_parts,
    pod_structure,
)
from .bounds import theta_lower_bound_shortest_path, theta_proxy
from .concurrent_flow import Commodity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fabric.degradation import FabricHealth

__all__ = [
    "PodDelta",
    "DeltaIndex",
    "FabricState",
    "PodPart",
    "ThetaParts",
    "pod_theta_parts",
    "IncrementalStats",
    "incremental_stats",
    "reset_incremental_stats",
]


# -- statistics ---------------------------------------------------------------


@dataclass(frozen=True)
class IncrementalStats:
    """Process-wide counters of the delta path's work avoidance.

    ``delta_solves`` / ``full_solves`` count :func:`pod_theta_parts`
    evaluations that ran incrementally vs from scratch;
    ``context_hits`` counts :class:`~repro.engine.PlanContext` lookups
    answered without any evaluation at all (identical state and
    matching); ``dirty_pods_solved`` / ``clean_pods_reused`` /
    ``pods_screened`` partition the pods a delta evaluation considered:
    re-priced because the diff marked them, served from a cached exact
    ``phi_p``, or skipped because a certified bound met the running
    envelope.
    """

    delta_solves: int = 0
    full_solves: int = 0
    context_hits: int = 0
    dirty_pods_solved: int = 0
    clean_pods_reused: int = 0
    pods_screened: int = 0

    @property
    def reuse_ratio(self) -> float:
        """Fraction of considered pods served without an LP re-solve."""
        considered = (
            self.dirty_pods_solved + self.clean_pods_reused + self.pods_screened
        )
        if considered == 0:
            return 0.0
        return (self.clean_pods_reused + self.pods_screened) / considered


_counters = Counters(*(f.name for f in fields(IncrementalStats)))


def incremental_stats() -> IncrementalStats:
    """Snapshot of the delta path's work-avoidance counters."""
    return IncrementalStats(**_counters.snapshot())


def reset_incremental_stats() -> None:
    """Zero the counters (test and benchmark isolation)."""
    _counters.reset()


# -- deltas -------------------------------------------------------------------


@dataclass(frozen=True)
class PodDelta:
    """What changed between two evaluations, attributed to pods.

    ``dirty_pods`` must be re-priced; ``coarse_dirty`` forces a fresh
    coarse inter-pod LP; ``full`` voids all reuse (the diff could not
    attribute the change to specific pods).  ``reason`` is a short
    operator-facing label of what tripped the diff.
    """

    dirty_pods: frozenset[int] = frozenset()
    coarse_dirty: bool = False
    full: bool = False
    reason: str = ""

    @classmethod
    def nothing(cls) -> "PodDelta":
        """No observable change."""
        return cls()

    @classmethod
    def everything(cls, reason: str) -> "PodDelta":
        """A change the diff cannot localize: drop all cached parts."""
        return cls(full=True, coarse_dirty=True, reason=reason)

    @property
    def is_empty(self) -> bool:
        return not (self.dirty_pods or self.coarse_dirty or self.full)

    def merge(self, other: "PodDelta") -> "PodDelta":
        """The union of two deltas (conservative in both directions)."""
        if self.full or other.full:
            reason = self.reason if self.full else other.reason
            return PodDelta.everything(reason)
        return PodDelta(
            dirty_pods=self.dirty_pods | other.dirty_pods,
            coarse_dirty=self.coarse_dirty or other.coarse_dirty,
            reason=self.reason or other.reason,
        )


@dataclass(frozen=True)
class FabricState:
    """The condition a theta evaluation priced: base fabric identity,
    health overlay, and per-pod uplink health.

    ``base_key`` is any hashable identity of the *pristine* fabric
    (e.g. a :class:`~repro.planner.TopologySpec` minus its
    ``uplink_multipliers`` option); two states with different base keys
    never delta against each other.  Equality for delta purposes goes
    through :meth:`key`, which collapses health labels to fingerprints.
    """

    base_key: object
    health: "FabricHealth | None" = None
    uplink_multipliers: tuple[float, ...] = ()

    def key(self) -> tuple:
        """Hashable identity ignoring cosmetic health labels."""
        health_key = (
            None if self.health is None else self.health.fingerprint()
        )
        return (
            self.base_key,
            health_key,
            tuple(float(m) for m in self.uplink_multipliers),
        )


class DeltaIndex:
    """Diffs two fabric conditions or matchings into a :class:`PodDelta`.

    Bound to one :class:`~repro.flows.PodStructure`; all rank-to-pod
    attribution uses its contiguous ranges.
    """

    def __init__(self, structure: PodStructure) -> None:
        self.structure = structure

    def owner(self, rank: object) -> int | None:
        """Pod index owning ``rank``, or ``None`` for non-pod nodes."""
        if not isinstance(rank, int):
            return None
        for p, (start, size) in enumerate(self.structure.ranges):
            if start <= rank < start + size:
                return p
        return None

    # -- health -------------------------------------------------------------

    def diff_health(
        self,
        old: "FabricHealth | None",
        new: "FabricHealth | None",
    ) -> PodDelta:
        """Pods whose subproblem capacities a health transition touched.

        Port multipliers dirty their owning pod (and the coarse problem:
        a gateway rank's multiplier scales its uplinks); failed
        transceiver lanes dirty the endpoints' pod (lanes are rank-rank,
        never uplinks, so the coarse capacities are unaffected);
        wavelength-factor changes scale *every* edge and void all reuse.
        """
        old_pristine = old is None or old.is_pristine
        new_pristine = new is None or new.is_pristine
        if old_pristine and new_pristine:
            return PodDelta.nothing()
        if not old_pristine and not new_pristine:
            if old.fingerprint() == new.fingerprint():
                return PodDelta.nothing()
        old_wavelength = 1.0 if old_pristine else old.wavelength_factor
        new_wavelength = 1.0 if new_pristine else new.wavelength_factor
        if old_wavelength != new_wavelength:
            return PodDelta.everything("wavelength factor changed")
        old_ports = {} if old_pristine else dict(old.port_multipliers)
        new_ports = {} if new_pristine else dict(new.port_multipliers)
        dirty: set[int] = set()
        ports_changed = False
        for rank in set(old_ports) | set(new_ports):
            if old_ports.get(rank, 1.0) != new_ports.get(rank, 1.0):
                ports_changed = True
                pod = self.owner(rank)
                if pod is None:
                    return PodDelta.everything(
                        f"port multiplier on non-pod rank {rank!r}"
                    )
                dirty.add(pod)
        old_lanes = set() if old_pristine else set(old.failed_transceivers)
        new_lanes = set() if new_pristine else set(new.failed_transceivers)
        for u, v in old_lanes ^ new_lanes:
            pu, pv = self.owner(u), self.owner(v)
            if pu is None or pv is None or pu != pv:
                return PodDelta.everything(
                    f"failed lane ({u!r}, {v!r}) crosses the pod structure"
                )
            dirty.add(pu)
        return PodDelta(
            dirty_pods=frozenset(dirty),
            coarse_dirty=ports_changed,
            reason="health transition",
        )

    # -- uplink health ------------------------------------------------------

    def diff_uplinks(
        self,
        old: tuple[float, ...],
        new: tuple[float, ...],
    ) -> PodDelta:
        """Pods whose per-pod uplink multiplier changed.

        A shorter tuple pads with 1.0 (the :class:`PodFabric`
        convention); a tuple longer than the pod count cannot be
        attributed and voids reuse.
        """
        n_pods = self.structure.n_pods
        if len(old) > n_pods or len(new) > n_pods:
            return PodDelta.everything("uplink multipliers exceed pod count")

        def at(values: tuple[float, ...], p: int) -> float:
            return float(values[p]) if p < len(values) else 1.0

        dirty = {
            p for p in range(n_pods) if at(old, p) != at(new, p)
        }
        if not dirty:
            return PodDelta.nothing()
        return PodDelta(
            dirty_pods=frozenset(dirty),
            coarse_dirty=True,
            reason="uplink health changed",
        )

    # -- states -------------------------------------------------------------

    def diff_states(self, old: FabricState, new: FabricState) -> PodDelta:
        """Combined fabric-condition diff (base identity, health, uplinks)."""
        if old.base_key != new.base_key:
            return PodDelta.everything("different base fabric")
        return self.diff_health(old.health, new.health).merge(
            self.diff_uplinks(old.uplink_multipliers, new.uplink_multipliers)
        )

    # -- demand -------------------------------------------------------------

    def diff_matchings(self, old: Matching, new: Matching) -> PodDelta:
        """Pods whose subproblem *demand* two matchings disagree on.

        A pod is clean when its intra-pod pairs and aggregated in/out
        segments are identical multisets; the coarse problem is clean
        when the pod-to-pod aggregate demand matrix is unchanged.
        """
        if old is new or old == new:
            return PodDelta.nothing()
        if old.n != new.n:
            return PodDelta.everything("matchings of different size")
        old_parts = _partition_matching(self.structure, old)
        new_parts = _partition_matching(self.structure, new)
        dirty = {
            p
            for p in range(self.structure.n_pods)
            if _demand_signature(old_parts, p) != _demand_signature(new_parts, p)
        }
        return PodDelta(
            dirty_pods=frozenset(dirty),
            coarse_dirty=old_parts[3] != new_parts[3],
            reason="demand rows changed",
        )


def _demand_signature(parts, p: int) -> tuple:
    """Canonical per-pod demand signature for matching diffs."""
    intra, seg_out, seg_in, _ = parts
    return (
        tuple(sorted((c.src, c.dst, c.demand) for c in intra[p])),
        tuple(sorted(seg_out[p].items())),
        tuple(sorted(seg_in[p].items())),
    )


# -- parts --------------------------------------------------------------------


def pod_theta_parts(
    topology: Topology,
    matching: Matching,
    reference_rate: float,
    prev: ThetaParts | None = None,
    delta: PodDelta | None = None,
) -> ThetaParts:
    """Exact blockwise theta, recording (and optionally reusing) parts.

    Without ``prev``/``delta`` this is :func:`repro.flows.pod_theta`
    with the per-pod decomposition retained.  With both, pods the delta
    left clean reuse their previous part — exact values verbatim,
    certified bounds through re-screening — and only dirty pods (plus
    the coarse problem, when marked) are re-priced.  ``prev`` must come
    from the *same base fabric lineage*: the caller (normally
    :class:`repro.engine.PlanContext`) is responsible for diffing the
    conditions that produced it against the current ``topology``.

    Raises :class:`FlowError` on topologies without pod structure —
    there is nothing to decompose; use :func:`repro.flows.compute_theta`
    for flat fabrics.
    """
    structure = pod_structure(topology)
    if structure is None:
        raise FlowError(
            f"topology {topology.name!r} has no pod structure; "
            "the delta path requires metadata['pods']"
        )
    reference_rate = float(reference_rate)
    n_pods = structure.n_pods
    if len(matching) == 0:
        return ThetaParts(
            theta=math.inf,
            coarse=math.inf,
            pods=(None,) * n_pods,
            structure=structure,
            reference_rate=reference_rate,
        )
    usable = (
        prev is not None
        and delta is not None
        and not delta.full
        and prev.structure == structure
        and prev.reference_rate == reference_rate
        and len(prev.pods) == n_pods
    )
    intra, seg_out, seg_in, inter_demand = _partition_matching(
        structure, matching
    )
    if not usable:
        _counters.bump("full_solves")
        return _cold_parts(
            topology, structure, intra, seg_out, seg_in, inter_demand,
            reference_rate,
        )
    _counters.bump("delta_solves")
    return _delta_parts(
        topology, structure, intra, seg_out, seg_in, inter_demand,
        reference_rate, prev, delta,
    )


def _delta_parts(
    topology: Topology,
    structure: PodStructure,
    intra,
    seg_out,
    seg_in,
    inter_demand,
    reference_rate: float,
    prev: ThetaParts,
    delta: PodDelta,
) -> ThetaParts:
    """Incremental evaluation: re-price dirty pods, reuse clean parts."""
    core = structure.core
    coarse = (
        _coarse_theta(topology, structure, inter_demand, reference_rate)
        if delta.coarse_dirty
        else prev.coarse
    )
    if coarse == 0.0:
        return _coarse_zero_parts(structure, reference_rate)
    current = coarse
    parts: list[PodPart | None] = [None] * structure.n_pods
    # (lower, upper or None, pod, commodities, dirty?) — bound-sorted
    # screening over dirty pods and clean certified-bound carryovers.
    pending: list[tuple[float, float | None, int, tuple, bool]] = []
    dirty_need: set[int] = set()
    deferred: list[tuple[int, tuple[Commodity, ...]]] = []
    for p in range(structure.n_pods):
        commodities = _pod_commodities(core, intra[p], seg_out[p], seg_in[p])
        if not commodities:
            continue
        prev_part = prev.pods[p]
        if p not in delta.dirty_pods and prev_part is not None:
            if prev_part.exact:
                # Clean pod, exact phi cached: reuse verbatim.
                _counters.bump("clean_pods_reused")
                parts[p] = prev_part
                if prev_part.value < current:
                    current = prev_part.value
            else:
                # Clean pod holding a certified bound: re-screen below.
                pending.append((prev_part.value, None, p, commodities, False))
            continue
        dirty_need.add(p)
        deferred.append((p, commodities))
    busy_pods = [p for p, part in enumerate(parts) if part is not None]
    busy_pods += [entry[2] for entry in pending] + [p for p, _ in deferred]
    subgraphs = (
        _pod_subgraphs_subset(topology, structure, dirty_need)
        if dirty_need
        else {}
    )
    for p, commodities in deferred:
        subgraph = subgraphs[p]
        lower = theta_lower_bound_shortest_path(
            subgraph, commodities, reference_rate
        )
        if lower == 0.0:
            return _zero_parts(
                parts, p, busy_pods, coarse, structure, reference_rate
            )
        upper = theta_proxy(subgraph, commodities, reference_rate)
        pending.append((lower, upper, p, commodities, True))
    pending.sort(key=lambda e: e[0])
    for lower, upper, p, commodities, dirty in pending:
        if lower >= current:
            # Certified: phi_p >= running min >= final theta.  The pod
            # is never touched; its bound carries to the next delta.
            _counters.bump("pods_screened")
            _block_counters.bump("pods_screened")
            parts[p] = PodPart(lower, exact=False)
            continue
        if dirty and upper is not None and lower == upper:
            _block_counters.bump("envelope_decided")
            value = lower
        else:
            subgraph = subgraphs.get(p)
            if subgraph is None:
                # A clean certified-bound pod fell below the envelope:
                # its subgraph was never built this round, so build it
                # now (the subproblem memo usually still has the value).
                subgraph = _pod_subgraphs_subset(topology, structure, {p})[p]
                subgraphs[p] = subgraph
            value = _solve_subproblem(subgraph, commodities, reference_rate)
        if dirty:
            _counters.bump("dirty_pods_solved")
        parts[p] = PodPart(value, exact=True)
        if value < current:
            current = value
    return ThetaParts(
        theta=current,
        coarse=coarse,
        pods=tuple(parts),
        structure=structure,
        reference_rate=reference_rate,
    )
