"""Declarative multi-phase workloads.

A :class:`Workload` is an ordered sequence of
:class:`~repro.planner.Scenario` *phases* served by one shared photonic
fabric: every phase names the same base :class:`~repro.planner.TopologySpec`,
and the fabric's circuit configuration *persists* between phases — the
matching the last step of phase ``k`` established is what phase ``k+1``
finds standing.  That carried state is the whole point of the layer
(paper §4's research agenda): a domain that adapts to a *stream* of
collectives, not a single kernel in isolation.

Workloads round-trip through plain dicts like every other declarative
object in the library, and :func:`interleave` merges the phase lists of
several tenants round-robin onto one fabric (multi-tenant traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Iterable, Mapping, Sequence

from .._validation import json_type, require_keys
from ..exceptions import FabricError, WorkloadError
from ..fabric.reconfiguration import (
    Configuration,
    configuration_from_topology,
)
from ..planner import Scenario, TopologySpec
from ..topology import Topology

__all__ = ["Workload", "interleave"]


@dataclass(frozen=True)
class Workload:
    """An ordered sequence of planning scenarios over one shared fabric.

    Attributes
    ----------
    phases:
        The collectives to serve, in arrival order.  All phases must
        reference the same :class:`~repro.planner.TopologySpec` (one
        fabric) and be single-port (``multiport_radix is None``); the
        collectives, message sizes, and cost scalars may vary freely.
    name:
        Optional label carried into reports and benchmark output.
    """

    phases: tuple[Scenario, ...] = field(default_factory=tuple)
    name: str = ""

    def __post_init__(self) -> None:
        phases = tuple(self.phases)
        object.__setattr__(self, "phases", phases)
        if not phases:
            raise WorkloadError("a workload needs at least one phase")
        spec = phases[0].topology
        for index, phase in enumerate(phases):
            if phase.topology != spec:
                raise WorkloadError(
                    f"phase {index} runs on topology {phase.topology}, but "
                    f"phase 0 runs on {spec}; a workload shares one fabric"
                )
            if phase.multiport_radix is not None:
                raise WorkloadError(
                    f"phase {index} is multi-ported; workload planning and "
                    "simulation are single-port (multiport_radix=None)"
                )

    # -- conveniences --------------------------------------------------------

    @property
    def n(self) -> int:
        """Rank count of the shared domain."""
        return self.phases[0].topology.n

    @property
    def topology(self) -> TopologySpec:
        """The shared base-fabric spec."""
        return self.phases[0].topology

    @property
    def num_phases(self) -> int:
        """Number of phases."""
        return len(self.phases)

    def __len__(self) -> int:
        return len(self.phases)

    def __iter__(self):
        return iter(self.phases)

    def build_topology(self) -> Topology:
        """The shared base topology instance (memoized per spec)."""
        return self.topology.build()

    def base_configuration(self) -> Configuration:
        """The circuit set of the standing base topology.

        For pod fabrics this is the intra-pod rank-to-rank circuit
        layer (uplinks into the electrical core are static and never
        reconfigure).  Raises :class:`~repro.exceptions.WorkloadError`
        for other relay fabrics — those have no optical-circuit
        realization, so physical reconfiguration accounting cannot
        price them.
        """
        topology = self.build_topology()
        try:
            return configuration_from_topology(topology)
        except FabricError as exc:
            raise WorkloadError(
                f"workload fabric {self.topology.family!r} has no optical "
                "circuit configuration (relay nodes); physical "
                "reconfiguration accounting needs a relay-free base"
            ) from exc

    def replace(self, **kwargs) -> "Workload":
        """A copy with fields overridden (validation re-runs)."""
        return replace(self, **kwargs)

    def extended(self, phases: Iterable[Scenario]) -> "Workload":
        """A copy with extra phases appended."""
        return self.replace(phases=self.phases + tuple(phases))

    def fingerprint(self) -> str:
        """A stable content digest of this workload (canonical JSON of
        :meth:`to_dict`), used by :mod:`repro.service` to coalesce
        identical in-flight workload requests onto one execution."""
        from ..planner.scenario import canonical_digest

        return canonical_digest("workload-v1", self.to_dict())

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON-serializable)."""
        out: dict[str, object] = {
            "phases": [phase.to_dict() for phase in self.phases],
        }
        if self.name:
            out["name"] = self.name
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Workload":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        require_keys(data, {"phases", "name"}, "workload", WorkloadError)
        phases = data.get("phases", ())
        if not isinstance(phases, (list, tuple)):
            raise WorkloadError(
                f"workload phases must be a JSON array, got {json_type(phases)}"
            )
        return cls(
            phases=tuple(Scenario.from_dict(phase) for phase in phases),
            name=str(data.get("name", "")),
        )


def interleave(workloads: Sequence[Workload], name: str = "") -> Workload:
    """Round-robin merge of several tenants' phases onto one fabric.

    Tenant ``t``'s phase ``i`` lands before tenant ``t+1``'s phase
    ``i``; tenants that run out of phases simply drop out of the
    rotation.  All tenants must share the same topology spec (they are
    time-sharing one physical domain).  Phase names are prefixed with
    their tenant's workload name (or index) so reports stay readable.
    """
    if not workloads:
        raise WorkloadError("interleave needs at least one workload")
    merged: list[Scenario] = []
    depth = max(len(w) for w in workloads)
    for round_index in range(depth):
        for tenant, workload in enumerate(workloads):
            if round_index >= len(workload.phases):
                continue
            phase = workload.phases[round_index]
            tag = workload.name or f"tenant{tenant}"
            label = phase.name or phase.collective.algorithm
            merged.append(phase.replace(name=f"{tag}/{label}"))
    return Workload(
        phases=tuple(merged),
        name=name or "+".join(w.name or f"tenant{i}" for i, w in enumerate(workloads)),
    )
