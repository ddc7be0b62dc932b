"""Hierarchical multi-pod fabrics: scale-up domains behind a core switch.

A :class:`PodFabric` is k pods — each a scale-up photonic domain built
by one of the flat topology families — joined by a second-tier optical
switch (the ``"core"`` relay node).  The first ``uplinks_per_pod``
ranks of each pod are its *gateways*: each gateway spends one extra
port on a bidirectional uplink to the core.  The core itself is a
non-blocking optical crossbar (real second-tier optical switches are),
so all inter-pod capacity constraints live on the uplinks — which is
exactly what makes the blockwise theta decomposition in
:mod:`repro.flows.block` *exact* rather than approximate.

The flat :class:`~repro.topology.base.Topology` a fabric builds carries
its pod structure in ``metadata["pods"]`` (rank ranges + the core
label).  Everything downstream — exact theta pricing
(:func:`repro.flows.compute_theta` takes the block route), delta
pricing, theta-affinity chunking — keys off that metadata, so a
degraded fabric (``FabricHealth.apply`` preserves the key) still
routes through the block path.

Uneven pod sizes, per-pod degraded uplinks (``uplink_multipliers``),
and any registered pod family are supported; fabrics round-trip through
plain dicts for configs and services.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Mapping, Sequence

from .._validation import require_positive
from ..exceptions import TopologyError
from .base import Topology
from .hypercube import hypercube
from .mesh import full_mesh, line
from .ring import ring

__all__ = ["PodFabric", "pod_fabric", "pod_ranges", "CORE", "POD_FAMILIES"]

#: The relay-node label of the second-tier optical switch.
CORE = "core"

#: Flat families a pod may instantiate (name -> builder(n, bandwidth)).
#: Pods must be pure rank graphs — relay-emitting families (e.g. star)
#: would blur pod membership for the block decomposition.
POD_FAMILIES: dict[str, object] = {
    "ring": ring,
    "full_mesh": full_mesh,
    "line": line,
    "hypercube": hypercube,
}


def pod_ranges(pod_sizes: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """``(start, size)`` of each pod under contiguous rank numbering."""
    ranges = []
    start = 0
    for size in pod_sizes:
        ranges.append((start, int(size)))
        start += int(size)
    return tuple(ranges)


@dataclass(frozen=True)
class PodFabric:
    """k pods of a scale-up domain joined by a second-tier optical switch.

    Parameters
    ----------
    pod_sizes:
        Ranks per pod (uneven sizes allowed, each >= 2).  Global ranks
        number the pods contiguously: pod p owns
        ``[sum(sizes[:p]), sum(sizes[:p+1]))``.
    bandwidth:
        Per-rank transceiver bandwidth ``b`` (the reference rate), fed
        to the pod family builder.
    pod_family:
        Which flat family each pod instantiates (see
        :data:`POD_FAMILIES`; default ``"ring"``).
    uplinks_per_pod:
        How many gateway ranks per pod (the first ranks of the pod) hold
        an uplink to the core.  Must fit the smallest pod.
    uplink_bandwidth:
        Per-direction uplink capacity; defaults to ``bandwidth``.
    uplink_multipliers:
        Optional per-pod health factor in ``[0, 1]`` scaling that pod's
        uplinks (``0`` removes them — a pod cut off from the core).
        Empty means pristine.  This models degraded *inter-pod* links;
        intra-pod degradation composes via
        :class:`~repro.fabric.degradation.FabricHealth` as usual.
    """

    pod_sizes: tuple[int, ...]
    bandwidth: float
    pod_family: str = "ring"
    uplinks_per_pod: int = 4
    uplink_bandwidth: float | None = None
    uplink_multipliers: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.pod_sizes)
        object.__setattr__(self, "pod_sizes", sizes)
        if len(sizes) < 1:
            raise TopologyError("a PodFabric needs at least one pod")
        if any(s < 2 for s in sizes):
            raise TopologyError(f"every pod needs >= 2 ranks, got {sizes}")
        require_positive(self.bandwidth, "bandwidth", TopologyError)
        if self.pod_family not in POD_FAMILIES:
            raise TopologyError(
                f"unknown pod family {self.pod_family!r}; available: "
                f"{tuple(sorted(POD_FAMILIES))}"
            )
        if not 1 <= self.uplinks_per_pod <= min(sizes):
            raise TopologyError(
                f"uplinks_per_pod={self.uplinks_per_pod} must be in "
                f"[1, {min(sizes)}] (the smallest pod)"
            )
        if self.uplink_bandwidth is not None:
            require_positive(self.uplink_bandwidth, "uplink_bandwidth", TopologyError)
        multipliers = tuple(float(m) for m in self.uplink_multipliers)
        object.__setattr__(self, "uplink_multipliers", multipliers)
        if multipliers and len(multipliers) != len(sizes):
            raise TopologyError(
                f"uplink_multipliers has {len(multipliers)} entries for "
                f"{len(sizes)} pods"
            )
        if any(not 0.0 <= m <= 1.0 for m in multipliers):
            raise TopologyError("uplink multipliers must be within [0, 1]")

    # -- structure ------------------------------------------------------------

    @property
    def n(self) -> int:
        """Total rank count across pods."""
        return sum(self.pod_sizes)

    @property
    def n_pods(self) -> int:
        return len(self.pod_sizes)

    @property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        """``(start, size)`` of each pod."""
        return pod_ranges(self.pod_sizes)

    def pod_of(self, rank: int) -> int:
        """Which pod owns a global rank."""
        for p, (start, size) in enumerate(self.ranges):
            if start <= rank < start + size:
                return p
        raise TopologyError(f"rank {rank} outside fabric of n={self.n}")

    def multiplier(self, pod: int) -> float:
        """The uplink health factor of one pod (1.0 when pristine)."""
        if not self.uplink_multipliers:
            return 1.0
        return self.uplink_multipliers[pod]

    # -- building -------------------------------------------------------------

    def flat_topology(self) -> Topology:
        """The flat :class:`Topology`: pod edges + gateway-core uplinks.

        The result carries ``metadata["pods"]`` (rank ranges and the
        core label) so :func:`repro.flows.block.pod_structure` — and
        through it exact theta pricing — recognizes the hierarchy even
        after :class:`FabricHealth` degradation.
        """
        build = POD_FAMILIES[self.pod_family]
        uplink = (
            self.bandwidth
            if self.uplink_bandwidth is None
            else self.uplink_bandwidth
        )
        edges: list[tuple[object, object, float]] = []
        for p, (start, size) in enumerate(self.ranges):
            pod = build(size, self.bandwidth)
            for u, v, capacity in pod.edges():
                if not (isinstance(u, int) and isinstance(v, int)):
                    raise TopologyError(
                        f"pod family {self.pod_family!r} emits relay nodes; "
                        "pods must be pure rank graphs"
                    )
                edges.append((start + u, start + v, capacity))
            capacity = uplink * self.multiplier(p)
            if capacity <= 0.0:
                continue  # pod cut off from the core
            for g in range(self.uplinks_per_pod):
                gateway = start + g
                edges.append((gateway, CORE, capacity))
                edges.append((CORE, gateway, capacity))
        sizes = "x".join(str(s) for s in self.pod_sizes)
        return Topology(
            self.n,
            edges,
            name=f"podfabric({sizes}, {self.pod_family})",
            metadata={
                "family": "podfabric",
                "reference_rate": self.bandwidth,
                "pods": {
                    "ranges": self.ranges,
                    "core": CORE,
                },
            },
        )

    def degraded(self, health) -> Topology:
        """The flat topology under a :class:`FabricHealth` condition.

        ``FabricHealth.apply`` preserves the ``pods`` metadata key, so
        the degraded fabric still routes through the block solver.
        """
        return health.apply(self.flat_topology())

    # -- dict round-trip -------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """Plain-JSON form; :meth:`from_dict` inverts exactly."""
        payload: dict[str, object] = {
            "pod_sizes": list(self.pod_sizes),
            "bandwidth": self.bandwidth,
            "pod_family": self.pod_family,
            "uplinks_per_pod": self.uplinks_per_pod,
        }
        if self.uplink_bandwidth is not None:
            payload["uplink_bandwidth"] = self.uplink_bandwidth
        if self.uplink_multipliers:
            payload["uplink_multipliers"] = list(self.uplink_multipliers)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "PodFabric":
        return cls(
            pod_sizes=tuple(payload["pod_sizes"]),
            bandwidth=float(payload["bandwidth"]),
            pod_family=str(payload.get("pod_family", "ring")),
            uplinks_per_pod=int(payload.get("uplinks_per_pod", 4)),
            uplink_bandwidth=payload.get("uplink_bandwidth"),
            uplink_multipliers=tuple(payload.get("uplink_multipliers", ())),
        )

    def replace(self, **kwargs) -> "PodFabric":
        """A copy with fields overridden (validation re-runs)."""
        return replace(self, **kwargs)


def pod_fabric(
    n: int,
    bandwidth: float,
    pods: int = 0,
    pod_sizes: Sequence[int] = (),
    pod_family: str = "ring",
    uplinks_per_pod: int = 4,
    uplink_bandwidth: float | None = None,
    uplink_multipliers: Sequence[float] = (),
) -> Topology:
    """Build a flat pod-fabric topology (the ``"podfabric"`` spec family).

    Give either ``pods`` (equal split of ``n``) or explicit
    ``pod_sizes`` (must sum to ``n``).
    """
    if pod_sizes:
        sizes = tuple(int(s) for s in pod_sizes)
        if sum(sizes) != n:
            raise TopologyError(
                f"pod_sizes {sizes} sum to {sum(sizes)} but the spec says n={n}"
            )
    else:
        if pods < 1:
            raise TopologyError(
                "podfabric needs a 'pods' count or explicit 'pod_sizes'"
            )
        if n % pods != 0:
            raise TopologyError(f"{pods} pods cannot evenly split n={n}")
        sizes = (n // pods,) * pods
    fabric = PodFabric(
        pod_sizes=sizes,
        bandwidth=bandwidth,
        pod_family=pod_family,
        uplinks_per_pod=uplinks_per_pod,
        uplink_bandwidth=uplink_bandwidth,
        uplink_multipliers=tuple(uplink_multipliers),
    )
    return fabric.flat_topology()
