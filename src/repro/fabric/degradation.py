"""Fault and heterogeneity modeling for photonic fabrics.

Every scenario the library could express before this module assumed a
uniform, fault-free fabric.  Real photonic deployments are neither:
transceivers dim as lasers age, whole lanes go dark, wavelengths drop
out of a WDM group, and ports are bandwidth-heterogeneous across
vendors and generations.  :class:`FabricHealth` is the declarative,
frozen, dict-round-trippable description of one such *condition* of a
fabric, layered on top of the intended :class:`~repro.topology.base.Topology`:

* **per-port bandwidth multipliers** — rank ``r``'s optics run at a
  fraction of nominal rate; every circuit terminating at ``r`` is
  scaled by ``min`` of its endpoints' multipliers (the weaker optics
  gate the link);
* **failed transceivers** — the lane driving directed base link
  ``(u, v)`` is dark; the edge disappears from the standing topology
  (the circuit switch can still establish *new* matched circuits
  through the ports, at their multiplier-scaled rate);
* **dead wavelengths** — ``k`` of the fabric's ``W`` WDM wavelengths
  are down, scaling every capacity (base links and matched circuits)
  by ``(W - k) / W``.

:meth:`FabricHealth.apply` materializes the degraded topology.  The
degraded instance deliberately drops the closed-form ``family``
metadata: the ring/hypercube formulas assume uniform capacities, so
theta evaluation falls back to the exact LP — and because the degraded
topology has a different structural fingerprint, the throughput cache
(both tiers) can never conflate degraded and pristine values.

Deterministic generators (:func:`uniform_degradation`,
:func:`random_failures`, :func:`hotspot`) expand a rank count (and a
seed) into reproducible health states for sweeps and golden fixtures.
:class:`FaultEvent` is the mid-run counterpart: a timestamped health
change the flow simulator applies at step boundaries (see
:meth:`repro.sim.FlowLevelSimulator.run`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from collections.abc import Iterable, Mapping

from .._validation import require_field as _require, require_keys
from ..exceptions import FabricError
from ..matching import Matching
from ..topology.base import Topology

__all__ = [
    "FabricHealth",
    "PRISTINE",
    "FaultEvent",
    "uniform_degradation",
    "random_failures",
    "hotspot",
]


def _normalize_multipliers(
    entries: object,
) -> tuple[tuple[int, float], ...]:
    """Canonicalize port multipliers: sorted, deduplicated, 1.0 dropped."""
    if entries is None:
        return ()
    if isinstance(entries, Mapping):
        items: Iterable = entries.items()
    else:
        items = tuple(entries)
    table: dict[int, float] = {}
    for rank, value in items:
        rank = int(rank)
        value = float(value)
        if rank < 0:
            raise FabricError(f"port rank must be >= 0, got {rank}")
        if not 0.0 < value <= 1.0:
            raise FabricError(
                f"port multiplier for rank {rank} must be in (0, 1], "
                f"got {value}"
            )
        if rank in table:
            raise FabricError(f"rank {rank} has two port multipliers")
        table[rank] = value
    return tuple(
        (rank, value) for rank, value in sorted(table.items()) if value != 1.0
    )


def _normalize_failures(entries: object) -> tuple[tuple[int, int], ...]:
    """Canonicalize failed lanes: sorted directed (u, v) pairs."""
    if entries is None:
        return ()
    pairs = set()
    for pair in entries:  # type: ignore[union-attr]
        u, v = pair
        u = int(u)
        v = int(v)
        if u < 0 or v < 0:
            raise FabricError(f"failed transceiver ranks must be >= 0, got {pair}")
        if u == v:
            raise FabricError(
                f"a transceiver lane connects two distinct ports, got ({u}, {v})"
            )
        pairs.add((u, v))
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class FabricHealth:
    """The current physical condition of a photonic fabric.

    Attributes
    ----------
    port_multipliers:
        ``((rank, multiplier), ...)`` pairs, each multiplier in
        ``(0, 1]``; ranks not listed run at full rate.  Stored sorted
        with 1.0 entries dropped, so equal conditions compare equal.
    failed_transceivers:
        Directed ``(u, v)`` base-topology lanes that are dark.
    dead_wavelengths:
        How many of ``total_wavelengths`` WDM wavelengths are down.
    total_wavelengths:
        Size of the fabric's wavelength group (1 = no WDM modeling).
    name:
        Optional label carried into reports.  It participates in
        dataclass equality (like ``Scenario.name``) but not in
        :meth:`fingerprint`, so relabeled copies of one condition still
        share caches.
    """

    port_multipliers: tuple[tuple[int, float], ...] = ()
    failed_transceivers: tuple[tuple[int, int], ...] = ()
    dead_wavelengths: int = 0
    total_wavelengths: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "port_multipliers", _normalize_multipliers(self.port_multipliers)
        )
        object.__setattr__(
            self, "failed_transceivers", _normalize_failures(self.failed_transceivers)
        )
        total = int(self.total_wavelengths)
        dead = int(self.dead_wavelengths)
        if total < 1:
            raise FabricError(f"total_wavelengths must be >= 1, got {total}")
        if not 0 <= dead < total:
            raise FabricError(
                f"dead_wavelengths must be in [0, total_wavelengths), got "
                f"{dead} of {total}"
            )
        object.__setattr__(self, "total_wavelengths", total)
        object.__setattr__(self, "dead_wavelengths", dead)

    # -- queries -------------------------------------------------------------

    @property
    def is_pristine(self) -> bool:
        """Whether this condition degrades nothing."""
        return (
            not self.port_multipliers
            and not self.failed_transceivers
            and self.dead_wavelengths == 0
        )

    @property
    def wavelength_factor(self) -> float:
        """Capacity fraction surviving the wavelength group."""
        return (self.total_wavelengths - self.dead_wavelengths) / self.total_wavelengths

    def multiplier(self, rank: object) -> float:
        """Rank ``rank``'s port multiplier (1.0 when not degraded or
        when ``rank`` is a relay node, which has no photonic port)."""
        if not isinstance(rank, int):
            return 1.0
        for port, value in self.port_multipliers:
            if port == rank:
                return value
        return 1.0

    def pair_multiplier(self, src: object, dst: object) -> float:
        """Rate fraction a circuit between ``src`` and ``dst`` achieves:
        the weaker endpoint's optics times the wavelength factor."""
        return self.wavelength_factor * min(
            self.multiplier(src), self.multiplier(dst)
        )

    def matched_multiplier(self, matching: "Matching | None") -> float:
        """Rate fraction of the *slowest* circuit of a matched step.

        The step is barrier-synchronous, so its matched-topology DCT is
        gated by the worst pair.  1.0 for ``None`` / empty matchings.

        Only the dimmed ports are read: the minimum over pairs of
        :meth:`pair_multiplier` is the wavelength factor times the
        weakest port the matching touches, bit for bit (rounding is
        monotone and every multiplier is in ``(0, 1]``).
        """
        if matching is None or len(matching) == 0:
            return 1.0  # an empty step moves no data; no circuit to gate
        return self.wavelength_factor * min(
            [1.0]
            + [
                value
                for rank, value in self.port_multipliers
                if matching.dst_of(rank) is not None
                or matching.src_of(rank) is not None
            ]
        )

    def unhealthy_ranks(self, min_health: float = 1.0) -> frozenset[int]:
        """Ranks a conservative planner should route *around*: endpoints
        of failed lanes, plus ports dimmed below ``min_health``."""
        ranks = {rank for pair in self.failed_transceivers for rank in pair}
        ranks.update(
            rank for rank, value in self.port_multipliers if value < min_health
        )
        return frozenset(ranks)

    def validate_for(self, n: int) -> None:
        """Check every referenced rank exists in an ``n``-rank domain."""
        for rank, _ in self.port_multipliers:
            if rank >= n:
                raise FabricError(
                    f"port multiplier references rank {rank} but the fabric "
                    f"has n={n}"
                )
        for u, v in self.failed_transceivers:
            if u >= n or v >= n:
                raise FabricError(
                    f"failed transceiver ({u}, {v}) references a rank outside "
                    f"the n={n} fabric"
                )

    def fingerprint(self) -> tuple:
        """A hashable structural key (labels excluded) for cache tags
        and memo keys; pristine conditions share one fingerprint."""
        if self.is_pristine:
            return ("pristine",)
        return (
            self.port_multipliers,
            self.failed_transceivers,
            self.dead_wavelengths,
            self.total_wavelengths,
        )

    # -- materialization -----------------------------------------------------

    def apply(self, topology: Topology) -> Topology:
        """The degraded topology this condition leaves standing.

        Capacities are scaled per edge by the wavelength factor and the
        weaker endpoint's port multiplier; failed lanes are removed
        (naming a lane the topology does not have raises
        :class:`~repro.exceptions.FabricError` — a typo'd failure must
        not silently degrade nothing).  Closed-form ``family`` metadata
        is dropped so theta evaluation uses the exact LP: the formulas
        assume uniform capacities.  Pristine conditions return the
        topology unchanged.
        """
        if self.is_pristine:
            return topology
        failed = set(self.failed_transceivers)
        for u, v in failed:
            if not topology.has_edge(u, v):
                raise FabricError(
                    f"failed transceiver ({u}, {v}) names no lane of "
                    f"topology {topology.name!r}"
                )
        wavelength = self.wavelength_factor
        ports = dict(self.port_multipliers)

        def multiplier(node: object) -> float:  # self.multiplier, by one lookup
            return ports.get(node, 1.0) if isinstance(node, int) else 1.0

        edges = [
            (u, v, capacity * wavelength * min(multiplier(u), multiplier(v)))
            for u, v, capacity in topology.edges()
            if (u, v) not in failed
        ]
        metadata: dict[str, object] = {"degraded": True}
        base_meta = topology.metadata
        if "reference_rate" in base_meta:
            metadata["reference_rate"] = base_meta["reference_rate"]
        if "family" in base_meta:
            metadata["base_family"] = base_meta["family"]
        elif "base_family" in base_meta:
            # Applying a second condition to an already-degraded
            # instance must not lose track of the original family.
            metadata["base_family"] = base_meta["base_family"]
        # Pod structure survives degradation: the block decomposition
        # (repro.flows.block) is exact on any capacities, so a degraded
        # pod fabric must keep routing through the block path.
        if "pods" in base_meta:
            metadata["pods"] = base_meta["pods"]
        label = self.name or "degraded"
        return Topology(
            topology.n_ranks,
            edges,
            name=f"{topology.name}~{label}",
            metadata=metadata,
        )

    # -- construction helpers ------------------------------------------------

    def replace(self, **kwargs) -> "FabricHealth":
        """A copy with fields overridden (validation re-runs)."""
        return replace(self, **kwargs)

    def compose(self, other: "FabricHealth") -> "FabricHealth":
        """A second condition landing on top of this one.

        Port multipliers multiply per rank, failed lanes union, and the
        wavelength factors multiply exactly:
        ``(t1-d1)/t1 * (t2-d2)/t2`` is represented as ``(t1*t2 -
        (t1-d1)*(t2-d2))`` dead of ``t1*t2`` total.  The flow simulator
        uses this when a :class:`FaultEvent` is injected on a fabric
        that already has a standing condition — the new fault must not
        silently repair the old one.
        """
        table = dict(self.port_multipliers)
        for rank, value in other.port_multipliers:
            table[rank] = table.get(rank, 1.0) * value
        total = self.total_wavelengths * other.total_wavelengths
        alive = (self.total_wavelengths - self.dead_wavelengths) * (
            other.total_wavelengths - other.dead_wavelengths
        )
        return FabricHealth(
            port_multipliers=tuple(sorted(table.items())),
            failed_transceivers=self.failed_transceivers
            + other.failed_transceivers,
            dead_wavelengths=total - alive,
            total_wavelengths=total,
            name=(
                f"{self.name}+{other.name}"
                if self.name and other.name
                else self.name or other.name
            ),
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON-serializable)."""
        out: dict[str, object] = {}
        if self.port_multipliers:
            out["port_multipliers"] = [
                [rank, value] for rank, value in self.port_multipliers
            ]
        if self.failed_transceivers:
            out["failed_transceivers"] = [
                [u, v] for u, v in self.failed_transceivers
            ]
        if self.dead_wavelengths:
            out["dead_wavelengths"] = self.dead_wavelengths
            out["total_wavelengths"] = self.total_wavelengths
        if self.name:
            out["name"] = self.name
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FabricHealth":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        require_keys(
            data,
            {
                "port_multipliers",
                "failed_transceivers",
                "dead_wavelengths",
                "total_wavelengths",
                "name",
            },
            "fabric health",
            FabricError,
        )
        return cls(
            port_multipliers=tuple(
                (int(rank), float(value))
                for rank, value in data.get("port_multipliers", ())
            ),
            failed_transceivers=tuple(
                (int(u), int(v))
                for u, v in data.get("failed_transceivers", ())
            ),
            dead_wavelengths=int(data.get("dead_wavelengths", 0)),
            total_wavelengths=int(data.get("total_wavelengths", 1)),
            name=str(data.get("name", "")),
        )


#: The fault-free condition (``health=None`` and ``health=PRISTINE``
#: describe the same fabric everywhere).
PRISTINE = FabricHealth(name="pristine")


@dataclass(frozen=True)
class FaultEvent:
    """A timestamped mid-run health change for the flow simulator.

    ``health=None`` repairs the fabric back to the standing condition
    the simulator was constructed with.  Events take effect at the next
    step boundary at or after ``time`` (the simulator is barrier-
    synchronous; a step in flight finishes at its committed rates).
    """

    time: float
    health: "FabricHealth | None"
    label: str = ""

    def __post_init__(self) -> None:
        if self.time < 0:
            raise FabricError(f"fault time must be >= 0, got {self.time}")

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON-serializable)."""
        out: dict[str, object] = {
            "time": self.time,
            "health": None if self.health is None else self.health.to_dict(),
        }
        if self.label:
            out["label"] = self.label
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultEvent":
        """Inverse of :meth:`to_dict`."""
        health = data.get("health")
        return cls(
            time=float(_require(data, "time", "fault event")),
            health=None if health is None else FabricHealth.from_dict(health),
            label=str(data.get("label", "")),
        )


# -- deterministic generators ------------------------------------------------


def uniform_degradation(n: int, factor: float, name: str = "") -> FabricHealth:
    """Every port of an ``n``-rank fabric dimmed to ``factor``.

    The bandwidth-heterogeneity baseline: a whole generation of optics
    running below nominal rate.
    """
    if n < 1:
        raise FabricError(f"n must be >= 1, got {n}")
    return FabricHealth(
        port_multipliers=tuple((rank, float(factor)) for rank in range(n)),
        name=name or f"uniform({factor:g})",
    )


def random_failures(
    n: int,
    seed: int,
    failures: int = 1,
    dim_fraction: float = 0.0,
    dim_floor: float = 0.5,
    name: str = "",
) -> FabricHealth:
    """A reproducible random fault pattern for an ``n``-rank fabric.

    ``failures`` distinct ranks lose their clockwise ring lane
    ``(r, (r + 1) % n)`` — the canonical neighbor lane that exists in
    every ring/torus-style base fabric (applying the health to a fabric
    without that lane raises, which is the desired loud failure).
    Additionally, ``round(dim_fraction * n)`` of the surviving ranks
    are dimmed to a multiplier drawn uniformly from
    ``[dim_floor, 1)``.  Same ``(n, seed, ...)`` arguments, same
    health — the property the golden fixtures and ``faulty`` trace
    transformer rely on.
    """
    if n < 2:
        raise FabricError(f"random_failures needs n >= 2, got {n}")
    if not 0 <= failures <= n:
        raise FabricError(f"failures must be in [0, n], got {failures}")
    if not 0.0 <= dim_fraction <= 1.0:
        raise FabricError(f"dim_fraction must be in [0, 1], got {dim_fraction}")
    if not 0.0 < dim_floor <= 1.0:
        raise FabricError(f"dim_floor must be in (0, 1], got {dim_floor}")
    rng = random.Random(int(seed))
    failed_ranks = sorted(rng.sample(range(n), failures))
    lanes = tuple((rank, (rank + 1) % n) for rank in failed_ranks)
    survivors = [rank for rank in range(n) if rank not in set(failed_ranks)]
    n_dim = min(round(dim_fraction * n), len(survivors))
    dimmed = sorted(rng.sample(survivors, n_dim))
    multipliers = tuple(
        (rank, round(dim_floor + (1.0 - dim_floor) * rng.random(), 6))
        for rank in dimmed
    )
    return FabricHealth(
        port_multipliers=multipliers,
        failed_transceivers=lanes,
        name=name or f"random(seed={seed})",
    )


def hotspot(
    n: int,
    center: int = 0,
    radius: int = 1,
    severity: float = 0.5,
    name: str = "",
) -> FabricHealth:
    """Ports within cyclic distance ``radius`` of ``center`` dimmed to
    ``severity`` — a thermal hotspot (or a flaky chassis) in one corner
    of the domain."""
    if n < 1:
        raise FabricError(f"n must be >= 1, got {n}")
    if radius < 0:
        raise FabricError(f"radius must be >= 0, got {radius}")
    center = int(center) % n
    affected = sorted(
        {(center + offset) % n for offset in range(-radius, radius + 1)}
    )
    return FabricHealth(
        port_multipliers=tuple((rank, float(severity)) for rank in affected),
        name=name or f"hotspot(center={center}, radius={radius})",
    )

