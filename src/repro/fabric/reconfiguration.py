"""Reconfiguration delay models (paper §3.1 and research agenda §4).

The paper's framework assumes a constant ``alpha_r`` but explicitly
notes that real devices (e.g. PipSwitch-style programmable photonics)
have delays that grow with the number of ports involved.  This module
models both:

* a *configuration* is the set of directed circuits ``(tx, rx)``
  currently established;
* :class:`ConstantReconfigurationDelay` charges a fixed ``alpha_r`` for
  any change;
* :class:`PerPortReconfigurationDelay` charges
  ``base + per_port * |touched ports|``;
* :class:`TableReconfigurationDelay` interpolates measured delays.

All models return 0.0 when the target equals the current configuration.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from bisect import bisect_left
from collections.abc import Mapping, Sequence

from .._validation import (
    require_count,
    require_field,
    require_keys,
    require_non_negative,
)
from ..exceptions import FabricError
from ..matching import Matching
from ..memo import BoundedMemo
from ..topology.base import Topology

__all__ = [
    "Configuration",
    "configuration_from_matching",
    "configuration_from_topology",
    "touched_ports",
    "ReconfigurationModel",
    "ConstantReconfigurationDelay",
    "PerPortReconfigurationDelay",
    "TableReconfigurationDelay",
    "reconfiguration_model_from_dict",
]

Configuration = frozenset  # of (tx, rx) pairs

_TOPOLOGY_CONFIG_MEMO_MAX = 256
_TOPOLOGY_CONFIG_MEMO: BoundedMemo[Configuration] = BoundedMemo(
    _TOPOLOGY_CONFIG_MEMO_MAX
)


def configuration_from_matching(matching: Matching) -> Configuration:
    """The circuit set realizing a matching (one frozenset per
    matching, built once)."""
    return matching.pair_set


def configuration_from_topology(topology: Topology) -> Configuration:
    """The circuit set of a standing topology (rank-to-rank edges).

    Only valid for fabrics realizable by one circuit layer per port
    pair.  Relay nodes (electrical switches) are not photonic circuits:
    a fabric whose connectivity runs *through* a relay (e.g. a star) is
    rejected.  Pod fabrics are the one sanctioned exception — their
    rank-to-rank intra-pod circuits are the reconfigurable optical
    layer, while the rank-to-core uplinks are static electrical
    infrastructure, so the configuration is the intra-pod circuit set
    with relay-incident edges excluded.

    Computed once per topology structure: the memo key is the
    fingerprint plus whether ``metadata["pods"]`` is a dict, the one
    input the fingerprint does not cover.
    """
    pods = isinstance(topology.metadata.get("pods"), dict)
    return _TOPOLOGY_CONFIG_MEMO.get_or_compute(
        (topology.fingerprint(), pods),
        lambda: _configuration_from_topology(topology, pods),
    )


def _configuration_from_topology(topology: Topology, pods: bool) -> Configuration:
    relays = frozenset(topology.relay_nodes)
    circuits = frozenset(
        (u, v)
        for u, v, _ in topology.edges()
        if u not in relays and v not in relays
    )
    if relays and not (pods and circuits):
        raise FabricError(
            f"topology {topology.name!r} contains relay nodes and is not "
            "an optical circuit configuration"
        )
    return circuits


def touched_ports(previous: Configuration, target: Configuration) -> frozenset:
    """Ports whose circuits change between two configurations.

    A port is touched when a circuit it terminates is added or removed.
    """
    changed = previous.symmetric_difference(target)
    return frozenset(port for circuit in changed for port in circuit)


class ReconfigurationModel(ABC):
    """Maps a configuration change to a delay in seconds."""

    @abstractmethod
    def delay_for_ports(self, n_ports: int) -> float:
        """Delay when ``n_ports`` ports must be re-provisioned."""

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON-serializable), inverse of
        :func:`reconfiguration_model_from_dict`.  Custom subclasses may
        opt out of serialization; the built-ins all round-trip."""
        raise FabricError(
            f"{type(self).__name__} does not support dict serialization"
        )

    def delay(self, previous: Configuration, target: Configuration) -> float:
        """Delay for moving between two explicit configurations."""
        if previous == target:
            return 0.0
        return self.delay_for_ports(len(touched_ports(previous, target)))

    def __eq__(self, other: object) -> bool:
        # Serializable models compare by value (their dict form), so a
        # model survives a to_dict/from_dict round trip equal to the
        # original; non-serializable subclasses keep identity equality.
        if not isinstance(other, ReconfigurationModel):
            return NotImplemented
        try:
            return self.to_dict() == other.to_dict()
        except FabricError:
            return self is other

    def __hash__(self) -> int:
        try:
            return hash(json.dumps(self.to_dict(), sort_keys=True))
        except FabricError:
            return object.__hash__(self)


class ConstantReconfigurationDelay(ReconfigurationModel):
    """The paper's model: every reconfiguration costs ``alpha_r``."""

    def __init__(self, alpha_r: float):
        self.alpha_r = require_non_negative(alpha_r, "alpha_r", FabricError)

    def delay_for_ports(self, n_ports: int) -> float:
        if n_ports == 0:
            return 0.0
        return self.alpha_r

    def delay(self, previous: Configuration, target: Configuration) -> float:
        # Any change touches at least two ports and the price ignores
        # how many, so the touched-port set is never built.
        return 0.0 if previous == target else self.alpha_r

    def to_dict(self) -> dict[str, object]:
        return {"kind": "constant", "alpha_r": self.alpha_r}

    def __repr__(self) -> str:
        return f"ConstantReconfigurationDelay(alpha_r={self.alpha_r:g})"


class PerPortReconfigurationDelay(ReconfigurationModel):
    """Affine model: ``base + per_port * touched_ports``.

    Captures devices that reprogram ports sequentially (research agenda:
    "tackling variable reconfiguration delays").
    """

    def __init__(self, base: float, per_port: float):
        self.base = require_non_negative(base, "base", FabricError)
        self.per_port = require_non_negative(per_port, "per_port", FabricError)

    def delay_for_ports(self, n_ports: int) -> float:
        if n_ports == 0:
            return 0.0
        return self.base + self.per_port * n_ports

    def to_dict(self) -> dict[str, object]:
        return {"kind": "per_port", "base": self.base, "per_port": self.per_port}

    def __repr__(self) -> str:
        return (
            f"PerPortReconfigurationDelay(base={self.base:g}, "
            f"per_port={self.per_port:g})"
        )


class TableReconfigurationDelay(ReconfigurationModel):
    """Piecewise model from measured (port count, delay) samples.

    Delays are taken from the smallest tabulated port count that covers
    the request (step function, conservative for devices with batch
    programming granularity).
    """

    def __init__(self, samples: Sequence[tuple[int, float]]):
        if not isinstance(samples, (list, tuple)) or not samples:
            raise FabricError(
                f"samples must be a non-empty list of [ports, delay] pairs, "
                f"got {samples!r}"
            )
        table = []
        for sample in samples:
            if not isinstance(sample, (list, tuple)) or len(sample) != 2:
                raise FabricError(
                    f"samples must be [ports, delay] pairs, got {sample!r}"
                )
            table.append((
                require_count(sample[0], "sample ports", FabricError),
                require_non_negative(sample[1], "sample delay", FabricError),
            ))
        table.sort()
        self._ports = [p for p, _ in table]
        self._delays = [d for _, d in table]

    def delay_for_ports(self, n_ports: int) -> float:
        if n_ports == 0:
            return 0.0
        index = bisect_left(self._ports, n_ports)
        if index == len(self._ports):
            index -= 1  # beyond the table: use the largest sample
        return self._delays[index]

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": "table",
            "samples": [list(pair) for pair in zip(self._ports, self._delays)],
        }

    def __repr__(self) -> str:
        pairs = list(zip(self._ports, self._delays))
        return f"TableReconfigurationDelay({pairs!r})"


def reconfiguration_model_from_dict(
    data: Mapping[str, object],
) -> ReconfigurationModel:
    """Rebuild a delay model from its :meth:`~ReconfigurationModel.to_dict`
    form — the bridge that lets workload plans and CLI configs name a
    delay model declaratively.  A missing field, an unknown key, a
    delay that is not a finite number >= 0 or a table sample that is
    not a ``[ports, delay]`` pair with a whole port count >= 1 raises a
    :class:`~repro.exceptions.ReproError` naming it."""
    what = "reconfiguration model"
    require_keys(data, {"kind", "alpha_r", "base", "per_port", "samples"}, what)
    kind = data.get("kind")
    if kind == "constant":
        return ConstantReconfigurationDelay(require_field(data, "alpha_r", what))
    if kind == "per_port":
        return PerPortReconfigurationDelay(
            require_field(data, "base", what), require_field(data, "per_port", what)
        )
    if kind == "table":
        return TableReconfigurationDelay(require_field(data, "samples", what))
    raise FabricError(
        f"unknown reconfiguration model kind {kind!r}; choose from "
        "('constant', 'per_port', 'table')"
    )
