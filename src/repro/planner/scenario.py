"""Declarative planning scenarios.

A :class:`Scenario` is a complete, frozen description of one planning
problem — *what* to solve, with no reference to *which engine* solves
it: a topology spec, a collective spec, the cost-model scalars, and the
workload knobs (theta estimator, path-length rule, multi-port radix).
Scenarios round-trip through plain dicts (:meth:`Scenario.to_dict` /
:meth:`Scenario.from_dict`), so sweeps, config files, and services can
all drive the planner without touching library objects.

Scenarios are hashable: equal specs compare equal, which lets
:func:`repro.engine.plan_many` and the topology memo deduplicate work
across a grid sweep.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import threading
import weakref
from dataclasses import dataclass, field, replace
from functools import partial
from collections.abc import Mapping, Sequence

from .._validation import (
    require_count,
    require_keys,
    require_non_negative,
    require_positive,
)
from ..collectives.base import Collective
from ..collectives.registry import available_collectives, make_collective
from ..core.cost_model import CostParameters, StepCost, evaluate_step_costs
from ..core.multiport import (
    MultiPortStepCost,
    evaluate_multiport_step_costs,
    multiport_alltoall,
)
from ..exceptions import CollectiveError, ConfigurationError
from ..fabric.degradation import FabricHealth
from ..flows import PathLengthRule, ThroughputCache, default_cache
from ..memo import BoundedMemo
from ..topology import (
    Topology,
    coprime_rings,
    dgx,
    full_mesh,
    hypercube,
    line,
    pod_fabric,
    ring,
    star,
    torus,
)
from ..units import Gbps

__all__ = [
    "TopologySpec",
    "CollectiveSpec",
    "Scenario",
    "available_topology_families",
    "canonical_digest",
    "scenario_grid",
]


def canonical_digest(tag: str, payload: object) -> str:
    """SHA-256 of ``payload``'s canonical JSON form, prefixed by ``tag``.

    The content-addressing primitive behind every ``fingerprint()`` in
    the declarative layer: ``payload`` must be JSON-serializable (the
    ``to_dict`` forms are), keys are sorted, and the ``tag`` versions
    the digest so future schema changes cannot collide with old ones.
    """
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(f"{tag}:{body}".encode("utf-8")).hexdigest()

Options = tuple[tuple[str, object], ...]

_THETA_METHODS = ("auto", "sp", "proxy")
#: Former spellings of the exact theta, read as ``"auto"`` so stored
#: scenario dicts keep loading (and fingerprint as ``"auto"``).
_EXACT_ALIASES = ("lp", "lp-warm", "block")


def _freeze_options(options: object) -> Options:
    """Normalize an options mapping (or pair tuple) into a canonical,
    hashable, sorted ``((key, value), ...)`` tuple."""
    if options is None:
        return ()
    if isinstance(options, Mapping):
        items = options.items()
    else:
        items = tuple(options)
    frozen = []
    for key, value in sorted(items):
        if isinstance(value, list):
            value = tuple(value)
        frozen.append((str(key), value))
    return tuple(frozen)


def _thaw_options(options: Options) -> dict[str, object]:
    """Options tuple back to a plain dict (tuples become lists so the
    result is JSON-serializable)."""
    out: dict[str, object] = {}
    for key, value in options:
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


# -- topology families -------------------------------------------------------

def _build_torus(n: int, bandwidth: float, dims: Sequence[int] = (), **kwargs):
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ConfigurationError("torus topology requires a 'dims' option")
    size = 1
    for d in dims:
        size *= d
    if size != n:
        raise ConfigurationError(
            f"torus dims {dims} describe {size} ranks but the spec says n={n}"
        )
    return torus(dims, bandwidth, **kwargs)


_TOPOLOGY_FAMILIES: dict[str, object] = {
    "ring": ring,
    "torus": _build_torus,
    "hypercube": hypercube,
    "full_mesh": full_mesh,
    "star": star,
    "line": line,
    "dgx": dgx,
    "coprime_rings": lambda n, bandwidth, **kw: coprime_rings(
        n, node_bandwidth=bandwidth, **kw
    ),
    "podfabric": pod_fabric,
}


def available_topology_families() -> tuple[str, ...]:
    """Sorted names of the topology families a spec may reference."""
    return tuple(sorted(_TOPOLOGY_FAMILIES))


# One built Topology per distinct spec: grid sweeps produce hundreds of
# scenarios over the same fabric, and a shared instance also shares its
# hop table (4 bytes per node pair, built on the first hop query).
# Bounded so long-lived processes sweeping n or bandwidth do not
# accumulate topologies (and their hop tables) forever.
_TOPOLOGY_MEMO_LIMIT = 256
_TOPOLOGY_MEMO: BoundedMemo[Topology] = BoundedMemo(_TOPOLOGY_MEMO_LIMIT)

# One step skeleton per (algorithm, n, options).  By Observation 1 a
# collective is its sequence of (m_i, M_i): the matchings, transfers and
# labels do not depend on the message size and every volume is linear
# in it, so the registry factory runs once per skeleton and each size
# only rescales the volumes.  perfbench's largest workload uses 4.
_SKELETON_MEMO_LIMIT = 8
_SKELETON_MEMO: BoundedMemo["_Skeleton"] = BoundedMemo(_SKELETON_MEMO_LIMIT)


def _unit_law(unit_value: float, n: int) -> tuple[int, int]:
    """The integers ``(k, d)`` of the factory expression ``k * (m / d)``
    that gave ``unit_value`` at ``m = 1``: ``(1, 1)`` for the full
    vector ``m``, else ``k`` blocks of ``m / n``."""
    if unit_value == 1.0:
        return 1, 1
    k = round(unit_value * n)
    if k * (1.0 / n) != unit_value:
        raise CollectiveError(
            f"{unit_value!r} at unit message size is neither m nor a whole "
            f"number of m/{n} blocks"
        )
    return k, n


@dataclass(frozen=True)
class _Skeleton:
    """A registry collective built at unit message size, with the
    ``(k, d)`` law of its chunk size and of each step volume, so that
    :meth:`scaled` repeats the factory's own ``k * (m / d)`` for any
    ``m`` (bit for bit)."""

    unit: Collective
    chunk_law: tuple[int, int]
    step_laws: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, unit: Collective) -> "_Skeleton":
        return cls(
            unit,
            _unit_law(unit.chunk_size, unit.n),
            tuple(_unit_law(step.volume, unit.n) for step in unit.steps),
        )

    def scaled(self, message_size: float) -> Collective:
        """Fresh steps and a fresh collective at ``message_size``."""
        unit = self.unit
        chunks, divisor = self.chunk_law
        return Collective(
            name=unit.name,
            kind=unit.kind,
            n=unit.n,
            message_size=message_size,
            steps=[
                step.with_volume(k * (message_size / d))
                for step, (k, d) in zip(unit.steps, self.step_laws)
            ],
            chunk_size=chunks * (message_size / divisor),
            n_chunks=unit.n_chunks,
            metadata=copy.deepcopy(unit.metadata),
        )


@dataclass(frozen=True)
class TopologySpec:
    """A named base-topology family plus its construction parameters.

    Attributes
    ----------
    family:
        One of :func:`available_topology_families`.
    n:
        Number of GPU ranks.
    bandwidth:
        Aggregate transceiver bandwidth per GPU in bits/second.
    options:
        Family-specific keyword arguments (e.g. ``bidirectional`` for
        rings, ``dims`` for tori, ``shifts`` for co-prime ring unions),
        stored as a canonical sorted tuple of pairs.
    """

    family: str = "ring"
    n: int = 64
    bandwidth: float = Gbps(800)
    options: Options = ()

    def __post_init__(self) -> None:
        if self.family not in _TOPOLOGY_FAMILIES:
            raise ConfigurationError(
                f"unknown topology family {self.family!r}; available: "
                f"{available_topology_families()}"
            )
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        # Stored as from_dict reads it back, so equal specs digest alike.
        object.__setattr__(
            self,
            "bandwidth",
            require_positive(self.bandwidth, "bandwidth", ConfigurationError),
        )
        object.__setattr__(self, "options", _freeze_options(self.options))

    def build(self) -> Topology:
        """Construct (or fetch the memoized) topology instance."""

        def construct() -> Topology:
            builder = _TOPOLOGY_FAMILIES[self.family]
            try:
                return builder(
                    self.n, self.bandwidth, **_thaw_options(self.options)
                )
            except TypeError as exc:
                raise ConfigurationError(
                    f"bad options for topology family {self.family!r}: {exc}"
                ) from exc

        return _TOPOLOGY_MEMO.get_or_compute(self, construct)

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON-serializable)."""
        out: dict[str, object] = {
            "family": self.family,
            "n": self.n,
            "bandwidth": self.bandwidth,
        }
        if self.options:
            out["options"] = _thaw_options(self.options)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TopologySpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        require_keys(data, {"family", "n", "bandwidth", "options"}, "topology")
        return cls(
            family=str(data.get("family", "ring")),
            n=require_count(data.get("n", 64), "n", ConfigurationError),
            bandwidth=data.get("bandwidth", Gbps(800)),
            options=_freeze_options(data.get("options")),
        )


@dataclass(frozen=True)
class CollectiveSpec:
    """A named collective algorithm plus its per-GPU message size.

    ``options`` are forwarded to the registry factory (e.g. ``root``
    for rooted collectives).  The rank count comes from the scenario's
    topology spec, so a scenario can never be internally inconsistent.
    """

    algorithm: str = "allreduce_recursive_doubling"
    message_size: float = 0.0
    options: Options = ()

    def __post_init__(self) -> None:
        if self.algorithm not in available_collectives():
            raise ConfigurationError(
                f"unknown collective {self.algorithm!r}; available: "
                f"{available_collectives()}"
            )
        # Stored as from_dict reads it back, so equal specs digest alike.
        object.__setattr__(
            self,
            "message_size",
            require_non_negative(self.message_size, "message_size", ConfigurationError),
        )
        object.__setattr__(self, "options", _freeze_options(self.options))

    def build(self, n: int) -> Collective:
        """Instantiate the collective for an ``n``-rank domain: its
        memoized skeleton, scaled to this spec's message size."""
        return self._skeleton(n).scaled(self.message_size)

    def _skeleton(self, n: int) -> _Skeleton:
        def construct() -> _Skeleton:
            try:
                unit = make_collective(
                    self.algorithm, n, 1.0, **_thaw_options(self.options)
                )
            except TypeError as exc:
                raise ConfigurationError(
                    f"bad options for collective {self.algorithm!r}: {exc}"
                ) from exc
            return _Skeleton.of(unit)

        return _SKELETON_MEMO.get_or_compute(
            (self.algorithm, n, self.options), construct
        )

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON-serializable)."""
        out: dict[str, object] = {
            "algorithm": self.algorithm,
            "message_size": self.message_size,
        }
        if self.options:
            out["options"] = _thaw_options(self.options)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CollectiveSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        require_keys(data, {"algorithm", "message_size", "options"}, "collective")
        return cls(
            algorithm=str(data.get("algorithm", "allreduce_recursive_doubling")),
            message_size=data.get("message_size", 0.0),
            options=_freeze_options(data.get("options")),
        )


# Step costs keyed by (scenario facts that matter, cache): the
# WeakKeyDictionary ties each memo's lifetime to its cache.  A memo holds
# each size's step costs and, under a longer key without the message
# size, the one evaluation of their structure they are re-volumed from.
# Entries never go stale — step costs are a pure function of the key —
# so clearing the theta cache does not require clearing this memo.  Being
# compute-once keeps the shared theta cache's hit/miss statistics exact
# under the daemon's worker threads (each step-cost evaluation, and hence
# each theta lookup, happens exactly once per structure).
_STEP_COSTS_MEMO: "weakref.WeakKeyDictionary[ThroughputCache, BoundedMemo]" = (
    weakref.WeakKeyDictionary()
)
_STEP_COSTS_MEMO_LOCK = threading.Lock()
_STEP_COSTS_MEMO_LIMIT = 4096

# One degraded Topology per (spec, health fingerprint): grid sweeps and
# workload phases re-reference the same condition constantly, and a
# shared instance shares its hop table, like _TOPOLOGY_MEMO.
_DEGRADED_MEMO_LIMIT = 256
_DEGRADED_MEMO: BoundedMemo[Topology] = BoundedMemo(_DEGRADED_MEMO_LIMIT)


@dataclass(frozen=True)
class Scenario:
    """One complete planning problem, declaratively.

    Attributes
    ----------
    topology:
        The base fabric ``G``.
    collective:
        The workload (algorithm + message size).
    cost:
        The alpha-beta-theta scalars, including ``alpha_r``.
    theta_method:
        Theta estimator passed to :func:`repro.flows.compute_theta`:
        ``"auto"`` (exact), ``"sp"`` or ``"proxy"`` (bounds).  Former
        spellings of the exact method are normalized to ``"auto"``.
    path_rule:
        How per-pair hop counts collapse into ``l_i``.
    multiport_radix:
        ``None`` for the single-port model; ``p >= 1`` schedules the
        multi-ported All-to-All over ``p`` transceivers per GPU
        (paper §4 outlook) — only ``alltoall`` supports grouping.
    name:
        Optional label carried into reports.
    health:
        Optional :class:`~repro.fabric.FabricHealth` describing the
        fabric's current condition (dimmed ports, failed transceiver
        lanes, dead wavelengths).  ``None`` means pristine; a pristine
        health object is normalized to ``None`` so the two spell one
        scenario.  Theta, path lengths, and matched-circuit rates are
        all priced on the degraded fabric, and the throughput cache
        keys the degraded topology's own fingerprint — degraded and
        pristine scenarios never share a theta entry.
    """

    topology: TopologySpec = field(default_factory=TopologySpec)
    collective: CollectiveSpec = field(default_factory=CollectiveSpec)
    cost: CostParameters = field(
        default_factory=lambda: CostParameters(
            alpha=0.0, bandwidth=Gbps(800), delta=0.0, reconfiguration_delay=0.0
        )
    )
    theta_method: str = "auto"
    path_rule: PathLengthRule = PathLengthRule.MAX_PAIR_HOPS
    multiport_radix: int | None = None
    name: str = ""
    health: FabricHealth | None = None

    def __post_init__(self) -> None:
        if self.theta_method in _EXACT_ALIASES:
            object.__setattr__(self, "theta_method", "auto")
        if self.theta_method not in _THETA_METHODS:
            raise ConfigurationError(
                f"unknown theta method {self.theta_method!r}; choose from "
                f"{_THETA_METHODS}"
            )
        if not math.isclose(
            self.topology.bandwidth, self.cost.bandwidth, rel_tol=1e-9
        ):
            # theta is normalized by the topology's link rates while
            # beta = 1/cost.bandwidth; letting them diverge silently
            # would price the two sides of Eq. 3 with different links.
            raise ConfigurationError(
                f"topology bandwidth {self.topology.bandwidth} and cost "
                f"bandwidth {self.cost.bandwidth} disagree; a scenario has "
                f"one transceiver bandwidth"
            )
        if not isinstance(self.path_rule, PathLengthRule):
            object.__setattr__(
                self, "path_rule", PathLengthRule(str(self.path_rule))
            )
        if self.multiport_radix is not None:
            if int(self.multiport_radix) < 1:
                raise ConfigurationError(
                    f"multiport_radix must be >= 1, got {self.multiport_radix}"
                )
            object.__setattr__(self, "multiport_radix", int(self.multiport_radix))
            if self.collective.algorithm != "alltoall":
                raise ConfigurationError(
                    "multiport_radix requires the 'alltoall' collective "
                    "(its shift steps carry no data dependencies and may "
                    f"be grouped), got {self.collective.algorithm!r}"
                )
        if self.health is not None:
            if isinstance(self.health, Mapping):
                object.__setattr__(
                    self, "health", FabricHealth.from_dict(self.health)
                )
            if not isinstance(self.health, FabricHealth):
                raise ConfigurationError(
                    f"health must be a FabricHealth (or its dict form), got "
                    f"{type(self.health).__name__}"
                )
            if self.health.is_pristine:
                # A pristine condition and no condition are the same
                # scenario; normalize so they compare (and cache) equal.
                object.__setattr__(self, "health", None)
            else:
                if self.multiport_radix is not None:
                    raise ConfigurationError(
                        "fabric health modeling supports single-port "
                        "scenarios only (multiport_radix must be None)"
                    )
                try:
                    self.health.validate_for(self.topology.n)
                except Exception as exc:
                    raise ConfigurationError(str(exc)) from exc

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        algorithm: str,
        n: int,
        message_size: float,
        *,
        alpha: float,
        delta: float,
        reconfiguration_delay: float,
        bandwidth: float = Gbps(800),
        topology: str = "ring",
        topology_options: Mapping[str, object] | None = None,
        collective_options: Mapping[str, object] | None = None,
        theta_method: str = "auto",
        path_rule: PathLengthRule | str = PathLengthRule.MAX_PAIR_HOPS,
        multiport_radix: int | None = None,
        name: str = "",
        health: FabricHealth | None = None,
    ) -> "Scenario":
        """Build a scenario from flat arguments (the common case)."""
        return cls(
            topology=TopologySpec(
                family=topology,
                n=n,
                bandwidth=bandwidth,
                options=_freeze_options(topology_options),
            ),
            collective=CollectiveSpec(
                algorithm=algorithm,
                message_size=message_size,
                options=_freeze_options(collective_options),
            ),
            cost=CostParameters(
                alpha=alpha,
                bandwidth=bandwidth,
                delta=delta,
                reconfiguration_delay=reconfiguration_delay,
            ),
            theta_method=theta_method,
            path_rule=path_rule,
            multiport_radix=multiport_radix,
            name=name,
            health=health,
        )

    def replace(self, **kwargs) -> "Scenario":
        """A copy with fields overridden (validation re-runs).

        Mirrors :meth:`CostParameters.replace
        <repro.core.cost_model.CostParameters.replace>` but also accepts
        the flat convenience keys of :meth:`create` — ``algorithm``,
        ``message_size``, ``n``, ``bandwidth``, ``alpha``, ``delta``,
        and ``alpha_r`` / ``reconfiguration_delay`` — routing each into
        the right nested spec (``bandwidth`` updates both the topology
        and the cost side, which must agree).  Sweeps and trace
        generators write ``scenario.replace(message_size=MiB(8))``
        instead of spelling out the nested dataclass surgery.
        """
        collective_updates: dict[str, object] = {}
        cost_updates: dict[str, object] = {}
        topology_updates: dict[str, object] = {}
        if "algorithm" in kwargs:
            collective_updates["algorithm"] = kwargs.pop("algorithm")
        if "message_size" in kwargs:
            collective_updates["message_size"] = kwargs.pop("message_size")
        if "n" in kwargs:
            topology_updates["n"] = kwargs.pop("n")
        if "alpha_r" in kwargs:
            cost_updates["reconfiguration_delay"] = kwargs.pop("alpha_r")
        for key in ("alpha", "delta", "reconfiguration_delay"):
            if key in kwargs:
                if key in cost_updates:
                    raise ConfigurationError(
                        "pass either alpha_r or reconfiguration_delay, not both"
                    )
                cost_updates[key] = kwargs.pop(key)
        if "bandwidth" in kwargs:
            bandwidth = kwargs.pop("bandwidth")
            topology_updates["bandwidth"] = bandwidth
            cost_updates["bandwidth"] = bandwidth
        for field_name, updates in (
            ("collective", collective_updates),
            ("cost", cost_updates),
            ("topology", topology_updates),
        ):
            if not updates:
                continue
            if field_name in kwargs:
                raise ConfigurationError(
                    f"cannot combine an explicit {field_name}= with the "
                    f"shortcut keys {sorted(updates)}"
                )
            kwargs[field_name] = replace(getattr(self, field_name), **updates)
        return replace(self, **kwargs)

    # -- materialization -----------------------------------------------------

    @property
    def n(self) -> int:
        """Rank count of the domain."""
        return self.topology.n

    def build_topology(self) -> Topology:
        """The fabric this scenario actually runs on: the base topology
        instance (memoized per spec), degraded by ``health`` when one is
        set (memoized per (spec, health) so repeated references share
        one instance and its hop table)."""
        base = self.topology.build()
        if self.health is None:
            return base
        return _DEGRADED_MEMO.get_or_compute(
            (self.topology, self.health.fingerprint()),
            lambda: self.health.apply(base),
        )

    def pristine(self) -> "Scenario":
        """The same scenario on a fault-free fabric (degradation-vs-
        pristine comparisons start here)."""
        return self.replace(health=None)

    def fingerprint(self) -> str:
        """A stable content digest of this scenario.

        The hex digest of the canonical (sorted-key JSON) ``to_dict``
        form, so two processes — or a service client and its daemon —
        agree on the address of identical scenarios.  Equal scenarios
        have equal fingerprints; the request-coalescing layer in
        :mod:`repro.service` keys in-flight work by it.
        """
        return canonical_digest("scenario-v1", self.to_dict())

    def build_collective(self) -> Collective:
        """The collective instance for this domain."""
        return self.collective.build(self.topology.n)

    def step_costs(
        self, cache: ThroughputCache | None = default_cache
    ) -> tuple[StepCost, ...] | tuple[MultiPortStepCost, ...]:
        """Per-step ``(m_i, theta_i, l_i)`` facts on the base topology.

        With ``multiport_radix`` set, the steps are the multi-ported
        All-to-All groupings and the costs expose the same
        ``base_cost`` / ``matched_cost`` protocol.

        Step costs do not depend on ``alpha``, ``delta``, or
        ``alpha_r``, so scenarios that differ only in those scalars
        share one evaluation: results are memoized per theta cache.
        Only ``m_i`` depends on the message size, so a new size
        re-volumes the steps of its structure's one evaluation (a
        grid sweep's 36 cells cost one evaluation).
        """
        if cache is None:
            return self._compute_step_costs(None)
        key = (
            self.topology,
            self.collective,
            self.cost.bandwidth,
            self.theta_method,
            self.path_rule,
            self.multiport_radix,
            # Degraded and pristine fabrics price both sides of Eq. 3
            # differently and must never share a step-cost evaluation.
            None if self.health is None else self.health.fingerprint(),
        )
        with _STEP_COSTS_MEMO_LOCK:
            memo = _STEP_COSTS_MEMO.get(cache)
            if memo is None:
                memo = _STEP_COSTS_MEMO[cache] = BoundedMemo(_STEP_COSTS_MEMO_LIMIT)
        return memo.get_or_compute(
            key, lambda: self._compute_step_costs(cache, memo, key)
        )

    def _compute_step_costs(
        self, cache: ThroughputCache | None, memo: BoundedMemo | None = None, key=()
    ) -> tuple[StepCost, ...] | tuple[MultiPortStepCost, ...]:
        topology = self.build_topology()
        if self.multiport_radix is not None:
            steps = multiport_alltoall(
                self.topology.n,
                self.collective.message_size,
                self.multiport_radix,
            )
            return evaluate_multiport_step_costs(
                steps, topology, self.cost, self.multiport_radix, cache=cache
            )
        collective = self.build_collective()
        evaluate = partial(
            evaluate_step_costs,
            collective,
            topology,
            self.cost,
            theta_method=self.theta_method,
            path_rule=self.path_rule,
            cache=cache,
            health=self.health,
        )
        if memo is None:
            return evaluate()
        # Only the volumes depend on the message size: price the structure
        # (the key without the size, one element longer than a per-size
        # key) at the first size that misses, and re-volume it per size.
        spec = self.collective
        priced = memo.get_or_compute(
            (key[0], spec.algorithm, spec.options, *key[2:]), evaluate
        )
        return tuple(
            StepCost(step.volume, cost.theta, cost.hops, cost.label,
                     cost.matching, cost.matched_rate_multiplier)
            for step, cost in zip(collective.steps, priced)
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON-serializable, config-file friendly)."""
        out: dict[str, object] = {
            "topology": self.topology.to_dict(),
            "collective": self.collective.to_dict(),
            "cost": {
                "alpha": self.cost.alpha,
                "bandwidth": self.cost.bandwidth,
                "delta": self.cost.delta,
                "reconfiguration_delay": self.cost.reconfiguration_delay,
            },
            "theta_method": self.theta_method,
            "path_rule": self.path_rule.value,
        }
        if self.multiport_radix is not None:
            out["multiport_radix"] = self.multiport_radix
        if self.name:
            out["name"] = self.name
        if self.health is not None:
            out["health"] = self.health.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Scenario":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        require_keys(
            data,
            {
                "topology",
                "collective",
                "cost",
                "theta_method",
                "path_rule",
                "multiport_radix",
                "name",
                "health",
            },
            "scenario",
        )
        cost_data = data.get("cost", {})
        require_keys(
            cost_data,
            {"alpha", "bandwidth", "delta", "reconfiguration_delay"},
            "cost",
        )
        radix = data.get("multiport_radix")
        return cls(
            topology=TopologySpec.from_dict(data.get("topology", {})),
            collective=CollectiveSpec.from_dict(data.get("collective", {})),
            cost=CostParameters(
                alpha=cost_data.get("alpha", 0.0),
                bandwidth=cost_data.get("bandwidth", Gbps(800)),
                delta=cost_data.get("delta", 0.0),
                reconfiguration_delay=cost_data.get("reconfiguration_delay", 0.0),
            ),
            theta_method=str(data.get("theta_method", "auto")),
            path_rule=PathLengthRule(
                str(data.get("path_rule", PathLengthRule.MAX_PAIR_HOPS.value))
            ),
            multiport_radix=(
                None
                if radix is None
                else require_count(radix, "multiport_radix", ConfigurationError)
            ),
            name=str(data.get("name", "")),
            health=(
                None
                if data.get("health") is None
                else FabricHealth.from_dict(data["health"])
            ),
        )


def scenario_grid(
    base: Scenario,
    message_sizes: Sequence[float],
    alpha_rs: Sequence[float],
) -> list[Scenario]:
    """The row-major (message size x alpha_r) sweep of ``base``.

    This is the grid behind every Figure 1 / Figure 2 heatmap; feed the
    result to :func:`repro.engine.plan_many`.
    """
    message_sizes = tuple(float(m) for m in message_sizes)
    alpha_rs = tuple(float(a) for a in alpha_rs)
    if not message_sizes or not alpha_rs:
        raise ConfigurationError("both grid axes need at least one value")
    return [
        base.replace(
            collective=replace(base.collective, message_size=message_size),
            cost=base.cost.with_reconfiguration_delay(alpha_r),
        )
        for message_size in message_sizes
        for alpha_r in alpha_rs
    ]
