"""Per-step flow rate allocation policies.

The analytic cost model assumes the fabric achieves the maximum
concurrent flow: every pair of step ``i`` runs at ``theta * b``.  Real
transports allocate differently; this module provides three policies so
the simulator can quantify the gap (ablation bench ``bench_sim``):

* ``"mcf"``      — concurrent-flow-optimal rates (the model's idealism);
* ``"maxmin"``   — progressive-filling max-min fairness over
  shortest-path routes;
* ``"equal"``    — each flow gets an equal share of its bottleneck edge
  under shortest-path routing (TCP-like static fair share).

The max-min and equal-share allocators run over a (flow x edge)
shortest-path incidence held as sparse index arrays (``scipy.sparse``
CSR/CSC structure, walked with ``np.bincount`` /
``np.minimum.reduceat`` over the nonzeros), so progressive filling
costs ``O(nnz)`` per saturation round instead of ``O(F * E)`` — what
keeps n=1024 fabrics tractable.  The differential suite pins both
allocators bit for bit against a dense masked-numpy oracle.  Every
policy returns one :class:`FlowRates` block: the step's rates and path
lengths as numpy columns in the matching's pair order.  Blocks are
immutable and shared: one memo holds them per ``(topology fingerprint,
matching, method, rate)`` (``rate`` is ``theta * reference_rate`` for
``"mcf"`` and ``None`` for the incidence-priced policies), and the
simulator's matched steps per ``(matching, circuit rate)``; a block's
hop column is built once, on its miss.  The incidence structure is
memoized per ``(topology fingerprint, matching)``, with
:func:`incidence_build_count` exposing its build counter so tests can
assert one build per key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..exceptions import SimulationError
from ..flows import (
    ThroughputCache,
    commodities_from_matching,
    compute_theta,
    default_cache,
    route_shortest_paths,
)
from ..matching import Matching
from ..memo import BoundedMemo, Counters
from ..topology.base import Topology
from .observation import _ColumnBlock

__all__ = [
    "FlowRate",
    "FlowRates",
    "allocate_rates",
    "RATE_METHODS",
    "incidence_build_count",
    "clear_incidence_cache",
]

RATE_METHODS = ("mcf", "maxmin", "equal")

_INCIDENCE_MEMO_MAX = 256


@dataclass(frozen=True)
class FlowRate:
    """Allocated rate and path length for one (src, dst) flow."""

    src: int
    dst: int
    rate: float
    hops: float


class FlowRates(_ColumnBlock):
    """One step's allocation: read-only columns ``src``, ``dst``
    (int64), ``rate`` and ``hops`` (float64) in the matching's pair
    order, read as a sequence of :class:`FlowRate` rows."""

    _row = FlowRate
    _columns = (
        ("src", np.int64),
        ("dst", np.int64),
        ("rate", np.float64),
        ("hops", np.float64),
    )

    @classmethod
    def over(cls, matching: Matching, rate, hops) -> "FlowRates":
        """``matching``'s pairs (source order, as ``Matching.pairs``)
        at ``rate`` and ``hops``, each a scalar or a float64 column with
        one value per pair (a column is used as is, not copied)."""
        src, dst = matching.columns
        return cls(src, dst, *(
            value if isinstance(value, np.ndarray)
            else np.full(src.shape, value, dtype=np.float64)
            for value in (rate, hops)
        ))


@dataclass(frozen=True)
class _Incidence:
    """Memoized shortest-path routing state for one (topology, matching):
    the (flow x edge) incidence as CSR arrays for row-major walks plus
    CSC companions for column membership."""

    pairs: tuple[tuple[int, int], ...]
    capacities: np.ndarray  # (E,) float
    entry_row: np.ndarray  # (nnz,) row id of each nonzero, CSR order
    entry_col: np.ndarray  # (nnz,) column id of each nonzero, CSR order
    row_indptr: np.ndarray  # (F+1,) CSR row pointers
    col_entry: np.ndarray  # (nnz,) row id of each nonzero, CSC order
    col_indptr: np.ndarray  # (E+1,) CSC column pointers

    @property
    def n_flows(self) -> int:
        return len(self.pairs)

    @property
    def n_edges(self) -> int:
        return len(self.capacities)


_INCIDENCE_MEMO: BoundedMemo[_Incidence] = BoundedMemo(_INCIDENCE_MEMO_MAX)
_BLOCKS: BoundedMemo[FlowRates] = BoundedMemo(_INCIDENCE_MEMO_MAX)
_builds = Counters("incidence")


def incidence_build_count() -> int:
    """How many times the shortest-path incidence was actually built
    since process start.

    The structure is memoized per (topology fingerprint, matching);
    repeated allocations against the same key must not increment this.
    """
    return _builds.snapshot()["incidence"]


def clear_incidence_cache() -> None:
    """Drop every memoized incidence structure and flow-rate block
    (test isolation hook)."""
    _INCIDENCE_MEMO.clear()
    _BLOCKS.clear()


def _incidence(topology: Topology, matching: Matching) -> _Incidence:
    """The memoized incidence of ``matching`` routed on ``topology``."""

    def build() -> _Incidence:
        built = _build_incidence(topology, matching)
        _builds.bump("incidence")
        return built

    return _INCIDENCE_MEMO.get_or_compute((topology.fingerprint(), matching), build)


def _build_incidence(topology: Topology, matching: Matching) -> _Incidence:
    """Route the matching over shortest paths and freeze the incidence.

    The (flow x edge) structure is assembled as a ``scipy.sparse`` COO
    and converted once to CSR and CSC.
    """
    commodities = commodities_from_matching(matching)
    routing = route_shortest_paths(topology, commodities, reference_rate=1.0)
    edge_index: dict[tuple[object, object], int] = {}
    capacities = []
    for u, v, capacity in topology.edges():
        edge_index[(u, v)] = len(capacities)
        capacities.append(capacity)
    pairs = tuple((c.src, c.dst) for c in commodities)
    n_flows, n_edges = len(pairs), len(capacities)
    rows: list[int] = []
    cols: list[int] = []
    for k in range(n_flows):
        path = routing.paths[k][0][0]
        for edge in zip(path, path[1:]):
            rows.append(k)
            cols.append(edge_index[edge])
    coo = sp.coo_array(
        (np.ones(len(rows)), (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
        shape=(max(n_flows, 1), max(n_edges, 1)),
    )
    cap = np.array(capacities, dtype=float)
    csr = coo.tocsr()
    csc = coo.tocsc()
    entry_col = csr.indices.astype(np.int64)
    row_indptr = csr.indptr.astype(np.int64)
    entry_row = np.repeat(
        np.arange(n_flows, dtype=np.int64), np.diff(row_indptr)[:n_flows]
    )
    col_entry = csc.indices.astype(np.int64)
    col_indptr = csc.indptr.astype(np.int64)
    return _Incidence(
        pairs, cap, entry_row, entry_col, row_indptr, col_entry, col_indptr
    )


def _maxmin_rates(topology: Topology, matching: Matching) -> np.ndarray:
    """Progressive filling: repeatedly saturate the tightest edge.

    Each round finds the edge with the smallest remaining
    capacity-per-active-flow, freezes every flow crossing it at that
    fair share, and subtracts the frozen bandwidth.  The fixed point is
    the (unique) max-min fair allocation over the shortest-path routes.
    Edge pressures are exact integer counts.  Rates come back in the
    matching's pair order (the incidence rows').
    """
    inc = _incidence(topology, matching)
    entry_row, entry_col = inc.entry_row, inc.entry_col
    n_flows, n_edges = inc.n_flows, inc.n_edges
    rates = np.zeros(n_flows)
    active = np.ones(n_flows, dtype=bool)
    remaining = inc.capacities.copy()
    while active.any():
        live = active[entry_row]
        pressure = np.bincount(entry_col[live], minlength=n_edges)
        share = np.where(pressure > 0, remaining / np.maximum(pressure, 1), np.inf)
        bottleneck = int(np.argmin(share))
        fair_share = float(share[bottleneck])
        members = inc.col_entry[
            inc.col_indptr[bottleneck] : inc.col_indptr[bottleneck + 1]
        ]
        saturated = np.zeros(n_flows, dtype=bool)
        saturated[members] = True
        saturated &= active
        rates[saturated] = fair_share
        frozen = np.bincount(entry_col[saturated[entry_row]], minlength=n_edges)
        remaining -= fair_share * frozen
        # Guard against float drift leaving tiny negative capacities.
        np.maximum(remaining, 0.0, out=remaining)
        active &= ~saturated
    return rates


def _equal_share_rates(topology: Topology, matching: Matching) -> np.ndarray:
    """Each flow: min over its path of capacity / flows-on-edge."""
    inc = _incidence(topology, matching)
    load = np.bincount(inc.entry_col, minlength=inc.n_edges)
    share = np.where(load > 0, inc.capacities / np.maximum(load, 1), np.inf)
    lengths = np.diff(inc.row_indptr)[: inc.n_flows]
    if (lengths == 0).any():
        raise SimulationError("flow with empty shortest path")
    return np.minimum.reduceat(share[inc.entry_col], inc.row_indptr[:-1])


def allocate_rates(
    topology: Topology,
    matching: Matching,
    reference_rate: float,
    method: str = "mcf",
    cache: ThroughputCache | None = default_cache,
) -> FlowRates:
    """Allocate a transmission rate to every pair of a step.

    Rates are in bits/second; ``hops`` is the pair's shortest-path
    length (the propagation term uses it).  The block is shared (see
    the module docstring); a disconnected pair raises on every call.
    """
    if method not in RATE_METHODS:
        raise SimulationError(
            f"unknown rate method {method!r}; choose from {RATE_METHODS}"
        )
    if len(matching) == 0:
        return FlowRates()
    rate = None
    if method == "mcf":
        theta = compute_theta(
            topology, matching, reference_rate=reference_rate, cache=cache
        )
        if theta == 0.0:
            raise SimulationError(
                f"pattern is not routable on topology {topology.name!r}"
            )
        rate = theta * reference_rate

    def build() -> FlowRates:
        rates = (
            rate if rate is not None
            else _maxmin_rates(topology, matching) if method == "maxmin"
            else _equal_share_rates(topology, matching)
        )
        hops = [topology.hop_distance(src, dst) for src, dst in matching]
        return FlowRates.over(matching, rates, np.array(hops, np.float64))

    key = (topology.fingerprint(), matching, method, rate)
    return _BLOCKS.get_or_compute(key, build)
