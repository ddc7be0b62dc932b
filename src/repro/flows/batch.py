"""Batch-first theta evaluation: whole grids in one pass.

:func:`repro.flows.compute_theta` answers one ``theta(G, M)`` question
at a time; a figure grid or a service micro-batch asks thousands.
:func:`theta_batch` is the batch-first front door: scenarios are
grouped by topology (and reference rate), every group's closed-formable
patterns are evaluated in a single vectorized numpy pass
(:func:`repro.flows.closed_forms.closed_form_theta_batch`), and only
the leftover rows fall back to per-item evaluation through the same
exact route (pod blocks, else the LP).

Values are published through the same
:class:`~repro.flows.cache.ThroughputCache` keys and tags the scalar
path uses, so batch and scalar evaluation interoperate: a grid
pre-warmed here is served from cache when the planner later asks for
the same pattern one call at a time, bit-identically.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..exceptions import FlowError
from ..matching import Matching
from ..topology.base import Topology
from .cache import ThroughputCache, default_cache, theta_tag
from .closed_forms import closed_form_theta_batch, rate_factor

__all__ = ["theta_batch", "prewarm_closed_forms"]

#: Topology families with a vectorized closed-form kernel.
CLOSED_FORM_FAMILIES = ("ring", "coprime_rings", "hypercube", "matched")


def _resolve_rate(topology: Topology, reference_rate: float | None) -> float:
    if reference_rate is None:
        reference_rate = topology.metadata.get("reference_rate")
        if reference_rate is None:
            raise FlowError(
                "reference_rate not given and topology metadata has none"
            )
    return float(reference_rate)


def theta_batch(
    topologies: "Topology | Sequence[Topology]",
    matchings: Sequence[Matching],
    reference_rate: "float | Sequence[float] | None" = None,
    method: str = "auto",
    cache: ThroughputCache | None = default_cache,
) -> np.ndarray:
    """Evaluate ``theta`` for a whole grid of scenarios at once.

    ``result[i]`` equals ``compute_theta(topologies[i], matchings[i],
    reference_rate[i], method)`` for every row — same values (to the
    bit), same cache keys, same statistics discipline — but the
    evaluation is batch-first: rows sharing a topology are detected and
    priced through one vectorized closed-form pass instead of one
    Python call each.

    Parameters
    ----------
    topologies:
        One topology shared by every row, or a sequence aligned with
        ``matchings``.
    matchings:
        The per-row communication patterns.
    reference_rate:
        One normalizer for every row, a per-row sequence, or ``None``
        to read each topology's recorded ``reference_rate`` metadata.
    method:
        ``"auto"`` (exact), ``"sp"`` or ``"proxy"`` (bounds), as for
        :func:`~repro.flows.compute_theta`; the closed-form vector pass
        only prices rows under ``"auto"``.
    cache:
        Shared memo; every row is published under the scalar path's
        key and tag.  ``None`` disables caching.

    Returns
    -------
    numpy.ndarray
        ``float64`` theta values, one per row (``inf`` for empty
        matchings).
    """
    from . import compute_theta  # local: flows.__init__ imports this module

    matchings = list(matchings)
    n_rows = len(matchings)
    if isinstance(topologies, Topology):
        topologies = [topologies] * n_rows
    else:
        topologies = list(topologies)
    if len(topologies) != n_rows:
        raise FlowError(
            f"{len(topologies)} topologies for {n_rows} matchings; "
            "theta_batch rows are (topology, matching) pairs"
        )
    if reference_rate is None or isinstance(reference_rate, (int, float)):
        rates = [
            _resolve_rate(topology, reference_rate) for topology in topologies
        ]
    else:
        rates = [float(rate) for rate in reference_rate]
        if len(rates) != n_rows:
            raise FlowError(
                f"{len(rates)} reference rates for {n_rows} rows"
            )

    out = np.empty(n_rows)
    rate_arr = np.asarray(rates)
    # Group rows by structural identity so each distinct topology gets
    # one vectorized pass.  Rows are bucketed by object id — the
    # fingerprint (itself O(edges) to compute and O(size) to hash) is
    # taken once per distinct object, not once per row.
    groups: dict[object, list[int]] = {}
    buckets: dict[int, list[int]] = {}
    for index, topology in enumerate(topologies):
        bucket = buckets.get(id(topology))
        if bucket is None:
            bucket = groups.setdefault(topology.fingerprint(), [])
            buckets[id(topology)] = bucket
        bucket.append(index)

    for indices in groups.values():
        topology = topologies[indices[0]]
        group_matchings = [matchings[i] for i in indices]
        closed = None
        if (
            method == "auto"
            and topology.metadata.get("family") in CLOSED_FORM_FAMILIES
        ):
            closed = closed_form_theta_batch(topology, group_matchings)
        if closed is None:
            fallback = indices
        else:
            index_arr = np.asarray(indices, dtype=np.intp)
            closed = closed * rate_factor(topology, rate_arr[index_arr])
            priced = ~np.isnan(closed)
            if cache is None:
                # No publication step: scatter the whole vector at once.
                out[index_arr[priced]] = closed[priced]
            else:
                tags: dict[float, str] = {}
                for position in np.nonzero(priced)[0].tolist():
                    index = indices[position]
                    rate = rates[index]
                    tag = tags.get(rate)
                    if tag is None:
                        tag = tags[rate] = theta_tag(rate)
                    out[index] = cache.get_or_compute(
                        topology,
                        matchings[index],
                        lambda v=float(closed[position]): v,
                        tag=tag,
                    )
            fallback = index_arr[~priced].tolist()
        for index in fallback:
            out[index] = compute_theta(
                topology,
                matchings[index],
                reference_rate=rates[index],
                method=method,
                cache=cache,
            )
    return out


def prewarm_closed_forms(
    topology: Topology,
    matchings: Sequence[Matching],
    reference_rate: float | None = None,
    cache: ThroughputCache | None = default_cache,
) -> int:
    """Seed ``cache`` with every closed-formable pattern of a family.

    One vectorized pass prices all of ``matchings`` that have a closed
    form and publishes them under the scalar path's cache tags; rows
    without a formula are left untouched (their LP solves stay with
    whoever asks for them).  Returns the number of rows seeded.
    :func:`repro.engine.plan_many` calls this before fanning a grid
    out, so the per-step scalar lookups inside the planner all hit.
    """
    if cache is None or not matchings:
        return 0
    if topology.metadata.get("family") not in CLOSED_FORM_FAMILIES:
        return 0
    rate = _resolve_rate(topology, reference_rate)
    values = closed_form_theta_batch(topology, list(matchings))
    values = values * rate_factor(topology, rate)
    seeded = 0
    for matching, value in zip(matchings, values):
        if np.isnan(value):
            continue
        cache.seed(
            topology,
            matching,
            float(value),
            tag=theta_tag(rate),
        )
        seeded += 1
    return seeded
