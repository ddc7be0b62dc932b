"""Closed-form throughput for structured (topology, pattern) pairs.

For the experiment workhorses — uniform shifts on rings, XOR exchanges
on hypercubes — the maximum concurrent flow has an exact closed form.
Using it avoids thousands of LP solves in the figure sweeps; the LP is
retained as ground truth and the test suite asserts agreement.

Derivations
-----------
*Unidirectional ring, shift k* (capacity ``c`` per edge, in reference
units): the only path for ``i -> i+k`` is the k-hop clockwise arc, every
edge carries exactly k commodities, so ``theta = c / k``.

*Bidirectional ring, shift k* (capacity ``c`` per direction): averaging
any optimum over the rotation group yields a symmetric split — fraction
``p`` clockwise (k hops), ``1-p`` counter-clockwise (n-k hops).  Loads
are ``p*k`` clockwise and ``(1-p)*(n-k)`` counter-clockwise per unit
theta; equalizing gives ``p = (n-k)/n`` and

    theta = c * n / (k * (n - k)).

*Hypercube, XOR exchange at distance 2^j* (capacity ``c`` per link):
every pair is adjacent along dimension j and owns that link exclusively,
so ``theta = c``.

Batch kernels
-------------
The scalar :func:`try_closed_form_theta` costs one Python loop over the
matching's pairs per call; a grid sweep makes thousands of such calls.
The ``*_batch`` functions below evaluate a whole family of matchings on
one topology in a single numpy pass: matchings are packed into a
``(batch, n)`` destination array once, pattern detection is a vectorized
comparison against the expected shift/XOR grid, and the formulas are
elementwise arithmetic.  :func:`closed_form_theta_batch` returns ``nan``
where no formula applies, so callers route those rows to the LP — see
:func:`repro.flows.theta_batch` for the full grouped entry point.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import FlowError
from ..matching import Matching
from ..topology.base import Topology

__all__ = [
    "detect_uniform_shift",
    "ring_shift_theta",
    "try_closed_form_theta",
    "matchings_to_dst_array",
    "detect_uniform_shift_batch",
    "detect_uniform_xor_batch",
    "closed_form_theta_batch",
]


def detect_uniform_shift(matching: Matching) -> int | None:
    """Return ``k`` if the matching is the full shift ``i -> (i+k) mod n``.

    Returns ``None`` for partial matchings or non-shift permutations.
    """
    n = matching.n
    if len(matching) != n:
        return None
    first = matching.dst_of(0)
    if first is None:
        return None
    k = first % n
    if k == 0:
        return None
    for src, dst in matching:
        if (src + k) % n != dst:
            return None
    return k


def _detect_uniform_xor(matching: Matching) -> int | None:
    """Return ``d`` if the matching is the full exchange ``i -> i XOR d``."""
    n = matching.n
    if len(matching) != n:
        return None
    first = matching.dst_of(0)
    if first is None or first == 0:
        return None
    d = first
    for src, dst in matching:
        if src ^ d != dst:
            return None
    return d


def ring_shift_theta(
    n: int,
    shift: int,
    per_direction_fraction: float,
    bidirectional: bool,
) -> float:
    """Exact theta for a uniform shift on a ring.

    ``per_direction_fraction`` is the per-direction edge capacity as a
    fraction of the reference rate (0.5 for the default bidirectional
    ring, 1.0 for the unidirectional ring).
    """
    k = shift % n
    if k == 0:
        return float("inf")
    if bidirectional:
        return per_direction_fraction * n / (k * (n - k))
    return per_direction_fraction / k


def rate_factor(topology: Topology, reference_rate):
    """The factor taking a closed form, which is normalized by the
    topology's recorded ``reference_rate``, to one normalized by
    ``reference_rate`` (a float or an array of them).  Exactly ``1.0``
    where the two agree, so rescaling never moves such a value."""
    recorded = topology.metadata.get("reference_rate")
    return 1.0 if recorded is None else float(recorded) / reference_rate


def try_closed_form_theta(topology: Topology, matching: Matching) -> float | None:
    """Closed-form theta when topology metadata and pattern allow it.

    Returns ``None`` when no closed form applies; callers then fall back
    to the LP.  Capacities are taken relative to the topology's recorded
    reference rate, so the result matches
    :func:`repro.flows.max_concurrent_flow` with the same reference.
    """
    if len(matching) == 0:
        return float("inf")
    meta = topology.metadata
    family = meta.get("family")
    if family == "ring" and matching.n == topology.n_ranks:
        shift = detect_uniform_shift(matching)
        if shift is None:
            return None
        return ring_shift_theta(
            matching.n,
            shift,
            float(meta["per_direction_fraction"]),
            bool(meta["bidirectional"]),
        )
    if (
        family == "coprime_rings"
        and matching.n == topology.n_ranks
        and len(meta.get("shifts", ())) == 1
    ):
        # A single shift-s ring with gcd(s, n) = 1 is isomorphic to the
        # unit ring under relabeling i -> i * s^-1: the shift-k pattern
        # becomes shift-(k * s^-1 mod n).
        k = detect_uniform_shift(matching)
        if k is None:
            return None
        (s,) = meta["shifts"]
        n = matching.n
        try:
            t = (k * pow(int(s), -1, n)) % n
        except ValueError:  # s not invertible mod n: not a single cycle
            return None
        if t == 0:
            return None
        bidirectional = bool(meta.get("bidirectional", False))
        fraction = 0.5 if bidirectional else 1.0
        return ring_shift_theta(n, t, fraction, bidirectional)
    if family == "hypercube" and matching.n == topology.n_ranks:
        distance = _detect_uniform_xor(matching)
        if distance is None or distance & (distance - 1) != 0:
            return None
        dims = int(meta["dims"])
        return 1.0 / dims
    if family == "matched":
        # A matched topology routes its own pattern at full rate when
        # every pair owns a dedicated edge and no alternate route exists
        # (out/in degree one); otherwise the LP must arbitrate.
        dedicated = all(
            topology.has_edge(src, dst)
            and topology.out_degree(src) == 1
            and topology.in_degree(dst) == 1
            for src, dst in matching
        )
        if dedicated:
            reference = float(meta["reference_rate"])
            return min(
                topology.capacity(src, dst) / reference for src, dst in matching
            )
        return None
    return None


# -- batch kernels -----------------------------------------------------------


def matchings_to_dst_array(
    matchings: "list[Matching] | tuple[Matching, ...]", n: int
) -> np.ndarray:
    """Pack matchings into a ``(batch, n)`` destination array.

    Row ``b`` holds ``dst[b, src] = matching.dst_of(src)`` with ``-1``
    for idle ranks.  Every matching must be over exactly ``n`` ranks.
    Rows stack each matching's cached :attr:`~repro.matching.Matching.
    dst_row`, so repeated matchings (grids re-price the same patterns
    across cells) pack at numpy speed after their first appearance.
    """
    for matching in matchings:
        if matching.n != n:
            raise FlowError(
                f"matching over {matching.n} ranks in a batch packed for n={n}"
            )
    if not matchings:
        return np.empty((0, n), dtype=np.int64)
    return np.stack([matching.dst_row for matching in matchings])


def detect_uniform_shift_batch(dst: np.ndarray) -> np.ndarray:
    """Vectorized :func:`detect_uniform_shift` over a packed batch.

    Returns a ``(batch,)`` int64 array holding the shift ``k`` of every
    row that is a full ``i -> (i + k) mod n`` permutation, and ``0``
    elsewhere (``k = 0`` is never a valid shift, so zero doubles as the
    "not a shift" sentinel — exactly the rows where the scalar detector
    returns ``None``).
    """
    _, n = dst.shape
    full = (dst >= 0).all(axis=1)
    k = np.where(full, dst[:, 0] % n, 0)
    expect = (np.arange(n, dtype=np.int64)[None, :] + k[:, None]) % n
    ok = full & (k != 0) & (dst == expect).all(axis=1)
    return np.where(ok, k, 0)


def detect_uniform_xor_batch(dst: np.ndarray) -> np.ndarray:
    """Vectorized ``i -> i XOR d`` detection over a packed batch.

    Returns a ``(batch,)`` int64 array holding ``d`` for full uniform
    XOR exchanges and ``0`` elsewhere.
    """
    _, n = dst.shape
    full = (dst >= 0).all(axis=1)
    d = np.where(full, np.maximum(dst[:, 0], 0), 0)
    expect = np.arange(n, dtype=np.int64)[None, :] ^ d[:, None]
    ok = full & (d != 0) & (dst == expect).all(axis=1)
    return np.where(ok, d, 0)


def _matched_theta_batch(
    topology: Topology, dst: np.ndarray, reference: float
) -> np.ndarray:
    """Batch evaluation of the dedicated-circuit closed form.

    Builds the dense capacity matrix and degree vectors once, then
    checks every row's pairs with one gather: a row is dedicated when
    every pair owns an exclusive edge (out/in degree one at both ends).
    Returns ``nan`` for rows the LP must arbitrate.
    """
    batch, n = dst.shape
    nodes = topology.nodes
    if len(nodes) != n or any(
        not isinstance(node, int) or not 0 <= node < n for node in nodes
    ):
        # Relay nodes (or exotic node ids) fall back to the scalar path.
        out = np.full(batch, np.nan)
        for row in range(batch):
            pairs = [(s, int(d)) for s, d in enumerate(dst[row]) if d >= 0]
            value = try_closed_form_theta(topology, Matching(n, pairs))
            out[row] = np.nan if value is None else value
        return out
    caps = np.zeros((n, n))
    for u, v, capacity in topology.edges():
        caps[u, v] = capacity
    out_degree = (caps > 0).sum(axis=1)
    in_degree = (caps > 0).sum(axis=0)
    valid = dst >= 0
    safe_dst = np.where(valid, dst, 0)
    src = np.arange(n, dtype=np.int64)[None, :]
    pair_caps = caps[src, safe_dst]
    pair_ok = (
        (pair_caps > 0)
        & (out_degree[src] == 1)
        & (in_degree[safe_dst] == 1)
    )
    dedicated = (pair_ok | ~valid).all(axis=1)
    slowest = np.where(valid, pair_caps, np.inf).min(axis=1) / reference
    return np.where(dedicated, slowest, np.nan)


def closed_form_theta_batch(
    topology: Topology, matchings: "list[Matching] | tuple[Matching, ...]"
) -> np.ndarray:
    """Evaluate :func:`try_closed_form_theta` for a whole batch at once.

    One numpy pass over all matchings of ``topology``'s family; entries
    are ``nan`` exactly where the scalar function returns ``None`` (no
    closed form — route those to the LP), ``inf`` for empty matchings,
    and bit-identical to the scalar values everywhere else (the same
    IEEE operations run elementwise).
    """
    if not matchings:
        return np.empty(0)
    # Theta depends only on (topology, matching), so duplicate rows —
    # the common case when a grid re-prices the same patterns across
    # cells — are detected once and scattered back.  The id() memo keeps
    # repeated *objects* (grids reuse step matchings) off the slower
    # value-equality dict.
    by_id: dict = {}
    by_value: dict = {}
    row_of = np.empty(len(matchings), dtype=np.intp)
    unique: list = []
    for index, matching in enumerate(matchings):
        position = by_id.get(id(matching))
        if position is None:
            position = by_value.setdefault(matching, len(unique))
            if position == len(unique):
                unique.append(matching)
            by_id[id(matching)] = position
        row_of[index] = position
    if len(unique) < len(matchings):
        return closed_form_theta_batch(topology, unique)[row_of]
    n = matchings[0].n
    dst = matchings_to_dst_array(matchings, n)
    out = np.full(len(matchings), np.nan)
    empty = ~(dst >= 0).any(axis=1)
    out[empty] = np.inf
    meta = topology.metadata
    family = meta.get("family")
    if family == "ring" and n == topology.n_ranks:
        k = detect_uniform_shift_batch(dst)
        fraction = float(meta["per_direction_fraction"])
        if bool(meta["bidirectional"]):
            theta = fraction * n / np.where(k > 0, k * (n - k), 1)
        else:
            theta = fraction / np.where(k > 0, k, 1)
        out = np.where(k > 0, theta, out)
    elif (
        family == "coprime_rings"
        and n == topology.n_ranks
        and len(meta.get("shifts", ())) == 1
    ):
        k = detect_uniform_shift_batch(dst)
        (s,) = meta["shifts"]
        try:
            inverse = pow(int(s), -1, n)
        except ValueError:  # s not invertible mod n: not a single cycle
            return out
        t = (k * inverse) % n
        bidirectional = bool(meta.get("bidirectional", False))
        fraction = 0.5 if bidirectional else 1.0
        if bidirectional:
            theta = fraction * n / np.where(t > 0, t * (n - t), 1)
        else:
            theta = fraction / np.where(t > 0, t, 1)
        out = np.where((k > 0) & (t > 0), theta, out)
    elif family == "hypercube" and n == topology.n_ranks:
        d = detect_uniform_xor_batch(dst)
        power_of_two = (d > 0) & (d & (d - 1) == 0)
        out = np.where(power_of_two, 1.0 / int(meta["dims"]), out)
    elif family == "matched":
        reference = float(meta["reference_rate"])
        values = _matched_theta_batch(topology, dst, reference)
        out = np.where(empty, out, np.where(np.isnan(values), out, values))
    return out
